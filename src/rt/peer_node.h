// A live T-Chain peer: one actor on the reactor running the real protocol
// over real sockets. It listens for neighbors, announces to the tracker,
// and drives the full fair-exchange machinery byte-for-byte through
// src/core and src/crypto — encrypted offers (DonorSession / ChaCha20),
// HMAC receipts, key releases, payee designation and §II-B4 reassignment,
// k-pending flow control, newcomer bootstrap forwarding (§II-D1), and
// opportunistic seeding (§II-D3).
//
// Trace discipline (what src/check verifies): every node emits into the
// shared SwarmContext trace with the same event grammar as the simulator —
// kChainStart before the head's kTxOpen, kTxOpen before its kChainExtend,
// kPieceSent at the donor and kPieceDelivered at the receiver, receipts
// only after the delivery event, kChainBreak before any gratis
// kKeyDelivered, and terminal transactions closed by the *receiver* after
// delivery (closing at send would retire the open upload before the
// checker can match the delivery that pays for the previous transaction).
//
// Key cascade: a banked ciphertext may be re-encrypted and forwarded to
// the payee as a newcomer's reciprocation. This is correct only because
// crypto::piece_xor is a pure XOR keystream, so layered keys commute: the
// banked buffer is progressively decrypted by whichever keys arrive, in
// any order, and completion is detected by the piece hash matching. A
// forward snapshots the current buffer, so only keys arriving afterwards
// need to cascade downstream.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/bt/bitfield.h"
#include "src/core/exchange.h"
#include "src/core/pending.h"
#include "src/core/policy.h"
#include "src/crypto/cipher.h"
#include "src/net/message.h"
#include "src/rt/frame_conn.h"
#include "src/rt/reactor.h"
#include "src/rt/swarm_context.h"
#include "src/util/rng.h"

namespace tc::rt {

class PeerNode : public Reactor::Handler, public FrameConn::Delegate {
 public:
  struct Options {
    net::PeerId id = net::kNoPeer;
    bool seeder = false;
    std::uint16_t tracker_port = 0;
    double announce_interval = 0.1;
    double tick_interval = 0.02;
    // Donor-side per-transaction watchdog: receipt not in by then triggers
    // payee reassignment (§II-B4); after max_retries the key settles
    // gratis (if the requestor is still reachable) so banked ciphertexts
    // never wedge a localhost swarm.
    double watchdog_seconds = 0.2;
    int max_retries = 2;
    int pending_cap = 2;       // flow-control k (§II-D2)
    std::size_t seeder_slots = 8;  // concurrent chains a (quasi-)seeder runs
    std::uint64_t seed = 1;
    std::function<void(net::PeerId)> on_complete;  // fires once at 100%
  };

  PeerNode(SwarmContext& ctx, const Options& opts);
  ~PeerNode() override;

  PeerNode(const PeerNode&) = delete;
  PeerNode& operator=(const PeerNode&) = delete;

  // Joins the swarm: emits kPeerJoin, dials the tracker, arms timers.
  void start();

  net::PeerId id() const { return opts_.id; }
  bool seeder() const { return opts_.seeder; }
  std::uint16_t port() const { return listener_.port(); }
  bool complete() const { return have_.complete(); }
  double finish_time() const { return finish_t_; }  // -1 until complete
  std::size_t pieces_have() const { return have_.count(); }
  // Donor transactions still awaiting settlement (drain gauge for clean
  // shutdown).
  std::size_t open_donor_txs() const;

  // Reactor::Handler — the listening socket.
  void on_readable() override;

  // FrameConn::Delegate.
  void on_conn_open(FrameConn& c) override;
  void on_message(FrameConn& c, net::Message m) override;
  void on_conn_closed(FrameConn& c) override;

 private:
  struct Neighbor {
    FrameConn* conn = nullptr;
    bt::Bitfield have;
    bt::Bitfield claimed;  // have ∪ pieces we already sent them
    bool ready = false;    // handshake completed
  };
  // Donor side of one transaction we opened.
  struct DonorTx {
    std::unique_ptr<core::DonorSession> session;
    std::uint64_t chain = 0;
    net::PeerId requestor = net::kNoPeer;
    net::PieceIndex piece = net::kNoPiece;
    net::TxId forward_of = 0;  // banked tx this forwards (§II-D1); 0 = normal
    int retries = 0;
    Reactor::TimerId watchdog = 0;
    bool closed = false;
  };
  // Requestor side: a banked ciphertext awaiting keys.
  struct BankedTx {
    std::uint64_t chain = 0;
    net::PeerId donor = net::kNoPeer;
    net::PeerId payee = net::kNoPeer;
    net::PieceIndex piece = net::kNoPiece;
    util::Bytes buffer;  // progressively decrypted (XOR keystream commutes)
    std::vector<util::Bytes> applied_keys;
    std::vector<net::TxId> forwarded_as;  // our donor txs forwarding this
    bool done = false;          // hash matched — every key arrived
    bool reciprocated = false;  // obligation discharged (or waived)
  };
  // Payee side: a donor told us to expect a reciprocation (PayeeNotify).
  struct PayeeDuty {
    net::TxId tx = 0;
    std::uint64_t chain = 0;
    net::PeerId donor = net::kNoPeer;
    net::PeerId requestor = net::kNoPeer;
    net::PieceIndex piece = net::kNoPiece;
  };
  // A reciprocation that arrived before its PayeeNotify (different TCP
  // connections give no cross-pair ordering).
  struct StashedRecip {
    net::PeerId uploader = net::kNoPeer;
    net::PeerId prev_donor = net::kNoPeer;
    net::PieceIndex prev_piece = net::kNoPiece;
    net::PieceIndex piece = net::kNoPiece;
  };

  // Timers.
  void announce_tick();
  void tick();
  void on_watchdog(net::TxId tx);
  void arm_watchdog(DonorTx& d, net::TxId tx);

  // Wire handlers.
  void handle_handshake(FrameConn& c, const net::HandshakeMsg& m);
  void handle_bitfield(FrameConn& c, const net::BitfieldMsg& m);
  void handle_have(FrameConn& c, const net::HaveMsg& m);
  void handle_peer_list(const net::PeerListMsg& m);
  void handle_encrypted(const net::EncryptedPieceMsg& m);
  void handle_plain(const net::PlainPieceMsg& m);
  void handle_receipt(const net::ReceiptMsg& m);
  void handle_key_release(const net::KeyReleaseMsg& m);
  void handle_payee_notify(const net::PayeeNotifyMsg& m);
  void handle_payee_reassign(const net::PayeeReassignMsg& m);

  // Protocol engine.
  void dial_tracker();
  void maybe_dial(net::PeerId peer, std::uint16_t port);
  void match_duty_or_stash(net::PeerId uploader, net::PieceIndex piece,
                           net::PeerId prev_donor, net::PieceIndex prev_piece);
  void send_receipt(const PayeeDuty& duty, net::PeerId uploader,
                    net::PieceIndex piece_received);
  void try_reciprocate(net::TxId banked_tx, BankedTx& b);
  // Opens a transaction toward `requestor`. chain == 0 starts a new chain.
  // forward_of != 0 re-encrypts that banked buffer instead of a stored
  // piece (§II-D1). Returns false when the open must be deferred.
  bool start_tx(net::PeerId requestor, net::PieceIndex piece,
                std::uint64_t chain, net::PeerId prev_donor,
                net::PieceIndex prev_piece, net::TxId forward_of);
  void maybe_start_chains();
  void settle_gratis(net::TxId tx, DonorTx& d, obs::ChainBreakCause cause);
  void grant_piece(net::PieceIndex piece, const util::Bytes& data,
                   net::PeerId source);

  core::PayeeQuery payee_query(net::PeerId requestor,
                               net::PieceIndex piece) const;
  Neighbor* ready_neighbor(net::PeerId peer);
  const Neighbor* ready_neighbor(net::PeerId peer) const;
  // Rarest-first piece we have that `claimed` lacks (random tie-break);
  // kNoPiece if none.
  net::PieceIndex lrf_unclaimed(const bt::Bitfield& claimed);
  void count(const char* name);

  SwarmContext& ctx_;
  Reactor& reactor_;
  Options opts_;
  Listener listener_;

  std::map<FrameConn*, std::unique_ptr<FrameConn>> conns_;
  FrameConn* tracker_ = nullptr;
  std::map<net::PeerId, Neighbor> neighbors_;
  std::map<net::PeerId, std::uint16_t> endpoints_;
  std::set<net::PeerId> dialing_;

  bt::Bitfield have_;
  std::vector<util::Bytes> store_;  // plaintext pieces (empty = missing)
  core::PendingTracker pending_;
  std::map<net::TxId, DonorTx> donor_;
  std::map<net::TxId, BankedTx> banked_;
  std::vector<PayeeDuty> duties_;
  std::vector<StashedRecip> stash_;
  std::vector<std::uint64_t> my_chains_;  // chains this node initiated

  util::Rng rng_;
  crypto::KeySource keys_;
  Reactor::TimerId announce_timer_ = 0;
  Reactor::TimerId tick_timer_ = 0;
  double finish_t_ = -1.0;
};

}  // namespace tc::rt
