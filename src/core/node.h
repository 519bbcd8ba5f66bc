// The T-Chain peer engine: one peer's whole protocol (§II) as a state
// machine with no clock and no socket. Its owner feeds it inputs — a
// message from neighbour P, neighbour up/down, a fired watchdog — that
// record and answer at once, then calls advance() to decide, once per
// batch, so decisions see every HAVE in it. Outputs go through
// Node::Effects: send to P, arm or cancel a per-transaction watchdog, emit
// a trace event, bump a counter. rt::PeerNode drives it over loopback TCP;
// tests drive it over an in-memory bus whose clock only fires watchdogs.
//
// Local knowledge only. A node decides from its own neighbour set, their
// have sets and its pending counts, as a real peer would. Transaction and
// chain ids are namespaced per initiator ((peer << 32) | local counter),
// so no allocator is shared. A node never asks whether a chain is still
// alive: a requestor reciprocates into a chain another peer has already
// broken, and the checker allows that extend. The chain budget
// (core::chain_budget) counts the node's own open donor transactions: a
// (quasi-)seeder keeps up to seeder_slots open ("as many chains as
// possible given its upload capacity", footnote 3), an opportunistic
// leecher starts one only when it has none open (§II-D3).
//
// Trace discipline: the rules are src/check's (DESIGN.md §4d, tx-lifecycle
// and fair-exchange). Two orderings here exist for them. A terminal
// transaction is closed by the *receiver* after delivery: closing at send
// would close it before the delivery that pays for the previous
// transaction. And kChainBreak precedes a gratis kKeyDelivered, because a
// key released without reciprocation is sanctioned only once the chain is
// in teardown. Several peers may each see a chain end, so a node may emit
// a second kChainBreak for a chain; the trace owner keeps only the first
// (rt::SwarmContext::emit).
//
// Key cascade: a banked ciphertext may be re-encrypted and forwarded to
// the payee as a newcomer's reciprocation. This is correct only because
// crypto::piece_xor is a pure XOR keystream, so layered keys commute: the
// banked buffer is progressively decrypted by whichever keys arrive, in
// any order, and completion is detected by the piece hash matching. A
// forward snapshots the current buffer, so only keys arriving afterwards
// need to cascade downstream. Once the node holds the piece by another
// path, a key is still recorded and cascaded but no longer peeled off or
// hashed, and the buffer is freed (counted as rt.keys_held).
//
// Payee re-selection (§II-B4): advance() re-runs payee selection for every
// transaction whose payee can no longer be paid — it is complete (the
// donor itself, as its own payee) or down — and settles gratis when no
// qualified payee is left. These re-selections emit kTxRetry with the
// cause in aux and use up no watchdog retry; the watchdog stays a safety
// net for receipts that never come. A receipt from an earlier payee of the
// transaction still settles it (DonorSession::accept_receipt).
//
// Receipts: an offer's back-reference names the transaction it pays for
// and that transaction's donor, so the payee receipts it on delivery and
// keeps no list of expected payments; DonorSession::accept_receipt judges.
//
// Sender validation: an offer (encrypted or plain) is accepted only from
// the donor it names; a KeyRelease or PayeeReassign only from the donor of
// the banked transaction it names. A bystander can neither poison a banked
// buffer with a garbage key nor waive or redirect another donor's
// reciprocation.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <tuple>
#include <utility>
#include <vector>

#include "src/bt/bitfield.h"
#include "src/core/exchange.h"
#include "src/core/pending.h"
#include "src/core/policy.h"
#include "src/crypto/cipher.h"
#include "src/crypto/sha256.h"
#include "src/net/message.h"
#include "src/obs/trace.h"
#include "src/util/rng.h"

namespace tc::core {

// The "file" being swarmed: deterministic pseudo-random pieces plus their
// SHA-256 hashes (the .torrent piece table).
struct SwarmFileMeta {
  std::uint32_t piece_count = 0;
  std::uint32_t piece_bytes = 0;
  std::vector<util::Bytes> pieces;
  std::vector<crypto::Digest256> hashes;

  static SwarmFileMeta make(std::uint32_t piece_count,
                            std::uint32_t piece_bytes, std::uint64_t seed);
};

class Node {
 public:
  struct Options {
    net::PeerId id = net::kNoPeer;
    bool seeder = false;
    // Open donor txs a (quasi-)seeder keeps; tests lower it to isolate
    // one transaction.
    std::size_t seeder_slots = kSeederChainSlots;
    std::uint64_t seed = 1;
  };

  // The engine's outputs. Calls never re-enter the engine.
  class Effects {
   public:
    virtual ~Effects() = default;
    virtual void send(net::PeerId to, net::Message m) = 0;
    // (Re-)arms transaction `tx`'s watchdog; when it fires the owner
    // calls on_watchdog(tx).
    virtual void arm_watchdog(net::TxId tx) = 0;
    virtual void cancel_watchdog(net::TxId tx) = 0;
    // The owner stamps the time.
    virtual void emit(const obs::TraceEvent& e) = 0;
    virtual void count(const char* name) = 0;
  };

  // `meta` must outlive the node.
  Node(const SwarmFileMeta& meta, const Options& opts, Effects& out);

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  // Inputs.
  // A connection to `peer` finished its handshake; the node sends it the
  // bitfield.
  void on_neighbor_up(net::PeerId peer);
  void on_neighbor_down(net::PeerId peer);
  // Ignores messages from peers that are not up. Throws std::exception on
  // a malformed message; the owner should then drop that neighbour.
  void on_message(net::PeerId from, net::Message m);
  void on_watchdog(net::TxId tx);
  // Call once after each batch of inputs: re-selects unpayable payees,
  // pays banked debts, starts chains.
  void advance();

  bool complete() const { return have_.complete(); }
  // Plaintext of a held piece (empty while missing).
  const util::Bytes& piece(net::PieceIndex p) const {
    return opts_.seeder ? meta_.pieces[p] : store_[p];
  }
  // Donor transactions still awaiting settlement.
  std::size_t open_donor_txs() const { return donor_.size(); }
  // Ciphertext bytes held in transaction state (outside the piece store).
  std::size_t payload_bytes() const;

 private:
  // progress_, payee, payee's have count: what unsticks a debt.
  using PayStamp = std::tuple<std::uint64_t, net::PeerId, std::size_t>;
  struct Neighbor {
    bt::Bitfield have;
    bt::Bitfield claimed;  // have ∪ pieces we already sent them
  };
  // Donor side of one transaction we opened. The session keeps the offer's
  // metadata and the key; the ciphertext left with the offer.
  struct DonorTx {
    DonorSession session;
    int retries = 0;
  };
  // Requestor side: a ciphertext awaiting keys.
  struct BankedTx {
    std::uint64_t chain = 0;
    net::PeerId donor = net::kNoPeer;
    net::PeerId payee = net::kNoPeer;
    net::PieceIndex piece = net::kNoPiece;
    // Progressively decrypted (XOR keystream layers commute); moved into
    // the piece store once the hash matches, freed once the piece is held
    // by another path.
    util::Bytes buffer;
    std::vector<util::Bytes> applied_keys;
    // Our donor txs forwarding this buffer, with their requestors.
    std::vector<std::pair<net::TxId, net::PeerId>> forwarded_as;
    bool done = false;          // hash matched — every key arrived
    bool reciprocated = false;  // obligation discharged (or waived)
    std::optional<PayStamp> tried;  // at the last payment attempt
  };
  using DonorIt = std::map<net::TxId, DonorTx>::iterator;

  // Message handlers; `from` is an up neighbour.
  void handle(net::PeerId from, net::BitfieldMsg& m);
  void handle(net::PeerId from, net::HaveMsg& m);
  void handle(net::PeerId from, net::EncryptedPieceMsg& m);
  void handle(net::PeerId from, net::PlainPieceMsg& m);
  void handle(net::PeerId from, net::ReceiptMsg& m);
  void handle(net::PeerId from, net::KeyReleaseMsg& m);
  void handle(net::PeerId from, net::PayeeReassignMsg& m);
  // Handshakes and tracker traffic belong to the owner.
  template <typename M>
  void handle(net::PeerId from, M& m) {
    (void)from;
    (void)m;
  }

  // Common head of an offer (encrypted or plain): sender check, delivery
  // event, and the payee side — the receipt for the transaction it
  // reciprocates. False when the offer is rejected.
  template <typename Offer>
  bool accept_offer(net::PeerId from, const Offer& m);
  void try_reciprocate(net::TxId banked_tx, BankedTx& b);
  // Opens a transaction toward `requestor`. chain == 0 starts a new chain.
  // forward_of != 0 re-encrypts that banked buffer instead of a stored
  // piece (§II-D1). Returns false when the open must be deferred.
  bool start_tx(net::PeerId requestor, net::PieceIndex piece,
                std::uint64_t chain, net::PeerId prev_donor,
                net::TxId prev_tx, net::TxId forward_of);
  void maybe_start_chains();
  // §II-B4 for one open transaction: reassigns the payee, or settles gratis
  // when no qualified payee is left; re-arms the watchdog if still open.
  void reselect_payee(DonorIt it);
  void settle_gratis(DonorIt it, obs::ChainBreakCause cause);
  // Releases the key to the requestor (or records it lost when the
  // requestor is gone), resolves its pending slot and closes the
  // transaction. `waive` also tells the requestor its obligation is void.
  void release_key(DonorIt it, bool waive);
  void grant_piece(net::PieceIndex piece, util::Bytes data,
                   net::PeerId source);

  // §II-B2 payee for an upload of `piece` to `requestor` (core::policy);
  // kNoPeer when none qualifies.
  net::PeerId choose_payee(net::PeerId requestor, net::PieceIndex piece);
  // A (quasi-)seeder: complete, so it starts chains up to seeder_slots.
  bool seeds() const { return opts_.seeder || have_.complete(); }
  Neighbor* neighbor(net::PeerId peer);
  const Neighbor* neighbor(net::PeerId peer) const;
  // Rarest-first piece we have that `claimed` lacks (random tie-break);
  // kNoPiece if none.
  net::PieceIndex lrf_unclaimed(const bt::Bitfield& claimed);
  // (id << 32) | ++counter.
  std::uint64_t next_id(std::uint32_t& counter) const;
  void emit_donor(obs::EventKind kind, const net::EncryptedPieceMsg& offer,
                  std::uint8_t aux = 0);
  void break_chain(std::uint64_t chain, obs::ChainBreakCause cause);

  const SwarmFileMeta& meta_;
  Options opts_;
  Effects& out_;

  std::map<net::PeerId, Neighbor> neighbors_;
  bt::Bitfield have_;
  // Plaintext pieces a leecher holds (empty = missing); a seeder serves
  // meta_.pieces and keeps this empty.
  std::vector<util::Bytes> store_;
  PendingTracker pending_;
  std::map<net::TxId, DonorTx> donor_;
  std::map<net::TxId, BankedTx> banked_;
  std::vector<net::TxId> debts_;  // banked txs not yet reciprocated
  std::uint64_t progress_ = 0;  // pieces granted + txs closed + neighbours up
  std::uint32_t tx_count_ = 0;
  std::uint32_t chain_count_ = 0;

  util::Rng rng_;
  crypto::KeySource keys_;
};

}  // namespace tc::core
