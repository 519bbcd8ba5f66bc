// T-Chain incentive protocol bound to the swarm simulator (paper §II).
//
// Chain lifecycle in the simulator:
//   * the seeder keeps core::kSeederChainSlots chains fed (initiation, Fig 1a);
//   * each delivered encrypted piece obliges its requestor to reciprocate
//     to the designated payee — that upload is the next transaction
//     (continuation, Fig 1b);
//   * the payee's receipt releases the previous donor's key (almost-fair
//     exchange);
//   * a donor that finds no qualified payee uploads unencrypted and the
//     chain terminates (Fig 1c);
//   * newcomer bootstrapping picks a piece requestor AND payee need
//     (§II-D1), flow control bans neighbors with >= k pending pieces
//     (§II-D2), idle leechers opportunistically seed new chains (§II-D3);
//   * free-riders simply never reciprocate; colluders send false receipts
//     for each other (§III-A4).
#pragma once

#include <vector>

#include "src/bt/protocol.h"
#include "src/bt/swarm.h"
#include "src/core/pending.h"
#include "src/core/transaction.h"

namespace tc::protocols {

using bt::PeerId;
using bt::PieceIndex;
using core::ChainId;
using core::TxId;

// Seconds between kCensusTick events, the sample points of the Fig 10/11
// active-chain series.
inline constexpr double kCensusPeriod = 5.0;

class TChainProtocol : public bt::Protocol {
 public:
  std::string name() const override { return "T-Chain"; }
  util::ByteCount default_piece_bytes() const override {
    return 64 * util::kKiB;
  }

  void on_run_start() override;
  void on_peer_join(PeerId id) override;
  void on_peer_depart(PeerId id) override;
  void on_peer_crash(PeerId id) override;

  // Introspection for tests. Every count the run produces lives in the
  // trace (obs::Trace::count, obs::ChainView, "tchain.*" registry
  // counters), so enable tracing to read them.
  const core::TransactionTable& transactions() const { return txs_; }

 private:
  struct PeerState {
    core::PendingTracker pending;
    std::size_t obligations = 0;     // encrypted pieces not yet reciprocated
    std::size_t active_uploads = 0;  // flows this peer is sourcing
    bool live = false;               // materialized and not yet departed
    explicit PeerState(int cap) : pending(cap) {}
  };

  // The peer's state, materialized on first touch.
  PeerState& state(PeerId id);
  // The peer's state if materialized, else null.
  PeerState* find_state(PeerId id) {
    return id < peers_.size() && peers_[id].live ? &peers_[id] : nullptr;
  }
  bool is_seeder(PeerId id) const;
  bool is_proven(PeerId id) const {
    return id < proven_.size() && proven_[id];
  }

  // Chain drivers.
  void census_loop();
  void opp_loop(PeerId id);
  void prune_banned_neighbors(PeerId id);
  void seeder_tick();
  void opportunistic_tick(PeerId id);
  // Starts chains until `donor` has its chain budget (core::chain_budget)
  // of uploads open, or no neighbour qualifies as a chain head.
  void start_chains(PeerId donor);
  bool initiate_chain(PeerId donor, bool by_seeder);

  // Starts the transaction `donor -> requestor` (reciprocating `prev` when
  // prev != 0). `forced_piece` overrides LRF (bootstrap forward).
  bool start_tx(PeerId donor, PeerId requestor, TxId prev, ChainId chain,
                PieceIndex forced_piece = net::kNoPiece);

  // Payee choice for an upload donor -> requestor of `piece`.
  PeerId choose_payee(PeerId donor, PeerId requestor, PieceIndex piece);

  void on_upload_done(TxId txid, bool ok);
  void handle_encrypted_delivery(core::Transaction& tx);
  void process_receipt(TxId prev_id);

  // Shared graceful/crash departure settlement; a crash forfeits the
  // §II-B4 escrow handoff (the donor is not around to hand the key over).
  void handle_exit(PeerId id, bool crashed);

  // Per-transaction watchdog (§II-B4 hardening): armed when a tx enters
  // AwaitKey; re-kicks a stalled exchange (lost receipt / lost
  // reassignment trigger) up to core::kTxMaxRetries times, then tears it
  // down so the requestor can re-fetch the piece elsewhere. Disabled when
  // cfg.tx_timeout == 0.
  void arm_watchdog(TxId txid, int retries);
  void watchdog_fire(TxId txid, int retries);

  // Ensures tx (AwaitKey) eventually gets reciprocated: (re)starts the
  // reciprocation upload, reassigning payees as needed; settles with a
  // gratis key when no payee exists.
  void continue_chain(TxId txid);
  bool try_start_reciprocation(core::Transaction& tx);

  // The one way a transaction ends, closing it in the engine's state `end`:
  // kCompleted sends the key (a receipt or gratis), kTerminal marks a landed
  // unencrypted upload, kDead a teardown (a delivered ciphertext loses its
  // key), and kAwaitKey a free-rider's swallow, which keeps the donor's
  // pending slot (§II-D2). Breaks the chain unless `cause` is kNone.
  void close_tx(core::Transaction& tx, core::TxState end,
                obs::ChainBreakCause cause = obs::ChainBreakCause::kNone);

  // A delivered ciphertext's key never reaches its requestor (a teardown,
  // or the key-release message lost): counts and traces the loss, and
  // frees the piece for a re-fetch while the requestor still wants it.
  void lose_key(TxId txid, PeerId donor, PeerId requestor, PieceIndex piece,
                ChainId chain);

  // Retires a live chain with a kChainBreak trace event; later calls for
  // the same chain are no-ops, so each chain breaks exactly once.
  void break_chain(ChainId id, obs::ChainBreakCause cause);

  // Bumps a "tchain.*" registry counter for a fact with no event kind.
  // Tracing off: no-op.
  void count(const char* name);

  core::TransactionTable txs_;
  ChainId next_chain_ = 1;
  std::vector<bool> live_chains_;  // ChainId -> not yet broken
  // PeerId-indexed; grows where a peer first appears, and a departed
  // peer's entry is reset (live = false), not erased.
  std::vector<PeerState> peers_;
  // PeerId -> observed reciprocating at least once. Conceptually this is
  // per-donor local history plus what a peer observes as a payee; the
  // simulator pools it into one swarm-wide set. Pooling is not harmless:
  // one false (collusion) receipt proves a colluder to every donor at
  // once, so it becomes gift-eligible everywhere, where per-donor history
  // would admit it only at the donor that received the receipt (ROADMAP
  // item 13).
  std::vector<bool> proven_;
};

}  // namespace tc::protocols
