// Event tracing for swarm runs: typed TraceEvents recorded into a bounded
// ring-buffer sink, plus an embedded metric Registry (src/obs/registry.h).
//
// Zero-overhead contract: tracing is OFF by default — the Swarm holds a
// null obs::Trace pointer and every instrumentation site is guarded by a
// single pointer test. A disabled run performs no allocation, consumes no
// randomness, and schedules nothing extra, so its output is byte-identical
// to a build without this subsystem. Enabling tracing never perturbs a run
// either: emission only reads simulation state.
//
// The ring sink is bounded: once `ring_capacity` events are held, the
// oldest event is overwritten and counted as dropped. Offline consumers
// (obs::ChainView, the exporters) should size the ring for the kinds they
// enable via the kind mask — see TraceConfig.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/net/message.h"
#include "src/net/peer_id.h"
#include "src/obs/registry.h"
#include "src/util/units.h"

namespace tc::obs {

enum class EventKind : std::uint8_t {
  // Peer lifecycle.
  kPeerJoin,       // a=peer, aux=PeerFlags
  kPeerFinish,     // a=peer (completed the file; departs right after)
  kPeerDepart,     // a=peer (graceful)
  kPeerCrash,      // a=peer (vanished, no goodbye)
  kPeerWhitewash,  // a=old identity, b=fresh identity
  // Piece plane (flow-level, encrypted or not). ref is the transaction
  // the upload carries, or the flow id if the protocol has none.
  kPieceSent,       // a=uploader, b=receiver, piece, ref=tx or flow id
  kPieceDelivered,  // same roles; the flow completed
  kPieceAborted,    // same roles; an endpoint departed mid-transfer
  kPieceGranted,    // a=receiver, b=source; piece decrypted/plainly received
  // T-Chain key exchange.
  kKeyEscrowed,   // a=donor, b=requestor, c=payee, ref=tx (§II-B4 handoff)
  kKeyDelivered,  // a=donor, b=requestor, ref=tx
  kKeyLost,       // a=donor, b=requestor, ref=tx (key never arrived)
  // Transaction lifecycle.
  kTxOpen,     // a=donor, b=requestor, c=payee (kNoPeer=terminal), ref=tx
  kTxRetry,    // ref=tx, aux=RetryCause; a stalled exchange re-kicked
  kTxTimeout,  // ref=tx, aux=RetryCause; retries exhausted, tearing down
  kTxClose,    // ref=tx, aux=final TxState
  // Chain structure.
  kChainStart,   // a=initiator, chain, aux=ChainFlags (bit0: by seeder)
  kChainExtend,  // chain, ref=appended tx
  kChainBreak,   // chain, aux=ChainBreakCause
  // Choking (rate-based baseline protocols).
  kChoke,    // a=peer, b=neighbor removed from the unchoke set
  kUnchoke,  // a=peer, b=neighbor added to the unchoke set
  // Fault injections (sim/faults).
  kFaultControlDrop,    // a control-plane message was dropped
  kFaultControlJitter,  // a control-plane message was delayed
  kFaultOutageBegin,    // a=peer, upload capacity dark
  kFaultOutageEnd,      // a=peer, capacity restored
  // Periodic census marker (chain census replay, Figures 10/11).
  kCensusTick,
  kCount_,  // not a kind; array/mask bound
};

inline constexpr std::size_t kEventKindCount =
    static_cast<std::size_t>(EventKind::kCount_);
static_assert(kEventKindCount <= 64, "kind mask is a uint64");

const char* event_kind_name(EventKind k);

// aux payload of kPeerJoin.
enum PeerFlags : std::uint8_t {
  kPeerFlagFreerider = 1,
  kPeerFlagColluder = 2,
  kPeerFlagSeeder = 4,
};

// aux payload of kChainBreak: why the chain stopped growing.
enum class ChainBreakCause : std::uint8_t {
  kNone = 0,
  kCompleted,      // terminal (unencrypted) upload ended it — Fig 1c
  kNoPayee,        // no qualified payee anywhere; key settled gratis
  kFreeriderSink,  // requestor swallowed the ciphertext, never reciprocated
  kDeparture,      // a graceful departure killed a live transaction
  kCrash,          // an abrupt crash killed a live transaction
  kWatchdog,       // per-transaction watchdog exhausted its retries
  kAborted,        // upload aborted / chain never got its first transaction
};

const char* chain_break_cause_name(ChainBreakCause c);

// aux payload of kTxRetry and kTxTimeout: what made the donor re-run payee
// selection (§II-B4). The simulator emits only kWatchdog.
enum class RetryCause : std::uint8_t {
  kWatchdog = 0,   // the per-transaction watchdog fired
  kPayeeFinished,  // the payee completed the file
  kPayeeGone,      // the payee disconnected
};

const char* retry_cause_name(RetryCause c);

// aux payload of kTxClose: the state a transaction ended in. Both T-Chain
// drivers (core::Node and the simulator's TChainProtocol) close in the
// same states; kUploading and kAwaitKey are also the states an open
// core::Transaction walks. No transaction closes kUploading.
enum class TxState : std::uint8_t {
  kUploading,   // encrypted piece in flight D -> R
  kAwaitKey,    // delivered; R owes reciprocation, key withheld. As a close
                // state: a free-rider swallowed it (§II-D2, simulator only)
  kCompleted,   // key released: a receipt, or gratis with no payee left
  kTerminal,    // unencrypted upload (chain termination) landed
  kDead,        // torn down: departure, crash, abort, watchdog, lost key
};

struct TraceEvent {
  util::SimTime t = 0.0;
  EventKind kind = EventKind::kPeerJoin;
  std::uint8_t aux = 0;  // kind-dependent small payload (flags, cause, state)
  net::PieceIndex piece = net::kNoPiece;
  net::PeerId a = net::kNoPeer;  // subject (uploader / donor / peer)
  net::PeerId b = net::kNoPeer;  // object (receiver / requestor / neighbor)
  net::PeerId c = net::kNoPeer;  // third party (payee)
  std::uint64_t ref = 0;         // transaction or flow id
  std::uint64_t chain = 0;       // chain id
};

constexpr std::uint64_t kind_bit(EventKind k) {
  return std::uint64_t{1} << static_cast<std::size_t>(k);
}

inline constexpr std::uint64_t kAllKinds = ~std::uint64_t{0};

// The minimal kind set obs::ChainView needs for chain-structure analytics
// (lengths, census replay, break causes).
inline constexpr std::uint64_t kChainKinds =
    kind_bit(EventKind::kChainStart) | kind_bit(EventKind::kChainExtend) |
    kind_bit(EventKind::kChainBreak) | kind_bit(EventKind::kCensusTick);

// kChainKinds plus transaction opens: adds direct-vs-indirect reciprocity
// ratios to the reconstruction.
inline constexpr std::uint64_t kChainAnalysisKinds =
    kChainKinds | kind_bit(EventKind::kTxOpen);

struct TraceConfig {
  bool enabled = false;            // consumed by exp::RunSpec wiring
  std::size_t ring_capacity = std::size_t{1} << 20;
  std::uint64_t kind_mask = kAllKinds;
  // Export destinations, written by exp::run_one after a traced run
  // (empty = don't write). Chrome trace-event JSON / event CSV.
  std::string export_json;
  std::string export_csv;
};

// Online consumer of the full event stream (src/check's invariant checker
// implements this). A sink registered on a Trace observes every emitted
// event *before* the kind mask and the ring, so it is lossless even when
// the ring wraps: verification against a live sink is always sound, while
// verification against a ring snapshot is sound only when dropped() == 0.
class EventSink {
 public:
  virtual ~EventSink() = default;
  virtual void on_event(const TraceEvent& e) = 0;
};

// Bounded ring of TraceEvents: grows to `capacity`, then overwrites the
// oldest event (counted as dropped).
class EventRing {
 public:
  explicit EventRing(std::size_t capacity);

  void push(const TraceEvent& e);

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return buf_.size(); }
  std::uint64_t recorded() const { return recorded_; }
  std::uint64_t dropped() const {
    return recorded_ - static_cast<std::uint64_t>(buf_.size());
  }

  // Events oldest -> newest (copies; the ring keeps recording).
  std::vector<TraceEvent> snapshot() const;

 private:
  std::size_t capacity_;
  std::size_t head_ = 0;  // next overwrite position once saturated
  std::uint64_t recorded_ = 0;
  std::vector<TraceEvent> buf_;
};

// The tracing facade a Swarm owns when observability is on: a kind-masked
// ring sink, per-kind event counters, and the run's metric Registry.
class Trace {
 public:
  explicit Trace(const TraceConfig& cfg = {});

  // Records `e` if its kind passes the mask. The caller stamps `t`. A
  // registered sink sees `e` first, unmasked and before any ring overwrite
  // (see EventSink).
  void emit(const TraceEvent& e) {
    if (sink_ != nullptr) sink_->on_event(e);
    const auto k = static_cast<std::size_t>(e.kind);
    if (((mask_ >> k) & 1u) == 0) return;
    ++kind_counts_[k];
    ring_.push(e);
  }

  // At most one sink; null detaches. The sink must outlive the Trace (or be
  // detached first) and is invoked synchronously from emit().
  void set_sink(EventSink* sink) { sink_ = sink; }
  EventSink* sink() const { return sink_; }

  std::uint64_t kind_mask() const { return mask_; }
  const EventRing& ring() const { return ring_; }
  std::vector<TraceEvent> events() const { return ring_.snapshot(); }

  // Events of `k` accepted by the mask (including any later overwritten by
  // ring wraparound).
  std::uint64_t count(EventKind k) const {
    return kind_counts_[static_cast<std::size_t>(k)];
  }

  Registry& registry() { return registry_; }
  const Registry& registry() const { return registry_; }

  // Registry snapshot plus "events.<kind>" counts and ring bookkeeping
  // ("events.recorded", "events.dropped"). Deterministic order.
  std::vector<std::pair<std::string, double>> snapshot() const;

 private:
  std::uint64_t mask_;
  EventSink* sink_ = nullptr;
  EventRing ring_;
  std::array<std::uint64_t, kEventKindCount> kind_counts_{};
  Registry registry_;
};

}  // namespace tc::obs
