// Trace-driven protocol invariant checker (paper §3, §5 safety claims).
//
// The Checker consumes the typed obs::TraceEvent stream — online, as an
// obs::EventSink registered on the run's Trace (lossless: sinks observe
// events before the kind mask and the ring), or offline, by replaying a
// ring snapshot or an exported event CSV (obs::read_event_csv) — and
// verifies the T-Chain safety catalogue:
//
//  * fair-exchange — no kKeyDelivered before the matching reciprocation
//    delivered a piece (a kPieceDelivered counts for the open transaction
//    its ref names, and only on that transaction's edge and piece),
//    modulo the paper's sanctioned exceptions: gratis
//    settlement when no qualified payee exists (the chain breaks with
//    kNoPayee / is already in teardown when the key settles) and the
//    modeled collusion attack (a colluding requestor obtains keys via
//    false receipts by design, §III-A4);
//  * pending-bound — flow control's per-neighbor cap k (§II-D2): a chain
//    head is never opened toward a requestor at the cap, an indirect payee
//    is never designated while at the cap, and terminal (unencrypted)
//    gifts only go to neighbors with zero pending. Mid-chain reciprocation
//    uploads are exempt: their target is mandated by the chain, not
//    selected;
//  * chain-shape — chains are well-formed: started once, every break
//    carries a cause, no double break, and no transaction is linked into a
//    chain twice (a repeated kChainExtend ref is a forged cycle);
//  * escrow — key conservation: every delivered ciphertext's transaction
//    resolves with its key delivered, explicitly lost (refund path: the
//    requestor may re-fetch), or deliberately withheld (an await-key
//    close); an escrowed key (§II-B4 departure handoff) never silently
//    vanishes at transaction close;
//  * piece-conservation — a piece is granted at most once per peer and
//    only after a delivery on that edge carried it (no piece out of thin
//    air);
//  * tx-lifecycle — the trace grammar both T-Chain drivers write: unique
//    opens; no events on unknown or already-closed transactions; once a
//    stream has opened a transaction, every piece event names one opened
//    earlier with its donor, requestor and piece (baseline streams open
//    none and name flow ids); every key event names its transaction's
//    chain; and each close fits what came before it — never uploading,
//    completed only after the key was delivered, terminal only for a
//    delivered payee-less transaction, await-key only toward a requestor
//    flagged free-rider (the flag survives a whitewash), and dead after a
//    delivery only once the key was lost.
//
// Soundness contract: verifying a lossy stream cannot produce false
// positives. When the producer reports ring drops (note_dropped), the
// report downgrades to UNSOUND — findings are tallied as *possible*
// violations and unknown references count as orphans instead of errors —
// rather than claiming a clean PASS or inventing violations whose
// counter-evidence was overwritten. An online sink never drops, so live
// verification is always sound.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "src/net/peer_id.h"
#include "src/obs/trace.h"
#include "src/util/units.h"

namespace tc::check {

enum class Invariant : std::uint8_t {
  kFairExchange,
  kPendingBound,
  kChainShape,
  kEscrow,
  kPieceConservation,
  kTxLifecycle,
  kCount_,
};

inline constexpr std::size_t kInvariantCount =
    static_cast<std::size_t>(Invariant::kCount_);

// Kebab-case key, used for RunRecord extras ("check.v.<key>") and reports.
const char* invariant_name(Invariant inv);

enum class Severity : std::uint8_t {
  kWarning,    // suspicious but explainable (e.g. escrow open at run end)
  kViolation,  // a safety property is broken
};

struct Violation {
  Invariant invariant = Invariant::kTxLifecycle;
  Severity severity = Severity::kViolation;
  util::SimTime t = 0.0;            // event timestamp of the detection
  net::PeerId a = net::kNoPeer;     // subject peer (donor / uploader)
  net::PeerId b = net::kNoPeer;     // object peer (requestor / receiver)
  net::PieceIndex piece = net::kNoPiece;
  std::uint64_t ref = 0;            // transaction (or flow) id
  std::uint64_t chain = 0;
  std::string detail;               // human-readable context
};

struct CheckReport {
  // False once the producer reported dropped events: verification window
  // lost evidence, so findings are only "possible" and a clean result must
  // not be reported as PASS.
  bool sound = true;
  std::uint64_t dropped = 0;  // producer-reported ring drops
  std::uint64_t events = 0;   // events consumed

  std::uint64_t total_violations = 0;  // hard violations (sound stream)
  std::uint64_t possible_violations = 0;  // findings on an unsound stream
  std::uint64_t warnings = 0;
  std::uint64_t orphans = 0;  // unknown refs explained by drops (unsound)
  std::array<std::uint64_t, kInvariantCount> by_class{};

  // First CheckerOptions::max_findings violations/warnings, in stream order.
  std::vector<Violation> findings;

  // "PASS" (sound, no violations), "VIOLATIONS", or "UNSOUND".
  const char* verdict() const;
  bool clean() const { return sound && total_violations == 0; }
};

struct CheckerOptions {
  // Flow-control cap k (§II-D2). The default mirrors core::kPendingCap,
  // which the oracle may not include.
  int pending_cap = 2;
  // Violations/warnings kept with full context; the counters keep counting.
  std::size_t max_findings = 64;
};

class Checker : public obs::EventSink {
 public:
  explicit Checker(CheckerOptions opts = {});
  ~Checker() override;

  Checker(const Checker&) = delete;
  Checker& operator=(const Checker&) = delete;

  // Stream input, in emission order.
  void on_event(const obs::TraceEvent& e) override;

  // Declares that `n` events were lost upstream (offline replay of a
  // wrapped ring). Call before finish(); downgrades the report to UNSOUND.
  void note_dropped(std::uint64_t n);

  // End-of-stream checks (open escrows become warnings, never violations —
  // a run that hits its horizon mid-exchange is not a safety failure).
  // Idempotent; returns the final report.
  const CheckReport& finish();

  const CheckReport& report() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;  // pimpl keeps the checker's tables private
};

// One-shot offline verification of a replayed stream. `dropped` is the
// producer's drop count (EventRing::dropped() for ring snapshots; pass 0
// for streams known to be complete).
CheckReport check_events(const std::vector<obs::TraceEvent>& events,
                         std::uint64_t dropped = 0,
                         const CheckerOptions& opts = {});

// Human-readable report: verdict, per-class counters, and up to
// `max_findings_shown` findings with peer/tx/time context.
void write_report(std::ostream& os, const CheckReport& report,
                  std::size_t max_findings_shown = 16);

}  // namespace tc::check
