// Mutation-style coverage for the invariant checker: each test feeds a
// synthetic event stream that deliberately violates exactly one invariant
// class and asserts the checker flags it — and only it — with the correct
// class; the clean controls prove the legal version of each pattern passes.
#include "src/check/invariants.h"

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "src/obs/trace.h"

namespace tc::check {
namespace {

using obs::ChainBreakCause;
using obs::EventKind;
using obs::TraceEvent;

constexpr std::uint8_t kAwaitKey =
    static_cast<std::uint8_t>(obs::TxState::kAwaitKey);
constexpr std::uint8_t kCompleted =
    static_cast<std::uint8_t>(obs::TxState::kCompleted);
constexpr std::uint8_t kDead = static_cast<std::uint8_t>(obs::TxState::kDead);

// Builds a stream with ever-increasing timestamps so detection timestamps
// stay distinct and ordered.
class Stream {
 public:
  Stream& add(EventKind kind, net::PeerId a = net::kNoPeer,
              net::PeerId b = net::kNoPeer, net::PeerId c = net::kNoPeer,
              net::PieceIndex piece = net::kNoPiece, std::uint64_t ref = 0,
              std::uint64_t chain = 0, std::uint8_t aux = 0) {
    TraceEvent e;
    e.t = t_ += 1.0;
    e.kind = kind;
    e.a = a;
    e.b = b;
    e.c = c;
    e.piece = piece;
    e.ref = ref;
    e.chain = chain;
    e.aux = aux;
    events_.push_back(e);
    return *this;
  }

  Stream& join(net::PeerId p, std::uint8_t flags = 0) {
    return add(EventKind::kPeerJoin, p, net::kNoPeer, net::kNoPeer,
               net::kNoPiece, 0, 0, flags);
  }

  Stream& chain_start(std::uint64_t chain, net::PeerId initiator) {
    return add(EventKind::kChainStart, initiator, net::kNoPeer, net::kNoPeer,
               net::kNoPiece, 0, chain);
  }

  // Encrypted triangle transaction (donor -> requestor, payee designated),
  // immediately linked into its chain — the emission pattern of start_tx.
  Stream& tx_open(std::uint64_t ref, net::PeerId donor, net::PeerId requestor,
                  net::PeerId payee, net::PieceIndex piece,
                  std::uint64_t chain) {
    add(EventKind::kTxOpen, donor, requestor, payee, piece, ref, chain);
    return add(EventKind::kChainExtend, net::kNoPeer, net::kNoPeer,
               net::kNoPeer, net::kNoPiece, ref, chain);
  }

  // A piece delivered from -> to, naming the transaction it carries.
  Stream& deliver(net::PeerId from, net::PeerId to, net::PieceIndex piece,
                  std::uint64_t tx) {
    return add(EventKind::kPieceDelivered, from, to, net::kNoPeer, piece, tx);
  }

  Stream& key_delivered(std::uint64_t ref, net::PeerId donor,
                        net::PeerId requestor) {
    return add(EventKind::kKeyDelivered, donor, requestor, net::kNoPeer,
               net::kNoPiece, ref);
  }

  Stream& tx_close(std::uint64_t ref, std::uint8_t state) {
    return add(EventKind::kTxClose, net::kNoPeer, net::kNoPeer, net::kNoPeer,
               net::kNoPiece, ref, 0, state);
  }

  const std::vector<TraceEvent>& events() const { return events_; }

 private:
  util::SimTime t_ = 0.0;
  std::vector<TraceEvent> events_;
};

std::uint64_t class_count(const CheckReport& r, Invariant inv) {
  return r.by_class[static_cast<std::size_t>(inv)];
}

// The only finding in `r` is `n` violations of class `inv`.
void expect_only(const CheckReport& r, Invariant inv, std::uint64_t n = 1) {
  EXPECT_TRUE(r.sound);
  EXPECT_EQ(r.total_violations, n) << "verdict " << r.verdict();
  EXPECT_EQ(class_count(r, inv), n);
  EXPECT_STREQ(r.verdict(), "VIOLATIONS");
  ASSERT_FALSE(r.findings.empty());
  EXPECT_EQ(r.findings.front().invariant, inv);
}

// --- fair-exchange ---------------------------------------------------------

TEST(CheckerMutation, EarlyKeyReleaseFlagsFairExchange) {
  Stream s;
  s.join(1).join(2).join(3).chain_start(7, 1).tx_open(10, 1, 2, 3, 0, 7);
  // Key released with the chain alive and no reciprocation from peer 2.
  s.key_delivered(10, 1, 2).tx_close(10, kCompleted);
  expect_only(check_events(s.events()), Invariant::kFairExchange);
}

TEST(CheckerMutation, ReciprocatedKeyReleasePasses) {
  Stream s;
  s.join(1).join(2).join(3).chain_start(7, 1).tx_open(10, 1, 2, 3, 0, 7);
  s.deliver(1, 2, 0, 10);
  // Peer 2 reciprocates inside chain 7 (its own transaction delivers)...
  s.tx_open(11, 2, 3, 1, 1, 7).deliver(2, 3, 1, 11);
  // ...so the key may settle.
  s.key_delivered(10, 1, 2).tx_close(10, kCompleted);
  const CheckReport r = check_events(s.events());
  EXPECT_TRUE(r.clean()) << r.verdict();
  EXPECT_STREQ(r.verdict(), "PASS");
}

TEST(CheckerMutation, DeliveryOffItsTransactionIsNoReciprocation) {
  // Each delivery names tx 11, but none is on tx 11's edge (2 -> 3) with its
  // piece (1), so none pays for tx 10 and the key release is early.
  using Edge = std::tuple<net::PeerId, net::PeerId, net::PieceIndex>;
  for (const auto& [from, to, piece] :
       {Edge{2, 1, 1}, Edge{1, 3, 1}, Edge{2, 3, 2}}) {
    Stream s;
    s.join(1).join(2).join(3).chain_start(7, 1).tx_open(10, 1, 2, 3, 0, 7);
    s.deliver(1, 2, 0, 10).tx_open(11, 2, 3, 1, 1, 7);
    s.deliver(from, to, piece, 11);
    s.key_delivered(10, 1, 2).tx_close(10, kCompleted);
    expect_only(check_events(s.events()), Invariant::kFairExchange);
  }
}

TEST(CheckerMutation, ColludingRequestorIsExempt) {
  Stream s;
  s.join(1).join(2, obs::kPeerFlagColluder).join(3);
  s.chain_start(7, 1).tx_open(10, 1, 2, 3, 0, 7);
  // False-receipt collusion (§III-A4): sanctioned, modeled behavior.
  s.key_delivered(10, 1, 2).tx_close(10, kCompleted);
  EXPECT_TRUE(check_events(s.events()).clean());
}

TEST(CheckerMutation, GratisSettlementOnBrokenChainIsExempt) {
  Stream s;
  s.join(1).join(2).join(3).chain_start(7, 1).tx_open(10, 1, 2, 3, 0, 7);
  s.add(EventKind::kChainBreak, net::kNoPeer, net::kNoPeer, net::kNoPeer,
        net::kNoPiece, 0, 7,
        static_cast<std::uint8_t>(ChainBreakCause::kNoPayee));
  s.key_delivered(10, 1, 2).tx_close(10, kCompleted);
  EXPECT_TRUE(check_events(s.events()).clean());
}

// --- pending-bound ---------------------------------------------------------

TEST(CheckerMutation, PendingCapOvershootFlagsPendingBound) {
  Stream s;
  s.join(1).join(2).join(3);
  // Two chain heads toward peer 2 fill the k = 2 budget...
  s.chain_start(7, 1).tx_open(10, 1, 2, 3, 0, 7);
  s.chain_start(8, 1).tx_open(11, 1, 2, 3, 1, 8);
  // ...a third head toward the same neighbor overshoots the cap.
  s.chain_start(9, 1).tx_open(12, 1, 2, 3, 2, 9);
  expect_only(check_events(s.events()), Invariant::kPendingBound);
}

TEST(CheckerMutation, PendingAtCapPasses) {
  Stream s;
  s.join(1).join(2).join(3);
  s.chain_start(7, 1).tx_open(10, 1, 2, 3, 0, 7);
  s.chain_start(8, 1).tx_open(11, 1, 2, 3, 1, 8);
  EXPECT_TRUE(check_events(s.events()).clean());
}

TEST(CheckerMutation, GiftToNeighborWithPendingFlagsPendingBound) {
  Stream s;
  s.join(1).join(2).join(3);
  s.chain_start(7, 1).tx_open(10, 1, 2, 3, 0, 7);
  // Terminal (unencrypted) gift to a neighbor that still owes reciprocation.
  s.add(EventKind::kTxOpen, 1, 2, net::kNoPeer, 5, 20, 0);
  expect_only(check_events(s.events()), Invariant::kPendingBound);
}

// --- chain-shape -----------------------------------------------------------

TEST(CheckerMutation, ForgedChainCycleFlagsChainShape) {
  Stream s;
  s.join(1).join(2).join(3).chain_start(7, 1).tx_open(10, 1, 2, 3, 0, 7);
  // The same transaction linked into the chain a second time: a cycle.
  s.add(EventKind::kChainExtend, net::kNoPeer, net::kNoPeer, net::kNoPeer,
        net::kNoPiece, 10, 7);
  expect_only(check_events(s.events()), Invariant::kChainShape);
}

TEST(CheckerMutation, BreakWithoutCauseFlagsChainShape) {
  Stream s;
  s.join(1).chain_start(7, 1);
  s.add(EventKind::kChainBreak, net::kNoPeer, net::kNoPeer, net::kNoPeer,
        net::kNoPiece, 0, 7,
        static_cast<std::uint8_t>(ChainBreakCause::kNone));
  expect_only(check_events(s.events()), Invariant::kChainShape);
}

TEST(CheckerMutation, DoubleChainStartFlagsChainShape) {
  Stream s;
  s.join(1).chain_start(7, 1).chain_start(7, 1);
  expect_only(check_events(s.events()), Invariant::kChainShape);
}

// --- escrow ----------------------------------------------------------------

TEST(CheckerMutation, DroppedEscrowRefundFlagsEscrow) {
  Stream s;
  s.join(1).join(2).join(3).chain_start(7, 1).tx_open(10, 1, 2, 3, 0, 7);
  s.deliver(1, 2, 0, 10);
  s.add(EventKind::kKeyEscrowed, 1, 2, 3, net::kNoPiece, 10, 7);
  // The escrowed key vanishes: close with neither delivery nor refund.
  s.tx_close(10, kAwaitKey);
  expect_only(check_events(s.events()), Invariant::kEscrow);
}

TEST(CheckerMutation, SwallowedCiphertextOfCompliantPeerFlagsEscrow) {
  for (const std::uint8_t end : {kAwaitKey, kDead}) {
    SCOPED_TRACE(::testing::Message() << "close state " << int{end});
    Stream s;
    s.join(1).join(2).join(3).chain_start(7, 1).tx_open(10, 1, 2, 3, 0, 7);
    s.deliver(1, 2, 0, 10).tx_close(10, end);
    expect_only(check_events(s.events()), Invariant::kEscrow);
  }
}

TEST(CheckerMutation, FreeriderCiphertextClosedDeadWithoutKeyLostFlagsEscrow) {
  Stream s;
  s.join(1).join(2, obs::kPeerFlagFreerider).join(3);
  s.chain_start(7, 1).tx_open(10, 1, 2, 3, 0, 7);
  // Only an await-key close withholds the key as a sanction; a teardown
  // must still account for it with key-lost.
  s.deliver(1, 2, 0, 10).tx_close(10, kDead);
  expect_only(check_events(s.events()), Invariant::kEscrow);
}

TEST(CheckerMutation, FreeriderSwallowIsSanctioned) {
  Stream s;
  s.join(1).join(2, obs::kPeerFlagFreerider).join(3);
  s.chain_start(7, 1).tx_open(10, 1, 2, 3, 0, 7);
  // Withholding the key from a free-riding requestor is the §II-D2 sanction.
  s.deliver(1, 2, 0, 10).tx_close(10, kAwaitKey);
  EXPECT_TRUE(check_events(s.events()).clean());
}

TEST(CheckerMutation, EscrowOpenAtEndOfStreamIsOnlyAWarning) {
  Stream s;
  s.join(1).join(2).join(3).chain_start(7, 1).tx_open(10, 1, 2, 3, 0, 7);
  s.deliver(1, 2, 0, 10);
  s.add(EventKind::kKeyEscrowed, 1, 2, 3, net::kNoPiece, 10, 7);
  const CheckReport r = check_events(s.events());
  EXPECT_TRUE(r.clean());
  EXPECT_EQ(r.warnings, 1u);
  EXPECT_STREQ(r.verdict(), "PASS");
}

// --- piece-conservation ----------------------------------------------------

TEST(CheckerMutation, DuplicateGrantFlagsPieceConservation) {
  Stream s;
  s.join(1).join(2).deliver(1, 2, 0, 100);  // no transaction
  s.add(EventKind::kPieceGranted, 2, 1, net::kNoPeer, 0);
  s.add(EventKind::kPieceGranted, 2, 1, net::kNoPeer, 0);
  expect_only(check_events(s.events()), Invariant::kPieceConservation);
}

TEST(CheckerMutation, GrantWithoutDeliveryFlagsPieceConservation) {
  Stream s;
  s.join(1).join(2);
  // Piece out of thin air: granted but never delivered on the (1, 2) edge.
  s.add(EventKind::kPieceGranted, 2, 1, net::kNoPeer, 0);
  expect_only(check_events(s.events()), Invariant::kPieceConservation);
}

// --- tx-lifecycle ----------------------------------------------------------

TEST(CheckerMutation, CompletedCloseWithoutKeyFlagsTxLifecycle) {
  Stream s;
  s.join(1).join(2).join(3).chain_start(7, 1).tx_open(10, 1, 2, 3, 0, 7);
  s.deliver(1, 2, 0, 10).tx_close(10, kCompleted);
  const CheckReport r = check_events(s.events());
  EXPECT_GE(class_count(r, Invariant::kTxLifecycle), 1u);
  EXPECT_FALSE(r.clean());
}

TEST(CheckerMutation, DoubleCloseFlagsTxLifecycle) {
  Stream s;
  s.join(1).join(2).join(3).chain_start(7, 1).tx_open(10, 1, 2, 3, 0, 7);
  s.deliver(1, 2, 0, 10);
  s.tx_open(11, 2, 3, 1, 1, 7).deliver(2, 3, 1, 11);
  s.key_delivered(10, 1, 2).tx_close(10, kCompleted).tx_close(10, kCompleted);
  expect_only(check_events(s.events()), Invariant::kTxLifecycle);
}

// A clean chain whose head, tx 10 (1 -> 2, payee 3), has closed completed:
// the start of every late-event mutation below.
Stream closed_head() {
  Stream s;
  s.join(1).join(2).join(3).chain_start(7, 1).tx_open(10, 1, 2, 3, 0, 7);
  s.deliver(1, 2, 0, 10);
  s.tx_open(11, 2, 3, 1, 1, 7).deliver(2, 3, 1, 11);
  s.key_delivered(10, 1, 2).tx_close(10, kCompleted);
  return s;
}

TEST(CheckerMutation, ClosedHeadPasses) {
  const CheckReport r = check_events(closed_head().events());
  EXPECT_STREQ(r.verdict(), "PASS");
  EXPECT_EQ(r.warnings, 0u);
}

TEST(CheckerMutation, RetryOrTimeoutAfterCloseFlagsTxLifecycle) {
  for (const EventKind kind : {EventKind::kTxRetry, EventKind::kTxTimeout}) {
    Stream s = closed_head();
    s.add(kind, 1, 2, 3, 0, 10, 7);
    expect_only(check_events(s.events()), Invariant::kTxLifecycle);
  }
}

TEST(CheckerMutation, KeyDeliveredAfterCloseIsAnUnknownRef) {
  Stream s = closed_head();
  s.key_delivered(10, 1, 2);
  const CheckReport r = check_events(s.events());
  expect_only(r, Invariant::kFairExchange);
  EXPECT_NE(r.findings.front().detail.find("unknown"), std::string::npos);
}

TEST(CheckerMutation, KeyEscrowedAfterCloseIsAnUnknownRef) {
  Stream s = closed_head();
  s.add(EventKind::kKeyEscrowed, 1, 2, 3, net::kNoPiece, 10, 7);
  const CheckReport r = check_events(s.events());
  expect_only(r, Invariant::kEscrow);
  EXPECT_NE(r.findings.front().detail.find("unknown"), std::string::npos);
}

TEST(CheckerMutation, KeyLostAfterCloseStaysClean) {
  // The key-release message died on the wire after the close.
  Stream s = closed_head();
  s.add(EventKind::kKeyLost, 1, 2, net::kNoPeer, net::kNoPiece, 10, 7);
  const CheckReport r = check_events(s.events());
  EXPECT_STREQ(r.verdict(), "PASS");
  EXPECT_EQ(r.warnings, 0u);
}

TEST(CheckerMutation, ReopeningAClosedIdFlagsDuplicate) {
  Stream s = closed_head();
  s.add(EventKind::kTxOpen, 1, 2, 3, 2, 10, 7);
  const CheckReport r = check_events(s.events());
  expect_only(r, Invariant::kTxLifecycle);
  EXPECT_NE(r.findings.front().detail.find("duplicate"), std::string::npos);
}

TEST(CheckerMutation, SecondExtendOfClosedTxFlagsForgedCycle) {
  Stream s = closed_head();
  s.add(EventKind::kChainExtend, net::kNoPeer, net::kNoPeer, net::kNoPeer,
        net::kNoPiece, 10, 7);
  const CheckReport r = check_events(s.events());
  expect_only(r, Invariant::kChainShape);
  EXPECT_NE(r.findings.front().detail.find("cycle"), std::string::npos);
}

// --- soundness contract ----------------------------------------------------

TEST(CheckerMutation, DropsDowngradeViolationsToPossible) {
  Stream s;
  s.join(1).join(2).join(3).chain_start(7, 1).tx_open(10, 1, 2, 3, 0, 7);
  s.key_delivered(10, 1, 2).tx_close(10, kCompleted);
  const CheckReport r = check_events(s.events(), /*dropped=*/3);
  EXPECT_FALSE(r.sound);
  EXPECT_STREQ(r.verdict(), "UNSOUND");
  EXPECT_EQ(r.total_violations, 0u);
  EXPECT_GE(r.possible_violations, 1u);
  EXPECT_FALSE(r.clean());
  EXPECT_EQ(r.dropped, 3u);
}

TEST(CheckerMutation, UnknownRefsOnLossyStreamAreOrphansNotViolations) {
  Stream s;
  s.join(1).join(2);
  // The tx-open was overwritten by the ring; only the tail survived.
  s.key_delivered(10, 1, 2).tx_close(10, kCompleted);
  const CheckReport r = check_events(s.events(), /*dropped=*/5);
  EXPECT_EQ(r.total_violations, 0u);
  EXPECT_EQ(r.possible_violations, 0u);
  EXPECT_GE(r.orphans, 2u);
}

TEST(CheckerMutation, UnknownRefsOnCompleteStreamAreViolations) {
  Stream s;
  s.join(1).join(2).key_delivered(10, 1, 2);
  EXPECT_EQ(check_events(s.events()).total_violations, 1u);
}

TEST(CheckerMutation, FindingsAreCappedButCountersKeepCounting) {
  Stream s;
  s.join(1).join(2);
  // Every grant lacks a delivery, and every second one is a duplicate.
  for (int i = 0; i < 10; ++i) {
    s.add(EventKind::kPieceGranted, 2, 1, net::kNoPeer,
          static_cast<net::PieceIndex>(i));
    s.add(EventKind::kPieceGranted, 2, 1, net::kNoPeer,
          static_cast<net::PieceIndex>(i));
  }
  CheckerOptions opts;
  opts.max_findings = 4;
  const CheckReport r = check_events(s.events(), 0, opts);
  EXPECT_EQ(r.findings.size(), 4u);
  EXPECT_EQ(r.total_violations, 20u);
}

TEST(CheckerMutation, OnlineSinkMatchesOneShot) {
  Stream s;
  s.join(1).join(2).join(3).chain_start(7, 1).tx_open(10, 1, 2, 3, 0, 7);
  s.key_delivered(10, 1, 2).tx_close(10, kCompleted);

  Checker online;
  for (const TraceEvent& e : s.events()) online.on_event(e);
  const CheckReport& a = online.finish();
  const CheckReport b = check_events(s.events());
  EXPECT_EQ(a.total_violations, b.total_violations);
  EXPECT_EQ(a.events, b.events);
  EXPECT_STREQ(a.verdict(), b.verdict());
}

}  // namespace
}  // namespace tc::check
