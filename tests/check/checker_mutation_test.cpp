// Mutation-style coverage for the invariant checker: each test feeds a
// synthetic event stream that deliberately violates exactly one invariant
// class and asserts the checker flags it — and only it — with the correct
// class; the clean controls prove the legal version of each pattern passes.
#include "src/check/invariants.h"

#include <gtest/gtest.h>

#include <map>
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
constexpr std::uint8_t kTerminal =
    static_cast<std::uint8_t>(obs::TxState::kTerminal);
constexpr std::uint8_t kUploading =
    static_cast<std::uint8_t>(obs::TxState::kUploading);

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

  Stream& whitewash(net::PeerId old_id, net::PeerId fresh) {
    return add(EventKind::kPeerWhitewash, old_id, fresh);
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
    chain_of_[ref] = chain;
    add(EventKind::kTxOpen, donor, requestor, payee, piece, ref, chain);
    return add(EventKind::kChainExtend, net::kNoPeer, net::kNoPeer,
               net::kNoPeer, net::kNoPiece, ref, chain);
  }

  // A piece delivered from -> to, naming the transaction it carries.
  Stream& deliver(net::PeerId from, net::PeerId to, net::PieceIndex piece,
                  std::uint64_t tx) {
    return add(EventKind::kPieceDelivered, from, to, net::kNoPeer, piece, tx);
  }

  // Names the chain tx_open gave `ref` (0 if it never opened).
  Stream& key_delivered(std::uint64_t ref, net::PeerId donor,
                        net::PeerId requestor) {
    return add(EventKind::kKeyDelivered, donor, requestor, net::kNoPeer,
               net::kNoPiece, ref, chain_of_[ref]);
  }

  Stream& tx_close(std::uint64_t ref, std::uint8_t state) {
    return add(EventKind::kTxClose, net::kNoPeer, net::kNoPeer, net::kNoPeer,
               net::kNoPiece, ref, 0, state);
  }

  const std::vector<TraceEvent>& events() const { return events_; }

 private:
  util::SimTime t_ = 0.0;
  std::vector<TraceEvent> events_;
  std::map<std::uint64_t, std::uint64_t> chain_of_;  // tx -> its chain
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
    // The stray delivery itself breaks the trace grammar too.
    const CheckReport r = check_events(s.events());
    EXPECT_EQ(r.total_violations, 2u);
    EXPECT_EQ(class_count(r, Invariant::kFairExchange), 1u);
    EXPECT_EQ(class_count(r, Invariant::kTxLifecycle), 1u);
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
  s.tx_close(10, kDead);
  expect_only(check_events(s.events()), Invariant::kEscrow);
}

TEST(CheckerMutation, SwallowedCiphertextOfCompliantPeerFlagsEscrow) {
  // Torn down with no key-lost. (An await-key close toward a compliant
  // peer is the trace grammar's: see the whitewash cases below.)
  Stream s;
  s.join(1).join(2).join(3).chain_start(7, 1).tx_open(10, 1, 2, 3, 0, 7);
  s.deliver(1, 2, 0, 10).tx_close(10, kDead);
  expect_only(check_events(s.events()), Invariant::kEscrow);
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

TEST(CheckerMutation, OpenEscrowWarningsComeInAscendingIdOrder) {
  // Three escrows opened and escrowed in descending id order; tx 20's key
  // is then lost (refunded), so only tx 10 and tx 30 stay unresolved.
  Stream s;
  s.join(1).join(2).join(3).chain_start(7, 1);
  s.tx_open(30, 1, 2, 3, 0, 7).tx_open(20, 2, 3, 1, 1, 7);
  s.tx_open(10, 3, 1, 2, 2, 7);
  s.add(EventKind::kKeyEscrowed, 1, 2, 3, net::kNoPiece, 30, 7);
  s.add(EventKind::kKeyEscrowed, 2, 3, 1, net::kNoPiece, 20, 7);
  s.add(EventKind::kKeyEscrowed, 3, 1, 2, net::kNoPiece, 10, 7);
  s.add(EventKind::kKeyLost, 2, 3, net::kNoPeer, net::kNoPiece, 20, 7);
  const CheckReport r = check_events(s.events());
  EXPECT_STREQ(r.verdict(), "PASS");
  EXPECT_EQ(r.warnings, 2u);
  ASSERT_EQ(r.findings.size(), 2u);
  EXPECT_EQ(r.findings[0].ref, 10u);
  EXPECT_EQ(r.findings[1].ref, 30u);
  for (const Violation& v : r.findings) {
    EXPECT_EQ(v.severity, Severity::kWarning);
    EXPECT_EQ(v.invariant, Invariant::kEscrow);
  }
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

// --- tx-lifecycle: the trace grammar ---------------------------------------

TEST(CheckerMutation, PieceEventOffItsTransactionFlagsTxLifecycle) {
  for (const EventKind kind : {EventKind::kPieceSent,
                               EventKind::kPieceDelivered,
                               EventKind::kPieceAborted}) {
    // Tx 10 is 1 -> 2, piece 0. Each event names an id never opened, or
    // tx 10 on another edge or piece.
    using Named = std::tuple<net::PeerId, net::PeerId, net::PieceIndex,
                             std::uint64_t>;
    for (const auto& [from, to, piece, tx] :
         {Named{1, 2, 0, 12}, Named{2, 1, 0, 10}, Named{1, 3, 0, 10},
          Named{1, 2, 1, 10}}) {
      SCOPED_TRACE(::testing::Message()
                   << obs::event_kind_name(kind) << " " << from << "->" << to
                   << " piece " << piece << " tx " << tx);
      Stream s;
      s.join(1).join(2).join(3).chain_start(7, 1).tx_open(10, 1, 2, 3, 0, 7);
      s.add(kind, from, to, net::kNoPeer, piece, tx);
      expect_only(check_events(s.events()), Invariant::kTxLifecycle);
    }
  }
}

TEST(CheckerMutation, BaselinePieceEventsNameFlowsAndPass) {
  // No transaction opens, so piece events carry flow ids and name nothing.
  Stream s;
  s.join(1).join(2);
  s.add(EventKind::kPieceSent, 1, 2, net::kNoPeer, 0, 500);
  s.add(EventKind::kPieceSent, 1, 2, net::kNoPeer, 1, 501);
  s.deliver(1, 2, 0, 500);
  s.add(EventKind::kPieceAborted, 1, 2, net::kNoPeer, 1, 501);
  s.add(EventKind::kPieceGranted, 2, 1, net::kNoPeer, 0);
  EXPECT_STREQ(check_events(s.events()).verdict(), "PASS");
}

TEST(CheckerMutation, UploadingOrUnknownCloseFlagsTxLifecycle) {
  for (const std::uint8_t end : {kUploading, std::uint8_t{9}}) {
    SCOPED_TRACE(::testing::Message() << "close state " << int{end});
    Stream s;
    s.join(1).join(2).join(3).chain_start(7, 1).tx_open(10, 1, 2, 3, 0, 7);
    s.tx_close(10, end);
    expect_only(check_events(s.events()), Invariant::kTxLifecycle);
  }
}

// A payee-less gift, tx 20 (1 -> 2, piece 5), delivered.
Stream delivered_gift() {
  Stream s;
  s.join(1).join(2);
  s.add(EventKind::kTxOpen, 1, 2, net::kNoPeer, 5, 20, 0);
  s.deliver(1, 2, 5, 20);
  return s;
}

TEST(CheckerMutation, DeliveredGiftClosesTerminal) {
  Stream s = delivered_gift();
  s.tx_close(20, kTerminal);
  EXPECT_STREQ(check_events(s.events()).verdict(), "PASS");
}

TEST(CheckerMutation, TerminalCloseOfUndeliveredOrEncryptedTxFlagsTxLifecycle) {
  {
    SCOPED_TRACE("payee-less, undelivered");
    Stream s;
    s.join(1).join(2).add(EventKind::kTxOpen, 1, 2, net::kNoPeer, 5, 20, 0);
    s.tx_close(20, kTerminal);
    expect_only(check_events(s.events()), Invariant::kTxLifecycle);
  }
  {
    SCOPED_TRACE("encrypted");
    Stream s;
    s.join(1).join(2).join(3).chain_start(7, 1).tx_open(10, 1, 2, 3, 0, 7);
    s.tx_close(10, kTerminal);
    expect_only(check_events(s.events()), Invariant::kTxLifecycle);
  }
}

TEST(CheckerMutation, DeliveredTxClosedDeadWithoutKeyLostFlagsTxLifecycle) {
  {
    SCOPED_TRACE("payee-less gift");
    Stream s = delivered_gift();
    s.tx_close(20, kDead);
    expect_only(check_events(s.events()), Invariant::kTxLifecycle);
  }
  {
    SCOPED_TRACE("ciphertext whose key was delivered");
    Stream s;
    s.join(1).join(2).join(3).chain_start(7, 1).tx_open(10, 1, 2, 3, 0, 7);
    s.deliver(1, 2, 0, 10);
    s.tx_open(11, 2, 3, 1, 1, 7).deliver(2, 3, 1, 11);
    s.key_delivered(10, 1, 2).tx_close(10, kDead);
    expect_only(check_events(s.events()), Invariant::kTxLifecycle);
  }
}

TEST(CheckerMutation, DeliveredTxClosedDeadAfterKeyLostPasses) {
  Stream s = delivered_gift();
  s.add(EventKind::kKeyLost, 1, 2, net::kNoPeer, 5, 20, 0);
  s.tx_close(20, kDead);
  EXPECT_STREQ(check_events(s.events()).verdict(), "PASS");
}

// Peer 2 whitewashes into peer 4, then swallows tx 10's ciphertext.
Stream swallow_after_whitewash(std::uint8_t flags_of_2) {
  Stream s;
  s.join(1).join(2, flags_of_2).join(3).whitewash(2, 4);
  s.chain_start(7, 1).tx_open(10, 1, 4, 3, 0, 7);
  s.deliver(1, 4, 0, 10).tx_close(10, kAwaitKey);
  return s;
}

TEST(CheckerMutation, WhitewashedFreeriderSwallowIsSanctioned) {
  const CheckReport r =
      check_events(swallow_after_whitewash(obs::kPeerFlagFreerider).events());
  EXPECT_STREQ(r.verdict(), "PASS");
}

TEST(CheckerMutation, AwaitKeyCloseOfUnflaggedRequestorFlagsTxLifecycle) {
  expect_only(check_events(swallow_after_whitewash(0).events()),
              Invariant::kTxLifecycle);
}

TEST(CheckerMutation, KeyEventOnAnotherChainFlagsTxLifecycle) {
  for (const EventKind kind : {EventKind::kKeyEscrowed,
                               EventKind::kKeyDelivered, EventKind::kKeyLost}) {
    SCOPED_TRACE(obs::event_kind_name(kind));
    // Tx 10 is in chain 7 and reciprocated; its key event names chain 8.
    Stream s;
    s.join(1).join(2).join(3).chain_start(7, 1).tx_open(10, 1, 2, 3, 0, 7);
    s.deliver(1, 2, 0, 10);
    s.tx_open(11, 2, 3, 1, 1, 7).deliver(2, 3, 1, 11);
    s.add(kind, 1, 2, 3, net::kNoPiece, 10, 8);
    expect_only(check_events(s.events()), Invariant::kTxLifecycle);
  }
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

// The ids of one stream: small, or near the top of each id's range (peers
// and pieces near 0xfffffffe, transactions and chains near 2^63). A trace
// read from a file can carry any id.
struct Ids {
  bool top = false;
  net::PeerId peer(net::PeerId k) const {
    return top && k != net::kNoPeer ? 0xfffffffeu - k : k;
  }
  net::PieceIndex piece(net::PieceIndex k) const {
    return top && k != net::kNoPiece ? 0xfffffffeu - k : k;
  }
  std::uint64_t id(std::uint64_t k) const {
    return top && k != 0 ? (std::uint64_t{1} << 63) + k : k;
  }
};

// One stream with a finding of every class and an open-escrow warning.
Stream findings_of_every_class(const Ids& ids) {
  const auto p = [&](net::PeerId k) { return ids.peer(k); };
  const auto x = [&](net::PieceIndex k) { return ids.piece(k); };
  const auto t = [&](std::uint64_t k) { return ids.id(k); };
  Stream s;
  s.join(p(1)).join(p(2)).join(p(3), obs::kPeerFlagFreerider).join(p(4));
  s.whitewash(p(3), p(5)).chain_start(t(7), p(1));
  // A reciprocated, completed head.
  s.tx_open(t(10), p(1), p(2), p(4), x(0), t(7));
  s.deliver(p(1), p(2), x(0), t(10));
  s.tx_open(t(11), p(2), p(4), p(1), x(1), t(7));
  s.deliver(p(2), p(4), x(1), t(11));
  s.key_delivered(t(10), p(1), p(2)).tx_close(t(10), kCompleted);
  // fair-exchange: tx 12's key settles with no reciprocation.
  s.chain_start(t(8), p(1)).tx_open(t(12), p(1), p(4), p(2), x(2), t(8));
  s.key_delivered(t(12), p(1), p(4));
  // pending-bound: a gift while tx 11 is still pending on 2 -> 4.
  s.add(EventKind::kTxOpen, p(2), p(4), net::kNoPeer, x(3), t(13), 0);
  // piece-conservation: piece 1 reached 4 from 2, not from 1; then twice.
  s.add(EventKind::kPieceGranted, p(4), p(1), net::kNoPeer, x(1));
  s.add(EventKind::kPieceGranted, p(4), p(2), net::kNoPeer, x(1));
  // chain-shape: a break without a cause.
  s.add(EventKind::kChainBreak, net::kNoPeer, net::kNoPeer, net::kNoPeer,
        net::kNoPiece, 0, t(8),
        static_cast<std::uint8_t>(ChainBreakCause::kNone));
  // The whitewashed free-rider swallows tx 14; tx 11's key stays escrowed.
  s.tx_open(t(14), p(4), p(5), p(2), x(4), t(7));
  s.deliver(p(4), p(5), x(4), t(14)).tx_close(t(14), kAwaitKey);
  s.add(EventKind::kKeyEscrowed, p(2), p(4), p(1), net::kNoPiece, t(11), t(7));
  // tx-lifecycle: tx 12 closes dead after its key was delivered.
  s.deliver(p(1), p(4), x(2), t(12)).tx_close(t(12), kDead);
  // escrow: tx 15's ciphertext is torn down with no key event.
  s.tx_open(t(15), p(1), p(2), p(4), x(5), t(7));
  s.deliver(p(1), p(2), x(5), t(15)).tx_close(t(15), kDead);
  return s;
}

TEST(CheckerMutation, IdsNearTheTopOfTheirRangesGiveTheSameFindings) {
  const Ids small;
  const Ids top{true};
  const CheckReport a = check_events(findings_of_every_class(small).events());
  const CheckReport b = check_events(findings_of_every_class(top).events());
  for (std::size_t c = 0; c < kInvariantCount; ++c) {
    EXPECT_GE(a.by_class[c], 1u) << invariant_name(static_cast<Invariant>(c));
  }
  EXPECT_EQ(a.warnings, 1u);
  EXPECT_EQ(b.total_violations, a.total_violations);
  EXPECT_EQ(b.warnings, a.warnings);
  EXPECT_EQ(b.by_class, a.by_class);
  ASSERT_EQ(b.findings.size(), a.findings.size());
  for (std::size_t i = 0; i < a.findings.size(); ++i) {
    SCOPED_TRACE(a.findings[i].detail);
    const Violation& v = a.findings[i];
    const Violation& w = b.findings[i];
    EXPECT_EQ(w.invariant, v.invariant);
    EXPECT_EQ(w.severity, v.severity);
    EXPECT_EQ(w.detail, v.detail);
    EXPECT_EQ(w.t, v.t);
    EXPECT_EQ(w.a, top.peer(v.a));
    EXPECT_EQ(w.b, top.peer(v.b));
    EXPECT_EQ(w.piece, top.piece(v.piece));
    EXPECT_EQ(w.ref, top.id(v.ref));
    EXPECT_EQ(w.chain, top.id(v.chain));
  }
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
