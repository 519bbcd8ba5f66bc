#include "src/core/policy.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

namespace tc::core {
namespace {

constexpr PeerId kDonor = 1;
constexpr PeerId kRequestor = 2;
const std::vector<PeerId> kNeighbours = {2, 3, 4, 5};

bool anyone(PeerId) { return true; }

TEST(SelectPayee, DirectReciprocityWhenRequestorHasWhatDonorNeeds) {
  util::Rng rng(1);
  EXPECT_EQ(select_payee(kDonor, kRequestor, /*direct=*/true, kNeighbours,
                         anyone, rng),
            kDonor);
}

TEST(SelectPayee, SeederNeverDesignatesItself) {
  // A seeder needs nothing, so its caller never passes `direct`.
  util::Rng rng(2);
  const PeerId p = select_payee(kDonor, kRequestor, /*direct=*/false,
                                kNeighbours, anyone, rng);
  EXPECT_NE(p, kDonor);
  EXPECT_NE(p, kRequestor);
}

TEST(SelectPayee, DirectDisabledByAblationSwitch) {
  // The requestor holds a piece the donor needs, but direct reciprocity is
  // switched off: the caller folds allow_direct into `direct`.
  util::Rng rng(3);
  const bool allow_direct = false;
  const bool donor_needs_requestor = true;
  EXPECT_NE(select_payee(kDonor, kRequestor,
                         allow_direct && donor_needs_requestor, kNeighbours,
                         anyone, rng),
            kDonor);
}

TEST(SelectPayee, IndirectExcludesRequestorAndDonor) {
  util::Rng rng(4);
  const std::vector<PeerId> only_self_and_requestor = {1, 2, 2, 1};
  EXPECT_EQ(select_payee(kDonor, kRequestor, false, only_self_and_requestor,
                         anyone, rng),
            net::kNoPeer);
}

TEST(SelectPayee, IndirectRespectsEligibilityFilter) {
  util::Rng rng(5);
  const auto only_4 = [](PeerId n) { return n == 4; };
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(select_payee(kDonor, kRequestor, false, kNeighbours, only_4, rng),
              4u);
  }
}

TEST(SelectPayee, NoQualifiedNeighborMeansTermination) {
  util::Rng rng(6);
  const auto nobody = [](PeerId) { return false; };
  EXPECT_EQ(select_payee(kDonor, kRequestor, false, kNeighbours, nobody, rng),
            net::kNoPeer);
}

TEST(SelectPayee, IndirectChoiceIsUniform) {
  util::Rng rng(7);
  std::map<PeerId, int> counts;
  for (int i = 0; i < 6000; ++i) {
    ++counts[select_payee(kDonor, kRequestor, false, kNeighbours, anyone, rng)];
  }
  // Candidates are {3,4,5}; ~2000 each.
  EXPECT_EQ(counts.size(), 3u);
  for (const auto& [p, c] : counts) EXPECT_NEAR(c, 2000, 250) << p;
}

TEST(PayeeNeeds, PieceInFlightUnclaimed) {
  bt::Bitfield claimed(4), requestor(4);
  claimed.set(1);
  requestor.set(1);  // nothing of the requestor's is missing
  EXPECT_TRUE(payee_needs(claimed, 0, &requestor));
}

TEST(PayeeNeeds, OnlyARequestorHeldPieceUnclaimed) {
  bt::Bitfield claimed(4), requestor(4);
  claimed.set(0);  // the piece in flight is claimed
  requestor.set(2);
  EXPECT_TRUE(payee_needs(claimed, 0, &requestor));
}

TEST(PayeeNeeds, NeitherUnclaimed) {
  bt::Bitfield claimed(4), requestor(4);
  claimed.set(0);
  claimed.set(2);
  requestor.set(2);
  EXPECT_FALSE(payee_needs(claimed, 0, &requestor));
  bt::Bitfield complete(4);
  for (PieceIndex i = 0; i < 4; ++i) complete.set(i);
  EXPECT_FALSE(payee_needs(complete, 3, &requestor));
}

TEST(PayeeNeeds, RequestorUnknown) {
  // Only the piece in flight can be judged.
  bt::Bitfield claimed(4);
  claimed.set(0);
  EXPECT_TRUE(payee_needs(claimed, 1, nullptr));
  EXPECT_FALSE(payee_needs(claimed, 0, nullptr));
}

TEST(ChainBudget, SeederOrCompleteNodeKeepsItsSlots) {
  EXPECT_EQ(chain_budget(/*seeds=*/true, 8, 0, 8), 8u);  // seeder
  // A complete node seeds too (the engine passes seeds = complete), and a
  // debt does not bind it.
  EXPECT_EQ(chain_budget(/*seeds=*/true, 32, 1, 5), 5u);
}

TEST(BootstrapPiece, PicksPieceBothNeed) {
  util::Rng rng(8);
  bt::Bitfield donor(8), req(8), payee(8);
  for (bt::PieceIndex i = 0; i < 8; ++i) donor.set(i);
  req.set(0);
  req.set(1);     // requestor claims 0,1
  payee.set(1);
  payee.set(2);   // payee claims 1,2
  // Both need: {3..7} (0 claimed by req, 2 claimed by payee).
  std::set<bt::PieceIndex> seen;
  for (int i = 0; i < 200; ++i) {
    const auto p = select_bootstrap_piece(donor, req, payee, rng);
    ASSERT_TRUE(p.has_value());
    EXPECT_GE(*p, 3u);
    seen.insert(*p);
  }
  EXPECT_EQ(seen.size(), 5u);  // covers all of {3..7}
}

TEST(BootstrapPiece, NoneWhenNoCommonNeed) {
  util::Rng rng(9);
  bt::Bitfield donor(4), req(4), payee(4);
  donor.set(0);
  donor.set(1);
  req.set(0);
  payee.set(1);
  // req needs 1 (payee has claimed it); payee needs 0 (req claimed it).
  EXPECT_FALSE(select_bootstrap_piece(donor, req, payee, rng).has_value());
}

TEST(UniformPick, ResetForgetsEarlierOffers) {
  util::Rng rng(10);
  UniformPick<PieceIndex> pick(net::kNoPiece, rng);
  EXPECT_EQ(pick.chosen(), net::kNoPiece);
  pick.offer(1);
  EXPECT_EQ(pick.chosen(), 1u);  // the first offer is always taken
  pick.reset();
  EXPECT_EQ(pick.chosen(), net::kNoPiece);
  pick.offer(2);
  EXPECT_EQ(pick.chosen(), 2u);
}

TEST(OpportunisticSeeding, Trigger) {
  // §II-D3: a leecher's chain budget is one upload, and only with a piece
  // and no debt.
  EXPECT_EQ(chain_budget(false, 1, 0, 8), 1u);
  EXPECT_EQ(chain_budget(false, 10, 0, 8), 1u);
  EXPECT_EQ(chain_budget(false, 0, 0, 8), 0u);  // needs a completed piece
  EXPECT_EQ(chain_budget(false, 5, 1, 8), 0u);  // has unmet obligations
}

}  // namespace
}  // namespace tc::core
