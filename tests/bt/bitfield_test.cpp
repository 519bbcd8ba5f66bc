#include "src/bt/bitfield.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/bt/row_kernels.h"
#include "src/util/rng.h"

namespace tc::bt {
namespace {

TEST(Bitfield, SetGetClearCount) {
  Bitfield bf(100);
  EXPECT_EQ(bf.size(), 100u);
  EXPECT_TRUE(bf.empty());
  bf.set(0);
  bf.set(63);
  bf.set(64);
  bf.set(99);
  EXPECT_EQ(bf.count(), 4u);
  EXPECT_TRUE(bf.get(63));
  EXPECT_TRUE(bf.get(64));
  EXPECT_FALSE(bf.get(1));
  bf.clear(63);
  EXPECT_FALSE(bf.get(63));
  EXPECT_EQ(bf.count(), 3u);
}

TEST(Bitfield, SetIsIdempotent) {
  Bitfield bf(10);
  bf.set(5);
  bf.set(5);
  EXPECT_EQ(bf.count(), 1u);
  bf.clear(5);
  bf.clear(5);
  EXPECT_EQ(bf.count(), 0u);
}

TEST(Bitfield, OutOfRangeThrows) {
  Bitfield bf(10);
  EXPECT_THROW(bf.get(10), std::out_of_range);
  EXPECT_THROW(bf.set(10), std::out_of_range);
  EXPECT_THROW(bf.clear(99), std::out_of_range);
}

TEST(Bitfield, Complete) {
  Bitfield bf(3);
  bf.set(0);
  bf.set(1);
  EXPECT_FALSE(bf.complete());
  bf.set(2);
  EXPECT_TRUE(bf.complete());
  EXPECT_FALSE(Bitfield(0).complete());  // empty file is never "complete"
}

TEST(Bitfield, InterestedIn) {
  Bitfield mine(10), theirs(10);
  theirs.set(3);
  EXPECT_TRUE(mine.interested_in(theirs));
  mine.set(3);
  EXPECT_FALSE(mine.interested_in(theirs));
  theirs.set(7);
  EXPECT_TRUE(mine.interested_in(theirs));
}

TEST(Bitfield, InterestedInSizeMismatchThrows) {
  Bitfield a(10), b(11);
  EXPECT_THROW(a.interested_in(b), std::invalid_argument);
}

TEST(Bitfield, MissingFrom) {
  Bitfield mine(130), theirs(130);
  theirs.set(0);
  theirs.set(64);
  theirs.set(129);
  mine.set(64);
  const auto missing = mine.missing_from(theirs);
  EXPECT_EQ(missing, (std::vector<PieceIndex>{0, 129}));
}

TEST(Bitfield, ForEachMissingFromMatchesMissingFrom) {
  // Random bitfields at sizes on, below and past 64-bit word edges.
  util::Rng rng(17);
  for (const std::size_t n : {1u, 63u, 64u, 65u, 130u, 200u, 256u}) {
    for (int round = 0; round < 20; ++round) {
      Bitfield mine(n), theirs(n);
      const double p_mine = rng.uniform(0.0, 1.0);
      const double p_theirs = rng.uniform(0.0, 1.0);
      for (PieceIndex i = 0; i < n; ++i) {
        if (rng.bernoulli(p_mine)) mine.set(i);
        if (rng.bernoulli(p_theirs)) theirs.set(i);
      }
      std::vector<PieceIndex> walked;
      mine.for_each_missing_from(
          theirs, [&walked](PieceIndex i) { walked.push_back(i); });
      EXPECT_EQ(walked, mine.missing_from(theirs)) << n;
    }
  }
}

TEST(Bitfield, ForEachMissingFromSizeMismatchThrows) {
  Bitfield a(64), b(65);
  std::size_t calls = 0;
  EXPECT_THROW(a.for_each_missing_from(b, [&calls](PieceIndex) { ++calls; }),
               std::invalid_argument);
  EXPECT_EQ(calls, 0u);
}

TEST(Bitfield, ToVector) {
  Bitfield bf(70);
  bf.set(69);
  bf.set(2);
  EXPECT_EQ(bf.to_vector(), (std::vector<PieceIndex>{2, 69}));
}

TEST(Bitfield, ForEachWalksSetPiecesInAscendingOrder) {
  // Word edges (63/64, 127/128) and a partial last word.
  Bitfield bf(200);
  for (PieceIndex i : {199u, 0u, 128u, 63u, 5u, 64u, 127u, 150u}) bf.set(i);
  std::vector<PieceIndex> by_get;
  for (PieceIndex i = 0; i < bf.size(); ++i) {
    if (bf.get(i)) by_get.push_back(i);
  }
  std::vector<PieceIndex> walked;
  bf.for_each([&walked](PieceIndex i) { walked.push_back(i); });
  EXPECT_EQ(walked, by_get);

  std::size_t calls = 0;
  Bitfield(130).for_each([&calls](PieceIndex) { ++calls; });
  EXPECT_EQ(calls, 0u);
}

// A random have set of `n` pieces at `density`, as a Bitfield and as the
// raw words the row kernels take.
struct RandomHave {
  Bitfield bits;
  std::vector<std::uint64_t> words;

  RandomHave(std::size_t n, double density, util::Rng& rng)
      : bits(n), words((n + 63) / 64, 0) {
    for (PieceIndex i = 0; i < n; ++i) {
      if (!rng.bernoulli(density)) continue;
      bits.set(i);
      words[i / 64] |= std::uint64_t{1} << (i % 64);
    }
  }
};

constexpr std::size_t kRowSizes[] = {1, 63, 64, 65, 256, 2047, 2048};
// Empty, sparse, half and full.
constexpr double kRowDensities[] = {0.0, 0.05, 0.5, 1.0};
constexpr std::size_t kGuard = 32;  // counters past the row end
constexpr std::uint32_t kGuardValue = 0xdeadbeef;

// A row of `n` random counters, each >= 1 so that -1 never wraps, then
// kGuard guard counters.
std::vector<std::uint32_t> random_row(std::size_t n, util::Rng& rng) {
  std::vector<std::uint32_t> row(n + kGuard, kGuardValue);
  for (std::size_t i = 0; i < n; ++i) {
    row[i] = static_cast<std::uint32_t>(rng.uniform_int(1, 1000));
  }
  return row;
}

TEST(Bitfield, EveryRowKernelTheCpuRunsMatchesTheScalarLoop) {
  std::vector<std::pair<const char*, detail::RowAdd>> kernels = {
      {"scalar", &detail::row_add_scalar}};
  if (const detail::RowAdd fn = detail::row_add_avx512())
    kernels.emplace_back("avx512", fn);
  util::Rng rng(23);
  for (const auto& [name, kernel] : kernels) {
    for (const std::size_t n : kRowSizes) {
      for (const double density : kRowDensities) {
        for (const std::int32_t delta : {+1, -1}) {
          const RandomHave have(n, density, rng);
          std::vector<std::uint32_t> want = random_row(n, rng);
          std::vector<std::uint32_t> got = want;
          for (PieceIndex i = 0; i < n; ++i) {
            if (have.bits.get(i)) want[i] += static_cast<std::uint32_t>(delta);
          }
          kernel(have.words.data(), n, got.data(),
                 static_cast<std::uint32_t>(delta));
          // The guards past the row end are compared too: untouched.
          EXPECT_EQ(got, want) << name << " n=" << n << " density="
                               << density << " delta=" << delta;
        }
      }
    }
  }
}

TEST(Bitfield, AddToMatchesTheScalarLoopAndUndoes) {
  util::Rng rng(29);
  for (const std::size_t n : kRowSizes) {
    for (const double density : {0.0, 0.01, 0.05, 0.09, 0.11, 0.36, 0.69, 1.0}) {
      const RandomHave have(n, density, rng);
      const std::vector<std::uint32_t> before = random_row(n, rng);
      std::vector<std::uint32_t> want = before;
      detail::row_add_scalar(have.words.data(), n, want.data(), 1);
      std::vector<std::uint32_t> got = before;
      have.bits.add_to(std::span(got.data(), n), +1);
      EXPECT_EQ(got, want) << detail::row_add_kernel_name() << " n=" << n
                           << " density=" << density;
      have.bits.add_to(std::span(got.data(), n), -1);
      EXPECT_EQ(got, before) << n << " " << density;
    }
  }
}

TEST(Bitfield, AddToRowSizeMismatchThrows) {
  Bitfield bf(64);
  bf.set(3);
  std::vector<std::uint32_t> shorter(63, 0), longer(65, 0);
  EXPECT_THROW(bf.add_to(shorter, +1), std::invalid_argument);
  EXPECT_THROW(bf.add_to(longer, +1), std::invalid_argument);
  EXPECT_EQ(shorter[3], 0u);
  EXPECT_EQ(longer[3], 0u);
}

class BitfieldMessageRoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BitfieldMessageRoundTrip, Wire) {
  const std::size_t n = GetParam();
  Bitfield bf(n);
  for (PieceIndex i = 0; i < n; i += 3) bf.set(i);
  const Bitfield back = Bitfield::from_message(bf.to_message());
  EXPECT_EQ(back, bf);
}

INSTANTIATE_TEST_SUITE_P(Sizes, BitfieldMessageRoundTrip,
                         ::testing::Values(1, 7, 8, 9, 63, 64, 65, 100, 2048));

TEST(Bitfield, FromMessageRejectsShortBits) {
  net::BitfieldMsg m;
  m.piece_count = 100;
  m.bits = util::Bytes(5);  // needs 13
  EXPECT_THROW(Bitfield::from_message(m), std::invalid_argument);
}

}  // namespace
}  // namespace tc::bt
