// RFC 8439 ChaCha20 test vectors.
#include "src/crypto/chacha20.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>

#include "src/crypto/kernels.h"
#include "src/util/bytes.h"

namespace tc::crypto {
namespace {

ChaChaKey test_key() {
  ChaChaKey k;
  for (int i = 0; i < 32; ++i) k[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(i);
  return k;
}

TEST(ChaCha20, Rfc8439BlockFunction) {
  // RFC 8439 §2.3.2: key 00..1f, nonce 00:00:00:09:00:00:00:4a:00:00:00:00,
  // counter 1.
  ChaChaNonce nonce{0x00, 0x00, 0x00, 0x09, 0x00, 0x00,
                    0x00, 0x4a, 0x00, 0x00, 0x00, 0x00};
  const auto block = chacha20_block(test_key(), nonce, 1);
  EXPECT_EQ(util::to_hex(block.data(), block.size()),
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e"
            "d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e");
}

TEST(ChaCha20, Rfc8439Encryption) {
  // RFC 8439 §2.4.2 "sunscreen" vector.
  ChaChaNonce nonce{0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
                    0x00, 0x4a, 0x00, 0x00, 0x00, 0x00};
  const std::string pt =
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.";
  util::Bytes plain(pt.begin(), pt.end());
  const auto ct = chacha20_xor(test_key(), nonce, 1, plain);
  EXPECT_EQ(util::to_hex(ct),
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b"
            "f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8"
            "07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736"
            "5af90bbf74a35be6b40b8eedf2785e42874d");
}

TEST(ChaCha20, RoundTrip) {
  ChaChaNonce nonce{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12};
  util::Bytes data(1000);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<std::uint8_t>(i * 7);
  const auto ct = chacha20_xor(test_key(), nonce, 0, data);
  EXPECT_NE(ct, data);
  EXPECT_EQ(chacha20_xor(test_key(), nonce, 0, ct), data);
}

TEST(ChaCha20, CounterMatters) {
  ChaChaNonce nonce{};
  const util::Bytes data(64, 0);
  EXPECT_NE(chacha20_xor(test_key(), nonce, 0, data),
            chacha20_xor(test_key(), nonce, 1, data));
}

TEST(ChaCha20, NonAlignedLengths) {
  ChaChaNonce nonce{};
  for (std::size_t len : {0u, 1u, 63u, 64u, 65u, 127u, 130u}) {
    util::Bytes data(len, 0x42);
    const auto ct = chacha20_xor(test_key(), nonce, 7, data);
    ASSERT_EQ(ct.size(), len);
    EXPECT_EQ(chacha20_xor(test_key(), nonce, 7, ct), data);
  }
}

TEST(ChaCha20, MultiBlockMatchesBlockFunction) {
  // The kernel chacha20_xor dispatches to against the one-block reference,
  // across its step, the scalar tail and a counter that wraps mod 2^32
  // mid-step. Each kernel is checked on its own below.
  const ChaChaNonce nonce{0, 0, 0, 9, 0, 0, 0, 0x4a, 0, 0, 0, 1};
  for (const std::uint32_t counter : {0u, 1u, 0xfffffffcu}) {
    for (const std::size_t len : {0u, 1u, 63u, 64u, 65u, 255u, 256u, 257u,
                                  511u, 513u, 4103u, 262144u}) {
      util::Bytes data(len);
      for (std::size_t i = 0; i < len; ++i)
        data[i] = static_cast<std::uint8_t>(i * 131 + 7);
      util::Bytes expected = data;
      for (std::size_t i = 0; i < len; i += 64) {
        const auto block = chacha20_block(
            test_key(), nonce, counter + static_cast<std::uint32_t>(i / 64));
        for (std::size_t j = 0; j < 64 && i + j < len; ++j)
          expected[i + j] ^= block[j];
      }
      EXPECT_EQ(chacha20_xor(test_key(), nonce, counter, data), expected)
          << "counter=" << counter << " len=" << len;
    }
  }
}

// Runs `kernel` in place over data at offsets 0-15 from a 64-byte aligned
// base, for lengths around each kernel's 256-, 512- and 1024-byte step and
// for counters that wrap mod 2^32 mid-step, and compares the result with
// the chacha20_block keystream. The bytes around the data must not change.
void expect_matches_block_function(detail::ChaCha20Xor kernel) {
  constexpr std::size_t kMaxLen = 262144;
  constexpr std::size_t kPad = 64;
  const ChaChaNonce nonce{0, 0, 0, 9, 0, 0, 0, 0x4a, 0, 0, 0, 1};
  for (const std::uint32_t counter : {0u, 1u, 0xfffffff0u, 0xfffffffcu}) {
    util::Bytes keystream(kMaxLen);
    for (std::size_t i = 0; i < kMaxLen; i += 64) {
      const auto block = chacha20_block(
          test_key(), nonce, counter + static_cast<std::uint32_t>(i / 64));
      std::copy(block.begin(), block.end(), keystream.begin() + i);
    }
    for (const std::size_t len :
         {0u, 1u, 255u, 256u, 257u, 511u, 512u, 513u, 1023u, 1024u, 1025u,
          4103u, 262144u}) {
      util::Bytes pattern(len + 3 * kPad);
      for (std::size_t i = 0; i < pattern.size(); ++i)
        pattern[i] = static_cast<std::uint8_t>(i * 131 + 7);
      util::Bytes got(pattern.size());
      const auto addr = reinterpret_cast<std::uintptr_t>(got.data());
      const std::size_t base = (kPad - addr % kPad) % kPad;
      for (std::size_t offset = 0; offset < 16; ++offset) {
        const std::size_t start = base + offset;
        util::Bytes expected = pattern;
        for (std::size_t i = 0; i < len; ++i)
          expected[start + i] ^= keystream[i];
        std::copy(pattern.begin(), pattern.end(), got.begin());
        kernel(test_key(), nonce, counter, got.data() + start, len);
        const auto diff =
            std::mismatch(got.begin(), got.end(), expected.begin());
        EXPECT_TRUE(diff.first == got.end())
            << "counter=" << counter << " len=" << len
            << " offset=" << offset << " first wrong byte at "
            << static_cast<long>(diff.first - got.begin()) -
                   static_cast<long>(start);
      }
    }
  }
}

TEST(ChaCha20, FourLaneKernelMatchesBlockFunction) {
  // Called directly: on a CPU with a wider kernel chacha20_xor never
  // reaches it.
  expect_matches_block_function(&detail::chacha20_xor_4lane);
}

TEST(ChaCha20, Avx2KernelMatchesBlockFunction) {
  const detail::ChaCha20Xor kernel = detail::chacha20_xor_avx2();
  if (kernel == nullptr) GTEST_SKIP() << "CPU lacks AVX2";
  expect_matches_block_function(kernel);
}

TEST(ChaCha20, Avx512KernelMatchesBlockFunction) {
  const detail::ChaCha20Xor kernel = detail::chacha20_xor_avx512();
  if (kernel == nullptr) GTEST_SKIP() << "CPU lacks AVX-512F and AVX-512VL";
  expect_matches_block_function(kernel);
}

TEST(ChaCha20, DispatchPicksTheWidestKernel) {
  const std::string name = detail::chacha20_kernel_name();
  if (detail::chacha20_xor_avx512() != nullptr) {
    EXPECT_EQ(name, "avx512");
  } else if (detail::chacha20_xor_avx2() != nullptr) {
    EXPECT_EQ(name, "avx2");
  } else {
    EXPECT_EQ(name, "4-lane");
  }
}

}  // namespace
}  // namespace tc::crypto
