// RFC 8439 ChaCha20 test vectors.
#include "src/crypto/chacha20.h"

#include <gtest/gtest.h>

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
  // The 4-lane kernel against the one-block reference, across its 256-byte
  // step, the scalar tail and a counter that wraps mod 2^32 mid-step.
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

}  // namespace
}  // namespace tc::crypto
