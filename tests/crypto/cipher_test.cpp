#include "src/crypto/cipher.h"

#include <gtest/gtest.h>

#include <set>

namespace tc::crypto {
namespace {

TEST(KeySource, KeysAreUniqueAndDeterministic) {
  KeySource a(99), b(99);
  std::set<std::string> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto ka = a.next();
    const auto kb = b.next();
    EXPECT_EQ(ka, kb);  // deterministic from seed
    seen.insert(util::to_hex(ka.serialize()));
  }
  EXPECT_EQ(seen.size(), 1000u);  // never reused (paper footnote 2)
}

TEST(SymmetricKey, SerializeRoundTrip) {
  KeySource ks(5);
  const auto k = ks.next();
  EXPECT_EQ(SymmetricKey::deserialize(k.serialize()), k);
  EXPECT_EQ(k.serialize().size(), 44u);  // 32-byte key + 12-byte nonce
}

TEST(SymmetricKey, DeserializeRejectsBadSize) {
  EXPECT_THROW(SymmetricKey::deserialize(util::Bytes(10)), std::invalid_argument);
}

class CipherRoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CipherRoundTrip, EncryptDecrypt) {
  const std::size_t len = GetParam();
  KeySource ks(1234);
  const auto key = ks.next();

  util::Bytes plain(len);
  for (std::size_t i = 0; i < len; ++i)
    plain[i] = static_cast<std::uint8_t>(i * 31 + 5);

  const auto ct = piece_xor(key, plain);
  ASSERT_EQ(ct.size(), plain.size());  // stream cipher: no expansion
  if (len > 8) {
    EXPECT_NE(ct, plain);
  }
  EXPECT_EQ(piece_xor(key, ct), plain);

  // Wrong key fails to decrypt (paper §III-A2: ciphertext useless without
  // the matching key).
  const auto wrong = ks.next();
  if (len > 8) {
    EXPECT_NE(piece_xor(wrong, ct), plain);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, CipherRoundTrip,
                         ::testing::Values(std::size_t{0}, std::size_t{1},
                                           std::size_t{15}, std::size_t{64},
                                           std::size_t{1000},
                                           std::size_t{128 * 1024}));

TEST(Cipher, SameKeySamePlaintextSameCiphertext) {
  KeySource ks(7);
  const auto key = ks.next();
  const util::Bytes plain(100, 0xee);
  EXPECT_EQ(piece_xor(key, plain), piece_xor(key, plain));
}

TEST(Cipher, DifferentKeysDifferentCiphertext) {
  KeySource ks(8);
  const util::Bytes plain(100, 0xee);
  EXPECT_NE(piece_xor(ks.next(), plain), piece_xor(ks.next(), plain));
}

TEST(Cipher, LayeredKeysPeelInEitherOrder) {
  // The §II-D1 key cascade forwards a still-encrypted piece re-encrypted
  // under a second key; its holder peels the keys in arrival order.
  KeySource ks(9);
  const auto k1 = ks.next();
  const auto k2 = ks.next();
  util::Bytes plain(3000);
  for (std::size_t i = 0; i < plain.size(); ++i)
    plain[i] = static_cast<std::uint8_t>(i * 7 + 3);
  const auto layered = piece_xor(k2, piece_xor(k1, plain));
  EXPECT_NE(piece_xor(k1, layered), plain);
  EXPECT_EQ(piece_xor(k2, piece_xor(k1, layered)), plain);
  EXPECT_EQ(piece_xor(k1, piece_xor(k2, layered)), plain);
}

TEST(Cipher, PieceXorIsChaCha20FromBlockOne) {
  // piece_xor runs the in-place kernel on the buffer it is given; the bytes
  // are chacha20_xor's at block counter 1 (RFC 8439 §2.4).
  KeySource ks(10);
  const auto key = ks.next();
  util::Bytes plain(5000);
  for (std::size_t i = 0; i < plain.size(); ++i)
    plain[i] = static_cast<std::uint8_t>(i * 13 + 1);
  const auto expected = chacha20_xor(key.key, key.nonce, 1, plain);
  EXPECT_EQ(piece_xor(key, plain), expected);
  EXPECT_EQ(piece_xor(key, util::Bytes(plain)), expected);
}

}  // namespace
}  // namespace tc::crypto
