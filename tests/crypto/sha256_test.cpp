// NIST FIPS 180-4 test vectors.
#include "src/crypto/sha256.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "src/crypto/kernels.h"
#include "src/util/bytes.h"
#include "src/util/rng.h"

namespace tc::crypto {
namespace {

std::string hex(const Digest256& d) {
  return util::to_hex(d.data(), d.size());
}

TEST(Sha256, EmptyString) {
  EXPECT_EQ(hex(sha256("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(hex(sha256("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(hex(sha256("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(hex(h.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalEqualsOneShot) {
  const std::string msg =
      "The quick brown fox jumps over the lazy dog, repeatedly and with vigor.";
  for (std::size_t split = 0; split <= msg.size(); split += 7) {
    Sha256 h;
    h.update(msg.substr(0, split));
    h.update(msg.substr(split));
    EXPECT_EQ(hex(h.finish()), hex(sha256(msg))) << "split=" << split;
  }
}

TEST(Sha256, PaddingBoundaries) {
  // 'x' * len around the 55/56/64-byte padding edges; digests from
  // Python's hashlib.
  const std::pair<std::size_t, const char*> cases[] = {
      {54, "45f316e10b2c99abf374b22bda893cf3300d77263f1e272349ed414680522952"},
      {55, "d5e285683cd4efc02d021a5c62014694958901005d6f71e89e0989fac77e4072"},
      {56, "04c26261370ee7541549d16dee320c723e3fd14671e66a099afe0a377c16888e"},
      {57, "ae14a2563ccf969d99aca69ce6bb74981f734bbf9f655f73b8f06db68cab5217"},
      {63, "75220b47218278e656f2013bb8f0c455a25eaf01e86c64924e9d48d89776d6f2"},
      {64, "7ce100971f64e7001e8fe5a51973ecdfe1ced42befe7ee8d5fd6219506b5393c"},
      {65, "9537c5fdf120482f7d58d25e9ed583f52c02b4e304ea814db1633ad565aed7e9"},
      {119, "000b48d4edf0fa7bee3c6236ecd2785baa5db4eeb8bb54341b029e0d9fa5fb0c"},
      {120, "13f05a0b594787f5ecd315edc96141bd3243203d1b7d4f0836f37308b276ba98"},
      {128, "24da1b81d0b16df6428eee73c69fcb2a93c76bc6df706f0c6670fe6bfe800464"},
  };
  for (const auto& [len, digest] : cases) {
    EXPECT_EQ(hex(sha256(std::string(len, 'x'))), digest) << "len=" << len;
  }
}

// FIPS 180-4 padding and output, compressing with `blocks` alone: the
// digest of `m` without Sha256's buffering or its choice of path.
std::string digest_with(detail::Sha256Blocks blocks, const util::Bytes& m) {
  util::Bytes padded = m;
  padded.push_back(0x80);
  while (padded.size() % 64 != 56) padded.push_back(0);
  const std::uint64_t bits = static_cast<std::uint64_t>(m.size()) * 8;
  for (int i = 7; i >= 0; --i)
    padded.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
  detail::Sha256State h{0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                        0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  blocks(h, padded.data(), padded.size() / 64);
  Digest256 out{};
  for (std::size_t i = 0; i < 8; ++i)
    for (std::size_t b = 0; b < 4; ++b)
      out[4 * i + b] = static_cast<std::uint8_t>(h[i] >> (24 - 8 * b));
  return hex(out);
}

TEST(Sha256, HardwareAndPortableAgree) {
  const detail::Sha256Blocks hw = detail::sha256_blocks_hw();
  if (hw == nullptr) GTEST_SKIP() << "CPU lacks the SHA extensions";
  util::Rng rng(180);
  for (int trial = 0; trial < 300; ++trial) {
    util::Bytes m(rng.index(1101));
    for (auto& byte : m) byte = static_cast<std::uint8_t>(rng.next_u64());
    const std::string portable =
        digest_with(&detail::sha256_blocks_portable, m);
    EXPECT_EQ(digest_with(hw, m), portable) << "len=" << m.size();
    EXPECT_EQ(hex(sha256(m)), portable) << "len=" << m.size();

    // Three updates: a buffered head, whole blocks straight from the
    // caller's buffer, and a buffered tail, at random cut points.
    const std::size_t cut1 = rng.index(m.size() + 1);
    const std::size_t cut2 = cut1 + rng.index(m.size() - cut1 + 1);
    Sha256 h;
    h.update(m.data(), cut1);
    h.update(m.data() + cut1, cut2 - cut1);
    h.update(m.data() + cut2, m.size() - cut2);
    EXPECT_EQ(hex(h.finish()), portable)
        << "len=" << m.size() << " cuts=" << cut1 << "," << cut2;
  }
}

TEST(Sha256, BytesOverload) {
  const util::Bytes b{'a', 'b', 'c'};
  EXPECT_EQ(hex(sha256(b)), hex(sha256("abc")));
}

}  // namespace
}  // namespace tc::crypto
