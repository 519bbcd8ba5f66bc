#include "src/crypto/chacha20.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "src/crypto/kernels.h"

namespace tc::crypto {

namespace {

// Four 32-bit lanes: one state word of four consecutive blocks. 16 bytes
// is SSE2 on x86-64's baseline (a 32-byte vector without AVX draws
// -Wpsabi), so this stays portable C++ with no intrinsics.
typedef std::uint32_t u32x4 __attribute__((vector_size(16)));

using State = std::array<std::uint32_t, 16>;

// W is std::uint32_t (one block) or u32x4 (four blocks, lane-wise).
template <typename W>
inline W rotl(W x, int n) {
  return (x << n) | (x >> (32 - n));
}

template <typename W>
inline void quarter_round(W& a, W& b, W& c, W& d) {
  a += b; d ^= a; d = rotl(d, 16);
  c += d; b ^= c; b = rotl(b, 12);
  a += b; d ^= a; d = rotl(d, 8);
  c += d; b ^= c; b = rotl(b, 7);
}

template <typename W>
inline void twenty_rounds(std::array<W, 16>& x) {
  for (int round = 0; round < 10; ++round) {
    quarter_round(x[0], x[4], x[8], x[12]);
    quarter_round(x[1], x[5], x[9], x[13]);
    quarter_round(x[2], x[6], x[10], x[14]);
    quarter_round(x[3], x[7], x[11], x[15]);
    quarter_round(x[0], x[5], x[10], x[15]);
    quarter_round(x[1], x[6], x[11], x[12]);
    quarter_round(x[2], x[7], x[8], x[13]);
    quarter_round(x[3], x[4], x[9], x[14]);
  }
}

inline std::uint32_t load_le32(const std::uint8_t* p) {
  return std::uint32_t{p[0]} | (std::uint32_t{p[1]} << 8) |
         (std::uint32_t{p[2]} << 16) | (std::uint32_t{p[3]} << 24);
}

inline void store_le32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

State initial_state(const ChaChaKey& key, const ChaChaNonce& nonce,
                    std::uint32_t counter) {
  State s{};
  s[0] = 0x61707865;
  s[1] = 0x3320646e;
  s[2] = 0x79622d32;
  s[3] = 0x6b206574;
  for (std::size_t i = 0; i < 8; ++i) s[4 + i] = load_le32(key.data() + 4 * i);
  s[12] = counter;
  for (std::size_t i = 0; i < 3; ++i)
    s[13 + i] = load_le32(nonce.data() + 4 * i);
  return s;
}

// Result lane k is lane Ik of the eight-lane concatenation a:b.
template <int I0, int I1, int I2, int I3>
inline u32x4 shuffle(u32x4 a, u32x4 b) {
#if __has_builtin(__builtin_shufflevector)
  return __builtin_shufflevector(a, b, I0, I1, I2, I3);
#else
  const auto lane = [&](int i) { return i < 4 ? a[i] : b[i - 4]; };
  return u32x4{lane(I0), lane(I1), lane(I2), lane(I3)};
#endif
}

// XORs 16 bytes of keystream into p[0, 16); p may be unaligned.
inline void xor16(std::uint8_t* p, u32x4 ks) {
  u32x4 v{};
  std::memcpy(&v, p, sizeof(v));
  v ^= ks;
  std::memcpy(p, &v, sizeof(v));
}

// XORs keystream blocks `s[12]` … `s[12] + 3` into p[0, 256). Lane j of
// x[i] is word i of block j; each group of four words is transposed to
// block order and applied 16 bytes at a time, which matches the block
// function's little-endian serialisation only on a little-endian host.
void xor_four_blocks(const State& s, std::uint8_t* p) {
  std::array<u32x4, 16> in{};
  for (std::size_t i = 0; i < 16; ++i) in[i] = u32x4{} + s[i];
  // Unsigned lanes wrap mod 2^32, exactly as the block counter does.
  in[12] += u32x4{0, 1, 2, 3};
  std::array<u32x4, 16> x = in;
  twenty_rounds(x);
  for (std::size_t i = 0; i < 16; ++i) x[i] += in[i];

  for (std::size_t g = 0; g < 16; g += 4) {
    const u32x4 ab_lo = shuffle<0, 4, 1, 5>(x[g], x[g + 1]);
    const u32x4 ab_hi = shuffle<2, 6, 3, 7>(x[g], x[g + 1]);
    const u32x4 cd_lo = shuffle<0, 4, 1, 5>(x[g + 2], x[g + 3]);
    const u32x4 cd_hi = shuffle<2, 6, 3, 7>(x[g + 2], x[g + 3]);
    xor16(p + 4 * g, shuffle<0, 1, 4, 5>(ab_lo, cd_lo));
    xor16(p + 64 + 4 * g, shuffle<2, 3, 6, 7>(ab_lo, cd_lo));
    xor16(p + 128 + 4 * g, shuffle<0, 1, 4, 5>(ab_hi, cd_hi));
    xor16(p + 192 + 4 * g, shuffle<2, 3, 6, 7>(ab_hi, cd_hi));
  }
}

}  // namespace

std::array<std::uint8_t, 64> chacha20_block(const ChaChaKey& key,
                                            const ChaChaNonce& nonce,
                                            std::uint32_t counter) {
  const State state = initial_state(key, nonce, counter);
  State x = state;
  twenty_rounds(x);
  std::array<std::uint8_t, 64> out;
  for (std::size_t i = 0; i < 16; ++i)
    store_le32(out.data() + 4 * i, x[i] + state[i]);
  return out;
}

namespace detail {

void chacha20_xor_inplace(const ChaChaKey& key, const ChaChaNonce& nonce,
                          std::uint32_t counter, std::uint8_t* data,
                          std::size_t len) {
  if constexpr (std::endian::native == std::endian::little) {
    State state = initial_state(key, nonce, counter);
    for (; len >= 256; data += 256, len -= 256) {
      xor_four_blocks(state, data);
      state[12] += 4;
    }
    counter = state[12];
  }
  while (len > 0) {
    const auto block = chacha20_block(key, nonce, counter++);
    const std::size_t take = std::min<std::size_t>(64, len);
    for (std::size_t i = 0; i < take; ++i) data[i] ^= block[i];
    data += take;
    len -= take;
  }
}

}  // namespace detail

util::Bytes chacha20_xor(const ChaChaKey& key, const ChaChaNonce& nonce,
                         std::uint32_t initial_counter,
                         const util::Bytes& input) {
  util::Bytes out = input;
  detail::chacha20_xor_inplace(key, nonce, initial_counter, out.data(),
                               out.size());
  return out;
}

}  // namespace tc::crypto
