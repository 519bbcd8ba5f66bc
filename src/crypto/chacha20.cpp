#include "src/crypto/chacha20.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <utility>

#include "src/crypto/kernels.h"
#include "src/util/cpu.h"

namespace tc::crypto {

namespace {

// One 32-bit lane per block: lane j of a state word holds that word of
// block j. 16 bytes is SSE2 on x86-64's baseline, so the 4-lane kernel is
// portable C++ with no intrinsics.
typedef std::uint32_t u32x4 __attribute__((vector_size(16)));
#if defined(__x86_64__)
// The wide kernels' words. Only code inlined into the TC_AVX2 and
// TC_AVX512 functions below touches them, and always through references,
// so no 32- or 64-byte vector crosses a call boundary.
typedef std::uint32_t u32x8 __attribute__((vector_size(32)));
typedef std::uint32_t u32x16 __attribute__((vector_size(64)));
#endif

using State = std::array<std::uint32_t, 16>;

// The helpers below serve std::uint32_t (one block) and every vector width
// (one block per lane). They are forced inline so that each target-specific
// kernel compiles them with its own instruction set.
#define TC_INLINE [[gnu::always_inline]] inline

template <int N, typename W>
TC_INLINE void rotl(W& x) {
  x = (x << N) | (x >> (32 - N));
}

template <typename W>
TC_INLINE void quarter_round(W& a, W& b, W& c, W& d) {
  a += b; d ^= a; rotl<16>(d);
  c += d; b ^= c; rotl<12>(b);
  a += b; d ^= a; rotl<8>(d);
  c += d; b ^= c; rotl<7>(b);
}

template <typename W>
TC_INLINE void twenty_rounds(std::array<W, 16>& x) {
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

// Shuffle indices for an L-lane vector that apply the 4-lane pattern `p`
// inside every 128-bit lane: p[i] < 4 picks word p[i] of the first
// operand's lane, p[i] >= 4 word p[i] - 4 of the second's.
template <std::size_t L>
constexpr std::array<int, L> in_lanes(std::array<int, 4> p) {
  std::array<int, L> out{};
  for (std::size_t n = 0; n < L; ++n) {
    const int base = 4 * static_cast<int>(n / 4);
    const int q = p[n % 4];
    out[n] = q < 4 ? base + q : static_cast<int>(L) + base + q - 4;
  }
  return out;
}

// Shuffle indices that place whole 128-bit lanes: result lane i is lane
// u[i] of the two operands' concatenation.
template <std::size_t L>
constexpr std::array<int, L> lanes128(std::array<int, L / 4> u) {
  std::array<int, L> out{};
  for (std::size_t n = 0; n < L; ++n)
    out[n] = 4 * u[n / 4] + static_cast<int>(n % 4);
  return out;
}

template <auto I, typename V, std::size_t... N>
TC_INLINE void shuffle_at(V& out, const V& a, const V& b,
                          std::index_sequence<N...>) {
#if __has_builtin(__builtin_shufflevector)
  out = __builtin_shufflevector(a, b, I[N]...);
#else
  const auto lane = [&](int i) {
    constexpr int n = static_cast<int>(sizeof...(N));
    return i < n ? a[i] : b[i - n];
  };
  out = V{lane(I[N])...};
#endif
}

// Lane n of `out` is lane I[n] of the concatenation a:b.
template <auto I, typename V>
TC_INLINE void shuffle(V& out, const V& a, const V& b) {
  shuffle_at<I>(out, a, b, std::make_index_sequence<I.size()>{});
}

// XORs sizeof(V) bytes of keystream into p; p may be unaligned.
template <typename V>
TC_INLINE void xor_into(std::uint8_t* p, const V& ks) {
  V v;
  std::memcpy(&v, p, sizeof(v));
  v ^= ks;
  std::memcpy(p, &v, sizeof(v));
}

// XORs keystream blocks `s[12]` … `s[12] + L - 1` into p[0, 64 L), L the
// lane count of V. Lane j of x[i] is word i of block j. Each group of four
// words is transposed to block order inside every 128-bit lane, and the
// wide kernels then gather the 128-bit lanes of one block into a single
// store. This matches the block function's little-endian serialisation
// only on a little-endian host.
template <typename V>
TC_INLINE void xor_blocks(const State& s, std::uint8_t* p) {
  constexpr std::size_t L = sizeof(V) / 4;
  std::array<V, 16> in{};
  for (std::size_t i = 0; i < 16; ++i) in[i] = V{} + s[i];
  // Unsigned lanes wrap mod 2^32, exactly as the block counter does.
  V lane{};
  for (std::size_t j = 0; j < L; ++j) lane[j] = static_cast<std::uint32_t>(j);
  in[12] += lane;
  std::array<V, 16> x = in;
  twenty_rounds(x);
  for (std::size_t i = 0; i < 16; ++i) x[i] += in[i];

  // 128-bit lane h of t[g + k] holds words g .. g + 3 of block 4h + k.
  std::array<V, 16> t;
  for (std::size_t g = 0; g < 16; g += 4) {
    V ab_lo, ab_hi, cd_lo, cd_hi;
    shuffle<in_lanes<L>({0, 4, 1, 5})>(ab_lo, x[g], x[g + 1]);
    shuffle<in_lanes<L>({2, 6, 3, 7})>(ab_hi, x[g], x[g + 1]);
    shuffle<in_lanes<L>({0, 4, 1, 5})>(cd_lo, x[g + 2], x[g + 3]);
    shuffle<in_lanes<L>({2, 6, 3, 7})>(cd_hi, x[g + 2], x[g + 3]);
    shuffle<in_lanes<L>({0, 1, 4, 5})>(t[g], ab_lo, cd_lo);
    shuffle<in_lanes<L>({2, 3, 6, 7})>(t[g + 1], ab_lo, cd_lo);
    shuffle<in_lanes<L>({0, 1, 4, 5})>(t[g + 2], ab_hi, cd_hi);
    shuffle<in_lanes<L>({2, 3, 6, 7})>(t[g + 3], ab_hi, cd_hi);
  }

  if constexpr (L == 4) {
    for (std::size_t g = 0; g < 16; g += 4) {
      for (std::size_t k = 0; k < 4; ++k)
        xor_into(p + 64 * k + 4 * g, t[g + k]);
    }
  } else if constexpr (L == 8) {
    // Words g .. g + 7 of blocks k and k + 4.
    for (std::size_t g = 0; g < 16; g += 8) {
      for (std::size_t k = 0; k < 4; ++k) {
        V lo, hi;
        shuffle<lanes128<L>({0, 2})>(lo, t[g + k], t[g + 4 + k]);
        shuffle<lanes128<L>({1, 3})>(hi, t[g + k], t[g + 4 + k]);
        xor_into(p + 64 * k + 4 * g, lo);
        xor_into(p + 64 * (k + 4) + 4 * g, hi);
      }
    }
  } else {
    static_assert(L == 16);
    // A 4×4 transpose of 128-bit lanes: block 4h + k is lane h of t[k],
    // t[4 + k], t[8 + k] and t[12 + k].
    for (std::size_t k = 0; k < 4; ++k) {
      V ab_lo, ab_hi, cd_lo, cd_hi, b0, b1, b2, b3;
      shuffle<lanes128<L>({0, 4, 1, 5})>(ab_lo, t[k], t[4 + k]);
      shuffle<lanes128<L>({2, 6, 3, 7})>(ab_hi, t[k], t[4 + k]);
      shuffle<lanes128<L>({0, 4, 1, 5})>(cd_lo, t[8 + k], t[12 + k]);
      shuffle<lanes128<L>({2, 6, 3, 7})>(cd_hi, t[8 + k], t[12 + k]);
      shuffle<lanes128<L>({0, 1, 4, 5})>(b0, ab_lo, cd_lo);
      shuffle<lanes128<L>({2, 3, 6, 7})>(b1, ab_lo, cd_lo);
      shuffle<lanes128<L>({0, 1, 4, 5})>(b2, ab_hi, cd_hi);
      shuffle<lanes128<L>({2, 3, 6, 7})>(b3, ab_hi, cd_hi);
      xor_into(p + 64 * k, b0);
      xor_into(p + 64 * (4 + k), b1);
      xor_into(p + 64 * (8 + k), b2);
      xor_into(p + 64 * (12 + k), b3);
    }
  }
}

#if defined(__x86_64__)

// L-lane steps of 64 L bytes while at least one fits, then the 4-lane
// kernel for the rest.
template <typename V>
TC_INLINE void xor_wide(const ChaChaKey& key, const ChaChaNonce& nonce,
                        std::uint32_t counter, std::uint8_t* data,
                        std::size_t len) {
  constexpr std::size_t step = sizeof(V) * 16;
  State state = initial_state(key, nonce, counter);
  for (; len >= step; data += step, len -= step) {
    xor_blocks<V>(state, data);
    state[12] += static_cast<std::uint32_t>(sizeof(V) / 4);
  }
  detail::chacha20_xor_4lane(key, nonce, state[12], data, len);
}

// Only the functions marked TC_AVX2 or TC_AVX512 may use these
// instructions; the dispatcher calls them only after CPUID said so.
#define TC_AVX2 __attribute__((target("avx2")))
#define TC_AVX512 __attribute__((target("avx512f,avx512vl")))

TC_AVX2 void xor_avx2(const ChaChaKey& key, const ChaChaNonce& nonce,
                      std::uint32_t counter, std::uint8_t* data,
                      std::size_t len) {
  xor_wide<u32x8>(key, nonce, counter, data, len);
}

TC_AVX512 void xor_avx512(const ChaChaKey& key, const ChaChaNonce& nonce,
                          std::uint32_t counter, std::uint8_t* data,
                          std::size_t len) {
  xor_wide<u32x16>(key, nonce, counter, data, len);
}

#undef TC_AVX2
#undef TC_AVX512

#endif

#undef TC_INLINE

struct Kernel {
  detail::ChaCha20Xor fn;
  const char* name;
};

// The widest kernel this CPU runs, chosen once per process.
const Kernel& kernel() {
  static const Kernel k = [] {
    if (const detail::ChaCha20Xor fn = detail::chacha20_xor_avx512())
      return Kernel{fn, "avx512"};
    if (const detail::ChaCha20Xor fn = detail::chacha20_xor_avx2())
      return Kernel{fn, "avx2"};
    return Kernel{&detail::chacha20_xor_4lane, "4-lane"};
  }();
  return k;
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

void chacha20_xor_4lane(const ChaChaKey& key, const ChaChaNonce& nonce,
                        std::uint32_t counter, std::uint8_t* data,
                        std::size_t len) {
  if constexpr (std::endian::native == std::endian::little) {
    State state = initial_state(key, nonce, counter);
    for (; len >= 256; data += 256, len -= 256) {
      xor_blocks<u32x4>(state, data);
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

ChaCha20Xor chacha20_xor_avx2() {
#if defined(__x86_64__)
  return util::cpu_features().avx2 ? &xor_avx2 : nullptr;
#else
  return nullptr;
#endif
}

ChaCha20Xor chacha20_xor_avx512() {
#if defined(__x86_64__)
  const util::CpuFeatures& f = util::cpu_features();
  return f.avx512f && f.avx512vl ? &xor_avx512 : nullptr;
#else
  return nullptr;
#endif
}

const char* chacha20_kernel_name() { return kernel().name; }

void chacha20_xor_inplace(const ChaChaKey& key, const ChaChaNonce& nonce,
                          std::uint32_t counter, std::uint8_t* data,
                          std::size_t len) {
  kernel().fn(key, nonce, counter, data, len);
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
