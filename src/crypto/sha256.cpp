#include "src/crypto/sha256.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "src/crypto/kernels.h"
#include "src/util/cpu.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace tc::crypto {

namespace {

constexpr std::uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline std::uint32_t rotr(std::uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

// One block of the FIPS 180-4 compression function, one word at a time.
void process_block(detail::Sha256State& state, const std::uint8_t* p) {
  std::array<std::uint32_t, 64> w;
  for (std::size_t i = 0; i < 16; ++i) {
    w[i] = (std::uint32_t{p[4 * i]} << 24) | (std::uint32_t{p[4 * i + 1]} << 16) |
           (std::uint32_t{p[4 * i + 2]} << 8) | std::uint32_t{p[4 * i + 3]};
  }
  for (std::size_t i = 16; i < 64; ++i) {
    const std::uint32_t s0 =
        rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const std::uint32_t s1 =
        rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }

  std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
  std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

  for (std::size_t i = 0; i < 64; ++i) {
    const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
    const std::uint32_t ch = (e & f) ^ (~e & g);
    const std::uint32_t temp1 = h + s1 + ch + kK[i] + w[i];
    const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
    const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    const std::uint32_t temp2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + temp1;
    d = c;
    c = b;
    b = a;
    a = temp1 + temp2;
  }

  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
  state[5] += f;
  state[6] += g;
  state[7] += h;
}

#if defined(__x86_64__) || defined(__i386__)

// The SHA extensions keep the state as two vectors, ABEF and CDGH (lane 3
// first), and run two rounds per sha256rnds2. Only the functions marked
// TC_SHA_NI may use these instructions; they run only after CPUID said so.
#define TC_SHA_NI __attribute__((target("sha,sse4.1")))

// Four rounds: W[4j .. 4j+3] + K[4j .. 4j+3].
TC_SHA_NI inline void four_rounds(__m128i& abef, __m128i& cdgh, __m128i w,
                                  std::size_t j) {
  const __m128i wk = _mm_add_epi32(
      w, _mm_loadu_si128(reinterpret_cast<const __m128i*>(&kK[4 * j])));
  cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
  abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
}

// Message schedule: W[j] from W[j-4], W[j-3], W[j-2], W[j-1].
TC_SHA_NI inline __m128i next_w(__m128i w4, __m128i w3, __m128i w2,
                                __m128i w1) {
  const __m128i t = _mm_add_epi32(_mm_sha256msg1_epu32(w4, w3),
                                  _mm_alignr_epi8(w1, w2, 4));
  return _mm_sha256msg2_epu32(t, w1);
}

// Message words 4i .. 4i+3 of the block at p, big-endian.
TC_SHA_NI inline __m128i load(const std::uint8_t* p, std::size_t i) {
  const __m128i bswap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  return _mm_shuffle_epi8(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 16 * i)), bswap);
}

TC_SHA_NI void blocks_sha_ni(detail::Sha256State& h, const std::uint8_t* p,
                             std::size_t n) {
  const __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&h[0]));
  const __m128i hgfe = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&h[4]));
  const __m128i cdab = _mm_shuffle_epi32(dcba, 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

  for (; n > 0; --n, p += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i w0 = load(p, 0), w1 = load(p, 1), w2 = load(p, 2), w3 = load(p, 3);
    four_rounds(abef, cdgh, w0, 0);
    four_rounds(abef, cdgh, w1, 1);
    four_rounds(abef, cdgh, w2, 2);
    four_rounds(abef, cdgh, w3, 3);
    for (std::size_t j = 4; j < 16; j += 4) {
      w0 = next_w(w0, w1, w2, w3);
      four_rounds(abef, cdgh, w0, j);
      w1 = next_w(w1, w2, w3, w0);
      four_rounds(abef, cdgh, w1, j + 1);
      w2 = next_w(w2, w3, w0, w1);
      four_rounds(abef, cdgh, w2, j + 2);
      w3 = next_w(w3, w0, w1, w2);
      four_rounds(abef, cdgh, w3, j + 3);
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&h[0]),
                   _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&h[4]),
                   _mm_alignr_epi8(dchg, feba, 8));
}

#undef TC_SHA_NI

#endif

// The compression function every Sha256 uses.
detail::Sha256Blocks compress() {
  const detail::Sha256Blocks hw = detail::sha256_blocks_hw();
  return hw != nullptr ? hw : &detail::sha256_blocks_portable;
}

}  // namespace

namespace detail {

void sha256_blocks_portable(Sha256State& h, const std::uint8_t* blocks,
                            std::size_t n) {
  for (; n > 0; --n, blocks += 64) process_block(h, blocks);
}

Sha256Blocks sha256_blocks_hw() {
#if defined(__x86_64__) || defined(__i386__)
  static const bool has = util::cpu_features().sha_ni;  // once per process
  return has ? &blocks_sha_ni : nullptr;
#else
  return nullptr;
#endif
}

}  // namespace detail

Sha256::Sha256()
    : h_{0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
         0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19} {}

void Sha256::update(const std::uint8_t* data, std::size_t len) {
  assert(!finished_);
  if (len == 0) return;
  total_bits_ += static_cast<std::uint64_t>(len) * 8;
  if (buf_len_ > 0) {
    const std::size_t take = std::min(len, buf_.size() - buf_len_);
    std::memcpy(buf_.data() + buf_len_, data, take);
    buf_len_ += take;
    data += take;
    len -= take;
    if (buf_len_ < buf_.size()) return;
    compress()(h_, buf_.data(), 1);
    buf_len_ = 0;
  }
  const std::size_t blocks = len / buf_.size();
  compress()(h_, data, blocks);
  data += blocks * buf_.size();
  len -= blocks * buf_.size();
  if (len > 0) std::memcpy(buf_.data(), data, len);
  buf_len_ = len;
}

Digest256 Sha256::finish() {
  assert(!finished_);
  finished_ = true;

  const std::uint64_t bits = total_bits_;
  buf_[buf_len_++] = 0x80;
  if (buf_len_ > 56) {
    std::memset(buf_.data() + buf_len_, 0, buf_.size() - buf_len_);
    compress()(h_, buf_.data(), 1);
    buf_len_ = 0;
  }
  std::memset(buf_.data() + buf_len_, 0, 56 - buf_len_);
  for (int i = 0; i < 8; ++i)
    buf_[56 + i] = static_cast<std::uint8_t>(bits >> (56 - 8 * i));
  compress()(h_, buf_.data(), 1);

  Digest256 out{};
  for (int i = 0; i < 8; ++i) {
    out[4 * i] = static_cast<std::uint8_t>(h_[i] >> 24);
    out[4 * i + 1] = static_cast<std::uint8_t>(h_[i] >> 16);
    out[4 * i + 2] = static_cast<std::uint8_t>(h_[i] >> 8);
    out[4 * i + 3] = static_cast<std::uint8_t>(h_[i]);
  }
  return out;
}

Digest256 sha256(const util::Bytes& data) {
  Sha256 h;
  h.update(data);
  return h.finish();
}

Digest256 sha256(std::string_view data) {
  Sha256 h;
  h.update(data);
  return h.finish();
}

}  // namespace tc::crypto
