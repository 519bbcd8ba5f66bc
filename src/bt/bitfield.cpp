#include "src/bt/bitfield.h"

#include <bit>
#include <stdexcept>

#include "src/bt/row_kernels.h"
#include "src/util/cpu.h"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace tc::bt {

namespace {

#if defined(__x86_64__)

// Only this function may use AVX-512 instructions; the dispatcher calls it
// only after CPUID said so. A masked-off lane is neither loaded nor stored
// (and cannot fault), so a slice reaching past `size` touches nothing
// there.
__attribute__((target("avx512f"))) void row_add_avx512_impl(
    const std::uint64_t* words, std::size_t size, std::uint32_t* counts,
    std::uint32_t delta) {
  const __m512i d = _mm512_set1_epi32(static_cast<int>(delta));
  const std::size_t slices = (size + 15) / 16;
  for (std::size_t s = 0; s < slices; ++s) {
    const auto m = static_cast<__mmask16>(words[s / 4] >> (16 * (s % 4)));
    std::uint32_t* p = counts + 16 * s;
    const __m512i v = _mm512_maskz_loadu_epi32(m, p);
    _mm512_mask_storeu_epi32(p, m, _mm512_mask_add_epi32(v, m, v, d));
  }
}

#endif

struct RowKernel {
  detail::RowAdd fn;
  const char* name;
};

// The kernel add_to runs, chosen once per process.
const RowKernel& row_kernel() {
  static const RowKernel k = [] {
    if (const detail::RowAdd fn = detail::row_add_avx512())
      return RowKernel{fn, "avx512"};
    return RowKernel{&detail::row_add_scalar, "scalar"};
  }();
  return k;
}

}  // namespace

namespace detail {

void row_add_scalar(const std::uint64_t* words, std::size_t size,
                    std::uint32_t* counts, std::uint32_t delta) {
  const std::size_t n_words = (size + 63) / 64;
  for (std::size_t w = 0; w < n_words; ++w) {
    for (std::uint64_t bits = words[w]; bits != 0; bits &= bits - 1) {
      counts[w * 64 + static_cast<std::size_t>(std::countr_zero(bits))] +=
          delta;
    }
  }
}

RowAdd row_add_avx512() {
#if defined(__x86_64__)
  return util::cpu_features().avx512f ? &row_add_avx512_impl : nullptr;
#else
  return nullptr;
#endif
}

const char* row_add_kernel_name() { return row_kernel().name; }

}  // namespace detail

Bitfield::Bitfield(std::size_t piece_count)
    : size_(piece_count), words_((piece_count + 63) / 64, 0) {}

bool Bitfield::get(PieceIndex i) const {
  if (i >= size_) throw std::out_of_range("Bitfield::get");
  return (words_[i / 64] >> (i % 64)) & 1u;
}

void Bitfield::set(PieceIndex i) {
  if (i >= size_) throw std::out_of_range("Bitfield::set");
  std::uint64_t& w = words_[i / 64];
  const std::uint64_t bit = std::uint64_t{1} << (i % 64);
  if (!(w & bit)) {
    w |= bit;
    ++count_;
  }
}

void Bitfield::clear(PieceIndex i) {
  if (i >= size_) throw std::out_of_range("Bitfield::clear");
  std::uint64_t& w = words_[i / 64];
  const std::uint64_t bit = std::uint64_t{1} << (i % 64);
  if (w & bit) {
    w &= ~bit;
    --count_;
  }
}

void Bitfield::add_to(std::span<std::uint32_t> counts,
                      std::int32_t delta) const {
  if (counts.size() != size_) throw std::invalid_argument("row size mismatch");
  row_kernel().fn(words_.data(), size_, counts.data(),
                  static_cast<std::uint32_t>(delta));
}

std::vector<PieceIndex> Bitfield::missing_from(const Bitfield& other) const {
  if (other.size_ != size_) throw std::invalid_argument("bitfield size mismatch");
  std::size_t n = 0;
  for (std::size_t w = 0; w < words_.size(); ++w)
    n += static_cast<std::size_t>(std::popcount(other.words_[w] & ~words_[w]));
  std::vector<PieceIndex> out;
  out.reserve(n);  // one allocation, not one per doubling
  for_each_missing_from(other, [&out](PieceIndex i) { out.push_back(i); });
  return out;
}

std::vector<PieceIndex> Bitfield::to_vector() const {
  std::vector<PieceIndex> out;
  out.reserve(count_);
  for_each([&out](PieceIndex i) { out.push_back(i); });
  return out;
}

net::BitfieldMsg Bitfield::to_message() const {
  net::BitfieldMsg m;
  m.piece_count = static_cast<std::uint32_t>(size_);
  m.bits.resize((size_ + 7) / 8, 0);
  for (PieceIndex i = 0; i < size_; ++i) {
    if (get(i)) m.bits[i / 8] |= static_cast<std::uint8_t>(1u << (i % 8));
  }
  return m;
}

Bitfield Bitfield::from_message(const net::BitfieldMsg& m) {
  Bitfield bf(m.piece_count);
  if (m.bits.size() < (m.piece_count + 7) / 8)
    throw std::invalid_argument("BitfieldMsg: short bit vector");
  for (PieceIndex i = 0; i < m.piece_count; ++i) {
    if ((m.bits[i / 8] >> (i % 8)) & 1u) bf.set(i);
  }
  return bf;
}

}  // namespace tc::bt
