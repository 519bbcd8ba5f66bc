#include "src/bt/bitfield.h"

#include <bit>
#include <stdexcept>

namespace tc::bt {

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

PieceIndex Bitfield::first_missing() const {
  for (std::size_t w = 0; w < words_.size(); ++w) {
    const std::uint64_t inv = ~words_[w];
    if (inv == 0) continue;
    const auto i = static_cast<PieceIndex>(
        w * 64 + static_cast<std::size_t>(std::countr_zero(inv)));
    return i < size_ ? i : static_cast<PieceIndex>(size_);
  }
  return static_cast<PieceIndex>(size_);
}

bool Bitfield::interested_in(const Bitfield& other) const {
  if (other.size_ != size_) throw std::invalid_argument("bitfield size mismatch");
  for (std::size_t w = 0; w < words_.size(); ++w) {
    if (other.words_[w] & ~words_[w]) return true;
  }
  return false;
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
