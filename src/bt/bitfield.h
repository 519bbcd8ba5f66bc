// Piece-possession bitfield with O(words) set operations. Used for every
// peer's completed-piece set and for interest / Local-Rarest-First queries.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "src/net/message.h"
#include "src/util/bytes.h"

namespace tc::bt {

using PieceIndex = net::PieceIndex;

class Bitfield {
 public:
  Bitfield() = default;
  explicit Bitfield(std::size_t piece_count);

  std::size_t size() const { return size_; }
  bool get(PieceIndex i) const;
  void set(PieceIndex i);
  void clear(PieceIndex i);
  std::size_t count() const { return count_; }
  bool complete() const { return count_ == size_ && size_ > 0; }
  bool empty() const { return count_ == 0; }

  // True if `other` has at least one piece this bitfield lacks
  // ("I am interested in other").
  bool interested_in(const Bitfield& other) const {
    if (other.size_ != size_)
      throw std::invalid_argument("bitfield size mismatch");
    for (std::size_t w = 0; w < words_.size(); ++w) {
      if (other.words_[w] & ~words_[w]) return true;
    }
    return false;
  }

  // counts[i] += delta for every piece i this bitfield holds (mod 2^32, so
  // -1 subtracts one): a neighbour's have set added into or taken out of
  // an availability row. Integer adds are exact, so every kernel leaves
  // the same counts; the one CPUID picks (src/bt/row_kernels.h) only sets
  // the speed. Throws unless counts.size() == size().
  void add_to(std::span<std::uint32_t> counts, std::int32_t delta) const;

  // Pieces that `other` has and this lacks.
  std::vector<PieceIndex> missing_from(const Bitfield& other) const;

  // Calls fn(i) for every piece `other` has and this lacks, in ascending
  // order: missing_from() without the allocation. Throws on a size
  // mismatch.
  template <typename Fn>
  void for_each_missing_from(const Bitfield& other, Fn&& fn) const {
    if (other.size_ != size_)
      throw std::invalid_argument("bitfield size mismatch");
    for (std::size_t w = 0; w < words_.size(); ++w) {
      for (std::uint64_t bits = other.words_[w] & ~words_[w]; bits != 0;
           bits &= bits - 1) {
        fn(static_cast<PieceIndex>(
            w * 64 + static_cast<std::size_t>(std::countr_zero(bits))));
      }
    }
  }

  // All set pieces.
  std::vector<PieceIndex> to_vector() const;

  // Calls fn(i) for every set piece in ascending order, walking the 64-bit
  // words in place: to_vector() without the allocation.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      for (std::uint64_t bits = words_[w]; bits != 0; bits &= bits - 1) {
        fn(static_cast<PieceIndex>(
            w * 64 + static_cast<std::size_t>(std::countr_zero(bits))));
      }
    }
  }

  // Wire encoding (bit i = byte i/8, LSB first) for BitfieldMsg.
  net::BitfieldMsg to_message() const;
  static Bitfield from_message(const net::BitfieldMsg& m);

  bool operator==(const Bitfield&) const = default;

 private:
  std::size_t size_ = 0;
  std::size_t count_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace tc::bt
