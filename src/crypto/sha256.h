// SHA-256 (FIPS 180-4), implemented from scratch so the library has no
// external crypto dependency. Used for piece integrity hashes (the usual
// BitTorrent mechanism the paper assumes detects corrupted pieces) and as
// the compression function behind HMAC receipts. update() compresses whole
// blocks straight from the caller's buffer; the compression function runs
// on the x86 SHA extensions when the CPU has them (chosen once, on first
// use) and is portable C++ otherwise.
#pragma once

#include <array>
#include <cstdint>
#include <cstddef>
#include <string_view>

#include "src/util/bytes.h"

namespace tc::crypto {

using Digest256 = std::array<std::uint8_t, 32>;

class Sha256 {
 public:
  Sha256();

  void update(const std::uint8_t* data, std::size_t len);
  void update(const util::Bytes& data) { update(data.data(), data.size()); }
  void update(std::string_view s) {
    update(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
  }

  // Finalizes and returns the digest; the object must not be reused after.
  Digest256 finish();

 private:
  std::array<std::uint32_t, 8> h_;
  std::array<std::uint8_t, 64> buf_;
  std::size_t buf_len_ = 0;
  std::uint64_t total_bits_ = 0;
  bool finished_ = false;
};

// One-shot helpers.
Digest256 sha256(const util::Bytes& data);
Digest256 sha256(std::string_view data);

}  // namespace tc::crypto
