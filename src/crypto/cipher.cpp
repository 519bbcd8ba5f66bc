#include "src/crypto/cipher.h"

#include <cstring>
#include <stdexcept>

#include "src/crypto/kernels.h"

namespace tc::crypto {

util::Bytes SymmetricKey::serialize() const {
  util::Bytes out;
  out.reserve(key.size() + nonce.size());
  out.insert(out.end(), key.begin(), key.end());
  out.insert(out.end(), nonce.begin(), nonce.end());
  return out;
}

SymmetricKey SymmetricKey::deserialize(const util::Bytes& data) {
  SymmetricKey k;
  if (data.size() != k.key.size() + k.nonce.size())
    throw std::invalid_argument("SymmetricKey: bad serialized size");
  std::memcpy(k.key.data(), data.data(), k.key.size());
  std::memcpy(k.nonce.data(), data.data() + k.key.size(), k.nonce.size());
  return k;
}

KeySource::KeySource(std::uint64_t seed) : rng_(seed) {}

SymmetricKey KeySource::next() {
  SymmetricKey k;
  for (std::size_t i = 0; i < k.key.size(); i += 8) {
    const std::uint64_t r = rng_.next_u64();
    for (std::size_t j = 0; j < 8; ++j)
      k.key[i + j] = static_cast<std::uint8_t>(r >> (8 * j));
  }
  // Mix a never-repeating counter into the nonce so two KeySources with the
  // same RNG state still cannot emit identical (key, nonce) pairs twice.
  const std::uint64_t ctr = ++issued_;
  const std::uint64_t r = rng_.next_u64();
  for (std::size_t j = 0; j < 8; ++j)
    k.nonce[j] = static_cast<std::uint8_t>((r ^ ctr) >> (8 * j));
  for (std::size_t j = 0; j < 4; ++j)
    k.nonce[8 + j] = static_cast<std::uint8_t>(ctr >> (8 * j));
  return k;
}

util::Bytes piece_xor(const SymmetricKey& key, util::Bytes data) {
  detail::chacha20_xor_inplace(key.key, key.nonce, 1, data.data(),
                               data.size());
  return data;
}

}  // namespace tc::crypto
