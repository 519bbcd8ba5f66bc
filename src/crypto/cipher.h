// Typed per-transaction symmetric keys and the piece cipher used by the
// T-Chain exchange protocol.
//
// Paper notation: K^{i}_{D,R} is the fresh symmetric key the donor D uses
// to encrypt piece p_i sent to requestor R (Table I). Keys are never
// reused across transactions (footnote 2 of the paper), which KeySource
// enforces by construction.
#pragma once

#include <array>
#include <cstdint>

#include "src/crypto/chacha20.h"
#include "src/crypto/sha256.h"
#include "src/util/bytes.h"
#include "src/util/rng.h"

namespace tc::crypto {

// A 256-bit symmetric key plus the nonce used for the single piece it
// encrypts. Value type; comparable so tests can assert key identity.
struct SymmetricKey {
  std::array<std::uint8_t, 32> key{};
  std::array<std::uint8_t, 12> nonce{};

  bool operator==(const SymmetricKey&) const = default;

  util::Bytes serialize() const;
  static SymmetricKey deserialize(const util::Bytes& data);
};

// Deterministic key generator: derives a stream of unique keys from a seed.
// Each call returns a fresh key, satisfying the paper's one-key-per-piece
// requirement.
class KeySource {
 public:
  explicit KeySource(std::uint64_t seed);
  SymmetricKey next();

 private:
  util::Rng rng_;
  std::uint64_t issued_ = 0;
};

// The piece cipher: XORs `data` with the ChaCha20 keystream (RFC 8439,
// block counter 1) of `key`. The same call encrypts and decrypts, and the
// ciphertext is as long as the plaintext (the paper's "almost complete
// resource" costs the same bandwidth as the plaintext piece). Being a pure
// XOR keystream, layers under different keys commute: data encrypted
// under K1 then K2 decrypts with K1 and K2 in either order. core::Node's
// §II-D1 key cascade depends on exactly this. `data` is XORed in place and
// returned: move a buffer in to avoid a copy.
util::Bytes piece_xor(const SymmetricKey& key, util::Bytes data);

}  // namespace tc::crypto
