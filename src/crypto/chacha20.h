// ChaCha20 stream cipher (RFC 8439). This is the piece cipher for T-Chain's
// almost-fair exchange (crypto::piece_xor): the donor encrypts a file piece
// under a fresh symmetric key, and releases the key only after
// reciprocation.
#pragma once

#include <array>
#include <cstdint>

#include "src/util/bytes.h"

namespace tc::crypto {

using ChaChaKey = std::array<std::uint8_t, 32>;
using ChaChaNonce = std::array<std::uint8_t, 12>;

// Encrypts/decrypts in place semantics are symmetric: applying the
// keystream twice restores the plaintext.
util::Bytes chacha20_xor(const ChaChaKey& key, const ChaChaNonce& nonce,
                         std::uint32_t initial_counter,
                         const util::Bytes& input);

// One 64-byte keystream block; exposed for test vectors.
std::array<std::uint8_t, 64> chacha20_block(const ChaChaKey& key,
                                            const ChaChaNonce& nonce,
                                            std::uint32_t counter);

}  // namespace tc::crypto
