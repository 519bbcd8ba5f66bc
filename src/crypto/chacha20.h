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

// Returns `input` XORed with the keystream from block `initial_counter`
// on; encryption and decryption are the same call. A copy of `input` runs
// through the in-place kernel that crypto::piece_xor uses: the widest one
// the CPU runs (AVX-512, AVX2 or the portable 4-lane kernel).
util::Bytes chacha20_xor(const ChaChaKey& key, const ChaChaNonce& nonce,
                         std::uint32_t initial_counter,
                         const util::Bytes& input);

// One 64-byte keystream block, computed one word at a time: the kernels'
// tail and the tests' reference.
std::array<std::uint8_t, 64> chacha20_block(const ChaChaKey& key,
                                            const ChaChaNonce& nonce,
                                            std::uint32_t counter);

}  // namespace tc::crypto
