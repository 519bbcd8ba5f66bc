// Internal to src/crypto: the per-byte kernels behind chacha20_xor,
// piece_xor and Sha256, declared here so the library's own files, the
// tests and bench_overhead_crypto can reach them. Not part of the
// library's interface; other callers use chacha20.h, cipher.h and
// sha256.h.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "src/crypto/chacha20.h"

namespace tc::crypto::detail {

// XORs the ChaCha20 keystream starting at block `counter` into
// data[0, len) in place, on the widest kernel below that the CPU runs
// (chosen once, from CPUID). The block counter wraps mod 2^32.
void chacha20_xor_inplace(const ChaChaKey& key, const ChaChaNonce& nonce,
                          std::uint32_t counter, std::uint8_t* data,
                          std::size_t len);

// The kernels, all with chacha20_xor_inplace's contract and output.
using ChaCha20Xor = void (*)(const ChaChaKey& key, const ChaChaNonce& nonce,
                             std::uint32_t counter, std::uint8_t* data,
                             std::size_t len);

// Four blocks per 256-byte step on a portable 4-lane vector kernel, then
// chacha20_block for the tail. The wide kernels hand it their remainder.
void chacha20_xor_4lane(const ChaChaKey& key, const ChaChaNonce& nonce,
                        std::uint32_t counter, std::uint8_t* data,
                        std::size_t len);

// Eight blocks per 512-byte step on AVX2, or nullptr when CPUID (with the
// OS's XCR0) does not report it (always nullptr on a non-x86-64 build).
ChaCha20Xor chacha20_xor_avx2();

// Sixteen blocks per 1024-byte step on AVX-512F+VL, or nullptr likewise.
ChaCha20Xor chacha20_xor_avx512();

// The kernel chacha20_xor_inplace runs: "avx512", "avx2" or "4-lane".
const char* chacha20_kernel_name();

using Sha256State = std::array<std::uint32_t, 8>;
// Compresses `n` consecutive 64-byte blocks into the chaining state.
using Sha256Blocks = void (*)(Sha256State& h, const std::uint8_t* blocks,
                              std::size_t n);

// The portable FIPS 180-4 compression function, one block at a time: the
// fallback and the reference for the hardware path.
void sha256_blocks_portable(Sha256State& h, const std::uint8_t* blocks,
                            std::size_t n);

// The compression function on the x86 SHA extensions, or nullptr when
// CPUID does not report both `sha` and `sse4.1` (always nullptr on a
// non-x86 build).
Sha256Blocks sha256_blocks_hw();

}  // namespace tc::crypto::detail
