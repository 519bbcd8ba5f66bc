// Internal to src/bt: the kernels behind Bitfield::add_to, declared here so
// the tests and bench_sim_micro can call each one directly. Not part of
// the library's interface; other callers use Bitfield::add_to.
//
// Every kernel adds exactly the same integers, so the rows it leaves are
// the same on every host whichever kernel CPUID picks (DESIGN.md §4b).
#pragma once

#include <cstddef>
#include <cstdint>

namespace tc::bt::detail {

// counts[i] += delta (mod 2^32) for every set bit i of the `size`-bit
// field `words` (bit i is bit i % 64 of words[i / 64]; bits at or past
// `size` are zero). Touches no counter of a clear bit, so it never reads
// or writes counts[size] or beyond.
using RowAdd = void (*)(const std::uint64_t* words, std::size_t size,
                        std::uint32_t* counts, std::uint32_t delta);

// One counter per set bit, walking each word's set bits: the fallback and
// the reference for the vector kernel.
void row_add_scalar(const std::uint64_t* words, std::size_t size,
                    std::uint32_t* counts, std::uint32_t delta);

// Sixteen counters per step on AVX-512F, each 16-bit slice of a word the
// mask of one masked load, add and store; nullptr when CPUID (with the
// OS's XCR0) does not report AVX-512F (always nullptr on a non-x86-64
// build).
RowAdd row_add_avx512();

// The kernel Bitfield::add_to runs: "avx512" or "scalar".
const char* row_add_kernel_name();

}  // namespace tc::bt::detail
