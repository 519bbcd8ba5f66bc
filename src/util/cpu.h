// The CPU features the vector kernels dispatch on (src/crypto's ChaCha20
// and SHA-256, src/bt's availability-row update), probed once per
// process from CPUID and, for the wide registers, XCR0: the register
// state the OS saves on a context switch, without which those registers
// must not be used. Every flag is false on a non-x86 build.
//
// A kernel changes only how fast a result is computed, never the result:
// each is tested against its portable reference (DESIGN.md §4b).
#pragma once

namespace tc::util {

struct CpuFeatures {
  bool avx2 = false;      // AVX2, with XMM and YMM state saved
  bool avx512f = false;   // AVX-512F, with XMM, YMM, opmask and ZMM saved
  bool avx512vl = false;  // AVX-512VL, likewise
  bool sha_ni = false;    // the SHA extensions and SSE4.1
};

// This CPU's features, probed on the first call.
const CpuFeatures& cpu_features();

}  // namespace tc::util
