#include "src/util/cpu.h"

#include <cstdint>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace tc::util {

namespace {

CpuFeatures probe() {
  CpuFeatures f;
#if defined(__x86_64__) || defined(__i386__)
  unsigned a = 0, b = 0, c = 0, d = 0;
  if (__get_cpuid(1, &a, &b, &c, &d) == 0) return f;
  const bool sse41 = (c & bit_SSE4_1) != 0;
  const bool osxsave = (c & bit_OSXSAVE) != 0;
  if (__get_cpuid_count(7, 0, &a, &b, &c, &d) == 0) return f;
  const unsigned leaf7_ebx = b;
  // SSE state needs no XCR0 check: the OS saves it whenever it runs
  // x86-64 code at all.
  f.sha_ni = sse41 && (leaf7_ebx & bit_SHA) != 0;
  if (!osxsave) return f;
  unsigned lo = 0, hi = 0;
  __asm__("xgetbv" : "=a"(lo), "=d"(hi) : "c"(0));
  const std::uint64_t xcr0 = (std::uint64_t{hi} << 32) | lo;
  // XCR0 bits 1-2: XMM and YMM state; bits 5-7: opmask and ZMM state.
  const bool ymm = (xcr0 & 0x6) == 0x6;
  const bool zmm = (xcr0 & 0xe6) == 0xe6;
  f.avx2 = ymm && (leaf7_ebx & bit_AVX2) != 0;
  f.avx512f = zmm && (leaf7_ebx & bit_AVX512F) != 0;
  f.avx512vl = zmm && (leaf7_ebx & bit_AVX512VL) != 0;
#endif
  return f;
}

}  // namespace

const CpuFeatures& cpu_features() {
  static const CpuFeatures f = probe();
  return f;
}

}  // namespace tc::util
