// AVX2 and AVX-512 gate kernels. Each ISA's loop is compiled under its
// own GCC target pragma, so the rest of the build keeps the baseline ISA
// and these tables are handed out only when the running CPU reports the
// extension. Other targets and compilers get the scalar table only.
#include "pim/gate_kernels.h"

#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)

#include <immintrin.h>

namespace cryptopim::pim {

#pragma GCC push_options
#pragma GCC target("avx2")
namespace avx2 {

using V = __m256i;
constexpr unsigned kVecWords = 4;

inline V load(const std::uint64_t* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}
inline void store(std::uint64_t* p, V v) {
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
}
inline V splat(std::uint64_t x) {
  return _mm256_set1_epi64x(static_cast<long long>(x));
}

#include "pim/gate_kernels_simd.inc"

}  // namespace avx2
#pragma GCC pop_options

#pragma GCC push_options
#pragma GCC target("avx512f")
namespace avx512 {

using V = __m512i;
constexpr unsigned kVecWords = 8;

inline V load(const std::uint64_t* p) { return _mm512_loadu_si512(p); }
inline void store(std::uint64_t* p, V v) { _mm512_storeu_si512(p, v); }
inline V splat(std::uint64_t x) {
  return _mm512_set1_epi64(static_cast<long long>(x));
}

#include "pim/gate_kernels_simd.inc"

}  // namespace avx512
#pragma GCC pop_options

namespace {

constexpr GateKernels kAvx2 = {"avx2", avx2::run};
constexpr GateKernels kAvx512 = {"avx512", avx512::run};

}  // namespace

const GateKernels* avx2_gate_kernels() {
  return __builtin_cpu_supports("avx2") ? &kAvx2 : nullptr;
}

const GateKernels* avx512_gate_kernels() {
  return __builtin_cpu_supports("avx512f") ? &kAvx512 : nullptr;
}

}  // namespace cryptopim::pim

#else  // no x86 GCC build: the scalar table is the only one

namespace cryptopim::pim {

const GateKernels* avx2_gate_kernels() { return nullptr; }
const GateKernels* avx512_gate_kernels() { return nullptr; }

}  // namespace cryptopim::pim

#endif
