// AVX2 and AVX-512 word-NTT kernels. Each ISA's code is compiled under
// its own GCC target pragma, so the rest of the build keeps the baseline
// ISA and these tables are handed out only when the running CPU reports
// the extension. Other targets and compilers get the scalar table only.
#include "ntt/word_kernels.h"

#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)

#include <immintrin.h>

namespace cryptopim::ntt {

#pragma GCC push_options
#pragma GCC target("avx2")
namespace avx2 {

using V = __m256i;
constexpr unsigned kLanes = 8;

inline V load(const std::uint32_t* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}
inline void store(std::uint32_t* p, V v) {
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
}
inline V set1(std::uint32_t x) {
  return _mm256_set1_epi32(static_cast<int>(x));
}
inline V add(V a, V b) { return _mm256_add_epi32(a, b); }
inline V sub(V a, V b) { return _mm256_sub_epi32(a, b); }
inline V mullo(V a, V b) { return _mm256_mullo_epi32(a, b); }
inline V min_u32(V a, V b) { return _mm256_min_epu32(a, b); }
inline V mul_even(V a, V b) { return _mm256_mul_epu32(a, b); }
inline V srl32(V a) { return _mm256_srli_epi64(a, 32); }
inline V sll32(V a) { return _mm256_slli_epi64(a, 32); }
inline V add64(V a, V b) { return _mm256_add_epi64(a, b); }
inline V sub64(V a, V b) { return _mm256_sub_epi64(a, b); }
inline V lo32(V a) {
  return _mm256_and_si256(a, _mm256_set1_epi64x(0xFFFFFFFF));
}
inline V blend_odd(V even, V odd) {
  return _mm256_blend_epi32(even, odd, 0xAA);
}
inline V permute(V v, V idx) { return _mm256_permutevar8x32_epi32(v, idx); }
inline V permute2(V x, V idx, V y) {
  // Index bit 3 picks y; permutevar8x32 reads only bits 0-2.
  const V from_y = _mm256_cmpgt_epi32(idx, _mm256_set1_epi32(7));
  return _mm256_blendv_epi8(permute(x, idx), permute(y, idx), from_y);
}

#include "ntt/word_kernels_simd.inc"

}  // namespace avx2
#pragma GCC pop_options

#pragma GCC push_options
#pragma GCC target("avx512f")
// GCC 12's _mm512_undefined_epi32 (the pass-through operand of unmasked
// AVX-512 intrinsics) self-initialises, which -Wmaybe-uninitialized
// reports at every use.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
namespace avx512 {

using V = __m512i;
constexpr unsigned kLanes = 16;

inline V load(const std::uint32_t* p) { return _mm512_loadu_si512(p); }
inline void store(std::uint32_t* p, V v) { _mm512_storeu_si512(p, v); }
inline V set1(std::uint32_t x) {
  return _mm512_set1_epi32(static_cast<int>(x));
}
inline V add(V a, V b) { return _mm512_add_epi32(a, b); }
inline V sub(V a, V b) { return _mm512_sub_epi32(a, b); }
inline V mullo(V a, V b) { return _mm512_mullo_epi32(a, b); }
inline V min_u32(V a, V b) { return _mm512_min_epu32(a, b); }
inline V mul_even(V a, V b) { return _mm512_mul_epu32(a, b); }
inline V srl32(V a) { return _mm512_srli_epi64(a, 32); }
inline V sll32(V a) { return _mm512_slli_epi64(a, 32); }
inline V add64(V a, V b) { return _mm512_add_epi64(a, b); }
inline V sub64(V a, V b) { return _mm512_sub_epi64(a, b); }
inline V lo32(V a) {
  return _mm512_and_si512(a, _mm512_set1_epi64(0xFFFFFFFF));
}
inline V blend_odd(V even, V odd) {
  return _mm512_mask_blend_epi32(0xAAAA, even, odd);
}
inline V permute(V v, V idx) { return _mm512_permutexvar_epi32(idx, v); }
inline V permute2(V x, V idx, V y) {
  return _mm512_permutex2var_epi32(x, idx, y);
}

#include "ntt/word_kernels_simd.inc"

}  // namespace avx512
#pragma GCC diagnostic pop
#pragma GCC pop_options

namespace {

constexpr WordKernels kAvx2 = {2 * avx2::kLanes, avx2::ct_level,
                                avx2::gs_level,   avx2::scale,
                                avx2::pointwise,  avx2::normalize};
constexpr WordKernels kAvx512 = {2 * avx512::kLanes, avx512::ct_level,
                                  avx512::gs_level,   avx512::scale,
                                  avx512::pointwise,  avx512::normalize};

}  // namespace

const WordKernels* avx2_word_kernels() {
  return __builtin_cpu_supports("avx2") ? &kAvx2 : nullptr;
}

const WordKernels* avx512_word_kernels() {
  return __builtin_cpu_supports("avx512f") ? &kAvx512 : nullptr;
}

}  // namespace cryptopim::ntt

#else  // no x86 GCC build: the scalar table is the only one

namespace cryptopim::ntt {

const WordKernels* avx2_word_kernels() { return nullptr; }
const WordKernels* avx512_word_kernels() { return nullptr; }

}  // namespace cryptopim::ntt

#endif
