#include "ntt/word_kernels.h"

namespace cryptopim::ntt {

namespace {

/// x * c mod q in [0, 2q), valid for any x < 2^32 and constant c < q
/// with c_shoup = floor(c * 2^32 / q). The quotient estimate is off by
/// at most one, so the 32-bit wrapping subtraction recovers a value
/// r == x*c (mod q) with r < q * (x / 2^32 + 1) < 2q.
inline std::uint32_t mul_shoup_lazy(std::uint32_t x, std::uint32_t c,
                                    std::uint32_t c_shoup, std::uint32_t q) {
  const auto quot = static_cast<std::uint32_t>(
      (static_cast<std::uint64_t>(x) * c_shoup) >> 32);
  return x * c - quot * q;
}

/// a + b with one conditional subtract; stays in [0, 2q) for inputs in
/// [0, 2q).
inline std::uint32_t add_lazy(std::uint32_t a, std::uint32_t b,
                              std::uint32_t twoq) {
  const std::uint32_t s = a + b;
  return s >= twoq ? s - twoq : s;
}

void ct_level(std::uint32_t* a, std::uint32_t m, std::uint32_t t,
              const std::uint32_t* tw, const std::uint32_t* tw_shoup,
              std::uint32_t q) {
  // Inputs in [0, 2q); the Shoup product v is in [0, 2q), so u + v and
  // u - v + 2q are below 4q and one conditional subtract brings each
  // back under 2q.
  const std::uint32_t twoq = 2 * q;
  for (std::uint32_t i = 0; i < m; ++i) {
    const std::uint32_t w = tw[m + i];
    const std::uint32_t ws = tw_shoup[m + i];
    std::uint32_t* lo = a + 2 * i * t;
    std::uint32_t* hi = lo + t;
    for (std::uint32_t j = 0; j < t; ++j) {
      const std::uint32_t u = lo[j];
      const std::uint32_t v = mul_shoup_lazy(hi[j], w, ws, q);
      lo[j] = add_lazy(u, v, twoq);
      hi[j] = add_lazy(u, twoq - v, twoq);
    }
  }
}

void gs_level(std::uint32_t* a, std::uint32_t m, std::uint32_t t,
              const std::uint32_t* tw, const std::uint32_t* tw_shoup,
              std::uint32_t q) {
  // The mirror of ct_level: u + v gets one conditional subtract,
  // u - v + 2q (< 4q) feeds the Shoup multiply.
  const std::uint32_t twoq = 2 * q;
  for (std::uint32_t i = 0; i < m; ++i) {
    const std::uint32_t w = tw[m + i];
    const std::uint32_t ws = tw_shoup[m + i];
    std::uint32_t* lo = a + 2 * i * t;
    std::uint32_t* hi = lo + t;
    for (std::uint32_t j = 0; j < t; ++j) {
      const std::uint32_t u = lo[j];
      const std::uint32_t v = hi[j];
      lo[j] = add_lazy(u, v, twoq);
      hi[j] = mul_shoup_lazy(u - v + twoq, w, ws, q);
    }
  }
}

void scale(std::uint32_t* a, std::uint32_t len, std::uint32_t c,
           std::uint32_t c_shoup, std::uint32_t q) {
  for (std::uint32_t i = 0; i < len; ++i) {
    a[i] = mul_shoup_lazy(a[i], c, c_shoup, q);
  }
}

void pointwise(std::uint32_t* a, const std::uint32_t* b, std::uint32_t len,
               std::uint32_t q, std::uint64_t mu) {
  // For prod < 2^62 the quotient estimate (prod * mu) >> 64 is off by at
  // most one, so the remainder lands in [0, 2q).
  for (std::uint32_t i = 0; i < len; ++i) {
    const std::uint64_t prod =
        static_cast<std::uint64_t>(a[i]) * static_cast<std::uint64_t>(b[i]);
    const auto quot = static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(prod) * mu) >> 64);
    a[i] = static_cast<std::uint32_t>(prod - quot * q);
  }
}

void normalize(std::uint32_t* a, std::uint32_t len, std::uint32_t q) {
  for (std::uint32_t i = 0; i < len; ++i) {
    if (a[i] >= q) a[i] -= q;
  }
}

constexpr WordKernels kScalar = {1, ct_level, gs_level, scale, pointwise,
                                 normalize};

}  // namespace

const WordKernels& scalar_word_kernels() { return kScalar; }

const WordKernels& best_word_kernels() {
  static const WordKernels& best = avx512_word_kernels() != nullptr
                                       ? *avx512_word_kernels()
                                   : avx2_word_kernels() != nullptr
                                       ? *avx2_word_kernels()
                                       : kScalar;
  return best;
}

}  // namespace cryptopim::ntt
