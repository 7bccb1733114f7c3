#include "ntt/word_ntt.h"

#include <cassert>
#include <stdexcept>

#include "common/bitutil.h"
#include "ntt/modular.h"

namespace cryptopim::ntt {

namespace {

/// c' = floor(c * 2^32 / q) for a constant c < q.
inline std::uint32_t shoup_of(std::uint32_t c, std::uint32_t q) {
  return static_cast<std::uint32_t>((static_cast<std::uint64_t>(c) << 32) / q);
}

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

}  // namespace

WordNttEngine::WordNttEngine(const NttParams& params) : params_(params) {
  // q < 2^30 keeps the butterfly's u - v + 2q (< 4q) and u + v (< 4q)
  // inside 32 bits.
  if (params_.q >= (1u << 30)) {
    throw std::invalid_argument("WordNttEngine requires q < 2^30");
  }
  const std::uint32_t n = params_.n;
  const std::uint32_t q = params_.q;
  twoq_ = 2 * q;
  barrett_mu_ = static_cast<std::uint64_t>(
      (static_cast<unsigned __int128>(1) << 64) / q);

  // bit_reverse is an involution, so storing psi^k at brv(k) gives
  // tw[i] = psi^{brv(i)}.
  tw_fwd_.resize(n);
  tw_fwd_shoup_.resize(n);
  tw_inv_.resize(n);
  tw_inv_shoup_.resize(n);
  std::uint32_t pw = 1, pw_inv = 1;
  for (std::uint32_t k = 0; k < n; ++k) {
    const auto i = static_cast<std::uint32_t>(bit_reverse(k, params_.log2n));
    tw_fwd_[i] = pw;
    tw_fwd_shoup_[i] = shoup_of(pw, q);
    tw_inv_[i] = pw_inv;
    tw_inv_shoup_[i] = shoup_of(pw_inv, q);
    pw = mul_mod(pw, params_.psi, q);
    pw_inv = mul_mod(pw_inv, params_.psi_inv, q);
  }
  n_inv_shoup_ = shoup_of(params_.n_inv, q);
}

void WordNttEngine::forward_impl(std::span<std::uint32_t> a,
                                 const StageProbe* probe) const {
  const std::uint32_t n = params_.n;
  const std::uint32_t q = params_.q;
  const std::uint32_t twoq = twoq_;
  assert(a.size() == n);
  // Cooley–Tukey with psi folded in (Longa–Naehrig Alg. 1): stage m has
  // m blocks of 2t rows, block i pairs rows (j, j + t) under the single
  // twiddle psi^{brv(m+i)}. Inputs in [0, 2q); the Shoup product v is
  // in [0, 2q), so u + v and u - v + 2q are below 4q and one
  // conditional subtract brings each back under 2q.
  for (std::uint32_t m = 1, t = n >> 1; m < n; m <<= 1, t >>= 1) {
    for (std::uint32_t i = 0; i < m; ++i) {
      const std::uint32_t w = tw_fwd_[m + i];
      const std::uint32_t ws = tw_fwd_shoup_[m + i];
      std::uint32_t* lo = a.data() + 2 * i * t;
      std::uint32_t* hi = lo + t;
      for (std::uint32_t j = 0; j < t; ++j) {
        const std::uint32_t u = lo[j];
        const std::uint32_t v = mul_shoup_lazy(hi[j], w, ws, q);
        lo[j] = add_lazy(u, v, twoq);
        hi[j] = add_lazy(u, twoq - v, twoq);
      }
    }
    if (probe && *probe) (*probe)(a);
  }
}

void WordNttEngine::inverse_impl(std::span<std::uint32_t> a,
                                 const StageProbe* probe) const {
  const std::uint32_t n = params_.n;
  const std::uint32_t q = params_.q;
  const std::uint32_t twoq = twoq_;
  assert(a.size() == n);
  // Gentleman–Sande with psi^{-1} folded in (Longa–Naehrig Alg. 2), the
  // mirror of the forward pass: u + v gets one conditional subtract,
  // u - v + 2q (< 4q) feeds the Shoup multiply.
  for (std::uint32_t m = n >> 1, t = 1; m > 0; m >>= 1, t <<= 1) {
    for (std::uint32_t i = 0; i < m; ++i) {
      const std::uint32_t w = tw_inv_[m + i];
      const std::uint32_t ws = tw_inv_shoup_[m + i];
      std::uint32_t* lo = a.data() + 2 * i * t;
      std::uint32_t* hi = lo + t;
      for (std::uint32_t j = 0; j < t; ++j) {
        const std::uint32_t u = lo[j];
        const std::uint32_t v = hi[j];
        lo[j] = add_lazy(u, v, twoq);
        hi[j] = mul_shoup_lazy(u - v + twoq, w, ws, q);
      }
    }
    if (probe && *probe) (*probe)(a);
  }
  for (auto& x : a) x = mul_shoup_lazy(x, params_.n_inv, n_inv_shoup_, q);
  if (probe && *probe) (*probe)(a);
}

void WordNttEngine::pointwise_lazy(std::span<std::uint32_t> a,
                                   std::span<const std::uint32_t> b) const {
  assert(a.size() == params_.n && b.size() == params_.n);
  const std::uint32_t q = params_.q;
  // Barrett with mu = floor(2^64 / q): for prod < 2^62 the quotient
  // estimate (prod * mu) >> 64 is off by at most one, so the remainder
  // lands in [0, 2q).
  for (std::size_t i = 0; i < a.size(); ++i) {
    const std::uint64_t prod =
        static_cast<std::uint64_t>(a[i]) * static_cast<std::uint64_t>(b[i]);
    const auto quot = static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(prod) * barrett_mu_) >> 64);
    a[i] = static_cast<std::uint32_t>(prod - quot * q);
  }
}

void WordNttEngine::normalize(std::span<std::uint32_t> a) const noexcept {
  const std::uint32_t q = params_.q;
  for (auto& x : a) {
    if (x >= q) x -= q;
  }
}

std::vector<std::uint32_t> WordNttEngine::negacyclic_multiply(
    std::span<const std::uint32_t> a, std::span<const std::uint32_t> b) const {
  const std::uint32_t n = params_.n;
  if (a.size() != n || b.size() != n) {
    throw std::invalid_argument("operand size does not match the degree");
  }
  std::vector<std::uint32_t> abar(a.begin(), a.end());
  std::vector<std::uint32_t> bbar(b.begin(), b.end());
  forward_lazy(abar);
  forward_lazy(bbar);
  pointwise_lazy(abar, bbar);
  inverse_lazy(abar);
  normalize(abar);
  return abar;
}

}  // namespace cryptopim::ntt
