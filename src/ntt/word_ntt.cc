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

/// Entries the SIMD kernels may read past the last twiddle.
constexpr std::uint32_t kTablePad = 16;

}  // namespace

WordNttEngine::WordNttEngine(const NttParams& params)
    : WordNttEngine(params, best_word_kernels()) {}

WordNttEngine::WordNttEngine(const NttParams& params,
                             const WordKernels& kernels)
    : params_(params),
      kernels_(params.n >= kernels.min_degree ? &kernels
                                              : &scalar_word_kernels()) {
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
  tw_fwd_.resize(n + kTablePad);
  tw_fwd_shoup_.resize(n + kTablePad);
  tw_inv_.resize(n + kTablePad);
  tw_inv_shoup_.resize(n + kTablePad);
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
  assert(a.size() == n);
  // Cooley–Tukey with psi folded in (Longa–Naehrig Alg. 1): stage m has
  // m blocks of 2t rows, block i pairs rows (j, j + t) under the single
  // twiddle psi^{brv(m+i)}.
  for (std::uint32_t m = 1, t = n >> 1; m < n; m <<= 1, t >>= 1) {
    kernels_->ct_level(a.data(), m, t, tw_fwd_.data(), tw_fwd_shoup_.data(),
                       params_.q);
    if (probe && *probe) (*probe)(a);
  }
}

void WordNttEngine::inverse_impl(std::span<std::uint32_t> a,
                                 const StageProbe* probe) const {
  const std::uint32_t n = params_.n;
  assert(a.size() == n);
  // Gentleman–Sande with psi^{-1} folded in (Longa–Naehrig Alg. 2), the
  // mirror of the forward pass, then one n^{-1} pass.
  for (std::uint32_t m = n >> 1, t = 1; m > 0; m >>= 1, t <<= 1) {
    kernels_->gs_level(a.data(), m, t, tw_inv_.data(), tw_inv_shoup_.data(),
                       params_.q);
    if (probe && *probe) (*probe)(a);
  }
  kernels_->scale(a.data(), n, params_.n_inv, n_inv_shoup_, params_.q);
  if (probe && *probe) (*probe)(a);
}

void WordNttEngine::pointwise_lazy(std::span<std::uint32_t> a,
                                   std::span<const std::uint32_t> b) const {
  assert(a.size() == params_.n && b.size() == params_.n);
  kernels_->pointwise(a.data(), b.data(), static_cast<std::uint32_t>(a.size()),
                      params_.q, barrett_mu_);
}

void WordNttEngine::normalize(std::span<std::uint32_t> a) const noexcept {
  kernels_->normalize(a.data(), static_cast<std::uint32_t>(a.size()),
                      params_.q);
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
