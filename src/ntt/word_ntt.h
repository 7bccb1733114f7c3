// Host-speed word-level NTT engine.
//
// `WordNttEngine` computes the same negacyclic products as the
// gate-level crossbar simulator, but on flat host words instead of
// simulated bit-serial circuits. It does not copy the paper's
// Algorithm 1 schedule (psi pre-twist, bit-reversal, Gentleman–Sande,
// psi^{-1} n^{-1} post-scale). It runs the merged-twist schedule of
// Kyber/NewHope-style software (Longa–Naehrig): a Cooley–Tukey forward
// pass and a Gentleman–Sande inverse pass with the psi twist folded into
// the twiddles, so no bit-reversal pass and no twist multiplies remain.
// The forward output is therefore the spectrum in bit-reversed order.
//
// The speed comes from two classic tricks, both borrowed from
// production NTT libraries (cf. gmp-ecm's libntt, SNIPPETS.md §2):
//
//  * Shoup multiplication: every constant operand c (twiddles, n^{-1})
//    is stored with a precomputed reciprocal c' = floor(c * 2^32 / q),
//    so x*c mod q is two 32x32 multiplies and a subtraction — no
//    division, no runtime reduction constant.
//  * Lazy partial reduction: intermediates live in the redundant range
//    [0, 2q) after every stage; additions and subtractions end in one
//    conditional subtract of 2q, Shoup/Barrett products land in [0, 2q)
//    by construction, and a single final `normalize` pass brings the
//    result back to canonical [0, q).
//
// The loops themselves come from a WordKernels table (ntt/word_kernels.h):
// AVX-512 or AVX2 Shoup butterflies on every level, including the
// small-stride ones, and a vectorised Barrett point-wise product when the
// CPU has them, the portable scalar loops otherwise. All tables compute
// bit-identical values.
//
// Every operation is exact modulo q and the negacyclic product is
// unique, so the canonical product is bit-identical to the gate tier's
// whatever schedule computes it — tests/test_backend_diff.cc pins that.
//
// Requires q < 2^30 so that the [0, 4q) butterfly intermediates fit in
// 32 bits (every paper modulus is far below this).
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "ntt/params.h"
#include "ntt/word_kernels.h"

namespace cryptopim::ntt {

/// Merged-twist CT/GS NTT over flat 32-bit words with Shoup/Barrett
/// precomputation and lazy [0, 2q) partial reduction.
class WordNttEngine {
 public:
  /// Observation hook for the reduction-invariant property tests: called
  /// after every butterfly stage and after the inverse's n^{-1} pass with
  /// the current coefficient vector. Every value handed to the probe is
  /// < 2q.
  using StageProbe = std::function<void(std::span<const std::uint32_t>)>;

  /// Throws std::invalid_argument if params.q >= 2^30. Runs on
  /// best_word_kernels().
  explicit WordNttEngine(const NttParams& params);
  /// Same, on the given kernel table (degrees below its min_degree fall
  /// back to the scalar table).
  WordNttEngine(const NttParams& params, const WordKernels& kernels);

  const NttParams& params() const noexcept { return params_; }
  std::uint32_t two_q() const noexcept { return twoq_; }
  /// The kernel table this engine runs on.
  const WordKernels& kernels() const noexcept { return *kernels_; }

  /// Forward negacyclic NTT (Cooley–Tukey, psi^{brv(i)} twiddles).
  /// Expects coefficients in [0, 2q) in normal order; output is the
  /// spectrum in *bit-reversed* order, partial domain [0, 2q).
  void forward_lazy(std::span<std::uint32_t> a) const {
    forward_impl(a, nullptr);
  }
  void forward_lazy(std::span<std::uint32_t> a, const StageProbe& probe) const {
    forward_impl(a, &probe);
  }

  /// Inverse negacyclic NTT (Gentleman–Sande, psi^{-brv(i)} twiddles,
  /// then one n^{-1} pass). Expects the bit-reversed spectrum in
  /// [0, 2q); output is in normal order, partial domain [0, 2q).
  void inverse_lazy(std::span<std::uint32_t> a) const {
    inverse_impl(a, nullptr);
  }
  void inverse_lazy(std::span<std::uint32_t> a, const StageProbe& probe) const {
    inverse_impl(a, &probe);
  }

  /// a[i] = a[i] * b[i] mod q via Barrett with the precomputed 2^64
  /// reciprocal; inputs in [0, 2q), outputs in [0, 2q).
  void pointwise_lazy(std::span<std::uint32_t> a,
                      std::span<const std::uint32_t> b) const;

  /// The single final conditional-subtract pass: [0, 2q) -> [0, q).
  void normalize(std::span<std::uint32_t> a) const noexcept;

  /// c = a * b over Z_q[x]/(x^n + 1) for a, b in [0, 2q); canonical
  /// [0, q) output.
  std::vector<std::uint32_t> negacyclic_multiply(
      std::span<const std::uint32_t> a,
      std::span<const std::uint32_t> b) const;

 private:
  void forward_impl(std::span<std::uint32_t> a, const StageProbe* probe) const;
  void inverse_impl(std::span<std::uint32_t> a, const StageProbe* probe) const;

  NttParams params_;
  const WordKernels* kernels_;
  std::uint32_t twoq_ = 0;
  std::uint64_t barrett_mu_ = 0;  ///< floor(2^64 / q)
  // Twiddles indexed by butterfly block (entry 0 unused), each paired
  // with its Shoup reciprocal table: psi^{brv(i)} for the forward pass,
  // psi^{-brv(i)} for the inverse. Padded past n for full-vector loads.
  std::vector<std::uint32_t> tw_fwd_, tw_fwd_shoup_;
  std::vector<std::uint32_t> tw_inv_, tw_inv_shoup_;
  std::uint32_t n_inv_shoup_ = 0;  ///< Shoup reciprocal of params_.n_inv
};

}  // namespace cryptopim::ntt
