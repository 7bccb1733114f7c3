// Per-ISA inner loops of the word-level NTT (ntt/word_ntt.h).
//
// WordNttEngine keeps the schedule, the tables and the probes; a
// WordKernels table supplies the loops: one forward (Cooley–Tukey) or
// inverse (Gentleman–Sande) butterfly level, the constant Shoup scale,
// the Barrett point-wise product and the final normalize. Three tables
// exist — portable scalar, AVX2 and AVX-512 — and the engine takes the
// widest one the running CPU supports (`__builtin_cpu_supports`), with
// no build flag or setting involved.
//
// Every table computes bit-identical outputs: the SIMD kernels evaluate
// the same Shoup quotient, the same lazy [0, 2q) conditional subtracts
// and the same exact floor(prod * mu / 2^64) Barrett quotient as the
// scalar ones, lane by lane (tests/test_word_kernels.cc). Butterfly
// levels whose half-size t is below the vector width gather each
// block's low and high halves from a pair of vectors with a fixed
// permutation, so every level runs vectorised.
#pragma once

#include <cstdint>

namespace cryptopim::ntt {

struct WordKernels {
  /// Smallest degree the butterfly kernels accept (two vectors); smaller
  /// transforms run on the scalar table.
  std::uint32_t min_degree;
  /// One forward level: m blocks of 2t coefficients, block i pairs
  /// (j, j + t) under tw[m + i] (Shoup reciprocal tw_shoup[m + i]).
  /// Tables are read up to 16 entries past the last twiddle used.
  void (*ct_level)(std::uint32_t* a, std::uint32_t m, std::uint32_t t,
                   const std::uint32_t* tw, const std::uint32_t* tw_shoup,
                   std::uint32_t q);
  /// One inverse level, same layout as ct_level.
  void (*gs_level)(std::uint32_t* a, std::uint32_t m, std::uint32_t t,
                   const std::uint32_t* tw, const std::uint32_t* tw_shoup,
                   std::uint32_t q);
  /// a[i] = a[i] * c mod q in [0, 2q) (Shoup, any a[i] < 2^32).
  void (*scale)(std::uint32_t* a, std::uint32_t len, std::uint32_t c,
                std::uint32_t c_shoup, std::uint32_t q);
  /// a[i] = a[i] * b[i] mod q in [0, 2q) for inputs in [0, 2q), Barrett
  /// with mu = floor(2^64 / q).
  void (*pointwise)(std::uint32_t* a, const std::uint32_t* b,
                    std::uint32_t len, std::uint32_t q, std::uint64_t mu);
  /// a[i] >= q ? a[i] - q : a[i].
  void (*normalize)(std::uint32_t* a, std::uint32_t len, std::uint32_t q);
};

/// Portable reference loops; always available.
const WordKernels& scalar_word_kernels();
/// The SIMD tables, or nullptr when the CPU (or the target) lacks the ISA.
const WordKernels* avx2_word_kernels();
const WordKernels* avx512_word_kernels();
/// The widest table the running CPU supports.
const WordKernels& best_word_kernels();

}  // namespace cryptopim::ntt
