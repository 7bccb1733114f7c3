// Tests for the per-ISA word-NTT kernels (src/ntt/word_kernels.*): every
// SIMD table must compute exactly what the scalar table computes — the
// same lazy [0, 2q) values after every level, not just the same
// canonical product — at every paper degree and on the edge inputs of
// the redundant domain. The scalar table always runs; a SIMD table the
// CPU lacks is skipped.
#include "ntt/word_kernels.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "ntt/ntt.h"
#include "ntt/poly.h"
#include "ntt/word_ntt.h"

namespace cryptopim::ntt {
namespace {

const WordKernels* kernels_named(const std::string& isa) {
  if (isa == "avx2") return avx2_word_kernels();
  if (isa == "avx512") return avx512_word_kernels();
  return &scalar_word_kernels();
}

std::vector<std::uint32_t> degrees() {
  std::vector<std::uint32_t> d;
  for (std::uint32_t n = 8; n <= 32768; n *= 2) d.push_back(n);
  return d;
}

class WordKernelIsa : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override {
    kernels_ = kernels_named(GetParam());
    if (kernels_ == nullptr) {
      GTEST_SKIP() << "CPU lacks " << GetParam();
    }
  }

  /// Engines on the table under test and on the scalar reference.
  struct Pair {
    WordNttEngine simd, scalar;
  };
  Pair engines(const NttParams& p) const {
    return {WordNttEngine(p, *kernels_),
            WordNttEngine(p, scalar_word_kernels())};
  }

  /// Forward, point-wise, inverse and normalize on both engines; every
  /// intermediate vector must match exactly.
  static void expect_same_pipeline(const Pair& e, Poly a, Poly b,
                                   const char* what) {
    const std::uint32_t n = e.scalar.params().n;
    Poly sa = a, sb = b;
    e.simd.forward_lazy(a);
    e.scalar.forward_lazy(sa);
    ASSERT_EQ(a, sa) << what << " forward n=" << n;
    e.simd.forward_lazy(b);
    e.scalar.forward_lazy(sb);
    e.simd.pointwise_lazy(a, b);
    e.scalar.pointwise_lazy(sa, sb);
    ASSERT_EQ(a, sa) << what << " pointwise n=" << n;
    e.simd.inverse_lazy(a);
    e.scalar.inverse_lazy(sa);
    ASSERT_EQ(a, sa) << what << " inverse n=" << n;
    e.simd.normalize(a);
    e.scalar.normalize(sa);
    ASSERT_EQ(a, sa) << what << " normalize n=" << n;
  }

  const WordKernels* kernels_ = nullptr;
};

TEST_P(WordKernelIsa, MatchesScalarOnRandomInputsAtEveryPaperDegree) {
  for (const std::uint32_t n : degrees()) {
    const auto p = NttParams::for_degree(n);
    const Pair e = engines(p);
    Xoshiro256 rng(n * 5 + 3);
    for (int round = 0; round < 3; ++round) {
      // The engine accepts the whole redundant domain [0, 2q).
      expect_same_pipeline(e, sample_uniform(n, 2 * p.q, rng),
                           sample_uniform(n, 2 * p.q, rng), "random");
    }
  }
}

TEST_P(WordKernelIsa, MatchesScalarOnEdgeInputs) {
  for (const std::uint32_t n : degrees()) {
    const auto p = NttParams::for_degree(n);
    const Pair e = engines(p);
    const std::uint32_t top = 2 * p.q - 1;
    Poly alternating(n);
    for (std::uint32_t i = 0; i < n; ++i) alternating[i] = i % 2 ? top : 0;
    expect_same_pipeline(e, Poly(n, 0), Poly(n, 0), "zeros");
    expect_same_pipeline(e, Poly(n, top), Poly(n, top), "2q-1");
    expect_same_pipeline(e, alternating, Poly(n, top), "0/2q-1");
    expect_same_pipeline(e, Poly(n, top), Poly(n, 0), "2q-1 x 0");
  }
}

TEST_P(WordKernelIsa, ProductMatchesCanonicalEngine) {
  for (const std::uint32_t n : degrees()) {
    const auto p = NttParams::for_degree(n);
    const WordNttEngine word(p, *kernels_);
    Xoshiro256 rng(n + 11);
    const auto a = sample_uniform(n, p.q, rng);
    const auto b = sample_uniform(n, p.q, rng);
    ASSERT_EQ(word.negacyclic_multiply(a, b),
              GsNttEngine(p).negacyclic_multiply(a, b))
        << "n=" << n;
  }
}

TEST_P(WordKernelIsa, ProbeSeesEveryStageBelowTwoQ) {
  for (const std::uint32_t n : degrees()) {
    const auto p = NttParams::for_degree(n);
    const WordNttEngine word(p, *kernels_);
    unsigned stages = 0;
    const WordNttEngine::StageProbe probe =
        [&](std::span<const std::uint32_t> v) {
          ++stages;
          for (const auto x : v) ASSERT_LT(x, word.two_q()) << "n=" << n;
        };
    Xoshiro256 rng(n + 12);
    auto a = sample_uniform(n, 2 * p.q, rng);
    auto top = Poly(n, word.two_q() - 1);
    word.forward_lazy(a, probe);
    word.forward_lazy(top, probe);
    word.inverse_lazy(a, probe);
    // log2(n) levels per forward; the inverse adds its n^{-1} pass.
    EXPECT_EQ(stages, 3 * p.log2n + 1) << "n=" << n;
  }
}

TEST_P(WordKernelIsa, ElementwiseKernelsHandleTailLengths) {
  // scale, pointwise and normalize take any length; SIMD tables finish
  // the part below one vector on the scalar loop.
  const auto p = NttParams::for_degree(1024);
  const WordKernels& scalar = scalar_word_kernels();
  const auto mu = static_cast<std::uint64_t>(
      (static_cast<unsigned __int128>(1) << 64) / p.q);
  const auto c_shoup = static_cast<std::uint32_t>(
      (static_cast<std::uint64_t>(p.n_inv) << 32) / p.q);
  Xoshiro256 rng(99);
  for (std::uint32_t len = 0; len <= 40; ++len) {
    const auto a = sample_uniform(len, 2 * p.q, rng);
    const auto b = sample_uniform(len, 2 * p.q, rng);
    Poly x = a, y = a;
    kernels_->pointwise(x.data(), b.data(), len, p.q, mu);
    scalar.pointwise(y.data(), b.data(), len, p.q, mu);
    ASSERT_EQ(x, y) << "pointwise len=" << len;
    kernels_->scale(x.data(), len, p.n_inv, c_shoup, p.q);
    scalar.scale(y.data(), len, p.n_inv, c_shoup, p.q);
    ASSERT_EQ(x, y) << "scale len=" << len;
    x = a;
    y = a;
    kernels_->normalize(x.data(), len, p.q);
    scalar.normalize(y.data(), len, p.q);
    ASSERT_EQ(x, y) << "normalize len=" << len;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Isas, WordKernelIsa, ::testing::Values("scalar", "avx2", "avx512"),
    [](const ::testing::TestParamInfo<const char*>& info) {
      return std::string(info.param);
    });

TEST(WordKernels, EngineRunsOnTheWidestSupportedTable) {
  const WordKernels* want = avx512_word_kernels() != nullptr
                                ? avx512_word_kernels()
                            : avx2_word_kernels() != nullptr
                                ? avx2_word_kernels()
                                : &scalar_word_kernels();
  EXPECT_EQ(&best_word_kernels(), want);
  EXPECT_EQ(&WordNttEngine(NttParams::for_degree(1024)).kernels(), want);
  // Transforms shorter than two vectors run on the scalar loops.
  EXPECT_EQ(&WordNttEngine(NttParams::for_degree(8)).kernels(),
            want->min_degree > 8 ? &scalar_word_kernels() : want);
}

}  // namespace
}  // namespace cryptopim::ntt
