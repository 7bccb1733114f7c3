// Algebraic property tests of the NTT stack: transform linearity, the
// shift (monomial) theorem, multiplicative structure of the ring, and
// cross-engine consistency — each property over randomized inputs and
// multiple parameter sets.
#include <gtest/gtest.h>

#include "common/bitutil.h"
#include "common/rng.h"
#include "ntt/modular.h"
#include "ntt/ntt.h"
#include "ntt/params.h"
#include "ntt/poly.h"
#include "ntt/word_ntt.h"

namespace cryptopim::ntt {
namespace {

class NttAlgebra : public ::testing::TestWithParam<std::uint32_t> {
 protected:
  void SetUp() override {
    params_ = NttParams::for_degree(GetParam());
    engine_ = std::make_unique<GsNttEngine>(params_);
    rng_ = std::make_unique<Xoshiro256>(GetParam() * 7 + 1);
  }
  Poly random_poly() { return sample_uniform(params_.n, params_.q, *rng_); }

  NttParams params_;
  std::unique_ptr<GsNttEngine> engine_;
  std::unique_ptr<Xoshiro256> rng_;
};

TEST_P(NttAlgebra, ForwardIsLinear) {
  const auto a = random_poly();
  const auto b = random_poly();
  const std::uint32_t k = static_cast<std::uint32_t>(rng_->next_below(params_.q));

  // NTT(a + k*b) == NTT(a) + k*NTT(b)
  Poly akb(params_.n);
  for (std::size_t i = 0; i < params_.n; ++i) {
    akb[i] = add_mod(a[i], mul_mod(k, b[i], params_.q), params_.q);
  }
  auto lhs = akb;
  engine_->forward(lhs);

  auto fa = a;
  auto fb = b;
  engine_->forward(fa);
  engine_->forward(fb);
  for (std::size_t i = 0; i < params_.n; ++i) {
    ASSERT_EQ(lhs[i],
              add_mod(fa[i], mul_mod(k, fb[i], params_.q), params_.q));
  }
}

TEST_P(NttAlgebra, MonomialShiftTheorem) {
  // a(x) * x^k rotates coefficients with a sign flip on wrap-around.
  const auto a = random_poly();
  const std::uint32_t k =
      static_cast<std::uint32_t>(rng_->next_below(params_.n - 1)) + 1;
  Poly xk(params_.n, 0);
  xk[k] = 1;
  const auto rotated = engine_->negacyclic_multiply(a, xk);
  for (std::size_t i = 0; i < params_.n; ++i) {
    const std::size_t src = (i + params_.n - k) % params_.n;
    const bool wrapped = i < k;
    const std::uint32_t expect =
        wrapped ? sub_mod(0, a[src], params_.q) : a[src];
    ASSERT_EQ(rotated[i], expect) << "i=" << i << " k=" << k;
  }
}

TEST_P(NttAlgebra, MultiplicationCommutes) {
  const auto a = random_poly();
  const auto b = random_poly();
  EXPECT_EQ(engine_->negacyclic_multiply(a, b),
            engine_->negacyclic_multiply(b, a));
}

TEST_P(NttAlgebra, MultiplicationAssociates) {
  const auto a = random_poly();
  const auto b = random_poly();
  const auto c = random_poly();
  EXPECT_EQ(
      engine_->negacyclic_multiply(engine_->negacyclic_multiply(a, b), c),
      engine_->negacyclic_multiply(a, engine_->negacyclic_multiply(b, c)));
}

TEST_P(NttAlgebra, ScalarsFactorOut) {
  const auto a = random_poly();
  const auto b = random_poly();
  const std::uint32_t k =
      static_cast<std::uint32_t>(rng_->next_below(params_.q - 1)) + 1;
  Poly ka(params_.n);
  for (std::size_t i = 0; i < params_.n; ++i) {
    ka[i] = mul_mod(k, a[i], params_.q);
  }
  const auto lhs = engine_->negacyclic_multiply(ka, b);
  auto rhs = engine_->negacyclic_multiply(a, b);
  for (auto& c : rhs) c = mul_mod(k, c, params_.q);
  EXPECT_EQ(lhs, rhs);
}

TEST_P(NttAlgebra, ForwardOfDeltaIsPsiTwist) {
  // NTT(delta_0) = (1,1,...,1) up to the psi pre-twist: delta_0 scaled by
  // psi^0 = 1, so the spectrum is all ones.
  Poly delta(params_.n, 0);
  delta[0] = 1;
  engine_->forward(delta);
  for (const auto v : delta) ASSERT_EQ(v, 1u);
}

TEST_P(NttAlgebra, PointwiseSquareMatchesSelfMultiply) {
  const auto a = random_poly();
  auto fa = a;
  engine_->forward(fa);
  for (auto& v : fa) v = mul_mod(v, v, params_.q);
  engine_->inverse(fa);
  EXPECT_EQ(fa, engine_->negacyclic_multiply(a, a));
}

INSTANTIATE_TEST_SUITE_P(Degrees, NttAlgebra,
                         ::testing::Values(16u, 256u, 512u, 2048u));

// ---------------------------------------------------------------------------
// Lazy-reduction invariants of the word-level engine
// ---------------------------------------------------------------------------
// The WordNttEngine keeps intermediates in the redundant [0, 2q) range
// through the whole transform and normalizes exactly once at the end.
// These properties pin the contract: no intermediate ever escapes 2q,
// the final normalize is canonical, the lazy round trip is the identity
// (the inverse ends in an n^{-1} pass, so forward ∘ inverse == id
// exactly, no residual scale factor), and the merged-twist forward pass
// yields the Algorithm-1 spectrum in bit-reversed order.

class WordLazy : public ::testing::TestWithParam<std::uint32_t> {
 protected:
  void SetUp() override {
    params_ = NttParams::for_degree(GetParam());
    word_ = std::make_unique<WordNttEngine>(params_);
    gs_ = std::make_unique<GsNttEngine>(params_);
    rng_ = std::make_unique<Xoshiro256>(GetParam() * 31 + 7);
  }
  Poly random_poly() { return sample_uniform(params_.n, params_.q, *rng_); }

  /// Probe asserting the partial-domain invariant at every phase.
  WordNttEngine::StageProbe bound_probe(const char* where) {
    return [this, where](std::span<const std::uint32_t> a) {
      for (const auto v : a) {
        ASSERT_LT(v, word_->two_q()) << where << ": intermediate escaped 2q";
      }
    };
  }

  NttParams params_;
  std::unique_ptr<WordNttEngine> word_;
  std::unique_ptr<GsNttEngine> gs_;
  std::unique_ptr<Xoshiro256> rng_;
};

TEST_P(WordLazy, EveryIntermediateStaysBelowTwoQ) {
  for (int round = 0; round < 10; ++round) {
    auto a = random_poly();
    auto b = random_poly();
    word_->forward_lazy(a, bound_probe("forward"));
    word_->forward_lazy(b, bound_probe("forward"));
    word_->pointwise_lazy(a, b);
    for (const auto v : a) ASSERT_LT(v, word_->two_q()) << "pointwise";
    word_->inverse_lazy(a, bound_probe("inverse"));
  }
}

TEST_P(WordLazy, IntermediatesStayBoundedFromPartialDomainInputs) {
  // The forward transform must hold the invariant even when fed the
  // extreme of the redundant representation (all coefficients 2q-1).
  Poly a(params_.n, word_->two_q() - 1);
  word_->forward_lazy(a, bound_probe("forward[2q-1]"));
}

TEST_P(WordLazy, FinalNormalizeLandsCanonical) {
  for (int round = 0; round < 10; ++round) {
    auto a = random_poly();
    word_->forward_lazy(a);
    word_->inverse_lazy(a);
    word_->normalize(a);
    for (const auto v : a) ASSERT_LT(v, params_.q);
  }
  // The normalize pass itself: 2q-1 -> q-1, q -> 0, q-1 unchanged.
  Poly edge = {word_->two_q() - 1, params_.q, params_.q - 1, 0};
  word_->normalize(edge);
  EXPECT_EQ(edge, (Poly{params_.q - 1, 0, params_.q - 1, 0}));
}

TEST_P(WordLazy, ForwardInverseRoundTripIsIdentity) {
  // NTT ∘ INTT == identity; the inverse's n^{-1} pass cancels the n
  // scaling of the raw transform pair, so the round trip is exact.
  const auto orig = random_poly();
  auto a = orig;
  word_->forward_lazy(a);
  word_->inverse_lazy(a);
  word_->normalize(a);
  EXPECT_EQ(a, orig);
}

TEST_P(WordLazy, LazyForwardMatchesCanonicalEngine) {
  // The normalized lazy spectrum is GsNttEngine::forward's (psi-scale,
  // then the Algorithm-2 path) in bit-reversed order:
  // forward_lazy(x)[i] == forward(x)[brv(i)].
  auto a = random_poly();
  auto ref = a;
  word_->forward_lazy(a);
  word_->normalize(a);
  gs_->forward(ref);
  for (std::size_t i = 0; i < params_.n; ++i) {
    ASSERT_EQ(a[i], ref[bit_reverse(i, params_.log2n)]) << i;
  }
}

TEST_P(WordLazy, NegacyclicProductMatchesCanonicalEngine) {
  const auto a = random_poly();
  const auto b = random_poly();
  EXPECT_EQ(word_->negacyclic_multiply(a, b), gs_->negacyclic_multiply(a, b));
}

// All supported (n, q) classes: the three paper moduli across their
// degree ranges, including the 32-bit datapath points, down to the
// smallest transforms (n = 8, 64) whose stages are all short blocks.
INSTANTIATE_TEST_SUITE_P(Degrees, WordLazy,
                         ::testing::Values(8u, 16u, 64u, 256u, 512u, 1024u,
                                           2048u, 4096u, 8192u));

// The merged-twist schedule against the paper's Algorithm-1 engine, fed
// from the redundant [0, 2q) input domain the lazy engine accepts: the
// product and the round trip must agree with the canonical (mod q)
// values of those inputs.
class MergedNtt : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(MergedNtt, MatchesAlgorithm1Engine) {
  const std::uint32_t n = GetParam();
  const auto p = NttParams::for_degree(n);
  const WordNttEngine merged(p);
  const GsNttEngine reference(p);
  Xoshiro256 rng(n + 77);
  const auto a = sample_uniform(n, 2 * p.q, rng);
  const auto b = sample_uniform(n, 2 * p.q, rng);
  Poly a_mod = a;
  Poly b_mod = b;
  for (auto& v : a_mod) v %= p.q;
  for (auto& v : b_mod) v %= p.q;
  EXPECT_EQ(merged.negacyclic_multiply(a, b),
            reference.negacyclic_multiply(a_mod, b_mod));
}

TEST_P(MergedNtt, ForwardInverseRoundTrip) {
  const std::uint32_t n = GetParam();
  const auto p = NttParams::for_degree(n);
  const WordNttEngine merged(p);
  Xoshiro256 rng(n + 78);
  const auto x = sample_uniform(n, 2 * p.q, rng);
  auto a = x;
  merged.forward_lazy(a);
  merged.inverse_lazy(a);
  merged.normalize(a);
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(a[i], x[i] % p.q) << i;
}

INSTANTIATE_TEST_SUITE_P(Degrees, MergedNtt,
                         ::testing::Values(8u, 64u, 256u, 1024u, 4096u));

TEST(WordLazyConstruction, RejectsOversizedModulus) {
  // q >= 2^30 would overflow the 32-bit lazy butterfly; the engine must
  // refuse rather than compute garbage.
  EXPECT_THROW(WordNttEngine(NttParams::make(4, 3221225473u)),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Sampler distributions
// ---------------------------------------------------------------------------

TEST(Samplers, UniformCoversRange) {
  Xoshiro256 rng(5);
  const auto p = sample_uniform(4096, 7681, rng);
  std::uint32_t lo = 7681, hi = 0;
  for (const auto c : p) {
    ASSERT_LT(c, 7681u);
    lo = std::min(lo, c);
    hi = std::max(hi, c);
  }
  EXPECT_LT(lo, 100u);    // both tails hit with overwhelming probability
  EXPECT_GT(hi, 7580u);
}

TEST(Samplers, CbdIsCenteredAndBounded) {
  Xoshiro256 rng(6);
  const unsigned eta = 3;
  const auto p = sample_cbd(8192, 12289, eta, rng);
  std::int64_t sum = 0;
  for (const auto c : p) {
    const auto v = centered(c, 12289);
    ASSERT_LE(std::llabs(v), static_cast<std::int64_t>(eta));
    sum += v;
  }
  // Mean ~0 with std ~ sqrt(n * eta/2): |sum| < 5 sigma.
  EXPECT_LT(std::llabs(sum), 5 * 110);
}

TEST(Samplers, TernaryValues) {
  Xoshiro256 rng(7);
  const auto p = sample_ternary(4096, 786433, rng);
  std::size_t counts[3] = {0, 0, 0};
  for (const auto c : p) {
    const auto v = centered(c, 786433);
    ASSERT_LE(std::llabs(v), 1);
    ++counts[v + 1];
  }
  // Roughly balanced thirds.
  for (const auto n : counts) {
    EXPECT_GT(n, 4096u / 3 - 200);
    EXPECT_LT(n, 4096u / 3 + 200);
  }
}

TEST(Centered, Bounds) {
  EXPECT_EQ(centered(0, 7681), 0);
  EXPECT_EQ(centered(1, 7681), 1);
  EXPECT_EQ(centered(7680, 7681), -1);
  EXPECT_EQ(centered(3840, 7681), 3840);   // q/2 floor stays positive
  EXPECT_EQ(centered(3841, 7681), -3840);  // first negative representative
}

}  // namespace
}  // namespace cryptopim::ntt
