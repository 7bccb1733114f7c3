// End-to-end tests of the functional CryptoPIM simulator (src/sim/*):
// full polynomial multiplications executed in simulated crossbars must be
// bit-exact against the software NTT engine (itself verified against a
// schoolbook oracle), across degrees, moduli and bank configurations.
#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <bit>
#include <stdexcept>

#include "common/rng.h"
#include "model/performance.h"
#include "ntt/poly.h"
#include "obs/metrics.h"
#include "reliability/manager.h"

namespace cryptopim::sim {
namespace {

class SimDegrees : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(SimDegrees, MatchesSoftwareNtt) {
  const std::uint32_t n = GetParam();
  const auto p = ntt::NttParams::for_degree(n);
  CryptoPimSimulator simu(p);
  ntt::GsNttEngine eng(p);
  Xoshiro256 rng(n + 1);
  const auto a = ntt::sample_uniform(n, p.q, rng);
  const auto b = ntt::sample_uniform(n, p.q, rng);
  EXPECT_EQ(simu.multiply(a, b), eng.negacyclic_multiply(a, b));
}

INSTANTIATE_TEST_SUITE_P(UpTo4k, SimDegrees,
                         ::testing::Values(16u, 64u, 256u, 512u, 1024u, 2048u,
                                           4096u));

TEST(Sim, MatchesSchoolbookOracle) {
  const auto p = ntt::NttParams::for_degree(256);
  CryptoPimSimulator simu(p);
  Xoshiro256 rng(99);
  const auto a = ntt::sample_uniform(p.n, p.q, rng);
  const auto b = ntt::sample_uniform(p.n, p.q, rng);
  EXPECT_EQ(simu.multiply(a, b), ntt::schoolbook_negacyclic(a, b, p.q));
}

TEST(Sim, MultiBankDegree8k) {
  // 16 banks, butterfly strides crossing bank boundaries.
  const auto p = ntt::NttParams::for_degree(8192);
  CryptoPimSimulator simu(p);
  ntt::GsNttEngine eng(p);
  Xoshiro256 rng(7);
  const auto a = ntt::sample_uniform(p.n, p.q, rng);
  const auto b = ntt::sample_uniform(p.n, p.q, rng);
  EXPECT_EQ(simu.multiply(a, b), eng.negacyclic_multiply(a, b));
}

TEST(Sim, RingIdentities) {
  const auto p = ntt::NttParams::for_degree(512);
  CryptoPimSimulator simu(p);
  // x^{n-1} * x = -1.
  ntt::Poly a(p.n, 0), b(p.n, 0);
  a[p.n - 1] = 1;
  b[1] = 1;
  const auto c = simu.multiply(a, b);
  EXPECT_EQ(c[0], p.q - 1);
  for (std::size_t i = 1; i < c.size(); ++i) ASSERT_EQ(c[i], 0u);
  // Multiplication by the unit polynomial.
  Xoshiro256 rng(3);
  const auto r = ntt::sample_uniform(p.n, p.q, rng);
  ntt::Poly one(p.n, 0);
  one[0] = 1;
  EXPECT_EQ(simu.multiply(r, one), r);
  // Zero annihilates.
  const ntt::Poly zero(p.n, 0);
  EXPECT_EQ(simu.multiply(r, zero), zero);
}

TEST(Sim, StageCountMatchesStructure) {
  // psi-scale (x2 polys) + 2*log2n butterflies (x2 until pointwise ...):
  // total accumulated stage programs = 2 + 2*log2n + 1 + log2n + 1.
  const auto p = ntt::NttParams::for_degree(256);
  CryptoPimSimulator simu(p);
  Xoshiro256 rng(5);
  const auto a = ntt::sample_uniform(p.n, p.q, rng);
  const auto b = ntt::sample_uniform(p.n, p.q, rng);
  simu.multiply(a, b);
  EXPECT_EQ(simu.report().stages, 2u + 2 * 8 + 1 + 8 + 1);
}

TEST(Sim, WallCyclesWithinModelBand) {
  // The functional simulation executes real (trimmed) micro-code; its
  // critical path must land near the analytic non-pipelined model built
  // from the paper's formulas.
  for (const std::uint32_t n : {256u, 1024u}) {
    const auto p = ntt::NttParams::for_degree(n);
    CryptoPimSimulator simu(p);
    Xoshiro256 rng(n);
    const auto a = ntt::sample_uniform(n, p.q, rng);
    const auto b = ntt::sample_uniform(n, p.q, rng);
    simu.multiply(a, b);
    const auto np = model::cryptopim_non_pipelined(n);
    const double ratio =
        simu.report().latency_us / np.latency_us;
    EXPECT_GT(ratio, 0.6) << "n=" << n;
    EXPECT_LT(ratio, 1.4) << "n=" << n;
  }
}

TEST(Sim, EnergyScalesWithDegree) {
  double prev = 0;
  for (const std::uint32_t n : {256u, 512u, 1024u}) {
    const auto p = ntt::NttParams::for_degree(n);
    CryptoPimSimulator simu(p);
    Xoshiro256 rng(n);
    const auto a = ntt::sample_uniform(n, p.q, rng);
    const auto b = ntt::sample_uniform(n, p.q, rng);
    simu.multiply(a, b);
    EXPECT_GT(simu.report().energy_uj, prev);
    prev = simu.report().energy_uj;
  }
}

TEST(Sim, ReportIsResetBetweenRuns) {
  const auto p = ntt::NttParams::for_degree(64);
  CryptoPimSimulator simu(p);
  Xoshiro256 rng(1);
  const auto a = ntt::sample_uniform(p.n, p.q, rng);
  const auto b = ntt::sample_uniform(p.n, p.q, rng);
  simu.multiply(a, b);
  const auto first = simu.report().wall_cycles;
  simu.multiply(a, b);
  EXPECT_EQ(simu.report().wall_cycles, first);  // deterministic, not summed
}

TEST(Sim, CommutativityUnderDomainAsymmetry) {
  // A flows plain, B flows in the Montgomery domain — the product must
  // still be symmetric.
  const auto p = ntt::NttParams::for_degree(256);
  CryptoPimSimulator simu(p);
  Xoshiro256 rng(17);
  const auto a = ntt::sample_uniform(p.n, p.q, rng);
  const auto b = ntt::sample_uniform(p.n, p.q, rng);
  EXPECT_EQ(simu.multiply(a, b), simu.multiply(b, a));
}

TEST(Sim, StageCyclesSumToWallCycles) {
  // SimReport invariant across moduli and degrees: the per-stage ledger
  // accounts for every wall cycle, with names parallel to the cycles.
  // (q = 7681 only supports n <= 256: 7680 = 2^9 * 15 has no 2048th
  // root, so that combination must be rejected at construction.)
  for (const std::uint32_t q : {7681u, 12289u, 786433u}) {
    for (const std::uint32_t n : {256u, 1024u}) {
      if ((q - 1) % (2 * n) != 0) {
        EXPECT_THROW(ntt::NttParams::make(n, q), std::invalid_argument)
            << "n=" << n << " q=" << q;
        continue;
      }
      const auto p = ntt::NttParams::make(n, q);
      CryptoPimSimulator simu(p);
      Xoshiro256 rng(n ^ q);
      const auto a = ntt::sample_uniform(n, q, rng);
      const auto b = ntt::sample_uniform(n, q, rng);
      simu.multiply(a, b);
      const auto& rep = simu.report();
      ASSERT_FALSE(rep.stage_cycles.empty());
      ASSERT_EQ(rep.stage_names.size(), rep.stage_cycles.size());
      std::uint64_t sum = 0;
      for (const auto c : rep.stage_cycles) sum += c;
      EXPECT_EQ(sum, rep.wall_cycles) << "n=" << n << " q=" << q;
    }
  }
}

// Stage microcode is compiled on the first multiply and replayed on
// every later one: a simulator's 1st and 5th multiply must be
// indistinguishable from a fresh simulator's, down to every report field
// and the microcode library.
void expect_same_report(const SimReport& got, const SimReport& want,
                        const char* which) {
  EXPECT_EQ(got.wall_cycles, want.wall_cycles) << which;
  EXPECT_EQ(got.stages, want.stages) << which;
  EXPECT_EQ(got.stage_cycles, want.stage_cycles) << which;
  EXPECT_EQ(got.stage_names, want.stage_names) << which;
  EXPECT_EQ(got.totals.cycles, want.totals.cycles) << which;
  EXPECT_EQ(got.totals.micro_ops, want.totals.micro_ops) << which;
  EXPECT_EQ(got.totals.cell_events, want.totals.cell_events) << which;
  EXPECT_EQ(got.totals.transfer_bits, want.totals.transfer_bits) << which;
  EXPECT_EQ(got.totals.cols_peak, want.totals.cols_peak) << which;
  EXPECT_EQ(got.latency_us, want.latency_us) << which;
  EXPECT_EQ(got.energy_uj, want.energy_uj) << which;
}

class SimReplay : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(SimReplay, RepeatedMultipliesMatchAFreshSimulator) {
  const std::uint32_t n = GetParam();
  const auto p = ntt::NttParams::for_degree(n);
  Xoshiro256 rng(n * 13 + 1);
  const auto a = ntt::sample_uniform(n, p.q, rng);
  const auto b = ntt::sample_uniform(n, p.q, rng);

  CryptoPimSimulator fresh(p);
  const auto want = fresh.multiply(a, b);
  const SimReport want_rep = fresh.report();
  ASSERT_EQ(want, ntt::GsNttEngine(p).negacyclic_multiply(a, b));

  CryptoPimSimulator warm(p);
  EXPECT_EQ(warm.multiply(a, b), want) << "1st multiply";
  expect_same_report(warm.report(), want_rep, "1st multiply");
  for (int i = 0; i < 3; ++i) {  // different data through the same programs
    (void)warm.multiply(ntt::sample_uniform(n, p.q, rng),
                        ntt::sample_uniform(n, p.q, rng));
  }
  EXPECT_EQ(warm.multiply(a, b), want) << "5th multiply";
  expect_same_report(warm.report(), want_rep, "5th multiply");

  const pim::Controller& mc = warm.microcode();
  ASSERT_EQ(mc.stage_count(), fresh.microcode().stage_count());
  EXPECT_EQ(mc.stage_count(), want_rep.stages);
  for (std::size_t i = 0; i < mc.stage_count(); ++i) {
    EXPECT_EQ(mc.name(i), fresh.microcode().name(i)) << "stage " << i;
    EXPECT_EQ(mc.program(i).size(), fresh.microcode().program(i).size())
        << "stage " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Degrees, SimReplay,
                         ::testing::Values(8u, 64u, 256u, 1024u, 2048u));

// The refactoring oracle of the lock-step replay: SimReport totals of one
// multiply per degree, recorded before the replay ran banks and softbanks
// as lanes of one instruction stream, with and without a fault-injecting
// ReliabilityManager (stuck cells, transient flips, column repairs).
// stage_cycles is pinned as an FNV-1a hash of its values, energy_uj as
// its IEEE-754 bits.
std::uint64_t stage_cycles_hash(const std::vector<std::uint64_t>& cycles) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::uint64_t c : cycles) {
    for (int i = 0; i < 8; ++i) {
      h ^= (c >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

TEST(SimPinned, ReportTotalsMatchTheRecordedOracle) {
  struct Row {
    std::uint32_t n;
    bool faults;
    std::uint64_t wall_cycles, stage_hash, micro_ops, cell_events,
        transfer_bits, cols_peak, energy_bits, write_verify_failures,
        columns_remapped;
  };
  const Row rows[] = {
      {8, false, 20101u, 0x71e1fc1d08228795u, 14600u, 144672u, 3328u, 133u,
       0x3f9da4c11508a5c1u, 0, 0},
      {16, false, 24945u, 0x689831d724901321u, 18236u, 346560u, 8528u, 133u,
       0x3fb1c7d11b8341a8u, 0, 0},
      {32, false, 29789u, 0x09c189e5d725fbe5u, 21872u, 807552u, 20800u, 133u,
       0x3fc4bd41ac823070u, 0, 0},
      {64, false, 34633u, 0x989ed04e81fe2991u, 25508u, 1843968u, 49088u, 133u,
       0x3fd7b2b23d811f38u, 0, 0},
      {128, false, 39477u, 0x53470260bc855b75u, 29144u, 4145664u, 113152u,
       133u, 0x3feaa822ce800e00u, 0, 0},
      {256, false, 44321u, 0xbf9fa792b5c79981u, 32780u, 9206784u, 256256u,
       133u, 0x3ffd9d935f7efcc6u, 0, 0},
      {512, false, 54716u, 0x97ddfb4526406ad0u, 40450u, 22494464u, 616448u,
       139u, 0x401214fc7b0b1a2du, 0, 0},
      {1024, false, 60096u, 0x7fe7df6e12ed6584u, 89000u, 49079296u, 1318912u,
       139u, 0x4023b73d4a6198bau, 0, 0},
      {2048, false, 112410u, 0x59b603f9bcc9dc8fu, 332924u, 184086528u,
       4014080u, 209u, 0x4042656ff30c6483u, 0, 0},
      {4096, false, 121568u, 0x5e82e26ba04d0e8bu, 720928u, 396066816u,
       8519680u, 209u, 0x4053c8c68d2a90f1u, 0, 0},
      {8, true, 20123u, 0xf455a4362f0d62bfu, 14600u, 144672u, 3584u, 141u,
       0x3f9db1e176ee6d07u, 0, 0},
      {16, true, 24973u, 0x204bdb24c4edf34bu, 18236u, 346560u, 9184u, 141u,
       0x3fb1d039da3a7552u, 7, 19},
      {32, true, 29823u, 0x95ffa9f96529f01fu, 21872u, 807552u, 22400u, 141u,
       0x3fc4c782f8fdb41fu, 5, 20},
      {64, true, 34673u, 0xd61fd11a612eb00bu, 25508u, 1843968u, 52864u, 141u,
       0x3fd7becc17c0f2ecu, 6, 23},
      {128, true, 39523u, 0xccc88c3b98ac89dfu, 29144u, 4145664u, 121856u,
       141u, 0x3feab615368431bau, 6, 26},
      {256, true, 44373u, 0x7c8cd155a1e4068bu, 32780u, 9206784u, 275968u,
       141u, 0x3ffdad5e55477087u, 9, 30},
      {512, true, 54774u, 0xbe4ed81da7bc4982u, 40450u, 22494464u, 660480u,
       147u, 0x40121dce3cd17c10u, 8, 31},
      {1024, true, 60158u, 0x3c57b6b12f928e1au, 89000u, 49079296u, 1413120u,
       147u, 0x4023c0ac90bebff4u, 37, 76},
      {2048, true, 112476u, 0x47efd669491e9f11u, 332924u, 184086528u,
       4214784u, 217u, 0x40426a7658865accu, 233, 157},
  };
  for (const Row& row : rows) {
    const auto p = ntt::NttParams::for_degree(row.n);
    reliability::ReliabilityConfig rc;
    rc.fault.stuck_rate = 4e-6;
    rc.fault.transient_rate = 1e-7;
    rc.fault.seed = 3;
    rc.verify.points = 2;
    reliability::ReliabilityManager rm(rc, p);
    CryptoPimSimulator simu(p);
    if (row.faults) simu.set_reliability(&rm);
    Xoshiro256 rng(row.n + 1);
    const auto a = ntt::sample_uniform(row.n, p.q, rng);
    const auto b = ntt::sample_uniform(row.n, p.q, rng);
    EXPECT_EQ(simu.multiply(a, b), ntt::GsNttEngine(p).negacyclic_multiply(a, b))
        << "n=" << row.n << " faults=" << row.faults;
    const SimReport& r = simu.report();
    const std::string at =
        "n=" + std::to_string(row.n) + " faults=" + std::to_string(row.faults);
    EXPECT_EQ(r.wall_cycles, row.wall_cycles) << at;
    EXPECT_EQ(stage_cycles_hash(r.stage_cycles), row.stage_hash) << at;
    EXPECT_EQ(r.totals.micro_ops, row.micro_ops) << at;
    EXPECT_EQ(r.totals.cell_events, row.cell_events) << at;
    EXPECT_EQ(r.totals.transfer_bits, row.transfer_bits) << at;
    EXPECT_EQ(r.totals.cols_peak, row.cols_peak) << at;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r.energy_uj), row.energy_bits)
        << at;
    EXPECT_EQ(r.reliability.write_verify_failures,
              row.write_verify_failures) << at;
    EXPECT_EQ(r.reliability.columns_remapped, row.columns_remapped) << at;
  }
}

TEST(SimMetrics, ReduceSamplesGoToTheSimulatorsRegistry) {
  // The reduction circuits sample their cycle counts while the stage
  // programs compile; a simulator with its own registry keeps them there.
  const char* kMont = "cryptopim.reduce.montgomery_cycles";
  const char* kBarrett = "cryptopim.reduce.barrett_cycles";
  const auto global_count = [](const char* name) -> std::uint64_t {
    const auto& hs = obs::metrics().histograms();
    const auto it = hs.find(name);
    return it == hs.end() ? 0 : it->second.count();
  };
  const std::uint64_t mont_before = global_count(kMont);
  const std::uint64_t barrett_before = global_count(kBarrett);

  const auto p = ntt::NttParams::for_degree(256);
  obs::MetricsRegistry reg;
  CryptoPimSimulator simu(p);
  simu.set_metrics(&reg);
  Xoshiro256 rng(256);
  (void)simu.multiply(ntt::sample_uniform(p.n, p.q, rng),
                      ntt::sample_uniform(p.n, p.q, rng));

  ASSERT_EQ(reg.histograms().count(kMont), 1u);
  ASSERT_EQ(reg.histograms().count(kBarrett), 1u);
  EXPECT_GT(reg.histograms().at(kMont).count(), 0u);
  EXPECT_GT(reg.histograms().at(kBarrett).count(), 0u);
  EXPECT_EQ(global_count(kMont), mont_before);
  EXPECT_EQ(global_count(kBarrett), barrett_before);
}

}  // namespace
}  // namespace cryptopim::sim
