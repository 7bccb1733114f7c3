// Tests for the throughput law of the pipelined design (Section III-D.1):
// one memory block per stage, lock-step beats as long as the slowest
// stage, so a stream of jobs takes fill + (jobs - 1) * beat. The beat and
// depth come from the functional simulator's per-stage cycle trace
// (SimReport::stage_cycles); the law itself is the analytic model's
// (model::cryptopim_pipelined, model::ChipScheduler). Successive jobs on
// one simulator stay bit-exact, and the stage trace the law is read from
// does not depend on the operands.
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "arch/chip.h"
#include "common/rng.h"
#include "model/performance.h"
#include "model/scheduler.h"
#include "ntt/ntt.h"
#include "reliability/manager.h"
#include "sim/simulator.h"

namespace cryptopim::sim {
namespace {

std::pair<ntt::Poly, ntt::Poly> random_pair(const ntt::NttParams& p,
                                            Xoshiro256& rng) {
  auto a = ntt::sample_uniform(p.n, p.q, rng);
  auto b = ntt::sample_uniform(p.n, p.q, rng);
  return {std::move(a), std::move(b)};
}

/// Steady-state rate of the pipelined design: one job per beat, the beat
/// being the slowest stage of the simulated trace.
double pipelined_rate(const SimReport& r, const pim::DeviceModel& dev) {
  const std::uint64_t beat =
      *std::max_element(r.stage_cycles.begin(), r.stage_cycles.end());
  return 1.0 / (static_cast<double>(beat) * dev.cycle_s());
}

TEST(Pipelined, EveryStreamedResultIsBitExact) {
  const auto p = ntt::NttParams::for_degree(256);
  CryptoPimSimulator simu(p);
  const ntt::GsNttEngine eng(p);
  Xoshiro256 rng(1);
  for (int job = 0; job < 8; ++job) {
    const auto [a, b] = random_pair(p, rng);
    EXPECT_EQ(simu.multiply(a, b), eng.negacyclic_multiply(a, b))
        << "job " << job;
  }
}

TEST(Pipelined, MakespanFollowsFillPlusBeats) {
  // Lock-step beats: the fill is depth * beat, and once full one job
  // leaves per beat. Five jobs per superbank lane at n = 256.
  const auto perf = model::cryptopim_pipelined(256);
  const double beat_us = 1e6 / perf.throughput_per_s;
  EXPECT_NEAR(perf.latency_us, static_cast<double>(perf.depth) * beat_us,
              1e-9 * perf.latency_us);

  const model::ChipScheduler sched;
  const unsigned lanes = sched.chip().plan_for_degree(256).superbanks;
  const std::vector<model::Job> jobs = {{256, 5ull * lanes}};
  const auto res = sched.schedule(jobs);
  EXPECT_NEAR(res.makespan_us, perf.latency_us + 4 * beat_us,
              1e-9 * res.makespan_us);
}

TEST(Pipelined, ThroughputBeatsNonPipelinedByLargeFactor) {
  // The Fig. 5 claim, at the functional level: a long stream approaches
  // 1/beat, far above the non-pipelined 1/traversal rate.
  const auto p = ntt::NttParams::for_degree(256);
  CryptoPimSimulator simu(p);
  Xoshiro256 rng(3);
  const auto [a, b] = random_pair(p, rng);
  (void)simu.multiply(a, b);
  const auto& r = simu.report();
  const auto dev = pim::DeviceModel::paper_45nm();
  const double np_rate =
      1.0 / (static_cast<double>(r.wall_cycles) * dev.cycle_s());
  EXPECT_GT(pipelined_rate(r, dev) / np_rate, 10.0);
}

TEST(Pipelined, ThroughputWithinBandOfAnalyticModel) {
  // Functional stage programs (width-trimmed, q-width datapath) vs the
  // paper-formula model: same order, within 2.5x.
  const auto p = ntt::NttParams::for_degree(512);
  CryptoPimSimulator simu(p);
  Xoshiro256 rng(5);
  const auto [a, b] = random_pair(p, rng);
  (void)simu.multiply(a, b);
  const double model = model::cryptopim_pipelined(512).throughput_per_s;
  const double ratio =
      pipelined_rate(simu.report(), pim::DeviceModel::paper_45nm()) / model;
  EXPECT_GT(ratio, 0.5);
  EXPECT_LT(ratio, 2.5);
}

TEST(Pipelined, DepthMatchesNonPipelinedStageTrace) {
  const auto p = ntt::NttParams::for_degree(1024);
  CryptoPimSimulator simu(p);
  Xoshiro256 rng(6);
  const auto [a, b] = random_pair(p, rng);
  (void)simu.multiply(a, b);
  // The wall path counts psi, forward levels, pointwise, inverse levels,
  // psi-inv: 1 + 10 + 1 + 10 + 1 = 23 for n = 1024.
  EXPECT_EQ(simu.report().stage_cycles.size(), 23u);
  EXPECT_EQ(simu.report().stage_names.size(), 23u);
}

TEST(Pipelined, StreamOfIdenticalJobsIsDeterministic) {
  const auto p = ntt::NttParams::for_degree(128);
  CryptoPimSimulator simu(p);
  Xoshiro256 rng(7);
  const auto [a, b] = random_pair(p, rng);
  const auto first = simu.multiply(a, b);
  const SimReport first_rep = simu.report();
  for (int job = 1; job < 3; ++job) {
    EXPECT_EQ(simu.multiply(a, b), first) << "job " << job;
    EXPECT_EQ(simu.report().stage_cycles, first_rep.stage_cycles);
    EXPECT_EQ(simu.report().energy_uj, first_rep.energy_uj);
  }
}

// The controller broadcasts fixed stage programs, so the stage trace the
// pipeline beats on is data-independent: two multiplies of different
// operands on one simulator give the same trace and the same totals,
// single-bank and multi-bank, with and without a (fault-free)
// reliability manager attached.
class PipelinedStageTrace
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, bool>> {};

TEST_P(PipelinedStageTrace, SameForEveryOperand) {
  const auto [n, with_manager] = GetParam();
  const auto p = ntt::NttParams::for_degree(n);
  reliability::ReliabilityConfig rc;
  rc.fault.stuck_rate = 0;
  rc.fault.transient_rate = 0;
  rc.verify.points = 2;
  reliability::ReliabilityManager rm(rc, p);
  CryptoPimSimulator simu(p);
  if (with_manager) simu.set_reliability(&rm);

  Xoshiro256 rng(n * 3 + (with_manager ? 1 : 0));
  const auto [a1, b1] = random_pair(p, rng);
  const auto [a2, b2] = random_pair(p, rng);
  ASSERT_NE(a1, a2);
  (void)simu.multiply(a1, b1);
  const SimReport first = simu.report();
  (void)simu.multiply(a2, b2);
  const SimReport& second = simu.report();

  ASSERT_FALSE(first.stage_cycles.empty());
  EXPECT_EQ(second.stage_cycles, first.stage_cycles);
  EXPECT_EQ(second.stage_names, first.stage_names);
  EXPECT_EQ(second.totals.micro_ops, first.totals.micro_ops);
  EXPECT_EQ(second.totals.cell_events, first.totals.cell_events);
  EXPECT_EQ(second.totals.transfer_bits, first.totals.transfer_bits);
  EXPECT_EQ(second.totals.cols_peak, first.totals.cols_peak);
  EXPECT_EQ(first.reliability.enabled, with_manager);
  if (with_manager) {
    EXPECT_TRUE(first.reliability.verified);
    EXPECT_TRUE(second.reliability.verified);
    EXPECT_EQ(second.reliability.attempts, 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Degrees, PipelinedStageTrace,
    ::testing::Combine(::testing::Values(64u, 256u, 2048u), ::testing::Bool()));

}  // namespace
}  // namespace cryptopim::sim
