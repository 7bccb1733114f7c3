// google-benchmark microbenchmarks of the software NTT stack — the
// CPU-baseline substitute for the paper's gem5 X86 measurements, plus the
// kernels the accelerator replaces (forward NTT, point-wise multiply,
// reductions, schoolbook oracle).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>

#include "common/rng.h"
#include "ntt/ntt.h"
#include "ntt/params.h"
#include "ntt/poly.h"
#include "ntt/reduction.h"
#include "ntt/word_ntt.h"
#include "obs/bench_report.h"

namespace cp = cryptopim;

namespace {

void BM_NegacyclicMultiply(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const auto p = cp::ntt::NttParams::for_degree(n);
  const cp::ntt::GsNttEngine eng(p);
  cp::Xoshiro256 rng(n);
  const auto a = cp::ntt::sample_uniform(n, p.q, rng);
  const auto b = cp::ntt::sample_uniform(n, p.q, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(eng.negacyclic_multiply(a, b));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NegacyclicMultiply)
    ->RangeMultiplier(2)
    ->Range(256, 32768)
    ->Unit(benchmark::kMicrosecond);

// The word-tier engine the serving runtime executes (WordLevelBackend).
void BM_WordNegacyclicMultiply(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const auto p = cp::ntt::NttParams::for_degree(n);
  const cp::ntt::WordNttEngine eng(p);
  cp::Xoshiro256 rng(n);
  const auto a = cp::ntt::sample_uniform(n, p.q, rng);
  const auto b = cp::ntt::sample_uniform(n, p.q, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(eng.negacyclic_multiply(a, b));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WordNegacyclicMultiply)
    ->RangeMultiplier(2)
    ->Range(256, 32768)
    ->Unit(benchmark::kMicrosecond);

void BM_ForwardNtt(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const auto p = cp::ntt::NttParams::for_degree(n);
  const cp::ntt::GsNttEngine eng(p);
  cp::Xoshiro256 rng(n);
  auto a = cp::ntt::sample_uniform(n, p.q, rng);
  for (auto _ : state) {
    eng.forward(a);
    benchmark::DoNotOptimize(a.data());
  }
}
BENCHMARK(BM_ForwardNtt)
    ->RangeMultiplier(4)
    ->Range(256, 32768)
    ->Unit(benchmark::kMicrosecond);

void BM_InverseNtt(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const auto p = cp::ntt::NttParams::for_degree(n);
  const cp::ntt::GsNttEngine eng(p);
  cp::Xoshiro256 rng(n);
  auto a = cp::ntt::sample_uniform(n, p.q, rng);
  for (auto _ : state) {
    eng.inverse(a);
    benchmark::DoNotOptimize(a.data());
  }
}
BENCHMARK(BM_InverseNtt)
    ->RangeMultiplier(4)
    ->Range(256, 32768)
    ->Unit(benchmark::kMicrosecond);

void BM_SchoolbookOracle(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const auto p = cp::ntt::NttParams::for_degree(n);
  cp::Xoshiro256 rng(n);
  const auto a = cp::ntt::sample_uniform(n, p.q, rng);
  const auto b = cp::ntt::sample_uniform(n, p.q, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cp::ntt::schoolbook_negacyclic(a, b, p.q));
  }
}
BENCHMARK(BM_SchoolbookOracle)->Arg(256)->Arg(1024)->Unit(
    benchmark::kMicrosecond);

void BM_BarrettShiftAdd(benchmark::State& state) {
  const auto q = static_cast<std::uint32_t>(state.range(0));
  const auto spec = cp::ntt::BarrettShiftAdd::paper_spec(q);
  cp::Xoshiro256 rng(q);
  std::vector<std::uint64_t> vals(4096);
  for (auto& v : vals) v = rng.next_below(2ull * q);
  for (auto _ : state) {
    std::uint64_t acc = 0;
    for (const auto v : vals) acc += spec.reduce_canonical(v);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * vals.size());
}
BENCHMARK(BM_BarrettShiftAdd)->Arg(7681)->Arg(12289)->Arg(786433);

void BM_MontgomeryShiftAdd(benchmark::State& state) {
  const auto q = static_cast<std::uint32_t>(state.range(0));
  const auto spec = cp::ntt::MontgomeryShiftAdd::paper_spec(q);
  cp::Xoshiro256 rng(q);
  std::vector<std::uint64_t> vals(4096);
  for (auto& v : vals) v = rng.next_below(q) * rng.next_below(q);
  for (auto _ : state) {
    std::uint64_t acc = 0;
    for (const auto v : vals) acc += spec.reduce_canonical(v);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * vals.size());
}
BENCHMARK(BM_MontgomeryShiftAdd)->Arg(7681)->Arg(12289)->Arg(786433);

// Console output as usual, but every finished run is also mirrored into
// the BenchReporter so bench_cpu_ntt.json carries the same numbers.
class CaptureReporter : public benchmark::ConsoleReporter {
 public:
  explicit CaptureReporter(cp::obs::BenchReporter& rep) : rep_(rep) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const auto& run : runs) {
      if (run.error_occurred) continue;
      rep_.add(run.benchmark_name(), run.GetAdjustedRealTime(),
               benchmark::GetTimeUnitString(run.time_unit),
               {{"iterations", std::to_string(run.iterations)}});
    }
    ConsoleReporter::ReportRuns(runs);
  }

 private:
  cp::obs::BenchReporter& rep_;
};

}  // namespace

int main(int argc, char** argv) {
  // `--json` is the flag every other bench accepts; bench_cpu_ntt.json is
  // written regardless, so drop it before google-benchmark rejects it.
  argc = static_cast<int>(
      std::remove_if(argv + 1, argv + argc,
                     [](const char* arg) { return std::strcmp(arg, "--json") == 0; }) -
      argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  cp::obs::BenchReporter rep("cpu_ntt");
  CaptureReporter reporter(rep);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  rep.write_default();
  return 0;
}
