// Serving-runtime sweep: arrival rate x scheduling policy for the
// paper's main degree classes. Each cell runs the discrete-event
// multi-tenant runtime (src/runtime/serving.*) against an open-loop
// Poisson stream and reports delivered throughput, p50/p99 latency,
// chip utilization and repartition count — the latency/throughput
// curves an operator would use to pick an operating point and a policy.
//
// Arrival rates are expressed relative to each degree's bank-limited
// capacity (superbank lanes / pipeline beat from model::Performance), so
// one sweep spans under-load (0.25x), the knee (1x) and overload (2x)
// for every degree. Everything is seeded; the simulated metrics in
// bench_runtime_service.json are bit-reproducible run to run.
//
// A second table measures host time: wall-clock microseconds per
// completion with the queue held full at capacity 128, 1024 and 4096,
// and the 4096/128 ratio. Dispatch cost that grows with the backlog
// shows up as that ratio moving away from 1. These host_* metrics are
// not in the committed baselines, so bench_compare reports them as
// notes rather than gating on them.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "common/table.h"
#include "core/cryptopim.h"
#include "obs/bench_report.h"

namespace cp = cryptopim;

namespace {

double class_capacity_per_s(const cp::runtime::ServingConfig& cfg,
                            std::uint32_t degree) {
  return cp::model::class_capacity_per_s(cfg.chip, degree, /*failed_banks=*/0,
                                         cfg.cycle_ns);
}

/// Host microseconds per completion of a saturated run (n = 256, wfq,
/// analytic backend, 2x capacity, ~9000 arrivals) with the admission
/// queue bounded at `capacity`: fastest of three runs.
double host_us_per_completion(std::size_t capacity) {
  cp::runtime::ServingConfig cfg;
  cfg.policy = "wfq";
  cfg.backend = "analytic";
  cfg.workload.mix = {{256, 1.0}};
  cfg.workload.tenants = 4;
  cfg.workload.seed = 2026;
  cfg.queue_capacity = capacity;
  const double rate = 2.0 * class_capacity_per_s(cfg, 256);
  cfg.arrival_rate_per_s = rate;
  cfg.duration_us = 9000 * 1e6 / rate;
  double best = 0;
  for (int i = 0; i < 3; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    const auto r = cp::runtime::ServingRuntime(cfg).run();
    const std::chrono::duration<double, std::micro> dt =
        std::chrono::steady_clock::now() - t0;
    const double us = dt.count() / static_cast<double>(r.completed);
    if (i == 0 || us < best) best = us;
  }
  return best;
}

}  // namespace

int main() {
  std::cout << "== Serving runtime: arrival rate x policy sweep ==\n"
            << "(open-loop Poisson, 4 tenants, load relative to each\n"
            << "degree's bank-limited capacity; ~2000 served per cell)\n\n";

  const std::vector<std::uint32_t> degrees = {256, 1024, 4096};
  const std::vector<double> load_factors = {0.25, 0.5, 1.0, 2.0};
  constexpr std::uint64_t kSeed = 2026;
  constexpr double kServedPerCell = 2000;
  // Horizon must dwarf the pipeline fill (up to ~69us at n=256) or the
  // trailing drain dominates the throughput figure.
  constexpr double kMinFillMultiples = 8;

  cp::obs::BenchReporter rep("runtime_service");
  rep.set_param("tenants", "4");
  rep.set_param("seed", std::to_string(kSeed));
  rep.set_param("queue_capacity", "1024");
  rep.set_param("served_per_cell", "2000");

  cp::Table t({"n", "policy", "load", "offered/s", "throughput/s", "p50 us",
               "p99 us", "util", "repart", "rejected"});
  for (const std::uint32_t n : degrees) {
    for (const std::string& policy : cp::runtime::policy_names()) {
      for (const double load : load_factors) {
        cp::runtime::ServingConfig cfg;
        cfg.policy = policy;
        cfg.workload.mix = {{n, 1.0}};
        cfg.workload.tenants = 4;
        cfg.workload.seed = kSeed;
        const double capacity = class_capacity_per_s(cfg, n);
        const double fill_us = cp::model::cryptopim_pipelined(n).latency_us;
        cfg.arrival_rate_per_s = load * capacity;
        cfg.duration_us = std::max(kServedPerCell * 1e6 / capacity,
                                   kMinFillMultiples * fill_us);
        if (policy == "edf") cfg.deadline_slack = 4.0;
        const auto r = cp::runtime::ServingRuntime(cfg).run();

        const cp::obs::BenchReporter::Params p = {
            {"n", std::to_string(n)},
            {"policy", policy},
            {"load_factor", cp::fmt_f(load, 2)}};
        rep.add("offered", r.offered_per_s, "req/s", p);
        rep.add("throughput", r.throughput_per_s, "req/s", p);
        rep.add("latency_p50", r.latency_us(0.50), "us", p);
        rep.add("latency_p99", r.latency_us(0.99), "us", p);
        rep.add("utilization", r.utilization, "ratio", p);
        rep.add("repartitions", static_cast<double>(r.repartitions),
                "events", p);
        rep.add("rejected", static_cast<double>(r.rejected), "requests", p);
        rep.add("deadline_misses", static_cast<double>(r.deadline_misses),
                "requests", p);

        t.add_row({std::to_string(n), policy, cp::fmt_f(load, 2),
                   cp::fmt_i(static_cast<std::uint64_t>(r.offered_per_s)),
                   cp::fmt_i(static_cast<std::uint64_t>(r.throughput_per_s)),
                   cp::fmt_f(r.latency_us(0.50), 1),
                   cp::fmt_f(r.latency_us(0.99), 1),
                   cp::fmt_f(r.utilization, 3), cp::fmt_i(r.repartitions),
                   cp::fmt_i(r.rejected)});
      }
    }
  }
  t.print(std::cout);

  std::cout << "\nOverload (2x) pins throughput at the bank-limited bound\n"
               "while p99 latency runs away; the policies separate in *who*\n"
               "waits: sjf favours short service, edf the tightest deadline,\n"
               "wfq the tenant behind on its weighted bank-time share.\n";

  std::cout << "\n== Host cost of dispatch with a full queue ==\n"
            << "(n = 256, wfq, analytic backend, 2x capacity; wall-clock,\n"
            << "fastest of 3 runs)\n\n";
  cp::Table h({"queue capacity", "host us / completion"});
  std::vector<double> host_us;
  for (const std::size_t capacity : {128u, 1024u, 4096u}) {
    host_us.push_back(host_us_per_completion(capacity));
    rep.add("host_us_per_completion", host_us.back(), "us",
            {{"queue_capacity", std::to_string(capacity)}});
    h.add_row({std::to_string(capacity), cp::fmt_f(host_us.back(), 2)});
  }
  h.print(std::cout);
  const double ratio = host_us.back() / host_us.front();
  rep.add("host_us_per_completion_ratio_4096_over_128", ratio, "x");
  std::cout << "4096 / 128: " << cp::fmt_f(ratio, 2)
            << "x (1 = dispatch cost flat in the backlog)\n";
  rep.write_default();
  return 0;
}
