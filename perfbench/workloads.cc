#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>

#include "model/scheduler.h"
#include "obs/event_log.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

const std::vector<rt::DegreeShare> kDefaultMix = {
    {256, 4.0}, {1024, 2.0}, {4096, 1.0}};
const std::vector<rt::DegreeShare> kVerifiedMix = {
    {256, 4.0}, {1024, 2.0}, {4096, 1.0}, {16384, 1.0}};

/// Modelled steady-state capacity of one chip serving `mix`, requests per
/// second: a stream at rate R with class fractions f_c saturates when
/// sum_c R f_c / cap_c == 1.
double mix_capacity_per_s(const rt::ServingConfig& cfg) {
  double total_w = 0;
  for (const auto& s : cfg.workload.mix) total_w += s.weight;
  double inv = 0;
  for (const auto& s : cfg.workload.mix) {
    inv += (s.weight / total_w) /
           cryptopim::model::class_capacity_per_s(cfg.chip, s.degree, 0,
                                                  cfg.cycle_ns);
  }
  return 1.0 / inv;
}

/// Sets the arrival rate to `load` x capacity and the arrival horizon so
/// that about `requests` arrive per instance.
void offer(rt::ServingConfig& cfg, double capacity, double load,
           double requests) {
  cfg.arrival_rate_per_s = load * capacity;
  cfg.duration_us = requests / cfg.arrival_rate_per_s * 1e6;
}

}  // namespace

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

Workload make_workload(const std::string& name, std::uint64_t seed,
                       const std::string& work_dir) {
  Workload w;
  w.name = name;
  w.work_dir = work_dir;
  rt::ServingConfig& c = w.chip;
  c.workload.tenants = 4;
  // Sizes: one repetition takes 1-3 s of host time on a 4-core x86
  // server, and every instance completes >= 1000 requests so its p99 has
  // >= 10 samples beyond it. Where a degree mix makes an instance's host
  // cost or latency depend on the seed, several instances are run and
  // their latency statistics reported as medians.
  std::size_t instances = 1;
  if (name == "verified-mix") {
    c.policy = "fifo";
    c.backend = "word";
    c.workload.mix = kVerifiedMix;
    c.workload.verify_every = 1;
    offer(c, mix_capacity_per_s(c), 0.10, 1000);
    instances = 5;
  } else if (name == "saturated-backlog") {
    // One degree class: with several, lane re-carving makes saturated
    // throughput bistable across seeds (see README.md).
    c.policy = "wfq";
    c.backend = "analytic";
    c.workload.mix = {{256, 1.0}};
    c.queue_capacity = 4096;
    offer(c, mix_capacity_per_s(c), 2.0, 9000);
  } else if (name == "durable-fleet") {
    w.fleet = true;
    c.policy = "fifo";
    c.backend = "analytic";
    c.workload.mix = kDefaultMix;
    rt::FleetConfig& f = w.fleet_cfg;
    f.chips = 4;
    f.router = "hash";
    f.replicas = 2;
    f.max_retries = 2;
    f.hedge = true;  // delay derived from the observed service p99
    offer(c, f.chips * mix_capacity_per_s(c), 0.50, 8000);
    w.journal = true;
    w.snapshot_every = 4096;
    w.event_log = true;
    instances = 3;
  } else if (name == "gate-mix") {
    // One degree class: a gate multiply costs 6-130 ms of host time
    // across n = 256..4096, so a sampled mix would make host throughput
    // follow the seed's degree draw. The smallest, n = 256, keeps the
    // timed slices short.
    c.policy = "fifo";
    c.backend = "gate";
    c.workload.mix = {{256, 1.0}};
    c.workload.verify_every = 16;
    offer(c, mix_capacity_per_s(c), 0.10, 2400);
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  for (std::size_t i = 0; i < instances; ++i) {
    w.seeds.push_back(seed * 1000003u + i);
  }
  w.fleet_cfg.chip = c;
  return w;
}

// -- results ------------------------------------------------------------------

double SimOutcome::latency_cycles_at(double quantile) const {
  if (latency_cycles.empty()) return 0.0;
  const auto n = static_cast<double>(latency_cycles.size());
  auto rank = static_cast<std::size_t>(std::ceil(quantile * n));
  rank = std::clamp<std::size_t>(rank, 1, latency_cycles.size());
  return static_cast<double>(latency_cycles[rank - 1]);
}

double SimOutcome::latency_mean_cycles() const {
  if (latency_cycles.empty()) return 0.0;
  double sum = 0;
  for (const auto v : latency_cycles) sum += static_cast<double>(v);
  return sum / static_cast<double>(latency_cycles.size());
}

std::string SimOutcome::fingerprint() const {
  std::ostringstream os;
  os << submitted << ' ' << completed << ' ' << refused << ' ';
  char buf[32];
  std::snprintf(buf, sizeof buf, "%a", drain_s);
  os << buf << ' ' << latency_cycles.size();
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a over the latencies
  for (const auto v : latency_cycles) h = (h ^ v) * 1099511628211ull;
  os << ' ' << h << ' ' << verified << ' ' << verify_failures << ' '
     << wrong_accepted << ' ' << hedges_launched << ' ' << hedge_wasted << ' '
     << cross_retries << ' ' << migrated;
  return os.str();
}

std::vector<std::string> SimOutcome::problems() const {
  std::vector<std::string> found = violations;
  if (verify_failures > 0) {
    found.push_back(std::to_string(verify_failures) + " verify failures");
  }
  if (wrong_accepted > 0) {
    found.push_back(std::to_string(wrong_accepted) +
                    " wrong results accepted");
  }
  return found;
}

SimOutcome RepResult::totals() const {
  SimOutcome t;
  for (const auto& s : sims) {
    t.submitted += s.submitted;
    t.completed += s.completed;
    t.refused += s.refused;
    t.drain_s += s.drain_s;
    t.verified += s.verified;
    t.verify_failures += s.verify_failures;
    t.wrong_accepted += s.wrong_accepted;
    for (const auto& [n, k] : s.verified_by_degree) {
      t.verified_by_degree[n] += k;
    }
    t.hedges_launched += s.hedges_launched;
    t.hedge_wasted += s.hedge_wasted;
    t.cross_retries += s.cross_retries;
    t.migrated += s.migrated;
    t.violations.insert(t.violations.end(), s.violations.begin(),
                        s.violations.end());
  }
  return t;
}

double RepResult::goodput_per_s() const {
  const SimOutcome t = totals();
  return t.drain_s > 0 ? static_cast<double>(t.completed) / t.drain_s : 0.0;
}

double RepResult::served_frac() const {
  const SimOutcome t = totals();
  return t.submitted ? static_cast<double>(t.completed) /
                           static_cast<double>(t.submitted)
                     : 0.0;
}

double RepResult::latency_cycles_at(double quantile) const {
  std::vector<double> v;
  for (const auto& s : sims) v.push_back(s.latency_cycles_at(quantile));
  return median(v);
}

double RepResult::latency_mean_cycles() const {
  std::vector<double> v;
  for (const auto& s : sims) v.push_back(s.latency_mean_cycles());
  return median(v);
}

std::string RepResult::fingerprint() const {
  std::string fp;
  for (const auto& s : sims) fp += s.fingerprint() + ';';
  return fp;
}

// -- one instance -------------------------------------------------------------

namespace {

struct Instance {
  double host_s = 0;
  std::vector<double> slice_s;
  double to_json_s = 0;
  std::size_t event_log_records = 0;
  std::uint64_t events = 0;
  std::uint64_t backlog_sum = 0;
  SimOutcome sim;
};

void check(SimOutcome& s, bool ok, const std::string& what) {
  if (!ok) s.violations.push_back(what);
}

/// Serving conservation identities of one chip report.
void check_chip(SimOutcome& s, const rt::ServingReport& r,
                const std::string& who) {
  const auto& res = r.resilience;
  check(s,
        r.submitted == r.admitted + r.rejected + r.rejected_unservable +
                           res.rejected_deadline,
        who + ": submitted != admitted + rejected");
  check(s,
        r.admitted == r.completed + r.queued + r.in_flight + res.timed_out +
                          res.shed + res.failed + r.chip_failed + r.migrated +
                          r.lost_in_flight,
        who + ": admitted != completed + terminal + queued");
  check(s, r.in_flight == 0, who + ": requests still in flight after drain");
}

double sim_drain_s(std::uint64_t drain_cycle, double cycles_per_us) {
  return static_cast<double>(drain_cycle) / cycles_per_us * 1e-6;
}

/// Sum of the live terminal-outcome counters: moves when a step retires
/// a request (completion, shed, timeout, failure).
std::uint64_t retired(const rt::ServingReport& r) {
  return r.completed + r.resilience.shed + r.resilience.timed_out +
         r.resilience.failed;
}

rt::ServingConfig chip_config(const Workload& w, std::size_t i,
                              const Variant& v) {
  rt::ServingConfig cfg = w.fleet ? w.fleet_cfg.chip : w.chip;
  cfg.workload.seed = w.seeds.at(i);
  if (!v.data_path) {
    cfg.backend = "analytic";
    cfg.workload.verify_every = 0;
  }
  return cfg;
}

Instance run_chip(const Workload& w, std::size_t i, const Variant& v,
                  Spans* spans) {
  Instance out;
  SimOutcome& s = out.sim;
  std::optional<Scope> setup_span(std::in_place, spans, "runtime.setup");
  rt::ServingRuntime runtime(chip_config(w, i, v));
  runtime.set_outcome_sink([&s](const rt::Request& r, rt::Outcome o,
                                std::uint64_t cycle) {
    if (o != rt::Outcome::kCompleted) return;
    s.latency_cycles.push_back(cycle - r.arrival_cycle);
    if (r.verify) s.verified_by_degree[r.degree] += 1;
  });
  runtime.prime();
  setup_span.reset();

  const auto t1 = Clock::now();
  auto slice_start = t1;
  if (spans != nullptr) {
    Scope loop(spans, "runtime.loop");
    const std::uint32_t kinds[] = {spans->id("runtime.step.arrival"),
                                   spans->id("runtime.step.completion"),
                                   spans->id("runtime.step.other")};
    const rt::ServingReport& live = runtime.live();
    while (runtime.has_events()) {
      const std::uint64_t submitted = live.submitted;
      const std::uint64_t done = retired(live);
      out.backlog_sum += runtime.pending_count();
      const auto start = Clock::now();
      runtime.step();
      const auto end = Clock::now();
      const int kind = live.submitted != submitted ? 0
                       : retired(live) != done     ? 1
                                                   : 2;
      spans->add(kinds[kind], start, end);
      out.events += 1;
    }
  } else {
    for (std::uint64_t n = 1; runtime.has_events(); ++n) {
      runtime.step();
      if (n % kSliceSteps == 0) {
        const auto now = Clock::now();
        out.slice_s.push_back(
            std::chrono::duration<double>(now - slice_start).count());
        slice_start = now;
      }
    }
  }
  std::optional<Scope> seal_span(std::in_place, spans, "runtime.seal");
  const rt::ServingReport rep = runtime.seal();
  seal_span.reset();
  const auto tj = Clock::now();
  std::optional<Scope> json_span(std::in_place, spans, "obs.report.to_json");
  const std::string doc = rep.to_json().dump();
  json_span.reset();
  out.to_json_s = seconds_since(tj);
  out.host_s = seconds_since(t1);
  out.slice_s.push_back(seconds_since(slice_start));

  s.submitted = rep.submitted;
  s.completed = rep.completed;
  s.refused = rep.submitted - rep.completed;
  s.drain_s = sim_drain_s(rep.drain_cycle, rep.cycles_per_us);
  s.verified = rep.verified;
  s.verify_failures = rep.verify_failures;
  s.wrong_accepted = rep.resilience.wrong_accepted;
  std::sort(s.latency_cycles.begin(), s.latency_cycles.end());
  check_chip(s, rep, "chip");
  check(s, s.latency_cycles.size() == rep.completed,
        "outcome sink saw " + std::to_string(s.latency_cycles.size()) +
            " completions, report says " + std::to_string(rep.completed));
  check(s, !doc.empty(), "empty report document");
  return out;
}

/// A fleet with its journal and event log opened as the workload asks.
struct FleetSetup {
  cryptopim::obs::EventLog elog;  // outlives the fleet that logs into it
  rt::FleetRuntime fleet;
  bool elog_on;

  FleetSetup(const Workload& w, std::size_t i, const Variant& v)
      : fleet([&] {
          rt::FleetConfig fc = w.fleet_cfg;
          fc.chip = chip_config(w, i, v);
          return fc;
        }()),
        elog_on(w.event_log && v.event_log) {
    const std::string dir = w.instance_dir(i);
    if (w.journal && v.journal) {
      rt::DurabilityOptions d;
      d.dir = dir + "/journal";
      d.snapshot_every = w.snapshot_every;
      fleet.enable_durability(d);
    }
    if (elog_on) {
      std::filesystem::create_directories(dir);
      elog.open_stream(dir + "/events.jsonl", /*line_buffered=*/false);
      fleet.set_event_log(&elog);
    }
  }
};

Instance run_fleet(const Workload& w, std::size_t i, const Variant& v,
                   Spans* spans) {
  Instance out;
  SimOutcome& s = out.sim;
  std::optional<Scope> setup_span(std::in_place, spans, "runtime.fleet.setup");
  FleetSetup f(w, i, v);
  setup_span.reset();

  const auto t1 = Clock::now();
  std::optional<Scope> run_span(std::in_place, spans, "runtime.fleet.run");
  const rt::FleetReport rep = f.fleet.run();
  if (f.elog_on) f.elog.close_stream();
  run_span.reset();
  const auto tj = Clock::now();
  std::optional<Scope> json_span(std::in_place, spans, "obs.report.to_json");
  const std::string doc = rep.to_json().dump();
  json_span.reset();
  out.to_json_s = seconds_since(tj);
  out.host_s = seconds_since(t1);
  out.slice_s = {out.host_s};
  out.event_log_records = f.elog.size();

  s.submitted = rep.submitted;
  s.completed = rep.completed;
  s.refused = rep.rejected + rep.shed + rep.timed_out + rep.failed + rep.queued;
  s.drain_s = sim_drain_s(rep.drain_cycle, rep.cycles_per_us);
  s.hedges_launched = rep.hedges_launched;
  s.hedge_wasted = rep.hedge_wasted;
  s.cross_retries = rep.cross_retries;
  s.migrated = rep.migrated;
  check(s, rep.submitted == s.completed + s.refused,
        "fleet: submitted != completed + rejected + shed + timed_out + "
        "failed + queued");
  std::uint64_t chip_submitted = 0;
  for (const auto& c : rep.chip_reports) {
    check_chip(s, c, "chip " + std::to_string(c.chip_id));
    chip_submitted += c.submitted;
    s.verified += c.verified;
    s.verify_failures += c.verify_failures;
    s.wrong_accepted += c.resilience.wrong_accepted;
  }
  check(s,
        chip_submitted == rep.routed + rep.cross_retries +
                              rep.hedges_launched + rep.redispatched,
        "fleet: chip submissions != routed + retries + hedges + "
        "redispatched");
  if (f.elog_on) {
    // Exact latencies: the first `completed` record of each trace is the
    // winning completion (a hedge twin may complete later).
    std::set<std::uint64_t> seen;
    for (const auto& rec : f.elog.records()) {
      if (!rec.contains("trace") || rec.at("ev").as_string() != "completed") {
        continue;
      }
      if (!seen.insert(rec.at("trace").as_u64()).second) continue;
      s.latency_cycles.push_back(rec.at("latency").as_u64());
    }
    std::sort(s.latency_cycles.begin(), s.latency_cycles.end());
    check(s, s.latency_cycles.size() == rep.completed,
          "event log holds " + std::to_string(s.latency_cycles.size()) +
              " completed traces, report says " +
              std::to_string(rep.completed));
  }
  check(s, !doc.empty(), "empty report document");
  return out;
}

}  // namespace

RepResult run_rep(const Workload& w, const Variant& variant, Spans* spans) {
  RepResult rep;
  for (std::size_t i = 0; i < w.seeds.size(); ++i) {
    Instance one = w.fleet ? run_fleet(w, i, variant, spans)
                           : run_chip(w, i, variant, spans);
    rep.host_s += one.host_s;
    rep.slice_s.push_back(std::move(one.slice_s));
    rep.to_json_s += one.to_json_s;
    rep.event_log_records += one.event_log_records;
    rep.events += one.events;
    rep.backlog_sum += one.backlog_sum;
    rep.sims.push_back(std::move(one.sim));
  }
  return rep;
}

double setup_once(const Workload& w) {
  const auto t0 = Clock::now();
  if (w.fleet) {
    FleetSetup f(w, 0, {});
    return seconds_since(t0);
  }
  rt::ServingRuntime runtime(chip_config(w, 0, {}));
  runtime.prime();
  return seconds_since(t0);
}

}  // namespace perfbench
