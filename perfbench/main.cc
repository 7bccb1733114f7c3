// The repository benchmark: runs one named workload for a fixed host
// time, checks every output, and prints each metric by name and unit,
// ending with one JSON line. See README.md for the workloads and metrics.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--out-dir DIR]
//
// --trace 0 measures the end-to-end metrics with nothing traced;
// --trace 1 runs the per-layer ledger instead (ledger.h). Exit status:
// 0 when every check passed, 1 when any output was wrong, 2 on usage
// errors.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "ledger.h"
#include "workloads.h"

namespace {

using namespace perfbench;
using Clock = std::chrono::steady_clock;

/// Resident-set high-water mark of this process image (Linux VmHWM).
/// Unlike getrusage's ru_maxrss it restarts at exec, so it leaves out the
/// launching interpreter's peak.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

std::size_t slice_count(const std::vector<std::vector<double>>& v) {
  std::size_t n = 0;
  for (const auto& slices : v) n += slices.size();
  return n;
}

bool same_shape(const std::vector<std::vector<double>>& a,
                const std::vector<std::vector<double>>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size()) return false;
  }
  return true;
}

/// Fastest of a burst of back-to-back set-ups of instance 0 of `w`
/// (setup_once); the first of a burst runs with caches cold from the
/// repetition before it.
double setup_burst_s(const Workload& w) {
  double fastest = setup_once(w);
  for (int i = 1; i < 10; ++i) fastest = std::min(fastest, setup_once(w));
  return fastest;
}

void vet(RunResult& res, const SimOutcome& s) {
  const auto found = s.problems();
  res.wrong.insert(res.wrong.end(), found.begin(), found.end());
}

/// End-to-end metrics: repeat the workload until `seconds` have passed
/// (at least three timed repetitions after one warm-up). Host throughput
/// is the repetition's completions over the sum, across its slices
/// (RepResult::slice_s), of each slice's fastest time in any repetition:
/// other tenants of a shared host slow the machine in bursts, and a slice
/// that one burst slowed is timed again in every repetition. The
/// simulated metrics come from the warm-up, and every repetition must
/// reproduce them exactly.
RunResult end_to_end(const Workload& w, double seconds) {
  RunResult res;
  const RepResult warm = run_rep(w);
  vet(res, warm.totals());
  res.attempted += warm.totals().submitted;
  const std::string reference = warm.fingerprint();

  // Set-up takes microseconds, and the machine's speed moves in phases
  // of seconds; one burst after each repetition spreads the samples over
  // the run, so their median follows the run rather than one phase.
  std::vector<double> rates, setups;
  std::vector<std::vector<double>> fastest;  // per instance, per slice
  double rss_mb = 0;
  const auto t0 = Clock::now();
  while (rates.size() < 3 ||
         std::chrono::duration<double>(Clock::now() - t0).count() < seconds) {
    const RepResult r = run_rep(w);
    rss_mb = peak_rss_mb();  // before set-up sampling allocates
    const SimOutcome t = r.totals();
    vet(res, t);
    res.attempted += t.submitted;
    if (r.fingerprint() != reference) {
      res.wrong.push_back("repetition " + std::to_string(rates.size() + 1) +
                          " changed the simulated metrics");
    }
    if (fastest.empty()) {
      fastest = r.slice_s;
    } else if (!same_shape(fastest, r.slice_s)) {
      res.wrong.push_back("repetition " + std::to_string(rates.size() + 1) +
                          " stepped a different number of events");
    } else {
      for (std::size_t i = 0; i < fastest.size(); ++i) {
        for (std::size_t k = 0; k < fastest[i].size(); ++k) {
          fastest[i][k] = std::min(fastest[i][k], r.slice_s[i][k]);
        }
      }
    }
    rates.push_back(static_cast<double>(t.completed) / r.host_s);
    setups.push_back(setup_burst_s(w));
  }

  double fastest_s = 0;
  for (const auto& slices : fastest) {
    for (const double d : slices) fastest_s += d;
  }
  const double cyc_per_us = w.chip.cycles_per_us();
  const SimOutcome t = warm.totals();
  res.metrics = {
      {"host_req_per_s", static_cast<double>(t.completed) / fastest_s,
       "req/s"},
      {"setup_s", median(setups), "s"},
      {"peak_rss_mb", rss_mb, "MiB"},
      {"sim_goodput_per_s", warm.goodput_per_s(), "req/s"},
      {"sim_latency_mean_cycles", warm.latency_mean_cycles(), "cycles"},
      {"sim_latency_p99_cycles", warm.latency_cycles_at(0.99), "cycles"},
      {"sim_served_frac", warm.served_frac(), "frac"},
      {"sim_latency_p50_us", warm.latency_cycles_at(0.50) / cyc_per_us, "us"},
      {"sim_latency_p99_us", warm.latency_cycles_at(0.99) / cyc_per_us, "us"},
      {"sim_latency_mean_us", warm.latency_mean_cycles() / cyc_per_us, "us"},
      {"sim_refused_frac", 1.0 - warm.served_frac(), "frac"},
      {"sim_latency_samples", static_cast<double>(t.completed), "count"},
      {"instances", static_cast<double>(warm.sims.size()), "count"},
      {"repetitions", static_cast<double>(rates.size()), "count"},
      {"host_req_per_s_rep_median", median(rates), "req/s"},
      {"slices", static_cast<double>(slice_count(fastest)), "count"},
  };
  for (std::size_t i = 0; i < warm.sims.size(); ++i) {
    const SimOutcome& s = warm.sims[i];
    char line[200];
    std::snprintf(line, sizeof line,
                  "instance %zu (seed %llu): %llu submitted, %llu completed, "
                  "latency p50 %.3f us, p99 %.3f us, mean %.3f us",
                  i, static_cast<unsigned long long>(w.seeds[i]),
                  static_cast<unsigned long long>(s.submitted),
                  static_cast<unsigned long long>(s.completed),
                  s.latency_cycles_at(0.5) / cyc_per_us,
                  s.latency_cycles_at(0.99) / cyc_per_us,
                  s.latency_mean_cycles() / cyc_per_us);
    res.notes.push_back(line);
  }
  return res;
}

/// Metrics the final JSON line carries; the rest are printed for people.
bool in_json(const std::string& name, bool trace) {
  if (trace) return true;
  static const std::set<std::string> human_only = {
      "sim_latency_p50_us", "sim_latency_p99_us", "sim_latency_mean_us",
      "sim_refused_frac",   "sim_latency_samples", "instances",
      "repetitions",        "wrong_results",       "host_req_per_s_rep_median",
      "slices"};
  return !human_only.contains(name);
}

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, out_dir = ".bench_build/perfbench-out";
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  bool have_workload = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (i + 1 >= argc) return usage("missing value for " + flag);
      const std::string value = argv[++i];
      std::size_t used = 0;
      if (flag == "--workload") {
        workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        seed = std::stoull(value, &used);
      } else if (flag == "--seconds") {
        seconds = std::stod(value, &used);
      } else if (flag == "--trace") {
        trace = std::stoi(value, &used);
      } else if (flag == "--out-dir") {
        out_dir = value;
      } else {
        return usage("unknown flag " + flag);
      }
      if (used != 0 && used != value.size()) {
        return usage("bad value for " + flag + ": " + value);
      }
    }
  } catch (const std::exception&) {
    return usage("bad numeric value");
  }
  if (!have_workload) return usage("--workload is required");
  if (!(seconds > 0 && seconds <= 120)) return usage("--seconds out of range");
  if (trace != 0 && trace != 1) return usage("--trace must be 0 or 1");

  try {
    const Workload w = make_workload(workload, seed, out_dir + "/" + workload);
    std::filesystem::create_directories(w.work_dir);
    RunResult res =
        trace == 1 ? run_ledger(w, seed, seconds,
                                out_dir + "/" + workload + ".spans.jsonl")
                   : end_to_end(w, seconds);
    // After the measurement, so the checks' allocations stay out of the
    // workload's peak RSS.
    const auto products = check_products(seed);
    res.wrong.insert(res.wrong.end(), products.begin(), products.end());
    if (trace == 0) {
      res.metrics.push_back(
          {"wrong_results", static_cast<double>(res.wrong.size()), "count"});
    }

    std::printf("workload %s  seed %llu  trace %d\n", workload.c_str(),
                static_cast<unsigned long long>(seed), trace);
    for (const auto& m : res.metrics) {
      std::printf("  %-40s %18.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    for (const auto& n : res.notes) std::printf("%s\n", n.c_str());
    for (const auto& v : res.wrong) std::printf("WRONG: %s\n", v.c_str());

    std::string json = "{\"correct\": ";
    json += res.wrong.empty() ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(std::max<std::uint64_t>(
                                      res.attempted, 1));
    json += ", \"failed\": " + std::to_string(res.wrong.size());
    json += ", \"metrics\": {";
    bool first = true;
    for (const auto& m : res.metrics) {
      if (!in_json(m.name, trace == 1)) continue;
      char value[40];
      std::snprintf(value, sizeof value, "%.17g", m.value);
      json += (first ? "\"" : ", \"") + m.name + "\": {\"value\": " + value +
              ", \"unit\": \"" + m.unit + "\"}";
      first = false;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return res.wrong.empty() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
