// The benchmark's four workloads and the end-to-end measurement of one
// repetition. A workload is a fixed serving configuration built from the
// workload name and the benchmark seed. One repetition runs each of the
// workload's instances (one serving run per seed derived from the
// benchmark seed), so a repetition's simulated metrics repeat exactly
// while its host time carries the machine's noise.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "runtime/fleet.h"
#include "runtime/serving.h"
#include "spans.h"

namespace perfbench {

namespace rt = cryptopim::runtime;

struct Workload {
  std::string name;
  bool fleet = false;
  rt::ServingConfig chip;     ///< single chip, or the fleet's chip template
  rt::FleetConfig fleet_cfg;  ///< used when `fleet`
  bool journal = false;       ///< fleet: write-ahead journal + snapshots
  std::uint64_t snapshot_every = 0;
  bool event_log = false;     ///< fleet: streamed lifecycle event log
  std::string work_dir;       ///< journal / event-log files of this workload
  /// Workload seed of each instance, derived from the benchmark seed.
  std::vector<std::uint64_t> seeds;

  /// Journal and event-log files of instance `i` go here.
  std::string instance_dir(std::size_t i) const {
    return work_dir + "/i" + std::to_string(i);
  }
};

/// Median of `v`; 0 when empty.
double median(std::vector<double> v);

/// Builds workload `name` (verified-mix, saturated-backlog, durable-fleet
/// or gate-mix) for `seed`; files it writes go under `work_dir`.
/// Throws std::invalid_argument for an unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed,
                       const std::string& work_dir);

/// Toggles for the ledger's differential runs: public config only.
struct Variant {
  bool data_path = true;  ///< false: analytic backend, verify_every 0
  bool journal = true;    ///< false: no journal (fleet)
  bool event_log = true;  ///< false: no event log (fleet)
};

/// Simulated outcome of one instance: deterministic for a fixed seed.
struct SimOutcome {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  /// rejected + shed + timed out + failed + left queued.
  std::uint64_t refused = 0;
  double drain_s = 0;  ///< simulated seconds to the last event
  /// Arrival -> completion of every completed request, in cycles, sorted.
  std::vector<std::uint64_t> latency_cycles;
  std::uint64_t verified = 0;
  std::uint64_t verify_failures = 0;
  std::uint64_t wrong_accepted = 0;
  /// Verified (data-carrying) completions per degree.
  std::map<std::uint32_t, std::uint64_t> verified_by_degree;
  /// Fleet counters (zero for a single chip).
  std::uint64_t hedges_launched = 0;
  std::uint64_t hedge_wasted = 0;
  std::uint64_t cross_retries = 0;
  std::uint64_t migrated = 0;
  /// Conservation identities that failed (empty when all hold).
  std::vector<std::string> violations;

  /// Exact nearest-rank quantile of the completed requests' latency.
  double latency_cycles_at(double quantile) const;
  double latency_mean_cycles() const;
  /// Everything above that must repeat bit-identically, as text.
  std::string fingerprint() const;
  /// Failed checks: conservation violations, verify failures and wrong
  /// results accepted.
  std::vector<std::string> problems() const;
};

/// Steps per timed slice of an untraced single-chip run.
inline constexpr std::uint64_t kSliceSteps = 16;

/// One repetition: every instance of the workload, run in turn.
struct RepResult {
  double host_s = 0;     ///< summed first event -> serialized report
  /// Per instance, the host time of each slice of its run: kSliceSteps
  /// steps each on an untraced single chip, whose last slice also covers
  /// seal and serialization; otherwise one slice, the whole run. A run
  /// steps the same events in every repetition, so slice k of instance i
  /// is the same work each time. Sums to host_s.
  std::vector<std::vector<double>> slice_s;
  double to_json_s = 0;  ///< summed report serialization
  std::size_t event_log_records = 0;
  /// Traced single-chip repetitions: events stepped and the summed
  /// admission-queue backlog sampled before each step.
  std::uint64_t events = 0;
  std::uint64_t backlog_sum = 0;
  std::vector<SimOutcome> sims;  ///< per instance

  /// Counters summed over the instances; latencies left empty.
  SimOutcome totals() const;
  /// Completions over summed simulated drain time.
  double goodput_per_s() const;
  double served_frac() const;
  /// Median over the instances of each instance's exact statistic, so a
  /// minority of instances cannot move it.
  double latency_cycles_at(double quantile) const;
  double latency_mean_cycles() const;
  std::string fingerprint() const;
};

/// One repetition of `w` under `variant`. With `spans`, every call into
/// the runtime is recorded as a span; a single chip's steps are recorded
/// one by one as runtime.step.{arrival,completion,other}, classified by
/// the live counters they moved.
RepResult run_rep(const Workload& w, const Variant& variant = {},
                  Spans* spans = nullptr);

/// Construct and prime instance 0 of `w` without running it; returns the
/// seconds taken.
double setup_once(const Workload& w);

}  // namespace perfbench
