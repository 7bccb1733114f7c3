// The traced run: a per-layer ledger of host time measured from outside
// the program. Spans are recorded around every call the benchmark makes
// into the repository's public API; layers hidden inside one call
// (the data path inside ServingRuntime::step, the journal and event log
// inside FleetRuntime::run) are separated by differential runs that
// toggle public config only, and priced per call by replays of the
// layer's own public functions.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "workloads.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Correctness findings of the product checks: word, Gs and schoolbook
/// products agree and gate products equal word products on seeded
/// inputs; the gate simulator's cycle counts sit at their pinned values.
/// Each entry is one failed check. Cheap enough for every run.
std::vector<std::string> check_products(std::uint64_t seed);

/// What one benchmark run reports.
struct RunResult {
  std::vector<Metric> metrics;
  std::vector<std::string> wrong;  ///< failed correctness checks
  std::vector<std::string> notes;  ///< human-readable lines
  std::uint64_t attempted = 0;     ///< requests submitted
};

/// Runs the traced ledger for `w` for about `seconds` (interleaved
/// differential repetitions) plus the replays, and writes the spans to
/// `spans_path`.
RunResult run_ledger(const Workload& w, std::uint64_t seed, double seconds,
                    const std::string& spans_path);

}  // namespace perfbench
