// Scheduling policies for the serving runtime.
//
// A policy is a comparator plus a bucket key. `before(a, b, ctx)` is a
// strict weak order over requests: true when `a` should be served before
// `b`. The runtime's AdmissionQueue (runtime/admission_queue.h) keeps one
// ordered ready bucket per (lane class, `bucket(r)`) and dispatches the
// minimum over the bucket heads, so `bucket` must group requests whose
// relative order under `before` never depends on the context: wfq buckets
// by tenant (usage is per tenant), every other policy uses one bucket.
// Policies are stateless — all queue and fairness state lives in the
// runtime and is passed in through PolicyContext — so one policy instance
// can serve any number of runs.
//
//   fifo  arrival order (baseline; head-of-line blocking under mixes)
//   sjf   shortest service time first (best mean latency, can starve
//         large degrees)
//   edf   earliest deadline first; requests without a deadline rank
//         after all deadlined ones, in arrival order
//   wfq   weighted fair queueing over tenants: pick the request of the
//         eligible tenant with the lowest bank-cycle usage normalised
//         by its weight (max-min fairness in bank-time)
//
// Every comparison falls back to (arrival, id). Requests equal on all of
// that (a hedged pair re-queued twice) are served in admission order, so
// the ranking is a total order and runs are reproducible.
//
// `pick` is the reference scan over a plain span: the index of the
// minimum under `before`, first in span order among equals. It is what
// the AdmissionQueue's pick sequence is tested against, and what the
// benchmark ledger replays.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "runtime/request.h"

namespace cryptopim::runtime {

struct PolicyContext {
  std::uint64_t now = 0;
  /// Per-tenant consumed bank-cycles divided by tenant weight (wfq).
  std::span<const double> tenant_usage;
};

class Policy {
 public:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  virtual ~Policy() = default;
  virtual std::string_view name() const noexcept = 0;

  /// Strict weak order: `a` is served before `b`.
  virtual bool before(const Request& a, const Request& b,
                      const PolicyContext& ctx) const noexcept = 0;

  /// Ready-bucket key. Within one bucket, `before` must not depend on
  /// `ctx`; across buckets it may (wfq's live tenant usage).
  virtual std::uint32_t bucket(const Request&) const noexcept { return 0; }

  /// Reference scan: index of the first `queue` entry, among those whose
  /// `eligible` flag is set, that no other eligible entry is `before`;
  /// npos when none is eligible.
  std::size_t pick(std::span<const Request> queue,
                   const std::vector<bool>& eligible,
                   const PolicyContext& ctx) const;
};

/// Factory: "fifo", "sjf", "edf" or "wfq"; nullptr for unknown names
/// (the CLI turns that into a usage error).
std::unique_ptr<Policy> make_policy(std::string_view name);

/// The recognised policy names, for --help and benches.
const std::vector<std::string>& policy_names();

}  // namespace cryptopim::runtime
