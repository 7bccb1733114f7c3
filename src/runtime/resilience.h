// Overload- and wear-resilience primitives for the serving runtime.
//
// PR 4's runtime fails ungracefully at the edges: a saturated lane
// queues forever, a slow or corrupting lane stalls its requests with no
// timeout, and endurance wear only surfaces *after* a multiply has
// already produced a wrong result. This module supplies the control
// loops a production service needs on a wearing ReRAM substrate:
//
//   * RetryBudget — a per-tenant token bucket (tokens accrue per
//     admitted request, one token per retry) so detected-bad results and
//     lane teardowns are retried with capped exponential backoff but can
//     never amplify into a retry storm;
//   * CircuitBreaker — a per-lane closed -> open -> half-open machine:
//     K consecutive failures stop dispatch to the lane, a timed probe
//     re-admits it (success closes, failure re-opens);
//   * CoDelShedder — CoDel-style load shedding on the admission queue:
//     when the *minimum* queueing sojourn stays above target for a full
//     interval, the head request is dropped and the drop cadence
//     tightens by the 1/sqrt(count) control law, keeping queue delay
//     bounded instead of letting the backlog run away;
//   * HealthMonitor — consumes the reliability layer's FaultModel wear
//     counters plus per-lane verification outcomes to score lane health,
//     requests background scrub passes for unhealthy-but-idle lanes, and
//     proactively drains/remaps a lane approaching its wear limit
//     *before* it starts corrupting traffic;
//   * ChaosConfig — a seeded generator of lane fault episodes (slowdowns
//     and corrupting windows) composed with live traffic, so the whole
//     stack can be exercised and asserted on deterministically
//     (`serve --chaos`, bench_chaos_serving).
//
// Everything is deterministic: chaos randomness flows from one seeded
// Xoshiro256, every threshold decision is pure arithmetic on the event
// clock, and the hedge delay is derived from the pow2 service histogram.
// All features default OFF; a default-constructed ResilienceConfig
// leaves the runtime's event sequence bit-identical to the pre-resilience
// behaviour.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "reliability/fault_model.h"

namespace cryptopim::runtime {

/// Capped exponential backoff, shared by chip retries and the fleet's
/// cross-chip retries: `base` for the first attempt, doubled per further
/// attempt, never above `cap`.
std::uint64_t backoff_cycles(std::uint64_t base, std::uint64_t cap,
                             unsigned attempts);

/// Hedge delay, shared by chip and fleet hedging: `delay_us` when fixed
/// (> 0); otherwise the p99 of the observed `service` times once
/// `min_samples` were seen, and 0 (no hedging yet) before that.
std::uint64_t hedge_delay_cycles(double delay_us, double cycles_per_us,
                                 std::uint64_t min_samples,
                                 const obs::Histogram& service);

/// Seeded lane fault-episode injection composed with live traffic.
struct ChaosConfig {
  bool enabled = false;
  std::uint64_t seed = 1;
  /// Mean interval between episodes (exponential), simulated us.
  double mean_interval_us = 150.0;
  /// Mean episode duration (exponential), simulated us.
  double mean_duration_us = 60.0;
  /// Fraction of episodes that are slowdowns; the rest corrupt results.
  double slow_fraction = 0.5;
  /// Completion-latency multiplier while a slow episode is active.
  double slow_factor = 4.0;
};

struct ResilienceConfig {
  // -- deadlines --------------------------------------------------------------
  /// Fixed per-request deadline: arrival + deadline_us (overrides the
  /// slack-derived deadline when > 0). Enables admission feasibility
  /// rejection and queued-timeout cancellation.
  double deadline_us = 0.0;

  // -- retries ----------------------------------------------------------------
  /// Detected-bad results are re-queued up to this many times (0 = off).
  unsigned max_retries = 0;
  /// Tokens a tenant earns per admitted request; one retry costs 1.0.
  double retry_budget_ratio = 0.1;
  /// First retry backoff; doubles per attempt, capped below.
  std::uint64_t retry_backoff_cycles = 2048;
  std::uint64_t retry_backoff_cap_cycles = 1 << 16;

  // -- hedging ----------------------------------------------------------------
  /// Duplicate a straggler onto a second lane, first result wins.
  bool hedge = false;
  /// Hedge delay in us; 0 derives it from the p99 of observed service.
  double hedge_delay_us = 0.0;
  /// Observed completions before a p99-derived delay is trusted.
  std::uint64_t hedge_min_samples = 32;

  // -- load shedding ----------------------------------------------------------
  /// CoDel target queueing sojourn in us (0 = shedding off).
  double codel_target_us = 0.0;
  double codel_interval_us = 100.0;

  // -- circuit breaker --------------------------------------------------------
  /// Open a lane's breaker after K consecutive failures (0 = off).
  unsigned breaker_k = 0;
  /// Cycles a breaker stays open before the half-open probe.
  std::uint64_t breaker_open_cycles = 1 << 16;

  // -- health / wear ----------------------------------------------------------
  /// Dispatches a lane survives before wearing out (0 = wear off).
  /// Backed by reliability::FaultModel wear counters.
  std::uint64_t wear_limit = 0;
  /// Drain and remap at this fraction of the wear limit.
  double drain_fraction = 0.9;
  /// Health score below which an idle lane is scrubbed.
  double scrub_threshold = 0.7;
  std::uint64_t scrub_cycles = 4096;
  /// Health-monitor tick period (0 = monitor off unless wear/chaos on).
  std::uint64_t health_period_cycles = 1 << 15;

  // -- chaos ------------------------------------------------------------------
  ChaosConfig chaos;
  /// Model the layered detection of §10 (write-verify / parity /
  /// Freivalds) as catching every chaos-corrupted result. Turning this
  /// off delivers corrupt results unverified (wrong_accepted counts
  /// them) — it exists to prove the checks are load-bearing.
  bool chaos_detect = true;

  /// Any feature on? When false the runtime takes the legacy paths and
  /// produces bit-identical reports to a build without this module.
  bool enabled() const noexcept {
    return deadline_us > 0 || max_retries > 0 || hedge ||
           codel_target_us > 0 || breaker_k > 0 || wear_limit > 0 ||
           chaos.enabled;
  }

  /// The `serve --chaos` preset: fault episodes plus the full mitigation
  /// stack (retries, breaker, hedging, health monitoring, wear budget).
  static ResilienceConfig chaos_preset(std::uint64_t seed);
};

/// Per-tenant retry token bucket: `ratio` tokens accrue per admitted
/// request (capped), a retry spends 1.0. A tenant that keeps failing
/// exhausts its bucket and its retries are dropped instead of amplified.
/// Buckets start with a small cold-start reserve so the first failures
/// of a run can retry before any accrual.
class RetryBudget {
 public:
  RetryBudget(std::uint32_t tenants, double ratio, double cap = 64.0);

  void on_admitted(std::uint32_t tenant);
  /// Spend one retry token; false when the bucket is dry.
  bool try_spend(std::uint32_t tenant);
  double tokens(std::uint32_t tenant) const;

 private:
  std::vector<double> tokens_;
  double ratio_;
  double cap_;
};

/// Per-lane circuit breaker: closed -> (K consecutive failures) -> open
/// -> (open period elapses) -> half-open probe -> closed on success,
/// re-open on failure.
class CircuitBreaker {
 public:
  enum class State : std::uint8_t { kClosed, kOpen, kHalfOpen };

  CircuitBreaker() = default;
  CircuitBreaker(unsigned k, std::uint64_t open_cycles)
      : k_(k), open_cycles_(open_cycles) {}

  /// May the lane accept a request at `now`? Side-effect free so lane
  /// selection can filter on it; the open -> half-open transition
  /// happens in note_dispatch on the lane actually chosen.
  bool can_accept(std::uint64_t now) const;
  /// The chosen lane is being dispatched to. Returns true when this
  /// dispatch is the half-open probe (for stats).
  bool note_dispatch(std::uint64_t now);
  /// Record a request outcome. Returns true when the breaker *opened*
  /// on this failure (for stats/tracing).
  bool record(bool success, std::uint64_t now);
  /// The in-flight dispatch was cancelled without an outcome (hedge
  /// loser, lane teardown). If it was the half-open probe the breaker
  /// reverts to open with a fresh window — otherwise the lane would
  /// wedge half-open with a probe that never reports, refusing work
  /// forever.
  void note_cancelled(std::uint64_t now);

  State state() const noexcept { return state_; }
  unsigned consecutive_failures() const noexcept { return failures_; }
  bool enabled() const noexcept { return k_ > 0; }
  /// While open: when the half-open probe becomes possible.
  std::uint64_t open_until() const noexcept { return open_until_; }

 private:
  unsigned k_ = 0;  ///< 0 = breaker disabled, always allows
  std::uint64_t open_cycles_ = 0;
  State state_ = State::kClosed;
  unsigned failures_ = 0;
  std::uint64_t open_until_ = 0;
  bool probe_in_flight_ = false;
};

/// CoDel-style shedder on the admission queue. Fed the queueing sojourn
/// of every dequeued request; answers "drop this one?" per the CoDel
/// control law (min-sojourn above target for a full interval opens a
/// dropping phase whose cadence tightens by 1/sqrt(drop count)).
class CoDelShedder {
 public:
  CoDelShedder() = default;
  CoDelShedder(std::uint64_t target_cycles, std::uint64_t interval_cycles)
      : target_(target_cycles), interval_(interval_cycles) {}

  bool enabled() const noexcept { return target_ > 0; }
  /// `sojourn` = now - arrival of the request about to dispatch.
  bool should_drop(std::uint64_t sojourn, std::uint64_t now);

 private:
  std::uint64_t next_drop_interval() const;

  std::uint64_t target_ = 0;
  std::uint64_t interval_ = 0;
  std::uint64_t first_above_ = 0;  ///< 0 = sojourn currently below target
  bool dropping_ = false;
  std::uint64_t drop_next_ = 0;
  std::uint32_t drop_count_ = 0;
};

/// Per-lane health scoring and proactive wear management.
///
/// Wear is accounted through the reliability layer's FaultModel — each
/// dispatch writes the lane's crossbars once, note_wear()'d against the
/// configured endurance limit — so the serving stack and the
/// device-level campaigns share one wear bookkeeping. A lane that
/// crosses the limit grows a real (modeled) corruption; the monitor's
/// job is to drain and remap it at `drain_fraction` of the limit, before
/// that happens. Verification outcomes feed an exponentially-decayed
/// failure score; scrubs reset a lane's transient state.
class HealthMonitor {
 public:
  HealthMonitor(const ResilienceConfig& cfg, std::uint64_t seed);

  /// Account one dispatch on `lane`. Returns true when the lane *crossed
  /// its wear limit* on this write — it is now corrupting traffic (the
  /// failure mode proactive drains exist to prevent).
  bool note_dispatch(std::size_t lane);
  void record_verify(std::size_t lane, bool ok);
  /// Lane remapped onto fresh banks: wear restarts from zero.
  void on_remap(std::size_t lane);
  /// Scrub finished: transient failure history is forgiven.
  void on_scrub(std::size_t lane);

  /// Wear of `lane` as a fraction of the limit (0 when wear is off).
  double wear_fraction(std::size_t lane) const;
  bool wants_drain(std::size_t lane) const;
  /// Health in [0, 1]: 1 - wear burden - decayed failure burden.
  double score(std::size_t lane) const;
  bool wants_scrub(std::size_t lane) const;

  std::uint64_t wear_writes(std::size_t lane) const;

 private:
  struct LaneHealth {
    std::uint32_t epoch = 0;      ///< bumped per remap (fresh FaultModel id)
    double failure_score = 0.0;   ///< decayed count of recent failures
    std::uint64_t verifies = 0;
  };
  std::uint32_t block_id(std::size_t lane) const;
  LaneHealth& state(std::size_t lane);

  ResilienceConfig cfg_;
  reliability::FaultModel wear_model_;
  std::vector<LaneHealth> lanes_;
};

/// Resilience ledger, embedded in ServingReport when any feature is on.
struct ResilienceStats {
  std::uint64_t rejected_deadline = 0;  ///< infeasible at admission
  std::uint64_t timed_out = 0;          ///< cancelled in queue past deadline
  std::uint64_t shed = 0;               ///< CoDel drops at dispatch

  std::uint64_t retries = 0;             ///< re-queued after a bad result
  std::uint64_t retry_budget_denied = 0; ///< bucket dry: retry dropped
  std::uint64_t failed = 0;              ///< delivered as error, not wrong

  std::uint64_t hedges = 0;          ///< duplicates launched
  std::uint64_t hedge_wins = 0;      ///< hedge finished before the original
  std::uint64_t hedge_cancelled = 0; ///< losers cancelled

  std::uint64_t breaker_opens = 0;
  std::uint64_t breaker_probes = 0;
  std::uint64_t breaker_closes = 0;

  std::uint64_t scrubs = 0;
  std::uint64_t proactive_remaps = 0;  ///< wear drains that beat the limit
  std::uint64_t wear_corruptions = 0;  ///< lanes that wore out in service

  std::uint64_t chaos_episodes = 0;
  std::uint64_t detected_corruptions = 0;  ///< caught by the layered checks
  std::uint64_t wrong_accepted = 0;        ///< corrupt result delivered (!)

  obs::Json to_json() const;
};

}  // namespace cryptopim::runtime
