#include "runtime/serving.h"

#include <algorithm>
#include <cassert>
#include <csignal>
#include <filesystem>
#include <optional>
#include <set>
#include <stdexcept>
#include <string_view>

#include "model/performance.h"
#include "ntt/ntt.h"
#include "ntt/params.h"
#include "ntt/poly.h"
#include "obs/trace.h"
#include "reliability/verifier.h"
#include "runtime/backend.h"
#include "runtime/protocol_ops.h"
#include "runtime/snapshot.h"

namespace cryptopim::runtime {

namespace {

/// Lane index of a laneless protocol host op (sampling / aggregation):
/// InFlight entries carrying it never touch lanes_.
constexpr std::size_t kHostLane = ~std::size_t{0};

/// Cycle geometry of one superbank lane configured for a degree class,
/// derived from the same performance model the offline scheduler uses:
/// one request enters per `segments * beat` cycles and completes a fill
/// (plus any extra segment beats) after entering.
struct LaneGeometry {
  unsigned banks = 0;       ///< banks_per_superbank
  unsigned segments = 1;
  std::uint64_t beat = 0;   ///< slowest-stage cycles
  std::uint64_t fill = 0;   ///< depth * beat
  std::uint64_t service() const noexcept {
    return fill + (segments - 1) * beat;
  }
  std::uint64_t occupancy() const noexcept { return segments * beat; }
};

LaneGeometry geometry_for(const arch::ChipConfig& chip, std::uint32_t degree) {
  // Geometry (banks per superbank, segments) is degree-intrinsic; the
  // failed-bank count only shrinks how many lanes fit, which the
  // runtime's own bank pool accounts for. Cached per (design point,
  // degree): cryptopim_pipelined measures stage latencies by executing
  // the datapath, far too slow to re-run on every arrival.
  thread_local std::map<std::pair<std::uint32_t, std::uint32_t>, LaneGeometry>
      cache;
  const auto key = std::make_pair(chip.design_max_n, degree);
  if (const auto it = cache.find(key); it != cache.end()) return it->second;

  const auto plan = chip.plan_for_degree(degree);
  const auto perf =
      model::cryptopim_pipelined(std::min(degree, chip.design_max_n));
  LaneGeometry g;
  g.banks = plan.banks_per_superbank;
  g.segments = plan.segments;
  g.beat = perf.slowest_stage_cycles;
  g.fill = static_cast<std::uint64_t>(perf.depth) * perf.slowest_stage_cycles;
  cache.emplace(key, g);
  return g;
}

}  // namespace

// -- report -------------------------------------------------------------------

double ServingReport::latency_us(double quantile) const {
  return static_cast<double>(latency_cycles.quantile(quantile)) /
         cycles_per_us;
}

namespace {

/// Derived per-window rates: the rolling throughput / latency / shed /
/// retry series the windowed counters exist to support. Rates are per
/// second of simulated time; ratios are against the window's submitted.
obs::Json rolling_rates(const obs::WindowedSeries& series, double cycle_ns) {
  obs::Json rows = obs::Json::array();
  const double window_s =
      static_cast<double>(series.window_cycles()) * cycle_ns * 1e-9;
  for (std::size_t w = 0; w < series.window_count(); ++w) {
    obs::Json row = obs::Json::object();
    row.set("start", series.window_start(w));
    const std::uint64_t completed = series.counter_at(w, "completed");
    const std::uint64_t submitted = series.counter_at(w, "submitted");
    row.set("throughput_per_s",
            window_s > 0 ? static_cast<double>(completed) / window_s : 0.0);
    if (const obs::Histogram* lat = series.histogram_at(w, "latency_cycles")) {
      row.set("p50_latency_us",
              static_cast<double>(lat->quantile(0.50)) * cycle_ns * 1e-3);
      row.set("p99_latency_us",
              static_cast<double>(lat->quantile(0.99)) * cycle_ns * 1e-3);
    }
    const double denom = submitted ? static_cast<double>(submitted) : 1.0;
    row.set("shed_rate",
            static_cast<double>(series.counter_at(w, "shed")) / denom);
    row.set("retry_rate",
            static_cast<double>(series.counter_at(w, "retries")) / denom);
    rows.push_back(std::move(row));
  }
  return rows;
}

}  // namespace

obs::Json ServingReport::to_json() const {
  obs::Json j = obs::Json::object();
  j.set("schema", "serving/2");
  j.set("policy", policy);
  j.set("backend", backend);
  j.set("duration_cycles", duration_cycles);
  j.set("drain_cycle", drain_cycle);
  j.set("submitted", submitted);
  j.set("admitted", admitted);
  j.set("rejected", rejected);
  j.set("rejected_unservable", rejected_unservable);
  j.set("completed", completed);
  j.set("in_flight", in_flight);
  j.set("queued", queued);
  j.set("repartitions", repartitions);
  j.set("bank_failures", bank_failures);
  j.set("retried", retried);
  j.set("deadline_misses", deadline_misses);
  j.set("verified", verified);
  j.set("verify_failures", verify_failures);
  // Emitted only when a resilience feature ran: a resilience-off report
  // stays byte-identical to the pre-resilience schema.
  if (resilience_enabled) j.set("resilience", resilience.to_json());
  // Fleet context: emitted only for externally driven chips, so the
  // classic single-chip report keeps its schema byte-for-byte.
  if (fleet_mode) {
    j.set("chip", std::uint64_t{chip_id});
    j.set("migrated", migrated);
    j.set("lost_in_flight", lost_in_flight);
    j.set("chip_corruptions", chip_corruptions);
    j.set("chip_failed", chip_failed);
  }
  // Protocol block: emitted only when a protocol workload ran, so the
  // raw-polymul report stays byte-identical.
  if (protocol_enabled) j.set("protocol", protocol.to_json());
  j.set("busy_bank_cycles", busy_bank_cycles);
  j.set("utilization", utilization);
  j.set("throughput_per_s", throughput_per_s);
  j.set("offered_per_s", offered_per_s);
  obs::Json lat = obs::Json::object();
  lat.set("count", latency_cycles.count());
  lat.set("mean_cycles", latency_cycles.mean());
  lat.set("p50_cycles", latency_cycles.quantile(0.50));
  lat.set("p99_cycles", latency_cycles.quantile(0.99));
  lat.set("p999_cycles", latency_cycles.quantile(0.999));
  lat.set("p50_us", latency_us(0.50));
  lat.set("p99_us", latency_us(0.99));
  lat.set("p999_us", latency_us(0.999));
  lat.set("max_cycles", latency_cycles.max());
  j.set("latency", std::move(lat));
  obs::Json qd = obs::Json::object();
  qd.set("mean", queue_depth.mean());
  qd.set("p99", queue_depth.quantile(0.99));
  qd.set("max", queue_depth.max());
  j.set("queue_depth", std::move(qd));
  obs::Json ts = obs::Json::array();
  for (const auto& [id, t] : tenants) {
    obs::Json tj = obs::Json::object();
    tj.set("tenant", std::uint64_t{id});
    tj.set("weight", t.weight);
    tj.set("submitted", t.submitted);
    tj.set("admitted", t.admitted);
    tj.set("rejected", t.rejected);
    // Gated like the top-level resilience section: a resilience-off
    // report keeps the pre-resilience schema byte-for-byte.
    if (resilience_enabled) tj.set("rejected_deadline", t.rejected_deadline);
    tj.set("completed", t.completed);
    tj.set("deadline_misses", t.deadline_misses);
    tj.set("bank_cycles", t.bank_cycles);
    tj.set("p50_cycles", t.latency_cycles.quantile(0.50));
    tj.set("p99_cycles", t.latency_cycles.quantile(0.99));
    tj.set("p999_cycles", t.latency_cycles.quantile(0.999));
    ts.push_back(std::move(tj));
  }
  j.set("tenants", std::move(ts));
  if (series.enabled()) {
    j.set("series", series.to_json());
    j.set("rolling", rolling_rates(series, 1e3 / cycles_per_us));
  }
  if (slo.enabled()) j.set("slo", slo.to_json());
  return j;
}

// -- runtime ------------------------------------------------------------------

/// A chaos/wear corruption window that never closes on its own (wear
/// faults persist until the lane is remapped onto fresh banks).
constexpr std::uint64_t kForever = ~std::uint64_t{0};

struct ServingRuntime::Lane {
  std::uint32_t degree = 0;
  unsigned banks = 0;
  std::uint64_t free_at = 0;  ///< earliest cycle the next request may enter
  unsigned in_flight = 0;
  bool dead = false;
  std::uint32_t track = 0;

  // -- resilience (inert defaults when the layer is off) ---------------------
  CircuitBreaker breaker;
  std::uint64_t slow_until = 0;     ///< chaos slowdown episode end
  std::uint64_t corrupt_until = 0;  ///< chaos/wear corruption end (kForever
                                    ///< for wear: only a remap clears it)
  bool draining = false;            ///< worn: no new work, remap when empty
};

struct ServingRuntime::InFlight {
  Request request;
  std::size_t lane = 0;
  std::uint64_t dispatched_at = 0;
  bool corrupt = false;      ///< dispatched into a corrupting window
  bool chip_corrupt = false; ///< dispatched during a corruption storm
  bool is_probe = false;     ///< the lane breaker's half-open probe
  bool is_hedge = false;     ///< the duplicate of a hedged pair
  std::uint64_t hedge_partner = 0;  ///< other dispatch id, 0 = unhedged
};

ServingRuntime::ServingRuntime(ServingConfig cfg)
    : cfg_(std::move(cfg)), events_(0, cfg_.chip_id) {}
ServingRuntime::~ServingRuntime() = default;

unsigned ServingRuntime::usable_banks() const noexcept {
  const unsigned lost = failed_banks_ > cfg_.chip.spare_banks
                            ? failed_banks_ - cfg_.chip.spare_banks
                            : 0;
  return lost >= cfg_.chip.total_banks ? 0 : cfg_.chip.total_banks - lost;
}

void ServingRuntime::schedule_scan(std::uint64_t cycle) {
  // The armed-cycle set is cleared as each scan fires, so a wake-up at
  // or before the current cycle would pop and re-arm itself in an
  // infinite same-cycle loop; the earliest useful re-scan is next cycle.
  if (cycle <= now_) cycle = now_ + 1;
  if (!scan_cycles_.insert(cycle).second) return;  // already armed
  Event e;
  e.cycle = cycle;
  e.kind = EventKind::kQueueScan;
  events_.push(std::move(e));
}

ServingReport ServingRuntime::run() {
  prime();
  while (!events_.empty()) step();
  return seal();
}

void ServingRuntime::prime() {
  policy_ = make_policy(cfg_.policy);
  if (!policy_) {
    throw std::invalid_argument("unknown scheduling policy: " + cfg_.policy);
  }
  queue_.reset(*policy_);
  backend_ = make_backend(cfg_.backend);
  if (!backend_) {
    throw std::invalid_argument("unknown execution backend: " + cfg_.backend);
  }
  if (cfg_.workload.mix.empty()) {
    throw std::invalid_argument("degree mix must not be empty");
  }
  for (const auto& share : cfg_.workload.mix) {
    geometry_for(cfg_.chip, share.degree);  // throws on an invalid degree
  }
  if (cfg_.protocol.enabled()) {
    dag_ = compile_protocol(cfg_.protocol);  // throws on bad shares
    geometry_for(cfg_.chip, dag_.lane_degree);
  }
  protos_.clear();
  proto_harness_.reset();

  const double cyc_per_us = cfg_.cycles_per_us();
  const auto horizon =
      static_cast<std::uint64_t>(cfg_.duration_us * cyc_per_us);
  horizon_ = horizon;
  report_ = ServingReport{};
  report_.policy = cfg_.policy;
  report_.backend = cfg_.backend;
  report_.duration_cycles = horizon;
  report_.cycles_per_us = cyc_per_us;
  report_.fleet_mode = cfg_.external_arrivals;
  report_.chip_id = cfg_.chip_id;

  // Auto window width: ~64 windows across the arrival horizon, never
  // finer than 1024 cycles. Pure integer arithmetic — deterministic.
  const std::uint64_t window =
      cfg_.window_cycles > 0
          ? cfg_.window_cycles
          : std::max<std::uint64_t>(1024, horizon / 64);
  report_.series = obs::WindowedSeries(window);
  report_.slo = obs::SloAccountant(cfg_.slo, window, cyc_per_us);
  // A fleet shares one event log across every chip; the fleet clears it
  // once, before priming, so a chip must not wipe its siblings' records.
  if (event_log_ && !cfg_.external_arrivals) event_log_->clear();

  resilience_on_ = cfg_.resilience.enabled();
  report_.resilience_enabled = resilience_on_;

  report_.protocol_enabled = cfg_.protocol.enabled();
  if (report_.protocol_enabled) {
    report_.protocol.kind = protocol_name(cfg_.protocol.kind);
    if (cfg_.protocol.kind == ProtocolKind::kThreshold) {
      report_.protocol.shares = cfg_.protocol.shares;
    }
    report_.protocol.ops_per_request =
        static_cast<std::uint32_t>(dag_.ops.size());
    // Joins verify functionally only when the backend can produce data
    // (the analytic tier has nothing to check, like verify_result).
    if (backend_->functional()) {
      proto_harness_ =
          std::make_unique<ProtocolHarness>(cfg_.protocol, backend_.get());
    }
  }

  const std::uint32_t tenants = std::max<std::uint32_t>(cfg_.workload.tenants, 1);
  tenant_usage_.assign(tenants, 0.0);
  for (std::uint32_t t = 0; t < tenants; ++t) {
    TenantStats ts;
    ts.weight = t < cfg_.tenant_weights.size() && cfg_.tenant_weights[t] > 0
                    ? cfg_.tenant_weights[t]
                    : 1.0;
    report_.tenants.emplace(t, std::move(ts));
  }

  // Fleet drive: no internal generator — the front-end injects arrivals
  // and the queue starts empty.
  if (!cfg_.external_arrivals) {
    if (cfg_.closed_loop_clients > 0) {
      const auto think =
          static_cast<std::uint64_t>(cfg_.think_time_us * cyc_per_us);
      workload_ = std::make_unique<ClosedLoop>(cfg_.workload,
                                               cfg_.closed_loop_clients, think,
                                               horizon);
    } else {
      const double rate_per_cycle =
          cfg_.arrival_rate_per_s / (1e9 / cfg_.cycle_ns);
      if (rate_per_cycle <= 0) {
        throw std::invalid_argument("arrival rate must be positive");
      }
      workload_ =
          std::make_unique<OpenLoopPoisson>(cfg_.workload, rate_per_cycle,
                                            horizon);
    }
    for (const auto& a : workload_->initial()) {
      Event e;
      e.cycle = a.cycle;
      e.kind = EventKind::kArrival;
      e.request = a.request;
      events_.push(std::move(e));
    }
  }
  if (cfg_.fail_bank_at_us > 0) {
    Event e;
    e.cycle = static_cast<std::uint64_t>(cfg_.fail_bank_at_us * cyc_per_us);
    e.kind = EventKind::kBankFailure;
    events_.push(std::move(e));
  }

  if (resilience_on_) {
    const auto& res = cfg_.resilience;
    const std::uint32_t tenants_n =
        std::max<std::uint32_t>(cfg_.workload.tenants, 1);
    retry_budget_ = std::make_unique<RetryBudget>(tenants_n,
                                                  res.retry_budget_ratio);
    shedder_ = CoDelShedder(
        static_cast<std::uint64_t>(res.codel_target_us * cyc_per_us),
        static_cast<std::uint64_t>(res.codel_interval_us * cyc_per_us));
    health_ = std::make_unique<HealthMonitor>(res, cfg_.workload.seed);
    chaos_rng_ = Xoshiro256(res.chaos.seed);
    service_hist_ = obs::Histogram{};
    health_tick_armed_ = false;
    if (res.chaos.enabled) arm_chaos_episode();
    if (res.wear_limit > 0 || res.chaos.enabled) {
      arm_health_tick(res.health_period_cycles);
    }
  }

}

void ServingRuntime::step() {
  // Durability hooks fire at the event boundary, where the runtime's
  // state is consistent: a snapshot taken here is exactly reproducible
  // by a replay that processed the same number of events, and the crash
  // campaign's SIGKILL lands between events so the journal's only
  // possible damage is the torn tail the loader already tolerates.
  // (Fleet mode leaves both with the fleet's merged loop.)
  if (owned_journal_) {
    if (durab_.snapshot_every > 0 && event_index_ > 0 &&
        event_index_ % durab_.snapshot_every == 0) {
      take_snapshot(event_index_);
    }
    if (durab_.kill_at_event > 0 &&
        event_index_ + 1 == durab_.kill_at_event) {
      std::raise(SIGKILL);
    }
  }
  const Event e = events_.pop();
  now_ = e.cycle;
  report_.drain_cycle = std::max(report_.drain_cycle, now_);
  switch (e.kind) {
    case EventKind::kArrival: handle_arrival(e); break;
    case EventKind::kQueueScan:
      scan_cycles_.erase(e.cycle);
      try_dispatch();
      break;
    case EventKind::kCompletion: handle_completion(e); break;
    case EventKind::kBankFailure: handle_bank_failure(e); break;
    case EventKind::kTimeout: handle_timeout(e); break;
    case EventKind::kRetryEnqueue: handle_retry_enqueue(e); break;
    case EventKind::kHedge: handle_hedge(e); break;
    case EventKind::kHealth: handle_health(e); break;
    case EventKind::kChaos: handle_chaos(e); break;
    default: break;  // fleet kinds never reach a chip's queue
  }
  event_index_ += 1;
}

ServingReport ServingRuntime::seal() {
  // Anything still queued is starved: the chip degraded below its class's
  // bank requirement mid-stream. Surface it rather than hanging.
  report_.queued = queue_.size();
  report_.in_flight = in_flight_.size();
  queue_.clear();

  if (report_.drain_cycle > 0) {
    const double drain_s = static_cast<double>(report_.drain_cycle) *
                           cfg_.cycle_ns * 1e-9;
    report_.throughput_per_s = static_cast<double>(report_.completed) / drain_s;
    report_.utilization =
        static_cast<double>(report_.busy_bank_cycles) /
        (static_cast<double>(cfg_.chip.total_banks) *
         static_cast<double>(report_.drain_cycle));
  }
  if (horizon_ > 0) {
    report_.offered_per_s = static_cast<double>(report_.submitted) /
                            (static_cast<double>(horizon_) * cfg_.cycle_ns *
                             1e-9);
  }
  // Clean end of run: the seal pins the final conservation counters, so
  // a validator can check the whole ledger without the serving report
  // and --recover can tell "finished" from "interrupted".
  if (journal_ != nullptr) {
    journal_->record(Journal::seal_payload(
        jidx(), now_,
        {{"sub", report_.submitted},
         {"adm", report_.admitted},
         {"cmp", report_.completed},
         {"rej", report_.rejected + report_.rejected_unservable +
                     report_.resilience.rejected_deadline},
         {"shd", report_.resilience.shed},
         {"tmo", report_.resilience.timed_out},
         {"fld", report_.resilience.failed},
         {"que", report_.queued},
         {"inf", report_.in_flight},
         // Ops cancelled by exactly-once protocol teardown: the gap
         // between admitted and individually-fated ops in protocol mode
         // (0 for raw requests), closing the op-granularity ledger.
         {"cnl", report_.protocol.ops_cancelled},
         {"wra", report_.resilience.wrong_accepted}}));
  }
  return report_;
}

// -- fleet drive --------------------------------------------------------------

void ServingRuntime::inject(Request r, std::uint64_t cycle) {
  Event e;
  e.cycle = std::max(cycle, now_);
  e.kind = EventKind::kArrival;
  e.request = std::move(r);
  events_.push(std::move(e));
}

void ServingRuntime::emit_outcome(const Request& r, Outcome o) {
  // Journal the terminal commitment *before* handing it to the fleet:
  // if the process dies between the two, recovery re-delivers (the fleet
  // replays deterministically too), never loses, the outcome.
  if (journal_ != nullptr) {
    journal_->record(Journal::outcome_payload(jidx(), now_, r.id, o));
  }
  if (outcome_sink_) outcome_sink_(r, o, now_);
  // Every terminal outcome, a rejection included, completes the
  // closed-loop cycle: the client observes the result or the error and
  // re-issues after thinking.
  chain_arrival(r, /*arrived=*/false);
}

void ServingRuntime::chain_arrival(const Request& r, bool arrived) {
  if (!workload_) return;  // fleet drive: the front-end owns the loop
  const std::optional<Arrival> next =
      arrived ? workload_->next_after_arrival(Arrival{now_, r})
              : workload_->next_after_completion(r, now_);
  if (!next) return;
  Event e;
  e.cycle = next->cycle;
  e.kind = EventKind::kArrival;
  e.request = next->request;
  events_.push(std::move(e));
}

// -- durability ---------------------------------------------------------------

void ServingRuntime::enable_durability(const DurabilityOptions& opts) {
  durab_ = opts;
  if (!durab_.enabled()) return;
  std::filesystem::create_directories(durab_.dir);
  owned_journal_ = std::make_unique<Journal>();
  const std::string hdr =
      Journal::header_payload("single", cfg_.chip_id, cfg_.workload.seed,
                              serving_config_to_json(cfg_));
  owned_journal_->open(durab_.dir + "/journal.log", hdr, durab_.recover);
  journal_ = owned_journal_.get();
}

void ServingRuntime::take_snapshot(std::uint64_t index) {
  // Always (re)write the document — a replay passing this index rebuilds
  // byte-identical state, so the rename lands the same content — then
  // journal the CRC. During recovery the record byte-compare *is* the
  // cross-check: a CRC drift from the pre-crash record throws.
  std::uint32_t crc = 0;
  const std::string file =
      write_snapshot(durab_.dir, index, snapshot_state(), &crc);
  journal_->record(Journal::snap_payload(index, file, crc));
}

obs::Json ServingRuntime::snapshot_state() const {
  obs::Json s = obs::Json::object();
  s.set("cycle", now_);
  s.set("event_index", event_index_);
  s.set("next_dispatch_id", next_dispatch_id_);
  s.set("pending", std::uint64_t{queue_.size()});
  s.set("in_flight", std::uint64_t{in_flight_.size()});
  s.set("protos", std::uint64_t{protos_.size()});

  obs::Json counters = obs::Json::object();
  counters.set("submitted", report_.submitted);
  counters.set("admitted", report_.admitted);
  counters.set("completed", report_.completed);
  counters.set("rejected", report_.rejected);
  counters.set("rejected_unservable", report_.rejected_unservable);
  counters.set("retried", report_.retried);
  counters.set("repartitions", report_.repartitions);
  counters.set("bank_failures", report_.bank_failures);
  if (resilience_on_) {
    counters.set("shed", report_.resilience.shed);
    counters.set("timed_out", report_.resilience.timed_out);
    counters.set("failed", report_.resilience.failed);
    counters.set("retries", report_.resilience.retries);
    counters.set("chaos_episodes", report_.resilience.chaos_episodes);
  }
  s.set("counters", std::move(counters));

  // Lane geometry + per-lane resilience machinery (breaker, wear, chaos
  // windows): the state whose drift under replay would change dispatch
  // decisions.
  obs::Json lanes = obs::Json::array();
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    const Lane& lane = lanes_[i];
    obs::Json lj = obs::Json::object();
    lj.set("degree", std::uint64_t{lane.degree});
    lj.set("banks", std::uint64_t{lane.banks});
    lj.set("free_at", lane.free_at);
    lj.set("in_flight", std::uint64_t{lane.in_flight});
    lj.set("dead", lane.dead);
    lj.set("draining", lane.draining);
    lj.set("slow_until", lane.slow_until);
    lj.set("corrupt_until", lane.corrupt_until);
    lj.set("breaker_state",
           std::uint64_t{static_cast<unsigned>(lane.breaker.state())});
    lj.set("breaker_failures",
           std::uint64_t{lane.breaker.consecutive_failures()});
    lj.set("breaker_open_until", lane.breaker.open_until());
    if (health_) lj.set("wear_writes", health_->wear_writes(i));
    lanes.push_back(std::move(lj));
  }
  s.set("lanes", std::move(lanes));

  obs::Json banks = obs::Json::object();
  banks.set("allocated", std::uint64_t{allocated_banks_});
  banks.set("failed", std::uint64_t{failed_banks_});
  banks.set("usable", std::uint64_t{usable_banks()});
  s.set("banks", std::move(banks));

  // WFQ fairness ledgers (bank-cycles / weight per tenant).
  obs::Json usage = obs::Json::array();
  for (const double u : tenant_usage_) usage.push_back(obs::Json(u));
  s.set("tenant_usage", std::move(usage));

  // RNG cursors as non-advancing state digests, hex so the full 64 bits
  // survive the JSON number path.
  obs::Json rngs = obs::Json::object();
  if (workload_) rngs.set("workload", u64_hex(workload_->rng_digest()));
  if (resilience_on_) rngs.set("chaos", u64_hex(chaos_rng_.digest()));
  s.set("rng", std::move(rngs));

  s.set("chip_slow_until", chip_slow_until_);
  s.set("chip_corrupt_until", chip_corrupt_until_);
  return s;
}

std::vector<Request> ServingRuntime::extract_pending() {
  // Pending timeouts of migrated requests no-op: handle_timeout looks
  // the id up in the queue and finds nothing.
  if (!cfg_.protocol.enabled()) {
    std::vector<Request> out = queue_.drain();
    report_.migrated += out.size();
    return out;
  }
  // Protocol drain: only whole untouched DAGs migrate (the origin is
  // re-expanded on the target chip). A protocol with any op dispatched,
  // completed or in retry backoff keeps its remaining ops here — its
  // in-flight work must join on this chip.
  std::vector<Request> out;
  for (auto it = protos_.begin(); it != protos_.end();) {
    const ProtoState& st = it->second;
    if (st.done_mask != 0 || queue_.proto_count(it->first) != st.op_count) {
      ++it;
      continue;
    }
    // The ops are dropped; the origin migrates whole.
    report_.migrated += queue_.erase_proto(it->first);
    out.push_back(std::move(it->second.origin));
    it = protos_.erase(it);
  }
  return out;
}

std::vector<Request> ServingRuntime::crash_chip() {
  // Deduplicate by request id: a hedged pair is two in-flight entries but
  // one request, and the fleet must re-dispatch it exactly once.
  std::vector<Request> out;
  std::set<std::uint64_t> seen;
  for (const auto& [id, inf] : in_flight_) {
    if (inf.request.proto_id == 0 && seen.insert(inf.request.id).second) {
      out.push_back(inf.request);
    }
  }
  report_.lost_in_flight += in_flight_.size();
  in_flight_.clear();
  proto_flights_.clear();
  queue_.for_each([&](const Request& r) {
    if (r.proto_id == 0 && seen.insert(r.id).second) out.push_back(r);
  });
  report_.migrated += queue_.size();
  queue_.clear();
  // Protocol requests collapse to their origin: the crash loses every op
  // (even ones in retry backoff — their re-enqueue finds no proto state)
  // and the fleet re-dispatches the whole DAG exactly once.
  for (auto& [pid, st] : protos_) out.push_back(std::move(st.origin));
  protos_.clear();
  for (Lane& lane : lanes_) {
    lane.dead = true;
    lane.in_flight = 0;
  }
  // Dark until revive(): no usable banks, so nothing dispatches. Stray
  // internal-retry events still in the air re-enter the queue and wait;
  // completion/hedge/scan events for the dead lanes fire as no-ops.
  allocated_banks_ = 0;
  failed_banks_ = cfg_.chip.total_banks + cfg_.chip.spare_banks;
  chip_slow_until_ = 0;
  chip_corrupt_until_ = 0;
  return out;
}

void ServingRuntime::revive(std::uint64_t cycle) {
  failed_banks_ = 0;
  schedule_scan(std::max(cycle, now_) + 1);
  if (resilience_on_ &&
      (cfg_.resilience.wear_limit > 0 || cfg_.resilience.chaos.enabled)) {
    arm_health_tick(cfg_.resilience.health_period_cycles);
  }
}

void ServingRuntime::slow_down(std::uint64_t until_cycle, double factor) {
  chip_slow_until_ = std::max(chip_slow_until_, until_cycle);
  if (factor > 1.0) chip_slow_factor_ = factor;
}

void ServingRuntime::corrupt_window(std::uint64_t until_cycle) {
  chip_corrupt_until_ = std::max(chip_corrupt_until_, until_cycle);
}

obs::Json ServingRuntime::ev_control(const char* name) const {
  obs::Json rec = obs::Json::object();
  rec.set("ev", name);
  rec.set("cycle", now_);
  rec.set("chip", std::uint64_t{cfg_.chip_id});
  return rec;
}

obs::Json ServingRuntime::ev_base(const char* name, const Request& r) const {
  obs::Json rec = ev_control(name);
  rec.set("trace", r.id);
  rec.set("tenant", std::uint64_t{r.tenant});
  return rec;
}

void ServingRuntime::handle_arrival(const Event& e) {
  // Protocol mode: every arrival (generated or fleet-injected) is a
  // protocol-level request, admitted all-or-nothing as a DAG of ops. The
  // ledger stays at op granularity — the serving/2 conservation
  // identities (submitted == admitted + rejected, ...) keep holding with
  // primitive ops as the unit of work; the protocol block counts whole
  // requests. Op retries re-enter through kRetryEnqueue, never here.
  const bool proto = cfg_.protocol.enabled();
  Request r = e.request;
  const std::uint64_t ops = proto ? dag_.ops.size() : 1;
  TenantStats& ts = report_.tenants.at(r.tenant);
  report_.submitted += ops;
  ts.submitted += ops;
  if (proto) report_.protocol.requests += 1;
  report_.queue_depth.add(queue_.size());
  report_.series.count("submitted", now_, ops);
  report_.series.observe("queue_depth", now_, queue_.size());
  // Chain the next open-loop arrival before any admission decision so
  // backpressure never throttles the *offered* load.
  chain_arrival(r, /*arrived=*/true);

  const LaneGeometry g =
      geometry_for(cfg_.chip, proto ? dag_.lane_degree : r.degree);
  if (g.banks > usable_banks()) {
    reject(r, "unservable", ops);
    return;
  }
  if (queue_.size() + ops > cfg_.queue_capacity) {
    reject(r, "queue_full", ops);
    return;
  }
  if (!proto) {
    r.service_cycles = g.service();
    stamp_deadline(r);
  }
  if (!proto && hard_deadline()) {
    // Deadline propagation into admission: the class backlog ahead of
    // this request, served at the class's live lane count, must still
    // leave room for one service before the deadline. Rejecting here is
    // kinder than admitting work that can only miss. (A protocol's ops
    // are not checked: they time out in queue instead.)
    const std::uint64_t backlog = queue_.degree_count(r.degree);
    unsigned lanes_alive = 0;
    for (const Lane& lane : lanes_) {
      lanes_alive += !lane.dead && !lane.draining && lane.degree == r.degree;
    }
    // No lane yet: one will be carved, so the backlog drains at 1 lane.
    const std::uint64_t wait =
        backlog * g.occupancy() / std::max(1u, lanes_alive);
    if (now_ + wait + g.service() > r.deadline_cycle) {
      reject(r, "deadline_infeasible", ops);
      return;
    }
  }
  report_.admitted += ops;
  ts.admitted += ops;
  report_.series.count("admitted", now_, ops);
  // Admission commitment: journaled after the deadline stamp so replay
  // matches the exact field set the runtime serves. A DAG has one: the
  // op expansion below is a pure function of the origin, so replay
  // re-derives every op.
  if (journal_ != nullptr) {
    journal_->record(Journal::admit_payload(jidx(), now_, r));
  }
  if (retry_budget_) retry_budget_->on_admitted(r.tenant);
  if (elog_on()) {
    obs::Json rec = ev_base("admitted", r);
    rec.set("degree", std::uint64_t{proto ? dag_.lane_degree : r.degree});
    if (proto) {
      rec.set("protocol", report_.protocol.kind);
      rec.set("ops", ops);
    } else if (r.deadline_cycle > 0) {
      rec.set("deadline", r.deadline_cycle);
    }
    event_log_->log(std::move(rec));
  }
  if (!proto) {
    enqueue_admitted(std::move(r));
    try_dispatch();
    return;
  }

  // Protocol ids are 1-based: proto_id == 0 is the raw-request sentinel
  // on Request, and origin ids start at 0.
  const std::uint64_t pid = r.id + 1;
  ProtoState st;
  st.origin = r;
  st.op_count = static_cast<std::uint32_t>(ops);
  protos_[pid] = std::move(st);
  // Keep queue readiness equal to proto_ready(): ops of an earlier,
  // orphaned incarnation of this id become ready again with it.
  queue_.update_proto(pid, /*live=*/true, 0);
  for (std::size_t i = 0; i < ops; ++i) {
    const ProtoOp& op = dag_.ops[i];
    Request child = r;
    // Op ids order the DAG by (protocol arrival, op index) under every
    // policy's older() tie-break, and stay unique: op_count <= 64.
    child.id = (r.id << 6) | i;
    child.proto_id = pid;
    child.op_index = static_cast<std::uint32_t>(i);
    child.op_class = op.cls;
    child.fanout_group = op.fanout_group;
    child.parent_mask = op.parent_mask;
    child.degree = op.degree;
    child.service_cycles =
        is_host_op(child) ? cfg_.protocol.host_op_cycles
                          : geometry_for(cfg_.chip, op.degree).service();
    stamp_deadline(child);
    if (elog_on()) {
      obs::Json rec = ev_base("protocol_op", child);
      rec.set("proto", pid);
      rec.set("op", std::uint64_t{child.op_index});
      rec.set("cls", op_class_name(op.cls));
      if (op.parent_mask != 0) rec.set("parents", op.parent_mask);
      if (op.fanout_group != 0) {
        rec.set("group", std::uint64_t{op.fanout_group});
      }
      event_log_->log(std::move(rec));
    }
    enqueue_admitted(std::move(child));
  }
  try_dispatch();
}

void ServingRuntime::reject(const Request& r, const char* reason,
                            std::uint64_t ops) {
  TenantStats& ts = report_.tenants.at(r.tenant);
  const std::string_view why = reason;
  if (why == "deadline_infeasible") {
    // Kept apart from `rejected` so the global counters still sum the
    // per-tenant ones field-for-field.
    report_.resilience.rejected_deadline += ops;
    ts.rejected_deadline += ops;
  } else {
    (why == "unservable" ? report_.rejected_unservable : report_.rejected) +=
        ops;
    ts.rejected += ops;
  }
  // The windowed counter and the SLO count whole requests.
  if (cfg_.protocol.enabled()) report_.protocol.rejected += 1;
  report_.series.count("rejected", now_);
  report_.slo.record_bad(now_);
  if (elog_on()) {
    obs::Json rec = ev_base("rejected", r);
    rec.set("reason", reason);
    event_log_->log(std::move(rec));
  }
  emit_outcome(r, Outcome::kRejected);
}

void ServingRuntime::stamp_deadline(Request& r) const {
  if (cfg_.deadline_slack > 0) {
    r.deadline_cycle =
        r.arrival_cycle +
        static_cast<std::uint64_t>(cfg_.deadline_slack *
                                   static_cast<double>(r.service_cycles));
  }
  if (hard_deadline()) {
    r.deadline_cycle =
        r.arrival_cycle + static_cast<std::uint64_t>(
                              cfg_.resilience.deadline_us *
                              cfg_.cycles_per_us());
  }
}

void ServingRuntime::enqueue_admitted(Request r) {
  if (hard_deadline()) {
    Event te;
    te.cycle = r.deadline_cycle;
    te.kind = EventKind::kTimeout;
    te.dispatch_id = r.id;
    events_.push(std::move(te));
  }
  enqueue(std::move(r));
}

void ServingRuntime::enqueue(Request r) {
  const bool ready = r.proto_id == 0 || proto_ready(r);
  queue_.push(std::move(r), ready);
}

// -- protocol DAG serving -----------------------------------------------------

bool ServingRuntime::proto_ready(const Request& r) const {
  const auto it = protos_.find(r.proto_id);
  if (it == protos_.end()) return false;  // proto failed: op is an orphan
  return (it->second.done_mask & r.parent_mask) == r.parent_mask;
}

void ServingRuntime::try_dispatch() {
  // One round: the queue hands out the policy's best ready request over
  // the lane classes not blocked yet. Dependency frontier: a DAG op is
  // ready only once its parents completed. Host ops never touch lanes,
  // so a blocked degree class does not gate them. tenant_usage_ is read
  // live, so wfq sees every charge made earlier in the round.
  const PolicyContext ctx{now_, tenant_usage_};
  std::vector<std::uint32_t> blocked;
  while (const AdmissionQueue::Entry* best = queue_.best(ctx, blocked)) {
    const bool host = is_host_op(best->request);
    Lane* lane = nullptr;
    if (!host) {
      lane = acquire_lane_for(best->request);
      if (!lane) {
        // A fan-out op may be boxed out only by its in-flight siblings;
        // other work in the class can still run, so pass over just this
        // op (a sibling's completion re-runs dispatch with a smaller
        // exclusion).
        if (best->request.fanout_group != 0) {
          queue_.park(*best);
        } else {
          blocked.push_back(best->request.degree);
        }
        continue;
      }
    }
    Request picked = queue_.take(*best);
    // CoDel-style shedding at dequeue: when the minimum queueing sojourn
    // has stayed above target for a full interval, drop instead of
    // serving (and tighten the drop cadence) until the queue recovers.
    if (shedder_.enabled()) {
      const std::uint64_t sojourn = now_ - picked.arrival_cycle;
      if (shedder_.should_drop(sojourn, now_)) {
        finish_bad(picked, Outcome::kShed, report_.resilience.shed, sojourn);
        continue;
      }
    }
    if (host) {
      dispatch_host(std::move(picked));
    } else {
      launch(std::move(picked), *lane, /*hedge_of=*/0);
    }
  }
  queue_.unpark_all();
}

ServingRuntime::Lane* ServingRuntime::acquire_lane_for(const Request& r) {
  if (r.proto_id == 0 || r.fanout_group == 0) return acquire_lane(r.degree);
  // Fan-out op: never share a lane with an in-flight sibling of the same
  // group — the point of the fan-out is limb/share parallelism across
  // lanes. No deadlock risk: a sibling's completion re-runs dispatch
  // with a smaller exclusion set (worst case the group serializes).
  std::set<std::size_t> excl;
  const auto [lo, hi] = proto_flights_.equal_range(r.proto_id);
  for (auto it = lo; it != hi; ++it) {
    const InFlight& inf = in_flight_.at(it->second);
    if (inf.request.fanout_group == r.fanout_group && inf.lane != kHostLane) {
      excl.insert(inf.lane);
    }
  }
  return acquire_lane(r.degree, excl);
}

ServingRuntime::Lane* ServingRuntime::acquire_lane(
    std::uint32_t degree, const std::set<std::size_t>& exclude,
    bool allow_scan) {
  Lane* free_now = nullptr;
  std::uint64_t soonest = ~std::uint64_t{0};
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    Lane& lane = lanes_[i];
    if (lane.dead || lane.degree != degree || exclude.contains(i)) continue;
    if (lane.draining) continue;  // worn: finishing up, remap pending
    if (!lane.breaker.can_accept(now_)) {
      // Open: re-scan when the open period elapses. Half-open with the
      // probe in flight (open_until already passed): the probe's
      // completion runs try_dispatch, so no wake-up is needed — and a
      // past-cycle scan would re-arm itself forever.
      if (lane.breaker.open_until() > now_)
        soonest = std::min(soonest, lane.breaker.open_until());
      continue;
    }
    if (lane.free_at <= now_) {
      if (!free_now || lane.free_at < free_now->free_at) free_now = &lane;
    } else {
      soonest = std::min(soonest, lane.free_at);
    }
  }
  if (free_now) return free_now;
  if (!allow_scan) return nullptr;  // hedges only use lanes free right now

  const LaneGeometry g = geometry_for(cfg_.chip, degree);
  const unsigned usable = usable_banks();
  unsigned free_banks = usable > allocated_banks_ ? usable - allocated_banks_
                                                  : 0;
  if (free_banks < g.banks) {
    reclaim_idle_lanes(g.banks, degree);
    free_banks = usable > allocated_banks_ ? usable - allocated_banks_ : 0;
  }
  if (free_banks >= g.banks) {
    Lane* lane = carve_lane(degree);
    if (lane->free_at <= now_) return lane;
    schedule_scan(lane->free_at);
    return nullptr;
  }
  if (soonest != ~std::uint64_t{0}) schedule_scan(soonest);
  return nullptr;
}

ServingRuntime::Lane* ServingRuntime::carve_lane(std::uint32_t degree) {
  const LaneGeometry g = geometry_for(cfg_.chip, degree);
  Lane lane;
  lane.degree = degree;
  lane.banks = g.banks;
  lane.free_at = now_ + cfg_.repartition_cycles;
  lane.track =
      runtime_track_base() + 1 + static_cast<std::uint32_t>(lanes_.size());
  if (resilience_on_) {
    lane.breaker = CircuitBreaker(cfg_.resilience.breaker_k,
                                  cfg_.resilience.breaker_open_cycles);
  }
  allocated_banks_ += g.banks;
  report_.repartitions += 1;
  report_.series.count("repartitions", now_);
  auto& tr = obs::tracer();
  if (tr.enabled()) {
    tr.set_track_name(lane.track, "runtime lane " +
                                      std::to_string(lanes_.size()) + " (n=" +
                                      std::to_string(degree) + ")");
    tr.emit(runtime_track_base(), "repartition n=" + std::to_string(degree),
            "runtime", now_, cfg_.repartition_cycles);
  }
  if (elog_on()) {
    obs::Json rec = ev_control("carve");
    rec.set("lane", std::uint64_t{lanes_.size()});
    rec.set("degree", std::uint64_t{degree});
    rec.set("ready", lane.free_at);
    event_log_->log(std::move(rec));
  }
  lanes_.push_back(lane);
  return &lanes_.back();
}

void ServingRuntime::reclaim_idle_lanes(unsigned needed,
                                        std::uint32_t for_degree) {
  for (Lane& lane : lanes_) {
    const unsigned usable = usable_banks();
    const unsigned free_banks =
        usable > allocated_banks_ ? usable - allocated_banks_ : 0;
    if (free_banks >= needed) return;
    if (lane.dead || lane.in_flight > 0 || lane.free_at > now_) continue;
    if (lane.degree == for_degree) continue;
    if (queue_.degree_count(lane.degree) > 0) continue;
    lane.dead = true;
    allocated_banks_ -= lane.banks;
  }
}

std::uint64_t ServingRuntime::launch(Request r, Lane& lane,
                                     std::uint64_t hedge_of) {
  const LaneGeometry g = geometry_for(cfg_.chip, r.degree);
  const std::uint64_t t0 = now_;
  const std::size_t lane_idx = static_cast<std::size_t>(&lane - lanes_.data());
  std::uint64_t service = g.service();
  bool is_probe = false;
  if (resilience_on_) {
    is_probe = lane.breaker.note_dispatch(t0);
    if (is_probe) report_.resilience.breaker_probes += 1;
    if (health_ && health_->note_dispatch(lane_idx)) {
      // The lane crossed its wear limit on this very write: it corrupts
      // from here on and only a remap onto fresh banks clears it. This
      // is the failure mode the proactive drain exists to prevent.
      lane.corrupt_until = kForever;
      lane.draining = true;
      report_.resilience.wear_corruptions += 1;
    }
    if (health_ && health_->wants_drain(lane_idx)) lane.draining = true;
    if (lane.slow_until > t0) {
      service = static_cast<std::uint64_t>(
          static_cast<double>(service) * cfg_.resilience.chaos.slow_factor);
    }
  }
  // Whole-chip brownout: every dispatch in the episode runs slow.
  if (t0 < chip_slow_until_) {
    service = static_cast<std::uint64_t>(
        static_cast<double>(service) * chip_slow_factor_);
  }
  lane.free_at = t0 + g.occupancy();
  lane.in_flight += 1;

  const std::uint64_t bank_cycles =
      static_cast<std::uint64_t>(lane.banks) * g.occupancy();
  report_.busy_bank_cycles += bank_cycles;
  const std::uint64_t id = next_dispatch_id_++;
  if (hedge_of == 0) {
    TenantStats& ts = report_.tenants.at(r.tenant);
    ts.bank_cycles += bank_cycles;
    tenant_usage_[r.tenant] += static_cast<double>(bank_cycles) / ts.weight;
    report_.series.count("dispatched", t0);
    report_.series.observe("queue_wait_cycles", t0, t0 - r.arrival_cycle);
  } else {
    // Hedges burn real bank-cycles but are not charged to the tenant's
    // fairness ledger — the duplicate is the runtime's choice, not theirs.
    report_.resilience.hedges += 1;
    report_.series.count("hedges", t0);
  }
  if (elog_on()) {
    obs::Json rec = ev_base(hedge_of == 0 ? "dispatched" : "hedge", r);
    rec.set("dispatch", id);
    if (hedge_of != 0) rec.set("parent", hedge_of);
    rec.set("lane", std::uint64_t{lane_idx});
    if (hedge_of == 0) {
      rec.set("wait", t0 - r.arrival_cycle);
      if (r.attempts > 0) rec.set("attempt", std::uint64_t{r.attempts});
    }
    if (is_probe) rec.set("probe", true);
    if (hedge_of == 0 && r.proto_id != 0) {
      // DAG linkage: the fan-out tests read these to check that sibling
      // limb ops landed on distinct lanes.
      rec.set("proto", r.proto_id);
      rec.set("op", std::uint64_t{r.op_index});
      rec.set("cls", op_class_name(r.op_class));
      if (r.fanout_group != 0) rec.set("group", std::uint64_t{r.fanout_group});
    }
    event_log_->log(std::move(rec));
  }
  auto& tr = obs::tracer();
  if (tr.enabled()) {
    // Flow chain anchor: first dispatch starts the request's arrow
    // chain; re-dispatches (retries) and hedge duplicates continue it.
    tr.flow(hedge_of == 0 && r.attempts == 0 ? 's' : 't', r.id, lane.track,
            "req " + std::to_string(r.id), "flow", t0);
  }
  InFlight inf;
  inf.request = std::move(r);
  inf.lane = lane_idx;
  inf.dispatched_at = t0;
  inf.is_probe = is_probe;
  inf.corrupt = resilience_on_ && t0 < lane.corrupt_until;
  inf.chip_corrupt = t0 < chip_corrupt_until_;
  inf.is_hedge = hedge_of != 0;
  inf.hedge_partner = hedge_of;
  add_in_flight(id, std::move(inf), t0 + service);

  if (hedge_of == 0 && resilience_on_ && cfg_.resilience.hedge) {
    // Straggler check: if the request is still running after the hedge
    // delay, duplicate it onto a second lane (first result wins). The
    // check lands after the nominal completion only when the lane is
    // chaos-slowed — exactly the straggler case hedging targets.
    const ResilienceConfig& res = cfg_.resilience;
    const std::uint64_t delay =
        hedge_delay_cycles(res.hedge_delay_us, cfg_.cycles_per_us(),
                           res.hedge_min_samples, service_hist_);
    if (delay > 0) {
      Event he;
      he.cycle = t0 + delay;
      he.kind = EventKind::kHedge;
      he.dispatch_id = id;
      events_.push(std::move(he));
    }
  }
  return id;
}

void ServingRuntime::add_in_flight(std::uint64_t id, InFlight inf,
                                   std::uint64_t done_at) {
  if (inf.request.proto_id != 0) {
    proto_flights_.emplace(inf.request.proto_id, id);  // ids only grow
  }
  in_flight_.emplace(id, std::move(inf));
  Event e;
  e.cycle = done_at;
  e.kind = EventKind::kCompletion;
  e.dispatch_id = id;
  events_.push(std::move(e));
}

std::map<std::uint64_t, ServingRuntime::InFlight>::iterator
ServingRuntime::erase_in_flight(
    std::map<std::uint64_t, InFlight>::iterator it) {
  if (const std::uint64_t pid = it->second.request.proto_id; pid != 0) {
    const auto [lo, hi] = proto_flights_.equal_range(pid);
    proto_flights_.erase(std::find_if(
        lo, hi, [id = it->first](const auto& kv) { return kv.second == id; }));
  }
  return in_flight_.erase(it);
}

void ServingRuntime::dispatch_host(Request r) {
  // A laneless host op (sampling / aggregation): fixed cycle cost, no
  // bank accounting, no tenant fairness charge, no hedging or chaos —
  // the host is outside the crossbar fault domain.
  const std::uint64_t t0 = now_;
  const std::uint64_t id = next_dispatch_id_++;
  report_.protocol.host_ops += 1;
  report_.series.count("dispatched", t0);
  report_.series.observe("queue_wait_cycles", t0, t0 - r.arrival_cycle);
  if (elog_on()) {
    obs::Json rec = ev_base("dispatched", r);
    rec.set("dispatch", id);
    rec.set("host", true);
    rec.set("wait", t0 - r.arrival_cycle);
    rec.set("proto", r.proto_id);
    rec.set("op", std::uint64_t{r.op_index});
    rec.set("cls", op_class_name(r.op_class));
    event_log_->log(std::move(rec));
  }
  const std::uint64_t service = std::max<std::uint64_t>(r.service_cycles, 1);
  InFlight inf;
  inf.request = std::move(r);
  inf.lane = kHostLane;
  inf.dispatched_at = t0;
  add_in_flight(id, std::move(inf), t0 + service);
}

void ServingRuntime::on_op_complete(const Request& r,
                                    std::uint64_t dispatched_at) {
  const auto it = protos_.find(r.proto_id);
  if (it == protos_.end()) return;  // proto already failed: straggler op
  ProtoState& st = it->second;
  const std::uint64_t bit = std::uint64_t{1} << r.op_index;
  if (st.done_mask & bit) return;  // hedge twin already delivered this op
  st.done_mask |= bit;
  st.ops_done += 1;
  report_.protocol.ops_completed += 1;
  report_.protocol.op_cycles[static_cast<unsigned>(r.op_class)].add(
      now_ - dispatched_at);
  if (st.ops_done < st.op_count) {
    // Children whose last parent this was become ready; the caller's
    // try_dispatch dispatches them.
    queue_.update_proto(r.proto_id, /*live=*/true, st.done_mask);
    return;
  }

  // Final op: the DAG joins and the protocol request completes exactly
  // once. Verified requests run the whole flow through the backend here
  // and compare against the pure-host reference.
  const ProtoState done = std::move(st);
  protos_.erase(it);
  // Any op copy still queued is an orphan now, exactly as for a failed
  // protocol: it never becomes ready again.
  queue_.update_proto(r.proto_id, /*live=*/false, 0);
  const std::uint64_t latency = now_ - done.origin.arrival_cycle;
  report_.protocol.completed += 1;
  report_.protocol.latency_cycles.add(latency);
  report_.slo.record_good(now_, latency);
  bool ok = true;
  if (done.origin.verify && proto_harness_) {
    report_.protocol.joins += 1;
    ok = proto_harness_->verify(done.origin.data_seed);
    if (ok) {
      report_.verified += 1;
    } else {
      report_.protocol.join_mismatches += 1;
      report_.verify_failures += 1;
    }
  }
  if (elog_on()) {
    obs::Json rec = ev_base("join", done.origin);
    rec.set("proto", done.origin.id + 1);
    rec.set("ops", std::uint64_t{done.op_count});
    rec.set("latency", latency);
    rec.set("ok", ok);
    event_log_->log(std::move(rec));
  }
  emit_outcome(done.origin, Outcome::kCompleted);
}

void ServingRuntime::fail_protocol(std::uint64_t proto_id, Outcome o) {
  const auto it = protos_.find(proto_id);
  if (it == protos_.end()) return;  // already terminal: exactly-once guard
  const ProtoState st = std::move(it->second);
  protos_.erase(it);
  // Cancel every sibling op still queued or in flight; the op that died
  // already recorded its own bad-outcome counters.
  std::uint64_t cancelled = queue_.erase_proto(proto_id);
  const auto [lo, hi] = proto_flights_.equal_range(proto_id);
  std::vector<std::uint64_t> flights;  // ascending dispatch id
  for (auto p = lo; p != hi; ++p) flights.push_back(p->second);
  for (const std::uint64_t id : flights) {
    const auto f = in_flight_.find(id);
    if (f->second.lane != kHostLane) {
      Lane& lane = lanes_[f->second.lane];
      lane.in_flight -= 1;
      if (resilience_on_ && f->second.is_probe) {
        // Same hazard as cancel_in_flight: a cancelled half-open probe
        // reports no outcome and would wedge the breaker.
        lane.breaker.note_cancelled(now_);
      }
    }
    cancelled += 1;
    erase_in_flight(f);  // its kCompletion event will find nothing
  }
  report_.protocol.ops_cancelled += cancelled;
  report_.protocol.failed += 1;
  if (elog_on()) {
    obs::Json rec = ev_base("proto_failed", st.origin);
    rec.set("proto", st.origin.id + 1);
    rec.set("ops_cancelled", cancelled);
    event_log_->log(std::move(rec));
  }
  emit_outcome(st.origin, o);
}

void ServingRuntime::handle_completion(const Event& e) {
  const auto it = in_flight_.find(e.dispatch_id);
  if (it == in_flight_.end()) return;  // cancelled (bank failure / hedge)
  const InFlight inf = std::move(it->second);
  erase_in_flight(it);
  if (inf.lane == kHostLane) {
    complete(inf, e.dispatch_id);
    return;
  }
  Lane& lane = lanes_[inf.lane];
  lane.in_flight -= 1;

  const Request& r = inf.request;

  if (resilience_on_) {
    service_hist_.add(now_ - inf.dispatched_at);
    // Hedged pair: first result wins, the loser is cancelled.
    if (inf.hedge_partner != 0) {
      cancel_in_flight(inf.hedge_partner);
      if (inf.is_hedge) report_.resilience.hedge_wins += 1;
    }
  }
  // Detected corruption, never delivered as good: the layered checks of
  // the reliability stack (write-verify, parity, Freivalds) catch a
  // chaos/wear-corrupted result, and a whole-chip corruption storm's
  // result irrespective of the per-lane resilience layer. The chip's own
  // retries get a shot when resilience is on; otherwise (or once
  // exhausted) the request fails — for a storm, surrendered to the fleet
  // for a cross-chip retry.
  const bool storm = inf.chip_corrupt;
  if (storm ||
      (resilience_on_ && inf.corrupt && cfg_.resilience.chaos_detect)) {
    (storm ? report_.chip_corruptions
           : report_.resilience.detected_corruptions) += 1;
    if (elog_on()) {
      obs::Json rec = ev_base(
          storm ? "chip_corruption_detected" : "corruption_detected", r);
      rec.set("dispatch", e.dispatch_id);
      rec.set("lane", std::uint64_t{inf.lane});
      event_log_->log(std::move(rec));
    }
    if (resilience_on_) {
      record_lane_outcome(lane, inf.lane, false);
      if (lane.draining && lane.in_flight == 0) {
        remap_drained_lane(lane, inf.lane);
      }
    }
    if (!resilience_on_ || !schedule_retry(r, /*count_as_bank_retry=*/false)) {
      finish_bad(r, Outcome::kFailed,
                 storm ? report_.chip_failed : report_.resilience.failed);
    }
    try_dispatch();
    return;
  }
  if (resilience_on_) {
    if (inf.corrupt) {
      // Detection disabled: the corrupt result sails through as if good
      // (this counter existing at zero is what proves the checks work).
      report_.resilience.wrong_accepted += 1;
    }
    record_lane_outcome(lane, inf.lane, /*ok=*/true);
  }
  complete(inf, e.dispatch_id);
}

void ServingRuntime::complete(const InFlight& inf, std::uint64_t dispatch_id) {
  const Request& r = inf.request;
  const bool host = inf.lane == kHostLane;
  const std::uint64_t latency = now_ - r.arrival_cycle;
  report_.completed += 1;
  report_.latency_cycles.add(latency);
  report_.series.count("completed", now_);
  report_.series.observe("latency_cycles", now_, latency);
  // A protocol request meets or misses its SLO once, at the join.
  if (r.proto_id == 0) report_.slo.record_good(now_, latency);
  TenantStats& ts = report_.tenants.at(r.tenant);
  ts.completed += 1;
  ts.latency_cycles.add(latency);
  if (r.deadline_cycle > 0 && now_ > r.deadline_cycle) {
    report_.deadline_misses += 1;
    ts.deadline_misses += 1;
  }
  if (elog_on()) {
    obs::Json rec = ev_base("completed", r);
    rec.set("dispatch", dispatch_id);
    if (host) {
      rec.set("host", true);
    } else {
      rec.set("lane", std::uint64_t{inf.lane});
    }
    rec.set("latency", latency);
    if (inf.is_hedge) rec.set("hedge", true);
    event_log_->log(std::move(rec));
  }
  if (!host) {
    Lane& lane = lanes_[inf.lane];
    auto& tr = obs::tracer();
    if (tr.enabled()) {
      tr.emit(lane.track,
              "req " + std::to_string(r.id) + " t" + std::to_string(r.tenant),
              "runtime", inf.dispatched_at, now_ - inf.dispatched_at);
      // Terminal point of the request's flow-arrow chain.
      tr.flow('f', r.id, lane.track, "req " + std::to_string(r.id), "flow",
              now_);
    }
    // DAG ops verify at the protocol join (the whole flow through the
    // backend), not per-op with Freivalds.
    if (r.verify && r.proto_id == 0) verify_result(r);
    if (resilience_on_ && lane.draining && lane.in_flight == 0) {
      remap_drained_lane(lane, inf.lane);
    }
  }
  if (r.proto_id != 0) {
    on_op_complete(r, inf.dispatched_at);
  } else {
    emit_outcome(r, Outcome::kCompleted);
  }
  try_dispatch();
}

void ServingRuntime::finish_bad(const Request& r, Outcome o,
                                std::uint64_t& counter,
                                std::uint64_t sojourn) {
  const char* name = outcome_name(o);
  counter += 1;
  report_.series.count(name, now_);
  report_.slo.record_bad(now_);
  if (elog_on()) {
    obs::Json rec = ev_base(name, r);
    if (o == Outcome::kShed) rec.set("sojourn", sojourn);
    event_log_->log(std::move(rec));
  }
  if (r.proto_id != 0) {
    // One op dead takes its whole protocol down: siblings are useless.
    fail_protocol(r.proto_id, o);
  } else {
    emit_outcome(r, o);
  }
}

void ServingRuntime::handle_bank_failure(const Event&) {
  report_.bank_failures += cfg_.fail_banks;
  failed_banks_ += cfg_.fail_banks;
  report_.series.count("bank_failures", now_, cfg_.fail_banks);
  if (elog_on()) {
    obs::Json rec = ev_control("bank_failure");
    rec.set("banks", std::uint64_t{cfg_.fail_banks});
    event_log_->log(std::move(rec));
  }

  // Deterministic victim: the failure strikes the busiest live lane (most
  // in-flight work, lowest index on ties) — its in-flight requests retry
  // from the queue and the lane pays a repartition to remap onto a spare
  // (or is torn down once the chip shrank below its footprint).
  auto pick_victim = [this]() -> Lane* {
    Lane* victim = nullptr;
    for (Lane& lane : lanes_) {
      if (lane.dead) continue;
      if (!victim || lane.in_flight > victim->in_flight) victim = &lane;
    }
    return victim;
  };

  // Requeue one torn-down in-flight request. Under the resilience layer
  // a victim with a live hedged twin is simply dropped (the twin still
  // delivers), and teardown retries flow through the backoff + budget
  // path so repeated failures cannot amplify into a storm.
  auto requeue_victim = [this](const InFlight& inf) {
    if (inf.request.proto_id != 0 &&
        !protos_.contains(inf.request.proto_id)) {
      return;  // its protocol was already torn down whole this failure
    }
    if (elog_on()) {
      obs::Json rec = ev_base("torn_down", inf.request);
      rec.set("lane", std::uint64_t{inf.lane});
      event_log_->log(std::move(rec));
    }
    if (resilience_on_ && inf.is_probe) {
      // The teardown cancels the breaker's half-open probe with no
      // outcome; reset it or the lane (which may re-form on a spare)
      // wedges half-open, refusing work forever. The later try_dispatch
      // arms the open-period wake-up via acquire_lane.
      lanes_[inf.lane].breaker.note_cancelled(now_);
    }
    if (resilience_on_ && inf.hedge_partner != 0 &&
        in_flight_.count(inf.hedge_partner) != 0) {
      return;
    }
    if (resilience_on_ && cfg_.resilience.max_retries > 0) {
      if (!schedule_retry(inf.request, /*count_as_bank_retry=*/true)) {
        finish_bad(inf.request, Outcome::kFailed, report_.resilience.failed);
      }
      return;
    }
    enqueue(inf.request);
    report_.retried += 1;
    report_.series.count("retries", now_);
  };

  // Torn-down entries are removed from in_flight_ *before* any requeue
  // runs: a protocol-op requeue that exhausts its retries tears the whole
  // protocol down (fail_protocol erases sibling in_flight_ entries), so
  // requeueing while iterating the map would invalidate the iterator.
  // Hedged twins always sit on distinct lanes, so a same-sweep pair is
  // impossible and the first-wins drop logic is unaffected.
  auto tear_down_lane = [this, &requeue_victim](std::size_t lane_idx) {
    std::vector<InFlight> torn;
    for (auto it = in_flight_.begin(); it != in_flight_.end();) {
      if (it->second.lane == lane_idx) {
        torn.push_back(std::move(it->second));
        it = erase_in_flight(it);
      } else {
        ++it;
      }
    }
    for (const InFlight& inf : torn) requeue_victim(inf);
  };

  // The first victim remaps onto a spare while one is left; keep tearing
  // lanes down for good while the pool (several banks may fail at once)
  // is below what is still allocated.
  for (bool first = true; first || allocated_banks_ > usable_banks();
       first = false) {
    Lane* victim = pick_victim();
    if (!victim) break;
    tear_down_lane(static_cast<std::size_t>(victim - lanes_.data()));
    victim->in_flight = 0;
    report_.repartitions += 1;
    auto& tr = obs::tracer();
    if (first && tr.enabled()) {
      tr.emit(runtime_track_base(), "bank failure", "runtime", now_,
              cfg_.repartition_cycles);
    }
    if (allocated_banks_ > usable_banks()) {
      // Beyond the spare pool: the lane's banks are gone for good.
      victim->dead = true;
      allocated_banks_ -= victim->banks;
    } else {
      // A spare absorbed the failure; the lane re-forms after the remap.
      victim->free_at = std::max(victim->free_at, now_) +
                        cfg_.repartition_cycles;
      schedule_scan(victim->free_at);
    }
  }
  try_dispatch();
}

void ServingRuntime::verify_result(const Request& r) {
  // Materialise the operands from the request's seed, produce the result
  // through the configured execution backend, and Freivalds-check it.
  // The analytic tier returns no functional result, so there is nothing
  // to verify; a degree without a paper parameter set (above 32k:
  // segmented execution) is skipped. Parameter sets are cached per
  // degree class; the backend caches its engines/simulators internally.
  if (!backend_ || !backend_->functional()) return;
  thread_local std::map<std::uint32_t, std::unique_ptr<ntt::NttParams>> cache;
  auto it = cache.find(r.degree);
  if (it == cache.end()) {
    try {
      it = cache.emplace(r.degree, std::make_unique<ntt::NttParams>(
                                       ntt::NttParams::for_degree(r.degree)))
               .first;
    } catch (const std::exception&) {
      cache.emplace(r.degree, nullptr);
      return;
    }
  }
  if (!it->second) return;
  const ntt::NttParams& params = *it->second;

  Xoshiro256 rng(r.data_seed);
  const auto a = ntt::sample_uniform(params.n, params.q, rng);
  const auto b = ntt::sample_uniform(params.n, params.q, rng);
  const auto res = backend_->execute(params, a, b);
  reliability::VerifyConfig vc;
  vc.points = cfg_.verify_points;
  vc.seed = r.data_seed ^ 0x5eed5eedULL;
  reliability::ResultVerifier verifier(params, vc);
  if (verifier.check(a, b, res.product)) {
    report_.verified += 1;
  } else {
    report_.verify_failures += 1;
  }
}

// -- resilience ---------------------------------------------------------------

void ServingRuntime::handle_timeout(const Event& e) {
  // Queued-timeout cancellation: the deadline passed while the request
  // sat in the admission queue. A dispatched request is past saving by
  // cancellation (the lane slot is spent either way) so it is left to
  // complete and count a deadline miss.
  const AdmissionQueue::Entry* queued = queue_.find_id(e.dispatch_id);
  if (queued == nullptr) return;
  // One op past its deadline times the whole protocol out.
  finish_bad(queue_.take(*queued), Outcome::kTimedOut,
             report_.resilience.timed_out);
}

void ServingRuntime::handle_retry_enqueue(const Event& e) {
  // Retries re-enter the queue past the capacity check: the request was
  // already admitted (and counted) once; capacity governs new work.
  if (e.request.proto_id != 0 && !protos_.contains(e.request.proto_id)) {
    return;  // its protocol was torn down while the retry backed off
  }
  enqueue(e.request);
  try_dispatch();
}

void ServingRuntime::handle_hedge(const Event& e) {
  const auto it = in_flight_.find(e.dispatch_id);
  if (it == in_flight_.end()) return;        // finished before the check
  if (it->second.is_hedge) return;           // never hedge a hedge
  if (it->second.hedge_partner != 0) return;  // already hedged
  // Only a lane that is free *right now* and distinct from the
  // straggler's own: a hedge that would queue is worthless.
  Lane* lane = acquire_lane(it->second.request.degree, {it->second.lane},
                            /*allow_scan=*/false);
  if (!lane) return;
  it->second.hedge_partner = launch(it->second.request, *lane, e.dispatch_id);
}

void ServingRuntime::handle_health(const Event&) {
  health_tick_armed_ = false;
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    Lane& lane = lanes_[i];
    if (lane.dead) continue;
    if (health_ && health_->wants_drain(i)) lane.draining = true;
    if (lane.draining && lane.in_flight == 0) {
      remap_drained_lane(lane, i);
      continue;
    }
    // Background scrub: an unhealthy lane with nothing in flight and no
    // imminent work re-programs its cells during the idle window. Scrubs
    // forgive transient failure history; they cannot un-wear a column.
    if (health_ && health_->wants_scrub(i) && lane.in_flight == 0 &&
        lane.free_at <= now_) {
      lane.free_at = now_ + cfg_.resilience.scrub_cycles;
      health_->on_scrub(i);
      report_.resilience.scrubs += 1;
      auto& tr = obs::tracer();
      if (tr.enabled()) {
        tr.emit(lane.track, "scrub", "resilience", now_,
                cfg_.resilience.scrub_cycles);
      }
    }
  }
  // Keep ticking while the simulation is live; stop once arrivals are
  // done and the pipes have drained so the event loop can terminate. A
  // backlog alone is not liveness: requests stranded by degradation
  // (their class's footprint exceeds the surviving banks) can never
  // dispatch, and ticking for them would spin forever — run() surfaces
  // them as `queued` instead.
  bool pending_servable = false;
  for (const auto& [degree, count] : queue_.degree_counts()) {
    if (geometry_for(cfg_.chip, degree).banks <= usable_banks()) {
      pending_servable = true;
      break;
    }
  }
  if (now_ < horizon_ || !in_flight_.empty() || pending_servable) {
    arm_health_tick(cfg_.resilience.health_period_cycles);
  }
}

void ServingRuntime::handle_chaos(const Event&) {
  const ChaosConfig& ch = cfg_.resilience.chaos;
  std::vector<std::size_t> live;
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    if (!lanes_[i].dead) live.push_back(i);
  }
  if (!live.empty()) {
    const std::size_t idx =
        live[chaos_rng_.next_below(live.size())];
    Lane& lane = lanes_[idx];
    const std::uint64_t dur = exponential_cycles(
        chaos_rng_, ch.mean_duration_us * cfg_.cycles_per_us());
    const bool slow = uniform_unit(chaos_rng_) < ch.slow_fraction;
    if (slow) {
      lane.slow_until = std::max(lane.slow_until, now_ + dur);
    } else if (lane.corrupt_until != kForever) {
      lane.corrupt_until = std::max(lane.corrupt_until, now_ + dur);
    }
    report_.resilience.chaos_episodes += 1;
    auto& tr = obs::tracer();
    if (tr.enabled()) {
      tr.emit(lane.track, slow ? "chaos: slow" : "chaos: corrupt",
              "resilience", now_, dur);
    }
  }
  arm_chaos_episode();
}

bool ServingRuntime::schedule_retry(Request r, bool count_as_bank_retry) {
  if (r.attempts >= cfg_.resilience.max_retries) return false;
  const std::uint64_t backoff =
      backoff_cycles(cfg_.resilience.retry_backoff_cycles,
                     cfg_.resilience.retry_backoff_cap_cycles, r.attempts + 1);
  // A retry that cannot finish by the deadline is not worth a token.
  if (r.deadline_cycle > 0 &&
      now_ + backoff + r.service_cycles > r.deadline_cycle) {
    return false;
  }
  if (retry_budget_ && !retry_budget_->try_spend(r.tenant)) {
    report_.resilience.retry_budget_denied += 1;
    return false;
  }
  r.attempts += 1;
  report_.resilience.retries += 1;
  report_.series.count("retries", now_);
  if (count_as_bank_retry) report_.retried += 1;
  if (elog_on()) {
    obs::Json rec = ev_base("retry", r);
    rec.set("attempt", std::uint64_t{r.attempts});
    rec.set("backoff", backoff);
    event_log_->log(std::move(rec));
  }
  Event e;
  e.cycle = now_ + backoff;
  e.kind = EventKind::kRetryEnqueue;
  e.request = std::move(r);
  events_.push(std::move(e));
  return true;
}

void ServingRuntime::record_lane_outcome(Lane& lane, std::size_t lane_idx,
                                         bool ok) {
  if (health_) health_->record_verify(lane_idx, ok);
  if (!lane.breaker.enabled()) return;
  const auto prev = lane.breaker.state();
  if (lane.breaker.record(ok, now_)) report_.resilience.breaker_opens += 1;
  if (ok && prev == CircuitBreaker::State::kHalfOpen) {
    report_.resilience.breaker_closes += 1;
  }
  if (lane.breaker.state() == CircuitBreaker::State::kOpen) {
    // Re-scan when the open period elapses so queued work in this class
    // is not stranded if this was its only lane.
    schedule_scan(lane.breaker.open_until());
  }
}

void ServingRuntime::cancel_in_flight(std::uint64_t dispatch_id) {
  const auto it = in_flight_.find(dispatch_id);
  if (it == in_flight_.end()) return;  // already gone
  Lane& lane = lanes_[it->second.lane];
  lane.in_flight -= 1;
  const std::size_t lane_idx = it->second.lane;
  const bool was_probe = it->second.is_probe;
  if (elog_on()) {
    obs::Json rec = ev_base("cancelled", it->second.request);
    rec.set("dispatch", dispatch_id);
    rec.set("lane", std::uint64_t{lane_idx});
    event_log_->log(std::move(rec));
  }
  erase_in_flight(it);  // its kCompletion event will find nothing
  report_.resilience.hedge_cancelled += 1;
  if (was_probe) {
    // A cancelled half-open probe reports no outcome; without this the
    // breaker waits for it forever and the lane never accepts again.
    lane.breaker.note_cancelled(now_);
    if (!lane.breaker.can_accept(now_)) {
      schedule_scan(lane.breaker.open_until());
    }
  }
  if (lane.draining && lane.in_flight == 0) {
    remap_drained_lane(lane, lane_idx);
  }
}

void ServingRuntime::remap_drained_lane(Lane& lane, std::size_t lane_idx) {
  lane.draining = false;
  lane.slow_until = 0;
  lane.corrupt_until = 0;
  lane.free_at = std::max(lane.free_at, now_) + cfg_.repartition_cycles;
  lane.breaker = CircuitBreaker(cfg_.resilience.breaker_k,
                                cfg_.resilience.breaker_open_cycles);
  if (health_) health_->on_remap(lane_idx);
  report_.resilience.proactive_remaps += 1;
  report_.repartitions += 1;
  schedule_scan(lane.free_at);
  auto& tr = obs::tracer();
  if (tr.enabled()) {
    tr.emit(runtime_track_base(), "wear remap lane " + std::to_string(lane_idx),
            "resilience", now_, cfg_.repartition_cycles);
  }
}

void ServingRuntime::arm_health_tick(std::uint64_t delay) {
  if (health_tick_armed_) return;
  health_tick_armed_ = true;
  Event e;
  // A zero period would pop and re-arm in an infinite same-cycle loop
  // (the livelock schedule_scan guards against); tick next cycle at the
  // earliest.
  e.cycle = now_ + std::max<std::uint64_t>(delay, 1);
  e.kind = EventKind::kHealth;
  events_.push(std::move(e));
}

void ServingRuntime::arm_chaos_episode() {
  // Episodes strike only within the arrival horizon; the drain phase
  // runs fault-free so the event loop terminates.
  const std::uint64_t gap = exponential_cycles(
      chaos_rng_, cfg_.resilience.chaos.mean_interval_us * cfg_.cycles_per_us());
  const std::uint64_t at = now_ + gap;
  if (at > horizon_) return;
  Event e;
  e.cycle = at;
  e.kind = EventKind::kChaos;
  events_.push(std::move(e));
}

}  // namespace cryptopim::runtime
