#include "ledger.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>

#include "common/rng.h"
#include "ntt/ntt.h"
#include "ntt/params.h"
#include "ntt/poly.h"
#include "ntt/word_ntt.h"
#include "obs/event_log.h"
#include "reliability/verifier.h"
#include "runtime/backend.h"
#include "runtime/event_queue.h"
#include "runtime/journal.h"
#include "runtime/policy.h"
#include "runtime/workload.h"
#include "sim/simulator.h"

namespace perfbench {

namespace {

namespace ntt = cryptopim::ntt;
namespace obs = cryptopim::obs;
using cryptopim::Xoshiro256;
using Clock = std::chrono::steady_clock;

const std::vector<std::uint32_t> kNttDegrees = {256, 1024, 4096, 16384};
const std::vector<std::uint32_t> kGateDegrees = {256, 1024, 4096};
/// Wall cycles of one gate-level multiply, pinned by the paper's Table I
/// and Fig. 4-6 reproduction (tests/test_kat.cc, test_reliability.cc).
const std::map<std::uint32_t, std::uint64_t> kPinnedMulCycles = {
    {256, 44321}, {512, 54716}, {1024, 60096}};

/// Keeps replayed results observable so their calls are not elided.
volatile std::size_t g_sink = 0;

/// Median host nanoseconds of one call of `fn`, timed in batches of
/// calls that each last about a millisecond, for about `budget_s` and at
/// least `min_batches` batches.
template <class F>
double per_call_ns(Spans& sp, const std::string& name, double budget_s,
                   F&& fn, std::size_t min_batches = 5) {
  Scope span(&sp, name);
  fn();  // warm caches and lazy set-up
  auto t = Clock::now();
  fn();
  const double one_ns =
      std::max(1.0, std::chrono::duration<double, std::nano>(Clock::now() - t)
                        .count());
  const auto batch = static_cast<std::size_t>(std::max(1.0, 1e6 / one_ns));
  std::vector<double> samples;
  const auto t0 = Clock::now();
  while (samples.size() < min_batches ||
         (std::chrono::duration<double>(Clock::now() - t0).count() < budget_s &&
          samples.size() < 2000)) {
    t = Clock::now();
    for (std::size_t i = 0; i < batch; ++i) fn();
    samples.push_back(
        std::chrono::duration<double, std::nano>(Clock::now() - t).count() /
        static_cast<double>(batch));
  }
  return median(samples);
}

struct Operands {
  ntt::NttParams params;
  ntt::Poly a, b;
};

Operands operands(std::uint32_t n, std::uint64_t seed) {
  Operands o{ntt::NttParams::for_degree(n), {}, {}};
  Xoshiro256 rng(seed ^ (0x9e3779b97f4a7c15ull * n));
  o.a = ntt::sample_uniform(n, o.params.q, rng);
  o.b = ntt::sample_uniform(n, o.params.q, rng);
  return o;
}

std::string tag(std::uint32_t n) { return ".n" + std::to_string(n); }

/// The schedule part of a repetition's fingerprint: what must not change
/// when the data path is switched off.
std::string schedule_fingerprint(const RepResult& r) {
  std::string fp;
  for (SimOutcome s : r.sims) {
    s.verified = s.verify_failures = 0;
    s.verified_by_degree.clear();
    fp += s.fingerprint() + ';';
  }
  return fp;
}

/// Lines and bytes of the files named *suffix in each instance's
/// directory `sub`.
std::pair<std::uint64_t, std::uint64_t> lines_and_bytes(
    const Workload& w, const std::string& sub, const std::string& suffix) {
  std::uint64_t lines = 0, bytes = 0;
  for (std::size_t i = 0; i < w.seeds.size(); ++i) {
    std::error_code ec;  // a missing directory holds no files
    for (const auto& f :
         std::filesystem::directory_iterator(w.instance_dir(i) + sub, ec)) {
      if (!f.path().string().ends_with(suffix)) continue;
      std::ifstream in(f.path(), std::ios::binary);
      for (std::string line; std::getline(in, line);) {
        lines += 1;
        bytes += line.size() + 1;
      }
    }
  }
  return {lines, bytes};
}

/// The merged event count of a journaled fleet repetition: the indices
/// carried by the seal records that close each instance's fleet.log.
std::uint64_t fleet_events(const Workload& w) {
  std::uint64_t events = 0;
  for (std::size_t i = 0; i < w.seeds.size(); ++i) {
    std::ifstream in(w.instance_dir(i) + "/journal/fleet.log");
    std::string line, last;
    while (std::getline(in, line)) last = line;
    const auto at = last.find("\"t\":\"seal\",\"i\":");
    if (at != std::string::npos) events += std::stoull(last.substr(at + 15));
  }
  return events;
}

}  // namespace

std::vector<std::string> check_products(std::uint64_t seed) {
  std::vector<std::string> bad;
  for (const std::uint32_t n : kNttDegrees) {
    const Operands o = operands(n, seed);
    const auto word =
        ntt::WordNttEngine(o.params).negacyclic_multiply(o.a, o.b);
    const auto gs = ntt::GsNttEngine(o.params).negacyclic_multiply(o.a, o.b);
    const auto school = ntt::schoolbook_negacyclic(o.a, o.b, o.params.q);
    if (word != gs) bad.push_back("word != Gs product" + tag(n));
    if (word != school) bad.push_back("word != schoolbook product" + tag(n));
    cryptopim::reliability::ResultVerifier v(o.params, {2, seed});
    if (!v.check(o.a, o.b, word)) bad.push_back("Freivalds rejects" + tag(n));
  }
  const Operands o = operands(256, seed);
  cryptopim::sim::CryptoPimSimulator simulator(o.params);
  const auto gate = simulator.multiply(o.a, o.b);
  if (gate != ntt::WordNttEngine(o.params).negacyclic_multiply(o.a, o.b)) {
    bad.push_back("gate != word product.n256");
  }
  if (simulator.report().wall_cycles != kPinnedMulCycles.at(256)) {
    bad.push_back("gate wall cycles.n256 off the pinned value");
  }
  return bad;
}

RunResult run_ledger(const Workload& w, std::uint64_t seed, double seconds,
                     const std::string& spans_path) {
  RunResult out;
  Spans sp(w.name);
  const auto add = [&out](const std::string& name, double value,
                          const char* unit) {
    out.metrics.push_back({name, value, unit});
  };
  const auto bad = [&out](const std::string& what) {
    out.wrong.push_back(what);
  };
  const auto vet = [&](const SimOutcome& s, const std::string& variant) {
    for (const auto& p : s.problems()) bad(variant + ": " + p);
  };

  // -- differential repetitions (untraced, interleaved) -----------------------
  // Each variant toggles public config only. Switching the data path off
  // must leave the schedule unchanged, and every variant must repeat
  // exactly across its repetitions.
  const bool data_path = !w.fleet && w.chip.backend != "analytic" &&
                         w.chip.workload.verify_every > 0;
  std::vector<std::pair<std::string, Variant>> variants = {{"full", {}}};
  if (data_path) variants.push_back({"no_data_path", {false, true, true}});
  if (w.fleet) {
    variants.push_back({"no_journal", {true, false, true}});
    variants.push_back({"no_event_log", {true, true, false}});
    variants.push_back({"bare", {true, false, false}});
  }
  std::map<std::string, std::vector<double>> host;
  std::map<std::string, std::string> reference;
  std::vector<double> to_json_s;
  RepResult full_rep;
  {
    Scope diff(&sp, "ledger.differential");
    const auto t0 = Clock::now();
    for (int round = 0;
         round < 3 ||
         std::chrono::duration<double>(Clock::now() - t0).count() <
             0.5 * seconds;
         ++round) {
      for (const auto& [name, variant] : variants) {
        Scope rep(&sp, "ledger.diff." + name);
        const RepResult r = run_rep(w, variant);
        host[name].push_back(r.host_s);
        vet(r.totals(), name);
        out.attempted += r.totals().submitted;
        const std::string fp = r.fingerprint();
        if (round == 0) reference[name] = fp;
        if (fp != reference[name]) bad(name + ": simulated run not repeatable");
        if (name == "full") {
          to_json_s.push_back(r.to_json_s);
          full_rep = r;
        }
        if (name == "no_data_path" &&
            schedule_fingerprint(r) != schedule_fingerprint(full_rep)) {
          bad("switching the data path off changed the schedule");
        }
      }
    }
  }

  // -- one traced repetition --------------------------------------------------
  RepResult traced;
  {
    Scope span(&sp, "ledger.traced");
    traced = run_rep(w, {}, &sp);
  }
  vet(traced.totals(), "traced");
  if (traced.fingerprint() != reference["full"]) {
    bad("traced repetition differs from the untraced ones");
  }
  out.attempted += traced.totals().submitted;
  const SimOutcome full = full_rep.totals();

  const double host_s = median(host["full"]);
  const double tj = median(to_json_s);
  const auto completed = static_cast<double>(std::max<std::uint64_t>(
      full.completed, 1));

  // -- runtime: the traced step loop ------------------------------------------
  std::uint64_t events = traced.events;
  if (w.fleet) events = fleet_events(w);
  add("runtime.events", static_cast<double>(events), "count");
  add("runtime.events_per_completion", static_cast<double>(events) / completed,
      "count");
  add("runtime.arrival_step_s", sp.self_s("runtime.step.arrival"), "s");
  add("runtime.completion_step_s", sp.self_s("runtime.step.completion"), "s");
  add("runtime.other_step_s", sp.self_s("runtime.step.other"), "s");
  add("runtime.backlog_mean",
      traced.events ? static_cast<double>(traced.backlog_sum) /
                          static_cast<double>(traced.events)
                    : 0.0,
      "count");
  add("runtime.seal_s", sp.self_s("runtime.seal"), "s");

  // -- replays: runtime -------------------------------------------------------
  Xoshiro256 rng(seed ^ 0x243f6a8885a308d3ull);
  const double budget = 0.08;
  {
    Scope replay(&sp, "ledger.replay");
    const auto policy = rt::make_policy(w.chip.policy);
    std::vector<double> usage(
        std::max<std::uint32_t>(w.chip.workload.tenants, 1));
    for (auto& u : usage) u = static_cast<double>(rng.next_below(1u << 20));
    for (const std::size_t b : {128u, 1024u, 4096u}) {
      std::vector<rt::Request> queue;
      for (std::size_t i = 0; i < b; ++i) {
        auto r = rt::sample_request(w.chip.workload, rng, i);
        r.arrival_cycle = i;
        r.service_cycles = 1000 + r.degree;
        queue.push_back(r);
      }
      const std::vector<bool> eligible(b, true);
      rt::PolicyContext ctx{b, usage};
      add("runtime.policy.pick_ns.b" + std::to_string(b),
          per_call_ns(sp, "replay.runtime.policy.pick.b" + std::to_string(b),
                      budget,
                      [&] { g_sink = policy->pick(queue, eligible, ctx); }),
          "ns");
    }
    for (const std::size_t q : {1024u, 16384u}) {
      rt::EventQueue eq;
      for (std::size_t i = 0; i < q; ++i) {
        rt::Event e;
        e.cycle = rng.next_below(1u << 20);
        eq.push(e);
      }
      add("runtime.event_queue.push_pop_ns.q" + std::to_string(q),
          per_call_ns(sp, "replay.runtime.event_queue.q" + std::to_string(q),
                      budget,
                      [&] {
                        rt::Event e = eq.pop();
                        e.cycle += 1 + rng.next_below(4096);
                        eq.push(std::move(e));
                      }),
          "ns");
    }
    std::uint64_t id = 0;
    add("runtime.workload.sample_ns",
        per_call_ns(sp, "replay.runtime.workload.sample", budget,
                    [&] { rt::sample_request(w.chip.workload, rng, id++); }),
        "ns");
  }

  // -- replays: ntt, reliability, word backend --------------------------------
  std::map<std::uint32_t, double> word_exec_ns, verify_ns, setup_ns;
  {
    Scope replay(&sp, "ledger.replay");
    for (const std::uint32_t n : kNttDegrees) {
      const Operands o = operands(n, seed + n);
      const ntt::WordNttEngine word(o.params);
      const ntt::GsNttEngine gs(o.params);
      ntt::Poly c;
      add("ntt.word_mul_ns" + tag(n),
          per_call_ns(sp, "replay.ntt.word_mul" + tag(n), budget,
                      [&] { c = word.negacyclic_multiply(o.a, o.b); }),
          "ns");
      ntt::Poly g;
      add("ntt.gs_mul_ns" + tag(n),
          per_call_ns(sp, "replay.ntt.gs_mul" + tag(n), budget,
                      [&] { g = gs.negacyclic_multiply(o.a, o.b); }),
          "ns");
      if (c != g) bad("word != Gs product on the replay input" + tag(n));
      if (c != ntt::schoolbook_negacyclic(o.a, o.b, o.params.q)) {
        bad("word != schoolbook product on the replay input" + tag(n));
      }
      setup_ns[n] = per_call_ns(sp, "replay.ntt.word_setup" + tag(n), budget,
                                [&] { ntt::WordNttEngine fresh(o.params); });
      add("ntt.word_setup_us" + tag(n), setup_ns[n] * 1e-3, "us");
      bool ok = true;
      verify_ns[n] = per_call_ns(
          sp, "replay.reliability.verify" + tag(n), budget, [&] {
            cryptopim::reliability::ResultVerifier v(o.params, {2, seed});
            ok = ok && v.check(o.a, o.b, c);
          });
      if (!ok) bad("Freivalds rejects a correct product" + tag(n));
      add("reliability.verify_ns" + tag(n), verify_ns[n], "ns");
      rt::WordLevelBackend backend;
      rt::BackendResult r;
      word_exec_ns[n] = per_call_ns(
          sp, "replay.runtime.backend.word_execute" + tag(n), budget,
          [&] { r = backend.execute(o.params, o.a, o.b); });
      if (r.product != c) bad("word backend != word engine" + tag(n));
      add("runtime.backend.word_execute_ns" + tag(n), word_exec_ns[n], "ns");
    }
  }
  add("reliability.checks",
      static_cast<double>(full.verified + full.verify_failures), "count");
  add("reliability.failures", static_cast<double>(full.verify_failures),
      "count");

  // -- replays: gate tier and simulator ---------------------------------------
  std::map<std::uint32_t, double> gate_ms;
  {
    Scope replay(&sp, "ledger.replay");
    for (const std::uint32_t n : kGateDegrees) {
      const Operands o = operands(n, seed + n);
      rt::GateLevelBackend backend;
      rt::BackendResult r;
      // Three timed calls at least: a gate multiply takes milliseconds.
      gate_ms[n] =
          1e-6 * per_call_ns(
                     sp, "replay.runtime.backend.gate_execute" + tag(n), 0.0,
                     [&] { r = backend.execute(o.params, o.a, o.b); }, 3);
      const ntt::WordNttEngine word(o.params);
      if (r.product != word.negacyclic_multiply(o.a, o.b)) {
        bad("gate != word product on the replay input" + tag(n));
      }
      add("runtime.backend.gate_execute_ms" + tag(n), gate_ms[n], "ms");
    }
    double cycles = 0, secs = 0;
    for (const auto& [n, pinned] : kPinnedMulCycles) {
      const Operands o = operands(n, seed + n);
      cryptopim::sim::CryptoPimSimulator simulator(o.params);
      Scope span(&sp, "replay.sim.multiply" + tag(n));
      const auto t = Clock::now();
      const auto product = simulator.multiply(o.a, o.b);
      secs += std::chrono::duration<double>(Clock::now() - t).count();
      const auto wall = simulator.report().wall_cycles;
      cycles += static_cast<double>(wall);
      if (wall != pinned) {
        bad("sim.mul_cycles" + tag(n) + " off its pinned value");
      }
      if (product != ntt::schoolbook_negacyclic(o.a, o.b, o.params.q)) {
        bad("gate != schoolbook product" + tag(n));
      }
      add("sim.mul_cycles" + tag(n), static_cast<double>(wall), "cycles");
    }
    add("sim.host_cycles_per_s", cycles / secs, "cycles/s");
  }

  // -- journal and event log --------------------------------------------------
  {
    Scope replay(&sp, "ledger.replay");
    const std::string dir = w.work_dir + "/replay";
    std::filesystem::create_directories(dir);
    const auto [jrec, jbytes] = lines_and_bytes(w, "/journal", ".log");
    add("runtime.journal.records", static_cast<double>(jrec), "count");
    add("runtime.journal.bytes", static_cast<double>(jbytes), "B");
    rt::Journal journal;
    journal.open(dir + "/journal.log",
                 rt::Journal::header_payload("single", 0, seed,
                                             obs::Json::object()),
                 false);
    std::uint64_t index = 0;
    rt::Request req = rt::sample_request(w.chip.workload, rng, 1);
    add("runtime.journal.record_us",
        1e-3 * per_call_ns(sp, "replay.runtime.journal.record", budget, [&] {
          req.id = ++index;
          journal.record(rt::Journal::admit_payload(index, index * 7, req));
        }),
        "us");

    const auto [erec, ebytes] = lines_and_bytes(w, "", ".jsonl");
    add("obs.event_log.records", static_cast<double>(traced.event_log_records),
        "count");
    add("obs.event_log.bytes", static_cast<double>(ebytes), "B");
    if (w.event_log && erec != traced.event_log_records + w.seeds.size()) {
      bad("streamed event log lines != records + header");
    }
    obs::EventLog elog;
    elog.open_stream(dir + "/events.jsonl", false);
    std::uint64_t trace = 0;
    add("obs.event_log.log_ns",
        per_call_ns(sp, "replay.obs.event_log.log", budget, [&] {
          obs::Json rec = obs::Json::object();
          rec.set("ev", "completed");
          rec.set("chip", std::uint64_t{0});
          rec.set("cycle", trace * 11);
          rec.set("trace", ++trace);
          rec.set("tenant", trace % 4);
          rec.set("dispatch", trace);
          rec.set("lane", trace % 8);
          rec.set("latency", std::uint64_t{4000});
          elog.log(std::move(rec));
          if (elog.size() >= 4096) elog.clear();  // bound the replay's memory
        }),
        "ns");
    elog.close_stream();
    add("obs.report.to_json_ms", tj * 1e3, "ms");
  }

  // -- layer self times -------------------------------------------------------
  // Layers hidden inside one runtime call come from the differential runs
  // (full minus the variant without the layer); the data path is split
  // between the executing tier and the verifier by pricing each verified
  // request with the replays. What no layer claims is reported as
  // unattributed.
  std::map<std::string, double> self = {
      {"runtime", 0}, {"ntt", 0}, {"reliability", 0},
      {"sim", 0},     {"obs", tj}, {"runtime.journal", 0}};
  double data_path_s = 0, journal_s = 0, event_log_s = 0, core_s = 0;
  if (w.fleet) {
    journal_s = host_s - median(host["no_journal"]);
    event_log_s = host_s - median(host["no_event_log"]);
    core_s = median(host["bare"]);
    self["runtime"] = core_s - tj;
    self["obs"] += event_log_s;
    self["runtime.journal"] = journal_s;
  } else if (data_path) {
    data_path_s = host_s - median(host["no_data_path"]);
    self["runtime"] = median(host["no_data_path"]) - tj;
    const bool gate = w.chip.backend == "gate";
    for (const auto& [n, count] : full.verified_by_degree) {
      const double k = static_cast<double>(count);
      if (gate) {
        self["sim"] += k * gate_ms[n] * 1e-3;
      } else {
        self["ntt"] += k * word_exec_ns[n] * 1e-9;
        // Each instance builds one engine per degree it serves.
        self["ntt"] += static_cast<double>(w.seeds.size()) * setup_ns[n] * 1e-9;
      }
      self["reliability"] += k * verify_ns[n] * 1e-9;
    }
  } else {
    self["runtime"] = host_s - tj;
  }
  add("runtime.backend.data_path_s", data_path_s, "s");
  add("runtime.journal.self_s", journal_s, "s");
  add("obs.event_log.self_s", event_log_s, "s");
  add("runtime.fleet.core_s", core_s, "s");
  add("runtime.fleet.hedge_useful_frac",
      full.hedges_launched
          ? static_cast<double>(full.hedges_launched - full.hedge_wasted) /
                static_cast<double>(full.hedges_launched)
          : 0.0,
      "frac");
  add("runtime.fleet.cross_retries", static_cast<double>(full.cross_retries),
      "count");
  add("runtime.fleet.migrated", static_cast<double>(full.migrated), "count");

  double attributed = 0;
  for (const auto& [layer, s] : self) {
    add("layer." + layer + ".self_s", s, "s");
    add("layer." + layer + ".share", host_s > 0 ? s / host_s : 0.0, "frac");
    attributed += s;
  }
  const double unattributed = host_s > 0 ? (host_s - attributed) / host_s : 0.0;
  add("ledger.host_s", host_s, "s");
  add("ledger.unattributed_frac", unattributed, "frac");
  add("trace.overhead_s", traced.host_s - host_s, "s");

  char line[160];
  std::snprintf(line, sizeof line,
                "ledger: layers account for %.1f%% of %.4f s host time per "
                "repetition (%s 25%% bound)",
                100.0 * (1.0 - unattributed), host_s,
                std::abs(unattributed) <= 0.25 ? "within" : "OUTSIDE");
  out.notes.push_back(line);
  if (!sp.write(spans_path)) bad("could not write spans to " + spans_path);
  return out;
}

}  // namespace perfbench
