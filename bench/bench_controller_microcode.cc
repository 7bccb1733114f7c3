// Controller microcode report (Section IV-A: the CryptoPIM controller was
// implemented in System Verilog and synthesized with Design Compiler; we
// cannot run synthesis here, so this bench reports the quantities such a
// controller is sized by: per-stage instruction counts, microcode ROM
// bits, and the broadcast factor across banks). It also times the host
// side of the broadcast: nanoseconds per replayed micro-op through the
// scalar gate-kernel table and through the one the replay picks for this
// CPU, plus their in-run ratio (host_* metrics: wall-clock, excluded from
// the committed baselines).
#include <algorithm>
#include <chrono>
#include <iostream>
#include <vector>

#include "common/rng.h"
#include "common/table.h"
#include "ntt/params.h"
#include "ntt/poly.h"
#include "obs/bench_report.h"
#include "sim/simulator.h"

namespace cp = cryptopim;

namespace {

// Host ns per replayed micro-op: every stage program of `mc`, in pipeline
// order, replayed in lock-step over `banks` blocks through `kernels`.
// Gates cost the same on any data, so the blocks start empty. Best of
// five timed passes, each long enough to swamp the clock.
double replay_ns_per_uop(const cp::pim::Controller& mc, unsigned banks,
                         std::size_t rows,
                         const cp::pim::GateKernels& kernels) {
  const cp::pim::RowMask all = cp::pim::RowMask::first_rows(rows);
  cp::pim::RowMask high, low;  // the stride-1 butterfly sides
  for (std::size_t r = 0; r < rows; ++r) (r & 1 ? high : low).set(r, true);
  const std::vector<cp::pim::RowMask> slots = {all, high, low};
  std::vector<cp::pim::MemoryBlock> blocks(banks);
  std::vector<std::unique_ptr<cp::pim::BlockExecutor>> execs;
  std::vector<cp::pim::ReplayLane> lanes;
  for (auto& blk : blocks) {
    execs.push_back(std::make_unique<cp::pim::BlockExecutor>(blk, all));
    lanes.push_back({execs.back().get(), slots});
  }
  const auto pass = [&] {
    for (std::size_t i = 0; i < mc.stage_count(); ++i) {
      cp::pim::BlockExecutor::replay(mc.program(i), lanes, kernels);
    }
  };
  const double uops_per_pass =
      static_cast<double>(mc.total_instructions()) * banks;
  pass();  // warm
  double best = 1e300;
  for (int t = 0; t < 5; ++t) {
    const auto t0 = std::chrono::steady_clock::now();
    std::size_t passes = 0;
    std::chrono::duration<double, std::nano> el{};
    do {
      pass();
      ++passes;
      el = std::chrono::steady_clock::now() - t0;
    } while (el.count() < 2e7);
    best = std::min(best, el.count() / (static_cast<double>(passes) *
                                        uops_per_pass));
  }
  return best;
}

}  // namespace

int main() {
  std::cout << "== Controller microcode (stage programs) ==\n\n";

  // Per-degree totals.
  cp::obs::BenchReporter rep("controller_microcode");
  cp::Table t({"n", "q", "stage programs", "instructions", "ROM (KiB)",
               "banks sharing each program"});
  for (const std::uint32_t n : {256u, 1024u, 4096u, 32768u}) {
    const auto p = cp::ntt::NttParams::for_degree(n);
    cp::sim::CryptoPimSimulator simu(p);
    cp::Xoshiro256 rng(n);
    const auto a = cp::ntt::sample_uniform(n, p.q, rng);
    const auto b = cp::ntt::sample_uniform(n, p.q, rng);
    simu.multiply(a, b);
    const auto& mc = simu.microcode();
    const cp::obs::BenchReporter::Params nn = {{"n", std::to_string(n)}};
    rep.add("stage_programs", static_cast<double>(mc.stage_count()),
            "programs", nn);
    rep.add("instructions", static_cast<double>(mc.total_instructions()),
            "insns", nn);
    rep.add("rom_bits", static_cast<double>(mc.total_rom_bits()), "bits", nn);
    t.add_row({std::to_string(n), std::to_string(p.q),
               std::to_string(mc.stage_count()),
               cp::fmt_i(mc.total_instructions()),
               cp::fmt_f(static_cast<double>(mc.total_rom_bits()) / 8 / 1024),
               std::to_string(std::max(1u, n / 512))});
  }
  t.print(std::cout);

  // Stage-by-stage breakdown for the Kyber-sized design.
  std::cout << "\n-- per-stage microcode, n=256 --\n";
  const auto p = cp::ntt::NttParams::for_degree(256);
  cp::sim::CryptoPimSimulator simu(p);
  cp::Xoshiro256 rng(256);
  const auto a = cp::ntt::sample_uniform(p.n, p.q, rng);
  const auto b = cp::ntt::sample_uniform(p.n, p.q, rng);
  simu.multiply(a, b);
  const auto& mc = simu.microcode();
  cp::Table s({"stage", "instructions", "cycles", "ROM (bits)"});
  for (std::size_t i = 0; i < mc.stage_count(); ++i) {
    const auto& prog = mc.program(i);
    s.add_row({mc.name(i), cp::fmt_i(prog.size()), cp::fmt_i(prog.cycles()),
               cp::fmt_i(prog.rom_bits())});
  }
  s.print(std::cout);
  std::cout << "\nEvery bank executes the same broadcast program per stage\n"
               "(lock-step SIMD); per-bank state is limited to the row-mask\n"
               "table and the pre-loaded twiddle columns. Replay equivalence\n"
               "is asserted bit-exactly by tests/test_program.cc.\n";

  // Host cost of the lock-step replay, per gate-kernel table.
  std::cout << "\n-- host replay cost (ns per replayed micro-op) --\n";
  const cp::pim::GateKernels& chosen = cp::pim::best_gate_kernels();
  cp::Table h({"n", "lanes", "table", "ns/micro-op"});
  for (const std::uint32_t n : {256u, 1024u}) {
    const auto pn = cp::ntt::NttParams::for_degree(n);
    cp::sim::CryptoPimSimulator sn(pn);
    cp::Xoshiro256 rn(n);
    sn.multiply(cp::ntt::sample_uniform(n, pn.q, rn),
                cp::ntt::sample_uniform(n, pn.q, rn));
    const unsigned banks = std::max(1u, n / 512);
    const std::size_t rows = std::min<std::size_t>(n, 512);
    std::vector<const cp::pim::GateKernels*> tables = {
        &cp::pim::scalar_gate_kernels()};
    for (const auto* k : {cp::pim::avx2_gate_kernels(),
                          cp::pim::avx512_gate_kernels()}) {
      if (k != nullptr) tables.push_back(k);
    }
    const cp::obs::BenchReporter::Params nn = {{"n", std::to_string(n)}};
    double scalar_ns = 0, chosen_ns = 0;
    for (const auto* k : tables) {
      const double ns = replay_ns_per_uop(sn.microcode(), banks, rows, *k);
      if (k == &cp::pim::scalar_gate_kernels()) scalar_ns = ns;
      if (k == &chosen) chosen_ns = ns;
      h.add_row({std::to_string(n), std::to_string(banks),
                 std::string(k->name) + (k == &chosen ? " (chosen)" : ""),
                 cp::fmt_f(ns, 2)});
    }
    rep.add("host_replay_ns_per_uop", scalar_ns, "ns",
            {{"n", std::to_string(n)}, {"kernels", "scalar"}});
    rep.add("host_replay_ns_per_uop", chosen_ns, "ns",
            {{"n", std::to_string(n)}, {"kernels", "chosen"}});
    rep.add("host_replay_speedup_chosen_over_scalar", scalar_ns / chosen_ns,
            "x", nn);
  }
  h.print(std::cout);
  std::cout << "chosen table: " << chosen.name << "\n";

  rep.write_default();
  return 0;
}
