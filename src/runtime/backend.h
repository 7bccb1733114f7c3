// Pluggable execution backends: one interface, three fidelity tiers.
//
// Every way this repo can "execute" a negacyclic multiplication now sits
// behind `ExecutionBackend`:
//
//  * GateLevelBackend — the golden tier. Wraps CryptoPimSimulator:
//    every arithmetic step runs in simulated crossbars, cycle accounting
//    is measured, optional fault injection exercises the reliability
//    stack. Each cached simulator compiles its stage microcode once, on
//    its first multiply, and replays it word-parallel on every bank:
//    ~0.4 ms per n = 256 multiply on one host core. Authoritative, and
//    still the slowest tier by two orders of magnitude.
//  * WordLevelBackend — functional results at host speed from the
//    flat-word `ntt::WordNttEngine` (Shoup/Barrett precompute, lazy
//    [0, 2q) reduction, AVX-512/AVX2 kernels picked at runtime when the
//    CPU has them), with cycle/energy accounting attached from the
//    analytic model. Bit-exact vs the gate tier — proven by
//    tests/test_backend_diff.cc — at >= 100x its wall-clock rate (gated
//    by bench_backend_throughput; a few hundred x with AVX-512).
//  * AnalyticBackend — accounting only (model/latency.h +
//    model/performance.h); `functional()` is false and products are
//    empty. For capacity studies where results are never inspected.
//
// The word and analytic tiers share one accounting source
// (`analytic_accounting`), so switching between them changes host
// wall-clock only, never the simulated numbers. Accounting is keyed by
// degree through the paper's parameterisation; a custom (n, q) pair
// executes functionally with the paper accounting for its degree.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "ntt/params.h"
#include "ntt/poly.h"
#include "reliability/manager.h"

namespace cryptopim::runtime {

/// One executed multiplication: the functional product (empty when the
/// backend is not functional) plus the backend's cycle/energy claim.
struct BackendResult {
  ntt::Poly product;
  std::uint64_t sim_cycles = 0;  ///< simulated crossbar cycles, one multiply
  double latency_us = 0;         ///< simulated latency
  double energy_uj = 0;          ///< simulated energy
};

/// The analytic tier's accounting for one non-pipelined multiplication
/// at `degree` (paper parameterisation). Shared by AnalyticBackend and
/// WordLevelBackend so their simulated numbers agree exactly.
BackendResult analytic_accounting(std::uint32_t degree);

class ExecutionBackend {
 public:
  virtual ~ExecutionBackend() = default;

  /// Stable identifier: "gate", "word" or "analytic". Emitted in the
  /// serving report header and accepted by `serve --backend`.
  virtual std::string_view name() const noexcept = 0;

  /// Whether execute() returns real coefficient vectors. The analytic
  /// tier returns accounting only.
  virtual bool functional() const noexcept = 0;

  /// c = a * b over Z_q[x]/(x^n + 1) for the given parameter set.
  /// Engines/simulators are cached per (n, q) inside the backend.
  virtual BackendResult execute(const ntt::NttParams& params,
                                const ntt::Poly& a, const ntt::Poly& b) = 0;
};

/// Golden tier. With `set_fault_injection`, every cached simulator gets
/// a ReliabilityManager (faults planted, write-verify, Freivalds,
/// retry) — results stay correct, cycle accounting grows by the repair
/// overhead.
class GateLevelBackend final : public ExecutionBackend {
 public:
  GateLevelBackend();
  ~GateLevelBackend() override;

  std::string_view name() const noexcept override { return "gate"; }
  bool functional() const noexcept override { return true; }
  BackendResult execute(const ntt::NttParams& params, const ntt::Poly& a,
                        const ntt::Poly& b) override;

  /// Enable fault injection for every simulator created after this call.
  void set_fault_injection(const reliability::ReliabilityConfig& rc);

 private:
  struct Entry;
  Entry& entry_for(const ntt::NttParams& params);
  std::vector<std::unique_ptr<Entry>> cache_;
  std::unique_ptr<reliability::ReliabilityConfig> fault_cfg_;
};

/// Host-speed functional tier with analytic accounting.
class WordLevelBackend final : public ExecutionBackend {
 public:
  WordLevelBackend();
  ~WordLevelBackend() override;

  std::string_view name() const noexcept override { return "word"; }
  bool functional() const noexcept override { return true; }
  BackendResult execute(const ntt::NttParams& params, const ntt::Poly& a,
                        const ntt::Poly& b) override;

 private:
  struct Entry;
  std::vector<std::unique_ptr<Entry>> cache_;
};

/// Accounting-only tier.
class AnalyticBackend final : public ExecutionBackend {
 public:
  std::string_view name() const noexcept override { return "analytic"; }
  bool functional() const noexcept override { return false; }
  BackendResult execute(const ntt::NttParams& params, const ntt::Poly& a,
                        const ntt::Poly& b) override;
};

/// The accepted `--backend` values: {"gate", "word", "analytic"}.
const std::vector<std::string>& backend_names();

/// Factory; returns nullptr for an unknown name (callers turn that into
/// their own usage error).
std::unique_ptr<ExecutionBackend> make_backend(std::string_view name);

}  // namespace cryptopim::runtime
