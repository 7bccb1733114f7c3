// CryptoPIM — public API umbrella.
//
// A reproduction of "CryptoPIM: In-memory Acceleration for Lattice-based
// Cryptographic Hardware" (DAC 2020): a ReRAM processing-in-memory
// accelerator for NTT-based polynomial multiplication over
// Z_q[x]/(x^n + 1), n up to 32k.
//
// Layers (each usable on its own):
//   ntt/        software NTT + modular arithmetic (CPU baseline & oracle)
//   pim/        bit-level crossbar simulator, gate ISA, in-memory circuits
//   arch/       pipelines, fixed-function switches, banks/softbanks
//   model/      analytic latency/energy model (regenerates the paper's
//               tables and figures)
//   baselines/  BP-1/2/3 PIM baselines, CPU/FPGA reference points
//   reliability/ fault injection, Freivalds verification, retry/remap
//   runtime/    online serving: discrete-event multi-tenant scheduler
//               over superbank lanes (arrivals, policies, fairness)
//   sim/        cycle-accounted functional simulation of the full design
//
// The Accelerator class below is the convenience front door used by the
// examples: functional multiplication plus the modelled performance of
// the hardware that would execute it.
#pragma once

#include "arch/chip.h"
#include "arch/pipeline.h"
#include "common/bitutil.h"
#include "common/rng.h"
#include "common/table.h"
#include "baselines/pim_baselines.h"
#include "crypto/keccak.h"
#include "crypto/kem.h"
#include "crypto/pke.h"
#include "he/bgv.h"
#include "model/latency.h"
#include "model/paper_constants.h"
#include "model/performance.h"
#include "model/scheduler.h"
#include "ntt/modular.h"
#include "ntt/ntt.h"
#include "ntt/params.h"
#include "ntt/poly.h"
#include "ntt/reduction.h"
#include "ntt/word_ntt.h"
#include "pim/block.h"
#include "pim/circuits/arith.h"
#include "pim/circuits/reduction.h"
#include "pim/device.h"
#include "pim/executor.h"
#include "pim/switch.h"
#include "reliability/campaign.h"
#include "reliability/fault_model.h"
#include "reliability/manager.h"
#include "reliability/verifier.h"
#include "runtime/backend.h"
#include "runtime/policy.h"
#include "runtime/serving.h"
#include "runtime/workload.h"
#include "sim/simulator.h"

namespace cryptopim {

/// High-level handle: one CryptoPIM accelerator configured for a degree.
///
/// multiply() executes the multiplication functionally in simulated
/// crossbars (bit-exact, cycle-accounted); performance() reports what the
/// pipelined hardware would deliver per the analytic model.
class Accelerator {
 public:
  explicit Accelerator(std::uint32_t degree)
      : params_(ntt::NttParams::for_degree(degree)),
        engine_(params_),
        sim_(params_) {}

  const ntt::NttParams& params() const noexcept { return params_; }

  /// c = a * b in R_q, computed in simulated memory.
  ntt::Poly multiply(const ntt::Poly& a, const ntt::Poly& b) {
    return sim_.multiply(a, b);
  }

  /// Run every subsequent multiply() under the reliability layer (fault
  /// injection, detection, retry/remap). Pass nullptr to detach; `rm`
  /// must outlive the accelerator while attached.
  void set_reliability(reliability::ReliabilityManager* rm) noexcept {
    sim_.set_reliability(rm);
  }

  /// Software reference (the CPU-baseline path).
  ntt::Poly multiply_software(const ntt::Poly& a, const ntt::Poly& b) const {
    return engine_.negacyclic_multiply(a, b);
  }

  /// Measurements of the last multiply() (cycles, energy, stages).
  const sim::SimReport& last_report() const noexcept { return sim_.report(); }

  /// Modelled pipelined-hardware performance at this degree.
  model::PipelinePerf performance() const {
    return model::cryptopim_pipelined(params_.n);
  }
  /// Modelled non-pipelined performance.
  model::PipelinePerf performance_non_pipelined() const {
    return model::cryptopim_non_pipelined(params_.n);
  }

  /// How the paper's 128-bank chip would be partitioned for this degree.
  arch::DegreePlan chip_plan() const {
    return arch::ChipConfig::paper_chip().plan_for_degree(params_.n);
  }

 private:
  ntt::NttParams params_;
  ntt::GsNttEngine engine_;
  sim::CryptoPimSimulator sim_;
};

}  // namespace cryptopim
