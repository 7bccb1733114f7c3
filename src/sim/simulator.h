// Cycle-accounted functional simulation of a full CryptoPIM polynomial
// multiplication (the "in-house cycle-accurate C++ simulator" of Section
// IV-A, reconstructed).
//
// Every value lives in simulated 512x512 crossbars; every arithmetic step
// is executed by the gate-level circuits of src/pim/circuits; every move
// between stage blocks goes through a fixed-function switch. The host only
// writes the inputs (bit-reversed at write time, as the paper prescribes)
// and reads the outputs.
//
// Dataflow decisions (documented in DESIGN.md):
//  * Polynomial A flows in the plain domain; polynomial B enters the
//    Montgomery domain through its psi-scale constants (psi^i * R^2), so
//    the point-wise product Montgomery-reduces to a plain value with no
//    extra stage.
//  * The forward NTT is Algorithm 2 (increasing strides, bit-reversed
//    input); the inverse runs the conjugate decreasing-stride schedule, so
//    the mid-pipeline bit-reversal of Algorithm 1 reduces to a host-side
//    read permutation.
//  * Within a butterfly level, the high rows run [diff, mult, Montgomery]
//    and the low rows [add, Barrett] under separate row masks, mirroring
//    the Fig. 4(c) stage grouping.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "ntt/ntt.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "ntt/params.h"
#include "ntt/poly.h"
#include "ntt/reduction.h"
#include "pim/device.h"
#include "pim/executor.h"
#include "pim/program.h"
#include "pim/switch.h"
#include "reliability/manager.h"

namespace cryptopim::sim {

/// Aggregated measurements of one simulated multiplication.
struct SimReport {
  std::uint64_t wall_cycles = 0;  ///< per-bank critical path, stages summed
  std::size_t stages = 0;
  pim::ExecStats totals;          ///< summed over all banks (for energy)
  double latency_us = 0;          ///< wall_cycles * cycle time
  double energy_uj = 0;
  /// Per-stage cycle counts along the critical (A) path, in pipeline
  /// order — the input the pipelined-streaming simulator beats on.
  /// Invariant (tested): sum(stage_cycles) == wall_cycles.
  std::vector<std::uint64_t> stage_cycles;
  /// Stage names parallel to stage_cycles ("scale", "butterfly/s8", ...).
  std::vector<std::string> stage_names;
  /// Fault-tolerance ledger of the run (enabled=false without a
  /// ReliabilityManager attached; then wall_cycles is exactly the
  /// reliability-free figure). wall_cycles covers the final successful
  /// attempt; abandoned attempts are in reliability.retry_cycles and
  /// verify/repair overheads in their own fields.
  reliability::RelStats reliability;
};

class CryptoPimSimulator {
 public:
  explicit CryptoPimSimulator(
      const ntt::NttParams& params,
      pim::DeviceModel device = pim::DeviceModel::paper_45nm());
  ~CryptoPimSimulator();  // out of line: PolyState is private to the .cc

  /// c = a * b over Z_q[x]/(x^n + 1), computed entirely in simulated
  /// memory. Coefficients must be canonical in [0, q).
  ntt::Poly multiply(const ntt::Poly& a, const ntt::Poly& b);

  /// Measurements of the most recent multiply() call.
  const SimReport& report() const noexcept { return report_; }

  /// The stage-microcode library: one broadcast program per stage
  /// (controller view). Compiled on the first multiply() (and again on
  /// the first multiply() after set_reliability()); empty before that.
  /// Stages of the same shape share one Program.
  const pim::Controller& microcode() const noexcept { return microcode_; }

  const ntt::NttParams& params() const noexcept { return params_; }

  // -- observability ---------------------------------------------------------
  // By default the simulator records into the process-global tracer and
  // metrics registry (obs::tracer() / obs::metrics()); tracing only
  // happens while the tracer is enabled. Tests may redirect both.
  //
  // Trace layout: track b = bank b of the critical (A) path; track
  // kSoftbankTrackBase + b = softbank b of the concurrent B path; track
  // kPipelineTrack carries one span per wall-path stage, so the spans on
  // that track sum exactly to SimReport::wall_cycles.
  static constexpr std::uint32_t kSoftbankTrackBase = 1u << 15;
  static constexpr std::uint32_t kPipelineTrack = 1u << 16;
  void set_tracer(obs::Tracer* tracer) noexcept { custom_tracer_ = tracer; }
  void set_metrics(obs::MetricsRegistry* reg) noexcept { custom_metrics_ = reg; }

  // -- fault tolerance --------------------------------------------------------
  // With a manager attached, every stage block gets its faults planted
  // before use, switch transfers carry the parity column, results are
  // Freivalds-verified, and failed attempts retry after repair
  // (column/bank remap). multiply() then either returns a verified
  // result or throws reliability::UnrecoverableFault (chip must
  // degrade). Non-owning; nullptr (the default) keeps the exact
  // reliability-free execution and cycle accounting. The manager's spare
  // columns change the column allocator, so the stage microcode is
  // recompiled on the next multiply(), and the pooled stage banks are
  // dropped.
  void set_reliability(reliability::ReliabilityManager* rm) noexcept;
  reliability::ReliabilityManager* reliability_manager() const noexcept {
    return rel_;
  }

 private:
  struct PolyState;
  /// One softbank's side of a lock-step stage: the state it consumes, the
  /// factor images its twiddle columns load, and whether it is the wall
  /// (A) path or the concurrent softbank (B) path.
  struct Leg {
    std::unique_ptr<PolyState>* st;
    const std::vector<pim::ColumnBits>* factors;
    bool wall;
  };
  /// Mask table of one bank: slot 0 = all rows, 1 = butterfly high side,
  /// 2 = low side.
  using SlotTable = std::array<pim::RowMask, 3>;

  /// One full non-pipelined multiplication (one attempt). Fills report_.
  ntt::Poly multiply_attempt(const ntt::Poly& a, const ntt::Poly& b);

  /// Records the scale, butterfly and pointwise programs on a scratch
  /// bank laid out like a fresh stage bank, and registers them under
  /// every stage of the schedule in microcode_.
  void compile();
  /// Builds the bit-column images of the per-row factor and twiddle
  /// tables and the butterfly mask tables (once per simulator).
  void build_factor_rows();

  /// A stage state at power-on: taken from the pool (or made), every
  /// bank block reset, prepared by the reliability manager under the next
  /// stage_counter_, and given a fresh executor.
  std::unique_ptr<PolyState> acquire_state();
  void release_state(std::unique_ptr<PolyState> st);
  /// Pins the stage data regions (and the reliability spare pool) out of
  /// a fresh bank executor's column allocator.
  void reserve_regions(pim::BlockExecutor& exec) const;
  pim::FixedFunctionSwitch make_switch(unsigned stride) const;
  void load_input(PolyState& st, const ntt::Poly& p) const;
  /// Copies bank b's slice of `images` into every bank's twiddle columns.
  void load_factors(PolyState& st,
                    const std::vector<pim::ColumnBits>& images) const;

  // Stage drivers. Each consumes its legs' states, produces fresh ones,
  // replays the stage's compiled program once with every bank of every
  // leg a lane, and accumulates stats into report_ (A before B).
  void stage_scale(std::span<const Leg> legs);
  void stage_butterfly(std::uint32_t stride, std::span<const Leg> legs);
  void stage_pointwise(std::unique_ptr<PolyState>& a,
                       std::unique_ptr<PolyState>& b);
  /// Acquires every leg's next state, in leg order, with its trace
  /// track and base attached.
  std::vector<std::unique_ptr<PolyState>> open_stage(
      std::span<const Leg> legs);
  /// Accumulates every leg's next state under `name`, returns the
  /// consumed states to the pool and moves each leg onto its next state.
  void close_stage(std::span<const Leg> legs,
                   std::vector<std::unique_ptr<PolyState>>& next,
                   const std::string& name, obs::Counter* kind_cycles);

  /// Attaches tracer, track and base cycle to a freshly acquired stage
  /// state: bank tracks on the wall (A) path, softbank tracks on B. Both
  /// paths of a stage start where the wall path's stage starts, so the
  /// timeline shows the overlap.
  void attach_obs(PolyState& st, bool wall) const;
  /// Registry entries the stage accounting writes, looked up once per
  /// multiply() in its registry.
  struct StageMetrics {
    explicit StageMetrics(obs::MetricsRegistry& reg);
    pim::ExecMetrics exec;
    obs::Counter* stages;
    obs::Counter* cycles_scale;
    obs::Counter* cycles_butterfly;
    obs::Counter* cycles_pointwise;
    obs::Histogram* stage_cycles;
  };
  /// Folds a finished stage state into report_, the trace and the
  /// metrics; `kind_cycles` is its stage kind's cycle counter.
  void accumulate(PolyState& st, const std::string& stage_name,
                  obs::Counter* kind_cycles, bool wall);

  ntt::NttParams params_;
  pim::DeviceModel device_;
  ntt::GsNttEngine engine_;
  ntt::BarrettShiftAdd barrett_;
  ntt::MontgomeryShiftAdd montgomery_;
  unsigned banks_ = 1;
  std::size_t rows_per_bank_ = 0;
  unsigned width_ = 0;  ///< datapath bit-width
  reliability::ReliabilityManager* rel_ = nullptr;
  /// Stage states materialised so far this attempt — the physical block
  /// index the fault model keys endurance failures on.
  unsigned stage_counter_ = 0;
  SimReport report_;
  // Compiled stage microcode (null until compiled): every stage of a
  // shape replays the same program, and microcode_ shares them.
  std::shared_ptr<const pim::Program> scale_prog_, butterfly_prog_,
      pointwise_prog_;
  pim::Controller microcode_;
  // Bit-column images of the per-row constants each stage writes into
  // its twiddle columns, banks_ x width_ columns each (bank-major):
  // psi-scale factors for A (plain) and B (entering the Montgomery
  // domain), the final n^{-1} psi^{-i} scale, and the forward/inverse
  // twiddles of every butterfly level (index log2(stride)).
  struct FactorImages {
    std::vector<pim::ColumnBits> scale_a, scale_b, scale_out;
    std::vector<std::vector<pim::ColumnBits>> forward, inverse;
  };
  FactorImages images_;
  // Mask tables: every row (scale, pointwise), each in-bank butterfly
  // stride (index log2(stride)), and a cross-bank stride's high and low
  // banks.
  std::array<pim::RowMask, 1> all_rows_;
  std::vector<SlotTable> in_bank_slots_;
  std::array<SlotTable, 2> cross_bank_slots_;
  /// Stage states at rest (regions reserved), reset on acquire.
  std::vector<std::unique_ptr<PolyState>> pool_;
  obs::Tracer* custom_tracer_ = nullptr;
  obs::MetricsRegistry* custom_metrics_ = nullptr;
  // Resolved per multiply(): nullptr when tracing is off for the run.
  obs::Tracer* active_tracer_ = nullptr;
  obs::MetricsRegistry* active_metrics_ = nullptr;
  std::unique_ptr<StageMetrics> stage_metrics_;
};

}  // namespace cryptopim::sim
