#include "sim/simulator.h"

#include <array>
#include <cassert>
#include <span>
#include <stdexcept>

#include "common/bitutil.h"
#include "ntt/modular.h"
#include "pim/circuits/arith.h"
#include "pim/circuits/reduction.h"
#include "pim/switch.h"

namespace cryptopim::sim {

namespace {

// Reserved data-column layout inside every stage block: own value,
// partner value and twiddle/factor, `width` columns each from kOwnBase.
constexpr pim::Col kOwnBase = 8;
enum Region : unsigned { kOwn = 0, kPartner = 1, kTwiddle = 2 };

pim::Operand region(const pim::BlockExecutor& e, Region r, unsigned width) {
  return e.contiguous(static_cast<pim::Col>(kOwnBase + r * width), width);
}

pim::RowMask side_mask(std::size_t rows_used, std::uint32_t stride,
                       bool high) {
  pim::RowMask m;
  for (std::size_t r = 0; r < rows_used; ++r) {
    const bool is_high = (r & stride) != 0;
    if (is_high == high) m.set(r, true);
  }
  return m;
}

// Copy a computed result into the reserved own-region columns (2 cycles
// per bit).
void write_own(pim::BlockExecutor& exec, const pim::Operand& own,
               const pim::Operand& value) {
  for (unsigned i = 0; i < own.width(); ++i) {
    if (i < value.width()) {
      exec.gate1(pim::GateKind::kCopy, own.col(i), value.col(i));
    } else {
      exec.set0(own.col(i));
    }
  }
}

std::string butterfly_name(std::uint32_t stride) {
  return "butterfly/s" + std::to_string(stride);
}

}  // namespace

struct CryptoPimSimulator::PolyState {
  struct Bank {
    pim::MemoryBlock block;
    std::unique_ptr<pim::BlockExecutor> exec;
  };
  std::vector<Bank> banks;
  unsigned width = 0;

  pim::Operand own(const pim::BlockExecutor& e) const {
    return region(e, kOwn, width);
  }
  pim::Operand partner(const pim::BlockExecutor& e) const {
    return region(e, kPartner, width);
  }
  pim::Operand twiddle(const pim::BlockExecutor& e) const {
    return region(e, kTwiddle, width);
  }
};

CryptoPimSimulator::CryptoPimSimulator(const ntt::NttParams& params,
                                       pim::DeviceModel device)
    : params_(params),
      device_(device),
      engine_(params),
      barrett_(ntt::BarrettShiftAdd::paper_spec(params.q)),
      montgomery_(ntt::MontgomeryShiftAdd::paper_spec(params.q)),
      banks_(params.n > pim::kBlockRows
                 ? params.n / static_cast<unsigned>(pim::kBlockRows)
                 : 1u),
      rows_per_bank_(std::min<std::size_t>(params.n, pim::kBlockRows)),
      width_(bit_length(params.q)) {}

void CryptoPimSimulator::reserve_regions(pim::BlockExecutor& exec) const {
  exec.reserve_region(kOwnBase, 3 * width_);
  if (rel_ != nullptr) {
    // Keep the repair pool out of the processing-column allocator.
    exec.reserve_region(rel_->spare_base(),
                        rel_->config().spare_cols_per_block);
  }
}

std::unique_ptr<CryptoPimSimulator::PolyState>
CryptoPimSimulator::make_state() {
  auto st = std::make_unique<PolyState>();
  st->width = width_;
  st->banks.resize(banks_);
  for (unsigned b = 0; b < banks_; ++b) {
    auto& bank = st->banks[b];
    // Faults and column remaps must land before the executor writes the
    // constant rails, exactly like power-on of a (worn) physical block.
    if (rel_ != nullptr) {
      rel_->prepare_block(stage_counter_, b, bank.block);
    }
    bank.exec = std::make_unique<pim::BlockExecutor>(
        bank.block, pim::RowMask::first_rows(rows_per_bank_), device_);
    reserve_regions(*bank.exec);
  }
  ++stage_counter_;
  return st;
}

void CryptoPimSimulator::compile() {
  // The controller compiles each stage shape once and broadcasts it to
  // every bank of every stage of that shape. Each program is recorded on
  // its own fresh scratch bank, so its column ids and cols_peak are those
  // of a fresh stage bank; circuits are data-independent, and the empty
  // row mask makes the recording run evaluate nothing.
  auto record = [this](std::uint8_t first_slot, const auto& body) {
    pim::MemoryBlock blk;
    pim::BlockExecutor e(blk, pim::RowMask(), device_);
    reserve_regions(e);
    pim::Program prog;
    {
      pim::ProgramRecorder rec(e, prog, first_slot);
      body(e, rec);
    }
    return std::make_shared<const pim::Program>(std::move(prog));
  };

  // Scale and pointwise: own := Montgomery(own * factor). The psi-scale
  // factors are Montgomery-form constants; pointwise multiplies by B,
  // which is in the Montgomery domain, so the reduction lands plain.
  auto mont_product = [this](Region other) {
    return [this, other](pim::BlockExecutor& e, pim::ProgramRecorder&) {
      const pim::Operand own = region(e, kOwn, width_);
      pim::Operand prod =
          pim::circuits::multiply(e, own, region(e, other, width_));
      pim::Operand red =
          pim::circuits::montgomery_reduce(e, prod, montgomery_, true);
      e.free(prod);
      write_own(e, own, red);
      e.free(red);
    };
  };
  scale_prog_ = record(0, mont_product(kTwiddle));
  pointwise_prog_ = record(0, mont_product(kPartner));

  // Butterfly, mask-slot convention: 0 = all rows, 1 = high side, 2 =
  // low side. Both phases run on every bank in lock-step, even when a
  // bank's side is empty.
  butterfly_prog_ = record(1, [this](pim::BlockExecutor& e,
                                     pim::ProgramRecorder& rec) {
    const pim::Operand own = region(e, kOwn, width_);
    const pim::Operand partner = region(e, kPartner, width_);
    const pim::Operand tw = region(e, kTwiddle, width_);
    // High rows: A[j'] = Montgomery(W * (T - A[j'] + q)).
    {
      const pim::Operand cq = e.constant(params_.q, width_);
      pim::Operand t = pim::circuits::add_trimmed(e, partner, cq, width_ + 1);
      auto d = pim::circuits::sub(e, t, own, width_ + 1);
      e.free(t);
      e.free_col(d.no_borrow);
      pim::Operand prod = pim::circuits::multiply(e, d.diff, tw);
      e.free(d.diff);
      pim::Operand red =
          pim::circuits::montgomery_reduce(e, prod, montgomery_, true);
      e.free(prod);
      write_own(e, own, red);
      e.free(red);
    }
    // Low rows: A[j] = Barrett(T + A[j']).
    {
      rec.set_mask_slot(2);
      pim::Operand sum = pim::circuits::add(e, own, partner, width_ + 1);
      pim::Operand red = pim::circuits::barrett_reduce(e, sum, barrett_, true);
      e.free(sum);
      write_own(e, own, red);
      e.free(red);
    }
  });

  // The stage library in pipeline order (A and B stages interleaved as
  // multiply_attempt runs them).
  microcode_ = pim::Controller{};
  microcode_.add_stage("scale", scale_prog_);
  microcode_.add_stage("scale", scale_prog_);
  for (unsigned k = 0; k < params_.log2n; ++k) {
    microcode_.add_stage(butterfly_name(1u << k), butterfly_prog_);
    microcode_.add_stage(butterfly_name(1u << k), butterfly_prog_);
  }
  microcode_.add_stage("pointwise", pointwise_prog_);
  for (unsigned k = params_.log2n; k-- > 0;) {
    microcode_.add_stage(butterfly_name(1u << k), butterfly_prog_);
  }
  microcode_.add_stage("scale", scale_prog_);
}

void CryptoPimSimulator::build_factor_rows() {
  const std::uint32_t n = params_.n;
  const std::uint32_t q = params_.q;
  const unsigned bits = params_.log2n;

  // psi-scale. A stays plain: factor = psi^i * R (Montgomery-form
  // constant). B enters the Montgomery domain: factor = psi^i * R^2. The
  // final scale is n^{-1} psi^{-i}, addressed through the output
  // permutation: row r holds element bitrev(r).
  const auto R_mod_q = static_cast<std::uint32_t>(montgomery_.R() % q);
  rows_.scale_a.resize(n);
  rows_.scale_b.resize(n);
  rows_.scale_out.resize(n);
  for (std::uint32_t g = 0; g < n; ++g) {
    const std::uint64_t i = bit_reverse(g, bits);
    const std::uint32_t psi_i = montgomery_.to_mont(engine_.psi_powers()[i]);
    rows_.scale_a[g] = psi_i;
    rows_.scale_b[g] = ntt::mul_mod(psi_i, R_mod_q, q);
    rows_.scale_out[g] = montgomery_.to_mont(engine_.psi_inv_scaled()[i]);
  }

  // omega^{-e} for every exponent the inverse schedule uses (< n/2).
  std::vector<std::uint32_t> omega_inv_pow(n / 2);
  std::uint32_t pw = 1;
  for (auto& x : omega_inv_pow) {
    x = pw;
    pw = ntt::mul_mod(pw, params_.omega_inv, q);
  }

  rows_.forward.assign(bits, std::vector<std::uint64_t>(n, 0));
  rows_.inverse.assign(bits, std::vector<std::uint64_t>(n, 0));
  for (unsigned k = 0; k < bits; ++k) {
    const std::uint32_t stride = 1u << k;
    const std::uint32_t step = n / (2 * stride);
    for (std::uint32_t g = 0; g < n; ++g) {
      if ((g & stride) == 0) continue;  // low rows carry no twiddle
      const std::uint32_t j = g - stride;
      // Algorithm 2: the butterfly writing row j' = j + 2^k multiplies by
      // twiddle[j >> (k+1)] from the bit-reversed table.
      rows_.forward[k][g] =
          montgomery_.to_mont(engine_.forward_twiddles()[j >> (k + 1)]);
      // Conjugate (decreasing-stride) schedule: classic Gentleman–Sande
      // with w^{-1}; the butterfly at (j, j+len) uses exponent
      // (j mod len)*n/(2len).
      rows_.inverse[k][g] =
          montgomery_.to_mont(omega_inv_pow[(j & (stride - 1)) * step]);
    }
  }
}

pim::FixedFunctionSwitch CryptoPimSimulator::make_switch(
    unsigned stride) const {
  pim::FixedFunctionSwitch sw(stride);
  if (rel_ != nullptr) {
    sw.set_fault_hooks(rel_->hooks(), rel_->parity_enabled());
  }
  return sw;
}

void CryptoPimSimulator::attach_obs(PolyState& st) const {
  // Softbank (B-path) stages run concurrently with the A-path stage that
  // preceded them in program order; start their spans at that stage's
  // begin cycle so the timeline shows the overlap.
  const std::uint32_t track_base = wall_enabled_ ? 0 : kSoftbankTrackBase;
  std::uint64_t base = report_.wall_cycles;
  if (!wall_enabled_ && !report_.stage_cycles.empty()) {
    base -= report_.stage_cycles.back();
  }
  for (unsigned b = 0; b < banks_; ++b) {
    st.banks[b].exec->set_tracer(active_tracer_, track_base + b);
    st.banks[b].exec->set_trace_base(base);
  }
}

void CryptoPimSimulator::accumulate(PolyState& st,
                                    const std::string& stage_name) {
  pim::ExecStats stage_total;
  for (auto& bank : st.banks) {
    stage_total += bank.exec->stats();
  }
  report_.totals += stage_total;

#if CRYPTOPIM_TRACING
  if (active_tracer_ != nullptr) {
    for (auto& bank : st.banks) {
      const auto& e = *bank.exec;
      const std::uint64_t begin = e.trace_now() - e.stats().cycles;
      active_tracer_->emit(e.trace_track(), stage_name, "stage", begin,
                           e.stats().cycles);
    }
    if (wall_enabled_) {
      active_tracer_->emit(kPipelineTrack, stage_name, "stage",
                           report_.wall_cycles,
                           st.banks[0].exec->stats().cycles);
    }
  }
#endif

  // Metrics: per-stage-kind cycle counters plus the ExecStats facade.
  const std::string kind = stage_name.substr(0, stage_name.find('/'));
  active_metrics_->counter("cryptopim.sim.cycles." + kind, "cycles")
      .add(st.banks[0].exec->stats().cycles);
  active_metrics_->counter("cryptopim.sim.stages", "stages").add(1);
  stage_total.publish(*active_metrics_);

  // Banks run in lock-step, so the critical path is one bank's cycles.
  // B's softbank runs concurrently with A's: its stages cost energy but
  // no wall time (wall_enabled_ toggled around B's stage calls).
  if (wall_enabled_) {
    const std::uint64_t cycles = st.banks[0].exec->stats().cycles;
    active_metrics_->histogram("cryptopim.sim.stage_cycles", "cycles")
        .add(cycles);
    report_.wall_cycles += cycles;
    report_.stage_cycles.push_back(cycles);
    report_.stage_names.push_back(stage_name);
  }
  report_.stages += 1;
}

void CryptoPimSimulator::load_input(PolyState& st, const ntt::Poly& p) const {
  // Bit-reversal happens at write time: coefficient i lands in global row
  // bitrev(i) ("changing the row to which a value is written").
  const unsigned bits = params_.log2n;
  std::vector<std::vector<std::uint64_t>> rows(
      banks_, std::vector<std::uint64_t>(rows_per_bank_, 0));
  for (std::uint32_t i = 0; i < params_.n; ++i) {
    const std::uint64_t g = bit_reverse(i, bits);
    rows[g / pim::kBlockRows][g % pim::kBlockRows] = p[i];
  }
  for (unsigned b = 0; b < banks_; ++b) {
    st.banks[b].exec->host_write(st.own(*st.banks[b].exec), rows[b]);
  }
}

void CryptoPimSimulator::stage_scale(
    std::unique_ptr<PolyState>& st,
    const std::vector<std::uint64_t>& factors_by_row) {
  auto next = make_state();
  attach_obs(*next);
  const pim::FixedFunctionSwitch sw = make_switch(0);
  const std::array<pim::RowMask, 1> slots = {
      pim::RowMask::first_rows(rows_per_bank_)};
  for (unsigned b = 0; b < banks_; ++b) {
    auto& src = st->banks[b];
    auto& e = *next->banks[b].exec;
    sw.transfer(src.block, st->own(*src.exec), src.exec->mask(), e,
                next->own(e), pim::FixedFunctionSwitch::Route::kStraight);
    // Pre-computed factors live in the block's data columns.
    e.host_write(next->twiddle(e),
                 std::span(factors_by_row)
                     .subspan(b * pim::kBlockRows, rows_per_bank_));
    e.replay(*scale_prog_, slots);
  }
  accumulate(*next, "scale");
  st = std::move(next);
}

void CryptoPimSimulator::stage_butterfly(
    std::unique_ptr<PolyState>& st, std::uint32_t stride,
    const std::vector<std::uint64_t>& twiddle_by_high_row) {
  auto next = make_state();
  attach_obs(*next);

  // Mask-slot table (see compile()): 0 = all rows, 1 = high side, 2 =
  // low side.
  const pim::RowMask all = pim::RowMask::first_rows(rows_per_bank_);
  std::array<pim::RowMask, 3> slots = {all, pim::RowMask(), pim::RowMask()};

  // --- transfers through the fixed-function switches -----------------------
  const bool in_bank = stride < rows_per_bank_;
  const unsigned ds =
      in_bank ? 0u : stride / static_cast<unsigned>(rows_per_bank_);
  if (in_bank) {
    const pim::FixedFunctionSwitch sw = make_switch(stride);
    slots[1] = side_mask(rows_per_bank_, stride, true);
    slots[2] = side_mask(rows_per_bank_, stride, false);
    for (unsigned b = 0; b < banks_; ++b) {
      auto& src = st->banks[b];
      auto& dst = next->banks[b];
      sw.transfer(src.block, st->own(*src.exec), src.exec->mask(), *dst.exec,
                  next->own(*dst.exec),
                  pim::FixedFunctionSwitch::Route::kStraight);
      // Low rows feed their +s neighbours; high rows feed -s.
      sw.transfer(src.block, st->own(*src.exec), slots[2], *dst.exec,
                  next->partner(*dst.exec),
                  pim::FixedFunctionSwitch::Route::kPlusS);
      sw.transfer(src.block, st->own(*src.exec), slots[1], *dst.exec,
                  next->partner(*dst.exec),
                  pim::FixedFunctionSwitch::Route::kMinusS);
    }
  } else {
    // Stride crosses banks: the partner sits in the paired bank at the
    // same row; inter-bank switches provide the straight connection.
    const pim::FixedFunctionSwitch sw = make_switch(0);
    for (unsigned b = 0; b < banks_; ++b) {
      auto& dst = next->banks[b];
      auto& src_own = st->banks[b];
      sw.transfer(src_own.block, st->own(*src_own.exec), src_own.exec->mask(),
                  *dst.exec, next->own(*dst.exec),
                  pim::FixedFunctionSwitch::Route::kStraight);
      auto& src_partner = st->banks[b ^ ds];
      sw.transfer(src_partner.block, st->own(*src_partner.exec),
                  src_partner.exec->mask(), *dst.exec,
                  next->partner(*dst.exec),
                  pim::FixedFunctionSwitch::Route::kStraight);
    }
  }

  // --- compute --------------------------------------------------------------
  // The stage microcode is identical for every bank (lock-step); the
  // per-bank mask table selects which rows each phase drives.
  for (unsigned b = 0; b < banks_; ++b) {
    auto& e = *next->banks[b].exec;
    if (!in_bank) {
      const bool bank_is_high = (b & ds) != 0;
      slots[1] = bank_is_high ? all : pim::RowMask();
      slots[2] = bank_is_high ? pim::RowMask() : all;
    }
    // Twiddles for the high rows (pre-computed factors, Montgomery form).
    e.host_write(next->twiddle(e),
                 std::span(twiddle_by_high_row)
                     .subspan(b * pim::kBlockRows, rows_per_bank_));
    e.replay(*butterfly_prog_, slots);
  }

  accumulate(*next, butterfly_name(stride));
  st = std::move(next);
}

void CryptoPimSimulator::stage_pointwise(std::unique_ptr<PolyState>& a,
                                         std::unique_ptr<PolyState>& b) {
  auto next = make_state();
  attach_obs(*next);
  const pim::FixedFunctionSwitch sw = make_switch(0);
  const std::array<pim::RowMask, 1> slots = {
      pim::RowMask::first_rows(rows_per_bank_)};
  for (unsigned k = 0; k < banks_; ++k) {
    auto& e = *next->banks[k].exec;
    sw.transfer(a->banks[k].block, a->own(*a->banks[k].exec),
                a->banks[k].exec->mask(), e, next->own(e),
                pim::FixedFunctionSwitch::Route::kStraight);
    // B arrives through the inter-softbank switch.
    sw.transfer(b->banks[k].block, b->own(*b->banks[k].exec),
                b->banks[k].exec->mask(), e, next->partner(e),
                pim::FixedFunctionSwitch::Route::kStraight);
    e.replay(*pointwise_prog_, slots);
  }
  accumulate(*next, "pointwise");
  a = std::move(next);
  b.reset();
}

ntt::Poly CryptoPimSimulator::multiply_attempt(const ntt::Poly& a,
                                               const ntt::Poly& b) {
  report_ = SimReport{};
  stage_counter_ = 0;
  const unsigned bits = params_.log2n;

  auto A = make_state();
  auto B = make_state();
  load_input(*A, a);
  load_input(*B, b);

  stage_scale(A, rows_.scale_a);
  wall_enabled_ = false;
  stage_scale(B, rows_.scale_b);
  wall_enabled_ = true;

  // Forward NTT, strides 1 .. n/2 (bit-reversed input loaded above).
  for (unsigned k = 0; k < bits; ++k) {
    stage_butterfly(A, 1u << k, rows_.forward[k]);
    wall_enabled_ = false;
    stage_butterfly(B, 1u << k, rows_.forward[k]);
    wall_enabled_ = true;
  }

  stage_pointwise(A, B);

  // Inverse NTT, strides n/2 .. 1 (conjugate schedule, no mid-pipeline
  // bit-reversal).
  for (unsigned k = bits; k-- > 0;) {
    stage_butterfly(A, 1u << k, rows_.inverse[k]);
  }

  stage_scale(A, rows_.scale_out);

  // Read out: the bit-reversal at read is a host-side permutation.
  ntt::Poly c(params_.n, 0);
  for (unsigned bnk = 0; bnk < banks_; ++bnk) {
    const auto vals =
        A->banks[bnk].exec->host_read(A->own(*A->banks[bnk].exec));
    for (std::size_t r = 0; r < vals.size(); ++r) {
      const std::uint64_t g = bnk * pim::kBlockRows + r;
      c[bit_reverse(g, bits)] = static_cast<std::uint32_t>(vals[r]);
    }
  }

  report_.latency_us =
      static_cast<double>(report_.wall_cycles) * device_.cycle_ns * 1e-3;
  report_.energy_uj = report_.totals.energy_fj(device_) * 1e-9;
  return c;
}

ntt::Poly CryptoPimSimulator::multiply(const ntt::Poly& a,
                                       const ntt::Poly& b) {
  if (a.size() != params_.n || b.size() != params_.n) {
    throw std::invalid_argument("operand size does not match the degree");
  }
  for (const auto c : a) {
    if (c >= params_.q) throw std::invalid_argument("coefficient >= q");
  }
  for (const auto c : b) {
    if (c >= params_.q) throw std::invalid_argument("coefficient >= q");
  }
  if (rows_.scale_a.empty()) build_factor_rows();
  if (scale_prog_ == nullptr) compile();

  active_metrics_ =
      custom_metrics_ != nullptr ? custom_metrics_ : &obs::metrics();
  obs::Tracer& tr = custom_tracer_ != nullptr ? *custom_tracer_ : obs::tracer();
  active_tracer_ = (CRYPTOPIM_TRACING && tr.enabled()) ? &tr : nullptr;
  if (active_tracer_ != nullptr) {
    for (unsigned b = 0; b < banks_; ++b) {
      active_tracer_->set_track_name(b, "bank " + std::to_string(b) + " (A)");
      active_tracer_->set_track_name(kSoftbankTrackBase + b,
                                     "softbank " + std::to_string(b) + " (B)");
    }
    active_tracer_->set_track_name(kPipelineTrack, "pipeline (critical path)");
  }

  ntt::Poly c;
  if (rel_ == nullptr) {
    // Reliability-free fast path: identical execution and cycle
    // accounting to the pre-reliability simulator (tested invariant).
    c = multiply_attempt(a, b);
  } else {
    rel_->begin_run();
    bool ok = false;
    const unsigned attempts = rel_->config().max_retries + 1;
    try {
      for (unsigned attempt = 0; attempt < attempts; ++attempt) {
        rel_->begin_attempt();
        // A dirty attempt (parity / program-verify hit) still runs to
        // completion: every stage block gets prepared and diagnosed, so
        // one repair pass can fix all of them instead of rediscovering
        // one faulty stage per retry.
        c = multiply_attempt(a, b);
        ok = rel_->verify(a, b, c);
        if (ok) break;
        // The attempt's wall cycles were wasted; diagnose and repair
        // before going again (may throw UnrecoverableFault).
        rel_->note_retry(report_.wall_cycles);
        rel_->repair();
      }
    } catch (const reliability::UnrecoverableFault&) {
      report_.reliability = rel_->stats();
      report_.reliability.publish(*active_metrics_);
      active_tracer_ = nullptr;
      throw;
    }
    rel_->finish_run(ok);
    report_.reliability = rel_->stats();
    report_.reliability.publish(*active_metrics_);
    if (!ok) {
      active_tracer_ = nullptr;
      throw reliability::UnrecoverableFault(
          "result verification still failing after max_retries",
          report_.reliability);
    }
#if CRYPTOPIM_TRACING
    if (active_tracer_ != nullptr && report_.reliability.verify_cycles > 0) {
      active_tracer_->emit(kPipelineTrack, "verify", "reliability",
                           report_.wall_cycles,
                           report_.reliability.verify_cycles);
    }
#endif
  }

  active_metrics_->counter("cryptopim.sim.multiplies", "ops").add(1);
  active_metrics_->counter("cryptopim.sim.wall_cycles", "cycles")
      .add(report_.wall_cycles);
  active_tracer_ = nullptr;
  return c;
}

}  // namespace cryptopim::sim
