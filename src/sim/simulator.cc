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
  // Banks are made once and reused through the pool: each executor is
  // bound to its block for the state's lifetime.
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

CryptoPimSimulator::~CryptoPimSimulator() = default;

void CryptoPimSimulator::set_reliability(
    reliability::ReliabilityManager* rm) noexcept {
  rel_ = rm;
  scale_prog_.reset();
  pool_.clear();
}

CryptoPimSimulator::StageMetrics::StageMetrics(obs::MetricsRegistry& reg)
    : exec(reg),
      stages(&reg.counter("cryptopim.sim.stages", "stages")),
      cycles_scale(&reg.counter("cryptopim.sim.cycles.scale", "cycles")),
      cycles_butterfly(
          &reg.counter("cryptopim.sim.cycles.butterfly", "cycles")),
      cycles_pointwise(
          &reg.counter("cryptopim.sim.cycles.pointwise", "cycles")),
      stage_cycles(&reg.histogram("cryptopim.sim.stage_cycles", "cycles")) {}

void CryptoPimSimulator::reserve_regions(pim::BlockExecutor& exec) const {
  exec.reserve_region(kOwnBase, 3 * width_);
  if (rel_ != nullptr) {
    // Keep the repair pool out of the processing-column allocator.
    exec.reserve_region(rel_->spare_base(),
                        rel_->config().spare_cols_per_block);
  }
}

std::unique_ptr<CryptoPimSimulator::PolyState>
CryptoPimSimulator::acquire_state() {
  std::unique_ptr<PolyState> st;
  if (pool_.empty()) {
    st = std::make_unique<PolyState>();
    st->width = width_;
    st->banks.resize(banks_);
  } else {
    st = std::move(pool_.back());
    pool_.pop_back();
  }
  for (unsigned b = 0; b < banks_; ++b) {
    auto& bank = st->banks[b];
    // Power-on of a (worn) physical block: faults and column remaps land
    // before the executor writes the constant rails.
    bank.block.reset();
    if (rel_ != nullptr) {
      rel_->prepare_block(stage_counter_, b, bank.block);
    }
    if (bank.exec == nullptr) {
      bank.exec = std::make_unique<pim::BlockExecutor>(
          bank.block, pim::RowMask::first_rows(rows_per_bank_), device_);
      reserve_regions(*bank.exec);
    } else {
      bank.exec->reset();  // keeps the reserved regions
    }
  }
  ++stage_counter_;
  return st;
}

void CryptoPimSimulator::release_state(std::unique_ptr<PolyState> st) {
  pool_.push_back(std::move(st));
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
    e.set_metrics(active_metrics_);
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
  struct {
    std::vector<std::uint64_t> scale_a, scale_b, scale_out;
    std::vector<std::vector<std::uint64_t>> forward, inverse;
  } rows;
  rows.scale_a.resize(n);
  rows.scale_b.resize(n);
  rows.scale_out.resize(n);
  for (std::uint32_t g = 0; g < n; ++g) {
    const std::uint64_t i = bit_reverse(g, bits);
    const std::uint32_t psi_i = montgomery_.to_mont(engine_.psi_powers()[i]);
    rows.scale_a[g] = psi_i;
    rows.scale_b[g] = ntt::mul_mod(psi_i, R_mod_q, q);
    rows.scale_out[g] = montgomery_.to_mont(engine_.psi_inv_scaled()[i]);
  }

  // omega^{-e} for every exponent the inverse schedule uses (< n/2).
  std::vector<std::uint32_t> omega_inv_pow(n / 2);
  std::uint32_t pw = 1;
  for (auto& x : omega_inv_pow) {
    x = pw;
    pw = ntt::mul_mod(pw, params_.omega_inv, q);
  }

  rows.forward.assign(bits, std::vector<std::uint64_t>(n, 0));
  rows.inverse.assign(bits, std::vector<std::uint64_t>(n, 0));
  for (unsigned k = 0; k < bits; ++k) {
    const std::uint32_t stride = 1u << k;
    const std::uint32_t step = n / (2 * stride);
    for (std::uint32_t g = 0; g < n; ++g) {
      if ((g & stride) == 0) continue;  // low rows carry no twiddle
      const std::uint32_t j = g - stride;
      // Algorithm 2: the butterfly writing row j' = j + 2^k multiplies by
      // twiddle[j >> (k+1)] from the bit-reversed table.
      rows.forward[k][g] =
          montgomery_.to_mont(engine_.forward_twiddles()[j >> (k + 1)]);
      // Conjugate (decreasing-stride) schedule: classic Gentleman–Sande
      // with w^{-1}; the butterfly at (j, j+len) uses exponent
      // (j mod len)*n/(2len).
      rows.inverse[k][g] =
          montgomery_.to_mont(omega_inv_pow[(j & (stride - 1)) * step]);
    }
  }

  // Every stage copies these columns in as they are: the transpose
  // happens once here, not per stage.
  const pim::RowMask all = pim::RowMask::first_rows(rows_per_bank_);
  const auto images = [&](const std::vector<std::uint64_t>& by_row) {
    std::vector<pim::ColumnBits> out;
    out.reserve(std::size_t{banks_} * width_);
    for (unsigned b = 0; b < banks_; ++b) {
      const auto bank = pim::BlockExecutor::bit_columns(
          std::span(by_row).subspan(b * pim::kBlockRows, rows_per_bank_),
          all, width_);
      out.insert(out.end(), bank.begin(), bank.end());
    }
    return out;
  };
  images_.scale_a = images(rows.scale_a);
  images_.scale_b = images(rows.scale_b);
  images_.scale_out = images(rows.scale_out);
  images_.forward.clear();
  images_.inverse.clear();
  for (unsigned k = 0; k < bits; ++k) {
    images_.forward.push_back(images(rows.forward[k]));
    images_.inverse.push_back(images(rows.inverse[k]));
  }

  // Mask tables. A butterfly runs both phases on every bank in lock-step,
  // even when a bank's side is empty: within a bank the stride splits the
  // rows; across banks a whole bank is high or low.
  all_rows_ = {all};
  in_bank_slots_.clear();
  for (std::uint32_t stride = 1; stride < rows_per_bank_; stride <<= 1) {
    in_bank_slots_.push_back({all, side_mask(rows_per_bank_, stride, true),
                              side_mask(rows_per_bank_, stride, false)});
  }
  cross_bank_slots_ = {SlotTable{all, all, pim::RowMask()},
                       SlotTable{all, pim::RowMask(), all}};
}

pim::FixedFunctionSwitch CryptoPimSimulator::make_switch(
    unsigned stride) const {
  pim::FixedFunctionSwitch sw(stride);
  if (rel_ != nullptr) {
    sw.set_fault_hooks(rel_->hooks(), rel_->parity_enabled());
  }
  return sw;
}

void CryptoPimSimulator::attach_obs(PolyState& st, bool wall) const {
  const std::uint32_t track_base = wall ? 0 : kSoftbankTrackBase;
  for (unsigned b = 0; b < banks_; ++b) {
    st.banks[b].exec->set_tracer(active_tracer_, track_base + b);
    st.banks[b].exec->set_trace_base(report_.wall_cycles);
  }
}

void CryptoPimSimulator::accumulate(PolyState& st,
                                    const std::string& stage_name,
                                    obs::Counter* kind_cycles, bool wall) {
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
    if (wall) {
      active_tracer_->emit(kPipelineTrack, stage_name, "stage",
                           report_.wall_cycles,
                           st.banks[0].exec->stats().cycles);
    }
  }
#endif

  // Metrics: per-stage-kind cycle counters plus the ExecStats facade.
  const StageMetrics& m = *stage_metrics_;
  kind_cycles->add(st.banks[0].exec->stats().cycles);
  m.stages->add(1);
  stage_total.publish(m.exec);

  // Banks run in lock-step, so the critical path is one bank's cycles.
  // B's softbank runs concurrently with A's: its stages cost energy but
  // no wall time.
  if (wall) {
    const std::uint64_t cycles = st.banks[0].exec->stats().cycles;
    m.stage_cycles->add(cycles);
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

void CryptoPimSimulator::load_factors(
    PolyState& st, const std::vector<pim::ColumnBits>& images) const {
  for (unsigned b = 0; b < banks_; ++b) {
    auto& e = *st.banks[b].exec;
    e.host_write_columns(st.twiddle(e),
                         std::span(images).subspan(b * width_, width_));
  }
}

std::vector<std::unique_ptr<CryptoPimSimulator::PolyState>>
CryptoPimSimulator::open_stage(std::span<const Leg> legs) {
  std::vector<std::unique_ptr<PolyState>> next;
  next.reserve(legs.size());
  for (const Leg& leg : legs) {
    next.push_back(acquire_state());
    attach_obs(*next.back(), leg.wall);
  }
  return next;
}

void CryptoPimSimulator::close_stage(
    std::span<const Leg> legs, std::vector<std::unique_ptr<PolyState>>& next,
    const std::string& name, obs::Counter* kind_cycles) {
  for (std::size_t i = 0; i < legs.size(); ++i) {
    accumulate(*next[i], name, kind_cycles, legs[i].wall);
    release_state(std::move(*legs[i].st));
    *legs[i].st = std::move(next[i]);
  }
}

void CryptoPimSimulator::stage_scale(std::span<const Leg> legs) {
  auto next = open_stage(legs);
  const pim::FixedFunctionSwitch sw = make_switch(0);
  std::vector<pim::ReplayLane> lanes;
  for (std::size_t i = 0; i < legs.size(); ++i) {
    PolyState& cur = **legs[i].st;
    for (unsigned b = 0; b < banks_; ++b) {
      auto& src = cur.banks[b];
      auto& e = *next[i]->banks[b].exec;
      sw.transfer(src.block, cur.own(*src.exec), src.exec->mask(), e,
                  next[i]->own(e), pim::FixedFunctionSwitch::Route::kStraight);
      lanes.push_back({&e, all_rows_});
    }
    // Pre-computed factors live in the block's data columns.
    load_factors(*next[i], *legs[i].factors);
  }
  pim::BlockExecutor::replay(*scale_prog_, lanes);
  close_stage(legs, next, "scale", stage_metrics_->cycles_scale);
}

void CryptoPimSimulator::stage_butterfly(std::uint32_t stride,
                                         std::span<const Leg> legs) {
  auto next = open_stage(legs);
  const bool in_bank = stride < rows_per_bank_;
  const unsigned ds =
      in_bank ? 0u : stride / static_cast<unsigned>(rows_per_bank_);
  // Bank b's mask table (see compile() for the slot convention).
  const auto slots = [&](unsigned b) -> const SlotTable& {
    return in_bank ? in_bank_slots_[ilog2(stride)]
                   : cross_bank_slots_[(b & ds) != 0 ? 0 : 1];
  };

  // --- transfers through the fixed-function switches -----------------------
  // Leg by leg (A before B), so the fault hooks' per-bit draws come in
  // the same order as when the softbanks ran one after the other.
  const pim::FixedFunctionSwitch sw = make_switch(in_bank ? stride : 0);
  std::vector<pim::ReplayLane> lanes;
  for (std::size_t i = 0; i < legs.size(); ++i) {
    PolyState& cur = **legs[i].st;
    PolyState& nx = *next[i];
    for (unsigned b = 0; b < banks_; ++b) {
      auto& src = cur.banks[b];
      auto& dst = *nx.banks[b].exec;
      sw.transfer(src.block, cur.own(*src.exec), src.exec->mask(), dst,
                  nx.own(dst), pim::FixedFunctionSwitch::Route::kStraight);
      if (in_bank) {
        // Low rows feed their +s neighbours; high rows feed -s.
        sw.transfer(src.block, cur.own(*src.exec), slots(b)[2], dst,
                    nx.partner(dst), pim::FixedFunctionSwitch::Route::kPlusS);
        sw.transfer(src.block, cur.own(*src.exec), slots(b)[1], dst,
                    nx.partner(dst), pim::FixedFunctionSwitch::Route::kMinusS);
      } else {
        // Stride crosses banks: the partner sits in the paired bank at the
        // same row; inter-bank switches provide the straight connection.
        auto& src_partner = cur.banks[b ^ ds];
        sw.transfer(src_partner.block, cur.own(*src_partner.exec),
                    src_partner.exec->mask(), dst, nx.partner(dst),
                    pim::FixedFunctionSwitch::Route::kStraight);
      }
      lanes.push_back({&dst, slots(b)});
    }
    // Twiddles for the high rows (pre-computed factors, Montgomery form).
    load_factors(nx, *legs[i].factors);
  }

  // --- compute --------------------------------------------------------------
  // The stage microcode is identical for every bank and both softbanks
  // (lock-step); the per-bank mask table selects which rows each phase
  // drives.
  pim::BlockExecutor::replay(*butterfly_prog_, lanes);
  close_stage(legs, next, butterfly_name(stride),
              stage_metrics_->cycles_butterfly);
}

void CryptoPimSimulator::stage_pointwise(std::unique_ptr<PolyState>& a,
                                         std::unique_ptr<PolyState>& b) {
  const Leg leg{&a, nullptr, true};
  auto next = open_stage({&leg, 1});
  PolyState& nx = *next[0];
  const pim::FixedFunctionSwitch sw = make_switch(0);
  std::vector<pim::ReplayLane> lanes;
  for (unsigned k = 0; k < banks_; ++k) {
    auto& e = *nx.banks[k].exec;
    sw.transfer(a->banks[k].block, a->own(*a->banks[k].exec),
                a->banks[k].exec->mask(), e, nx.own(e),
                pim::FixedFunctionSwitch::Route::kStraight);
    // B arrives through the inter-softbank switch.
    sw.transfer(b->banks[k].block, b->own(*b->banks[k].exec),
                b->banks[k].exec->mask(), e, nx.partner(e),
                pim::FixedFunctionSwitch::Route::kStraight);
    lanes.push_back({&e, all_rows_});
  }
  pim::BlockExecutor::replay(*pointwise_prog_, lanes);
  close_stage({&leg, 1}, next, "pointwise",
              stage_metrics_->cycles_pointwise);
  release_state(std::move(b));
}

ntt::Poly CryptoPimSimulator::multiply_attempt(const ntt::Poly& a,
                                               const ntt::Poly& b) {
  report_ = SimReport{};
  stage_counter_ = 0;
  const unsigned bits = params_.log2n;

  auto A = acquire_state();
  auto B = acquire_state();
  load_input(*A, a);
  load_input(*B, b);

  // The input scales and the forward NTT run A and B in lock-step: one
  // replay per stage drives both softbanks.
  const std::array<Leg, 2> scale_in = {Leg{&A, &images_.scale_a, true},
                                       Leg{&B, &images_.scale_b, false}};
  stage_scale(scale_in);

  // Forward NTT, strides 1 .. n/2 (bit-reversed input loaded above).
  for (unsigned k = 0; k < bits; ++k) {
    const std::array<Leg, 2> legs = {Leg{&A, &images_.forward[k], true},
                                     Leg{&B, &images_.forward[k], false}};
    stage_butterfly(1u << k, legs);
  }

  stage_pointwise(A, B);

  // Inverse NTT, strides n/2 .. 1 (conjugate schedule, no mid-pipeline
  // bit-reversal).
  for (unsigned k = bits; k-- > 0;) {
    const Leg leg{&A, &images_.inverse[k], true};
    stage_butterfly(1u << k, {&leg, 1});
  }

  const Leg out{&A, &images_.scale_out, true};
  stage_scale({&out, 1});

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
  release_state(std::move(A));

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
  active_metrics_ =
      custom_metrics_ != nullptr ? custom_metrics_ : &obs::metrics();
  if (images_.scale_a.empty()) build_factor_rows();
  if (scale_prog_ == nullptr) compile();
  stage_metrics_ = std::make_unique<StageMetrics>(*active_metrics_);
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
