#include "pim/circuits/reduction.h"

#include <algorithm>
#include <cassert>

#include "common/bitutil.h"
#include "obs/metrics.h"

namespace cryptopim::pim::circuits {

namespace {

// Reductions are the per-op cost the paper's Table I is built around;
// record each call's cycle count so a run's Barrett-vs-Montgomery split
// is observable without re-deriving it from stage totals. Reductions run
// once per recorded stage program (not per bank), so this is cold code.
// Samples go to the executor's registry (the compiling simulator's).
struct ReduceMeter {
  ReduceMeter(BlockExecutor& exec, const char* metric)
      : exec_(exec), metric_(metric), start_(exec.stats().cycles) {}
  ~ReduceMeter() {
    exec_.metrics()
        .histogram(metric_, "cycles")
        .add(exec_.stats().cycles - start_);
  }
  BlockExecutor& exec_;
  const char* metric_;
  std::uint64_t start_;
};

// Largest value representable by an operand (conservative static bound,
// saturating at 64 bits).
std::uint64_t operand_max(const Operand& op) {
  if (op.width() >= 64) return ~std::uint64_t{0};
  return (std::uint64_t{1} << op.width()) - 1;
}

// Shrink an operand view to `width` bits, releasing the dropped columns.
Operand shrink(BlockExecutor& exec, Operand op, unsigned width) {
  if (op.width() <= width) return op;
  Operand kept = op.slice(0, width);
  for (unsigned i = width; i < op.width(); ++i) exec.free_col(op.col(i));
  return kept;
}

}  // namespace

Operand barrett_reduce(BlockExecutor& exec, const Operand& a,
                       const ntt::BarrettShiftAdd& spec, bool canonical) {
  const TraceScope span(exec, "barrett_reduce", "reduce");
  const ReduceMeter meter(exec, "cryptopim.reduce.barrett_cycles");
  const std::uint64_t a_max = operand_max(a);
  assert(a_max <= spec.max_input());

  // u = (shift-add quotient chain) >> quotient_shift  ~  floor(a / q)
  const std::uint64_t u_full_max =
      eval_shift_add(a_max, spec.quotient_terms().data(),
                     spec.quotient_terms().size());
  const unsigned u_full_width = bit_length(u_full_max);
  Operand u_full =
      shift_add_chain(exec, a, spec.quotient_terms(), u_full_width);

  const unsigned shift = spec.quotient_shift();
  Operand result;
  if (shift >= u_full_width) {
    // Quotient statically zero: a is already < 2q.
    exec.free(u_full);
    result = exec.alloc(a.width());
    for (unsigned i = 0; i < a.width(); ++i) {
      exec.gate1(GateKind::kCopy, result.col(i), a.col(i));
    }
  } else {
    Operand u = u_full.slice(shift, u_full_width);  // free right shift

    // u * q via the shift-add decomposition of q.
    const std::uint64_t u_max = u_full_max >> shift;
    const std::uint64_t uq_max =
        eval_shift_add(u_max, spec.q_terms().data(), spec.q_terms().size());
    Operand uq = shift_add_chain(exec, u, spec.q_terms(), bit_length(uq_max));
    exec.free(u_full);

    // r = a - u*q, guaranteed in [0, 2q).
    const unsigned r_width = bit_length(2ull * spec.q() - 1);
    Operand r = sub_trimmed(exec, a, uq, std::max(a.width(), uq.width()));
    exec.free(uq);
    result = shrink(exec, std::move(r), r_width);
  }

  if (canonical) {
    Operand canon = conditional_subtract(exec, result, spec.q());
    exec.free(result);
    return shrink(exec, std::move(canon), bit_length(spec.q() - 1));
  }
  return result;
}

Operand montgomery_reduce(BlockExecutor& exec, const Operand& a,
                          const ntt::MontgomeryShiftAdd& spec,
                          bool canonical) {
  const TraceScope span(exec, "montgomery_reduce", "reduce");
  const ReduceMeter meter(exec, "cryptopim.reduce.montgomery_cycles");
  const unsigned r_bits = spec.r_bits();
  assert(operand_max(a) <= spec.max_input());

  // m = (a * q') mod R: the chain wraps modulo 2^r_bits, so only the low
  // r_bits of a participate (free slice).
  const Operand a_low =
      a.width() > r_bits ? a.slice(0, r_bits) : Operand(a.cols());
  Operand m = shift_add_chain(exec, a_low, spec.qprime_terms(), r_bits);

  // m * q, full width.
  const std::uint64_t m_max = spec.R() - 1;
  const std::uint64_t mq_max =
      eval_shift_add(m_max, spec.q_terms().data(), spec.q_terms().size());
  Operand mq = shift_add_chain(exec, m, spec.q_terms(), bit_length(mq_max));
  exec.free(m);

  // t = (a + m*q) >> r_bits, in [0, 2q).
  const unsigned t_width =
      bit_length(operand_max(a) + mq_max);
  Operand t = add_trimmed(exec, a, mq, t_width);
  exec.free(mq);

  // The low r_bits of t are zero by construction; the shift is free.
  Operand result = t.slice(r_bits, t_width);
  for (unsigned i = 0; i < r_bits; ++i) exec.free_col(t.col(i));

  if (canonical) {
    Operand canon = conditional_subtract(exec, result, spec.q());
    exec.free(result);
    return shrink(exec, std::move(canon), bit_length(spec.q() - 1));
  }
  return result;
}

Operand barrett_reduce_by_multiplication(BlockExecutor& exec,
                                         const Operand& a, std::uint32_t q,
                                         bool canonical) {
  const TraceScope span(exec, "barrett_reduce_by_multiplication", "reduce");
  const ReduceMeter meter(exec, "cryptopim.reduce.barrett_mult_cycles");
  // Classic Barrett: u = (a * m) >> k with m = floor(2^k / q), r = a - u*q,
  // both constant multiplications done as full in-memory multiplies.
  // k >= width(a) keeps the quotient approximation within one of the true
  // quotient, so r < 2q for any representable input.
  const unsigned k = std::max(a.width(), bit_length(q) + 1);
  assert(k <= 64);
  const auto mconst = static_cast<std::uint64_t>(
      (static_cast<unsigned __int128>(1) << k) / q);

  const Operand m_op = exec.constant(mconst, bit_length(mconst));
  Operand am = multiply(exec, a, m_op);
  Operand u = am.slice(k, am.width());
  // Release the truncated low half.
  for (unsigned i = 0; i < k && i < am.width(); ++i) exec.free_col(am.col(i));

  const Operand q_op = exec.constant(q, bit_length(q));
  Operand uq = multiply(exec, u, q_op);
  exec.free(u);

  Operand r = sub_trimmed(exec, a, uq, std::max(a.width(), uq.width()));
  exec.free(uq);
  // Barrett with this precision guarantees r < 2q.
  Operand result = shrink(exec, std::move(r), bit_length(2ull * q - 1));

  if (canonical) {
    Operand canon = conditional_subtract(exec, result, q);
    exec.free(result);
    return shrink(exec, std::move(canon), bit_length(q - 1));
  }
  return result;
}

}  // namespace cryptopim::pim::circuits
