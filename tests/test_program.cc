// Tests for microcode programs and the controller (src/pim/program.*):
// record/replay equivalence — the property that makes broadcast-SIMD
// execution across banks sound — plus mask-slot semantics and controller
// bookkeeping.
#include "pim/program.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "pim/circuits/arith.h"
#include "pim/circuits/reduction.h"

namespace cryptopim::pim {
namespace {

std::vector<std::uint64_t> random_values(std::size_t n, unsigned bits,
                                         std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<std::uint64_t> v(n);
  for (auto& x : v) x = rng.next_bits(bits);
  return v;
}

// A one-block replay is a one-lane lock-step replay.
void replay_one(BlockExecutor& exec, const Program& prog,
                std::span<const RowMask> slots) {
  const ReplayLane lane{&exec, slots};
  BlockExecutor::replay(prog, {&lane, 1});
}

TEST(Program, RecordsIssuedOps) {
  MemoryBlock blk;
  BlockExecutor exec(blk, RowMask::all());
  Program prog;
  {
    const ProgramRecorder rec(exec, prog, 0);
    const Operand a = exec.alloc(8);
    const Operand b = exec.alloc(8);
    (void)circuits::add(exec, a, b, 8);
  }
  // Recording stopped at scope exit.
  exec.set0(exec.alloc_col());
  EXPECT_EQ(prog.cycles(), circuits::add_cycles(8));
  EXPECT_FALSE(prog.empty());
  EXPECT_EQ(prog.rom_bits(), prog.size() * 36);
}

TEST(Program, ReplayIsBitExactOnAnotherBlock) {
  // Record a multiply + reduction on block 0, replay on block 1 with
  // different data in the same column layout.
  const std::uint32_t q = 12289;
  const auto spec = ntt::MontgomeryShiftAdd::paper_spec(q);

  MemoryBlock blk0, blk1;
  BlockExecutor e0(blk0, RowMask::all());
  BlockExecutor e1(blk1, RowMask::all());
  for (auto* e : {&e0, &e1}) e->reserve_region(8, 32);

  Program prog;
  Operand result_cols;  // columns the recorded program writes
  {
    const Operand a = e0.contiguous(8, 16);
    const Operand b = e0.contiguous(24, 16);
    e0.host_write(a, random_values(kBlockRows, 14, 1));
    e0.host_write(b, random_values(kBlockRows, 14, 2));
    const ProgramRecorder rec(e0, prog, 0);
    Operand prod = circuits::multiply(e0, a, b);
    Operand red = circuits::montgomery_reduce(e0, prod, spec, true);
    e0.free(prod);
    result_cols = red;  // keep columns alive; both blocks share the layout
  }

  const auto vals_a = random_values(kBlockRows, 14, 3);
  const auto vals_b = random_values(kBlockRows, 14, 4);
  e1.host_write(e1.contiguous(8, 16), vals_a);
  e1.host_write(e1.contiguous(24, 16), vals_b);
  const std::vector<RowMask> slots = {RowMask::all()};
  replay_one(e1, prog, slots);

  const auto out = e1.host_read(result_cols);
  for (std::size_t r = 0; r < kBlockRows; ++r) {
    ASSERT_EQ(out[r], spec.reduce_canonical(vals_a[r] * vals_b[r]))
        << "row " << r;
  }
}

TEST(Program, ReplayChargesSameCycles) {
  MemoryBlock blk0, blk1;
  BlockExecutor e0(blk0, RowMask::all());
  BlockExecutor e1(blk1, RowMask::all());
  Program prog;
  {
    const ProgramRecorder rec(e0, prog, 0);
    const Operand a = e0.alloc(16);
    const Operand b = e0.alloc(16);
    (void)circuits::multiply(e0, a, b);
  }
  const auto recorded_cycles = prog.cycles();
  e1.reset_stats();
  const std::vector<RowMask> slots = {RowMask::all()};
  replay_one(e1, prog, slots);
  EXPECT_EQ(e1.stats().cycles, recorded_cycles);
}

TEST(Program, MaskSlotsSelectRowsAtReplay) {
  MemoryBlock blk;
  BlockExecutor exec(blk, RowMask::first_rows(8));
  Program prog;
  const Col src = exec.alloc_col();
  const Col dst = exec.alloc_col();
  for (std::size_t r = 0; r < 8; ++r) blk.column(src).set(r, true);
  {
    ProgramRecorder rec(exec, prog, /*mask_slot=*/1);
    exec.set_mask(RowMask());  // recording run drives nothing
    exec.gate1(GateKind::kCopy, dst, src);
    rec.set_mask_slot(2);
    exec.gate1(GateKind::kNot, dst, src);
    exec.set_mask(RowMask::first_rows(8));
  }
  ASSERT_EQ(prog.size(), 2u);
  EXPECT_EQ(prog.instrs()[0].mask_slot, 1);
  EXPECT_EQ(prog.instrs()[1].mask_slot, 2);

  // Replay with slot 1 = rows 0..3, slot 2 = rows 4..7: copy hits the low
  // half, NOT the high half.
  RowMask low, high;
  for (std::size_t r = 0; r < 4; ++r) low.set(r, true);
  for (std::size_t r = 4; r < 8; ++r) high.set(r, true);
  const std::vector<RowMask> slots = {RowMask::first_rows(8), low, high};
  replay_one(exec, prog, slots);
  for (std::size_t r = 0; r < 4; ++r) EXPECT_TRUE(blk.column(dst).get(r));
  for (std::size_t r = 4; r < 8; ++r) EXPECT_FALSE(blk.column(dst).get(r));
}

TEST(Program, EmptyMaskExecutionChargesCyclesButTouchesNoCells) {
  // Lock-step banks execute phases whose mask is empty on their side.
  MemoryBlock blk;
  BlockExecutor exec(blk, RowMask());
  exec.reset_stats();
  const Col a = exec.alloc_col();
  const Col d = exec.alloc_col();
  exec.gate2(GateKind::kXor2, d, a, a);
  EXPECT_EQ(exec.stats().cycles, 2u);
  EXPECT_EQ(exec.stats().cell_events, 0u);  // no energy
}

TEST(Controller, StageLibraryBookkeeping) {
  Controller ctrl;
  Program p1, p2;
  p1.append(MicroOp{GateKind::kNot, 5, 4, 0, 0, false, false, false}, 0);
  p2.append(MicroOp{GateKind::kXor2, 6, 4, 5, 0, false, false, false}, 1);
  p2.append(MicroOp{GateKind::kSet0, 7, 0, 0, 0, false, false, false}, 0);
  const auto id1 = ctrl.add_stage("alpha", p1);
  const auto id2 = ctrl.add_stage("beta", p2);
  EXPECT_EQ(ctrl.stage_count(), 2u);
  EXPECT_EQ(ctrl.name(id1), "alpha");
  EXPECT_EQ(ctrl.program(id2).size(), 2u);
  EXPECT_EQ(ctrl.total_instructions(), 3u);
  EXPECT_EQ(ctrl.total_rom_bits(), 3u * 36);
}

}  // namespace
}  // namespace cryptopim::pim
