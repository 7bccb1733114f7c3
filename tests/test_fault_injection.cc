// Fault-injection tests: stuck-at cells (the dominant ReRAM endurance
// failure) must corrupt in-memory arithmetic *detectably* — a downstream
// user can catch them with result verification — and must stay contained
// to the rows/columns they occupy.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "ntt/ntt.h"
#include "ntt/params.h"
#include "pim/circuits/arith.h"
#include "pim/circuits/reduction.h"
#include "pim/switch.h"
#include "reliability/manager.h"
#include "sim/simulator.h"

namespace cryptopim::pim {
namespace {

TEST(StuckFault, CellIgnoresWrites) {
  MemoryBlock blk;
  blk.inject_stuck_at(10, 5, true);
  EXPECT_TRUE(blk.column(10).get(5));
  blk.write_number(5, 10, 1, 0);
  // Host write is overridden by the fault.
  blk.enforce_faults();
  EXPECT_TRUE(blk.column(10).get(5));
  blk.clear();
  EXPECT_TRUE(blk.column(10).get(5));  // survives power cycling
  blk.clear_faults();
  blk.clear();
  EXPECT_FALSE(blk.column(10).get(5));
}

TEST(StuckFault, GateOutputOverridden) {
  MemoryBlock blk;
  BlockExecutor exec(blk, RowMask::first_rows(4));
  const Col a = exec.alloc_col();
  const Col d = exec.alloc_col();
  blk.inject_stuck_at(d, 2, false);
  exec.gate1(GateKind::kNot, d, a);  // NOT 0 = 1 everywhere
  EXPECT_TRUE(blk.column(d).get(0));
  EXPECT_TRUE(blk.column(d).get(1));
  EXPECT_FALSE(blk.column(d).get(2));  // stuck at 0
  EXPECT_TRUE(blk.column(d).get(3));
}

TEST(StuckFault, CorruptsOnlyTheFaultyRow) {
  // An adder over 512 rows with one stuck cell: exactly the faulty row's
  // result may differ from the scalar reference.
  MemoryBlock blk;
  BlockExecutor exec(blk, RowMask::all());
  Xoshiro256 rng(1);
  std::vector<std::uint64_t> va(kBlockRows), vb(kBlockRows);
  for (auto& x : va) x = rng.next_bits(16);
  for (auto& x : vb) x = rng.next_bits(16);
  const Operand a = exec.alloc(16);
  const Operand b = exec.alloc(16);
  exec.host_write(a, va);
  exec.host_write(b, vb);

  // Stick a bit of operand a in row 77 to 1 (may or may not flip it).
  blk.inject_stuck_at(a.col(3), 77, true);

  const Operand sum = circuits::add(exec, a, b, 17);
  const auto out = exec.host_read(sum);
  unsigned mismatches = 0;
  for (std::size_t r = 0; r < kBlockRows; ++r) {
    if (out[r] != ((va[r] + vb[r]) & 0x1FFFF)) {
      EXPECT_EQ(r, 77u);
      ++mismatches;
    }
  }
  // Deterministic corruption: the expected wrong value is computable.
  const std::uint64_t corrupted_a = va[77] | (1u << 3);
  EXPECT_EQ(out[77], (corrupted_a + vb[77]) & 0x1FFFF);
  EXPECT_LE(mismatches, 1u);
}

TEST(StuckFault, MultiplierFaultIsDetectedByVerification) {
  // The end-to-end defence the robustness story relies on: recompute in
  // software and compare. A single stuck processing cell must surface as
  // a mismatch, not be silently absorbed.
  MemoryBlock clean_blk, faulty_blk;
  BlockExecutor clean(clean_blk, RowMask::first_rows(8));
  BlockExecutor faulty(faulty_blk, RowMask::first_rows(8));

  Xoshiro256 rng(2);
  std::vector<std::uint64_t> va(8), vb(8);
  for (auto& x : va) x = rng.next_bits(16) | 1u;
  for (auto& x : vb) x = rng.next_bits(16) | 1u;

  auto run = [&](BlockExecutor& e, MemoryBlock& blk,
                 bool inject) -> std::vector<std::uint64_t> {
    const Operand a = e.alloc(16);
    const Operand b = e.alloc(16);
    e.host_write(a, va);
    e.host_write(b, vb);
    if (inject) {
      // Stuck-at-0 on the LSB of operand a in row 3 (inputs are forced
      // odd, so the cell actually flips).
      blk.inject_stuck_at(a.col(0), 3, false);
    }
    const Operand prod = circuits::multiply(e, a, b);
    return e.host_read(prod);
  };

  const auto good = run(clean, clean_blk, false);
  const auto bad = run(faulty, faulty_blk, true);
  EXPECT_NE(good, bad);  // verification catches it
  for (std::size_t r = 0; r < 8; ++r) {
    EXPECT_EQ(good[r], va[r] * vb[r]);
  }
}

TEST(StuckFault, SurvivesSwitchTransfer) {
  MemoryBlock src, dst;
  BlockExecutor se(src, RowMask::first_rows(4));
  BlockExecutor de(dst, RowMask::first_rows(4));
  const Operand so = se.alloc(8);
  const Operand dop = de.alloc(8);
  se.host_write(so, std::vector<std::uint64_t>{0xFF, 0xFF, 0xFF, 0xFF});
  dst.inject_stuck_at(dop.col(0), 1, false);

  FixedFunctionSwitch sw(1);
  sw.transfer(src, so, se.mask(), de, dop,
              FixedFunctionSwitch::Route::kStraight);
  const auto out = de.host_read(dop);
  EXPECT_EQ(out[0], 0xFFu);
  EXPECT_EQ(out[1], 0xFEu);  // bit 0 stuck low
}

namespace {
/// Records parity mismatches the switch's destination recount reports.
struct ParityRecorder final : TransferFaultHooks {
  bool corrupt_bit() override { return false; }
  void parity_mismatch(std::size_t row) override { rows.push_back(row); }
  std::vector<std::size_t> rows;
};
}  // namespace

TEST(StuckFault, DestinationBlockFaultCaughtByTransferParity) {
  // Satellite of the reliability story: a stuck cell in the *destination*
  // block of a switch transfer flips the landed data, and the parity
  // column's recount at the destination flags exactly that row.
  MemoryBlock src, dst;
  BlockExecutor se(src, RowMask::first_rows(4));
  BlockExecutor de(dst, RowMask::first_rows(4));
  const Operand so = se.alloc(8);
  const Operand dop = de.alloc(8);
  se.host_write(so, std::vector<std::uint64_t>{0xFF, 0xFF, 0xFF, 0xFF});
  dst.inject_stuck_at(dop.col(0), 1, false);  // bit 0 of row 1 stuck low

  ParityRecorder rec;
  FixedFunctionSwitch sw(1);
  sw.set_fault_hooks(&rec, /*parity=*/true);
  sw.transfer(src, so, se.mask(), de, dop,
              FixedFunctionSwitch::Route::kStraight);
  ASSERT_EQ(rec.rows.size(), 1u);
  EXPECT_EQ(rec.rows[0], 1u);
  // The corruption itself still landed (detection, not correction).
  EXPECT_EQ(de.host_read(dop)[1], 0xFEu);

  // Without the parity column the same fault goes unnoticed in flight.
  ParityRecorder deaf;
  FixedFunctionSwitch sw2(1);
  sw2.set_fault_hooks(&deaf, /*parity=*/false);
  sw2.transfer(src, so, se.mask(), de, dop,
              FixedFunctionSwitch::Route::kStraight);
  EXPECT_TRUE(deaf.rows.empty());
}

TEST(StuckFault, MidPipelineFaultCaughtAndRecovered) {
  // A stuck cell in a mid-pipeline stage block corrupts jobs streaming
  // through one simulator; the reliability layer must catch it, remap the
  // column, and deliver bit-exact results for every job.
  const auto params = ntt::NttParams::for_degree(256);
  reliability::ReliabilityConfig rc;
  rc.verify.points = 2;
  reliability::ReliabilityManager rm(rc, params);
  rm.fault_model().add_stuck_at(/*block=*/7, /*col=*/10, /*row=*/4, true);

  sim::CryptoPimSimulator simu(params);
  simu.set_reliability(&rm);
  ntt::GsNttEngine engine(params);
  Xoshiro256 rng(31);
  for (int job = 0; job < 2; ++job) {
    ntt::Poly a(params.n), b(params.n);
    for (auto& c : a) c = static_cast<std::uint32_t>(rng.next_below(params.q));
    for (auto& c : b) c = static_cast<std::uint32_t>(rng.next_below(params.q));
    EXPECT_EQ(simu.multiply(a, b), engine.negacyclic_multiply(a, b))
        << "job " << job;
    const auto& s = simu.report().reliability;
    EXPECT_TRUE(s.verified) << "job " << job;
    if (job == 0) {
      EXPECT_GT(s.parity_mismatches + s.write_verify_failures, 0u);
      EXPECT_GE(s.columns_remapped, 1u);
    } else {
      EXPECT_EQ(s.attempts, 1u);  // the repair persists
    }
  }
}

TEST(StuckFault, ZeroRailFaultIsCatastrophic) {
  // A stuck-at-1 on the shared zero rail poisons every zero-extended
  // operand — the design must treat rail cells as high-reliability.
  MemoryBlock blk;
  BlockExecutor exec(blk, RowMask::first_rows(2));
  const Operand a = exec.alloc(4);
  exec.host_write(a, std::vector<std::uint64_t>{1, 2});
  blk.inject_stuck_at(exec.zero_col(), 0, true);
  const Operand wide = exec.zext(a, 8);
  const auto out = exec.host_read(wide);
  EXPECT_NE(out[0], 1u);  // high bits read the poisoned rail
  EXPECT_EQ(out[1], 2u);  // other rows unaffected
}

}  // namespace
}  // namespace cryptopim::pim
