// Tests for the fixed-function inter-block switch (src/pim/switch.*) and
// the RRAM device model / Monte-Carlo robustness sweep (src/pim/device.*).
#include <gtest/gtest.h>

#include <array>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "pim/device.h"
#include "pim/switch.h"

namespace cryptopim::pim {
namespace {

TEST(FixedFunctionSwitch, StraightRoutePreservesRows) {
  MemoryBlock src, dst;
  BlockExecutor sexec(src, RowMask::first_rows(8));
  BlockExecutor dexec(dst, RowMask::first_rows(8));
  const Operand so = sexec.alloc(16);
  const Operand dop = dexec.alloc(16);
  std::vector<std::uint64_t> vals = {1, 2, 3, 4, 5, 6, 7, 8};
  sexec.host_write(so, vals);

  FixedFunctionSwitch sw(4);
  sw.transfer(src, so, sexec.mask(), dexec, dop,
              FixedFunctionSwitch::Route::kStraight);
  EXPECT_EQ(dexec.host_read(dop), vals);
}

TEST(FixedFunctionSwitch, PlusAndMinusRoutes) {
  MemoryBlock src, dst;
  BlockExecutor sexec(src, RowMask::first_rows(8));
  BlockExecutor dexec(dst, RowMask::all());
  const Operand so = sexec.alloc(8);
  const Operand dop = dexec.alloc(8);
  std::vector<std::uint64_t> vals = {10, 20, 30, 40, 50, 60, 70, 80};
  sexec.host_write(so, vals);

  FixedFunctionSwitch sw(2);
  sw.transfer(src, so, sexec.mask(), dexec, dop,
              FixedFunctionSwitch::Route::kPlusS);
  // Row r of src lands in row r+2 of dst.
  const auto all = dexec.host_read(dop);
  for (std::size_t r = 0; r < 8; ++r) EXPECT_EQ(all[r + 2], vals[r]);

  sw.transfer(src, so, sexec.mask(), dexec, dop,
              FixedFunctionSwitch::Route::kMinusS);
  const auto all2 = dexec.host_read(dop);
  // Rows 0,1 of src would land at -2/-1: dropped. Row 2 -> row 0.
  for (std::size_t r = 2; r < 8; ++r) EXPECT_EQ(all2[r - 2], vals[r]);
}

TEST(FixedFunctionSwitch, TransferCostIsWidthCyclesPerRoute) {
  MemoryBlock src, dst;
  BlockExecutor sexec(src, RowMask::first_rows(4));
  BlockExecutor dexec(dst, RowMask::first_rows(4));
  const Operand so = sexec.alloc(16);
  const Operand dop = dexec.alloc(16);
  dexec.reset_stats();
  FixedFunctionSwitch sw(1);
  // The paper: "transferring data between two blocks in NTT requires only
  // 3*bitwidth cycles, one each for A-to-A, A-to-(A+s), and A-to-(A-s)".
  sw.transfer(src, so, sexec.mask(), dexec, dop,
              FixedFunctionSwitch::Route::kStraight);
  sw.transfer(src, so, sexec.mask(), dexec, dop,
              FixedFunctionSwitch::Route::kPlusS);
  sw.transfer(src, so, sexec.mask(), dexec, dop,
              FixedFunctionSwitch::Route::kMinusS);
  EXPECT_EQ(dexec.stats().cycles, 3u * 16u);
}

// ---------------------------------------------------------------------------
// Word-wide transfer vs the per-bit reference
// ---------------------------------------------------------------------------
// transfer() moves each bit column as one shifted, masked 512-row word
// copy. The reference below is the row-at-a-time loop it replaced: same
// landing rows, same dropped rows, same corrupt_bit() draw order
// (bit-major, ascending rows), same parity recount.

int route_offset(FixedFunctionSwitch::Route route, unsigned stride) {
  return route == FixedFunctionSwitch::Route::kStraight ? 0
         : route == FixedFunctionSwitch::Route::kPlusS
             ? static_cast<int>(stride)
             : -static_cast<int>(stride);
}

void reference_transfer(const MemoryBlock& src, const Operand& src_op,
                        const RowMask& mask, MemoryBlock& dst,
                        const Operand& dst_op, int offset,
                        TransferFaultHooks* hooks, bool parity) {
  std::array<std::uint8_t, kBlockRows> sent_parity{};
  for (unsigned bit = 0; bit < src_op.width(); ++bit) {
    for (std::size_t r = 0; r < kBlockRows; ++r) {
      if (!mask.get(r)) continue;
      const long target = static_cast<long>(r) + offset;
      if (target < 0 || target >= static_cast<long>(kBlockRows)) continue;
      bool v = src.column(src_op.col(bit)).get(r);
      if (parity) sent_parity[r] ^= static_cast<std::uint8_t>(v);
      if (hooks != nullptr && hooks->corrupt_bit()) v = !v;
      dst.column(dst_op.col(bit)).set(static_cast<std::size_t>(target), v);
    }
  }
  dst.enforce_faults();
  if (!parity) return;
  for (std::size_t r = 0; r < kBlockRows; ++r) {
    if (!mask.get(r)) continue;
    const long target = static_cast<long>(r) + offset;
    if (target < 0 || target >= static_cast<long>(kBlockRows)) continue;
    std::uint8_t got = 0;
    for (unsigned bit = 0; bit < dst_op.width(); ++bit) {
      got ^= static_cast<std::uint8_t>(
          dst.column(dst_op.col(bit)).get(static_cast<std::size_t>(target)));
    }
    if (got != sent_parity[r]) {
      hooks->parity_mismatch(static_cast<std::size_t>(target));
    }
  }
}

/// Seeded flips (1 in 8 bits) with a log of every draw and mismatch.
class ScriptedHooks : public TransferFaultHooks {
 public:
  explicit ScriptedHooks(std::uint64_t seed) : rng_(seed) {}
  bool corrupt_bit() override {
    draws.push_back(rng_.next_below(8) == 0);
    return draws.back();
  }
  void parity_mismatch(std::size_t row) override { mismatches.push_back(row); }

  std::vector<bool> draws;
  std::vector<std::size_t> mismatches;

 private:
  Xoshiro256 rng_;
};

constexpr unsigned kXferWidth = 13;

Operand xfer_operand(Col base) {
  std::vector<Col> cols(kXferWidth);
  for (unsigned i = 0; i < kXferWidth; ++i) {
    cols[i] = static_cast<Col>(base + i);
  }
  return Operand(std::move(cols));
}

void fill_random(MemoryBlock& blk, Col base, Xoshiro256& rng) {
  for (unsigned i = 0; i < kXferWidth; ++i) {
    for (std::size_t w = 0; w < ColumnBits::kWords; ++w) {
      blk.column(static_cast<Col>(base + i)).set_word(w, rng.next());
    }
  }
}

RowMask random_mask(Xoshiro256& rng) {
  RowMask m;
  for (std::size_t r = 0; r < kBlockRows; ++r) m.set(r, rng.next_below(2) == 1);
  return m;
}

/// One transfer scenario; `stuck_at_one` plants destination faults.
struct TransferCase {
  unsigned stride;
  FixedFunctionSwitch::Route route;
  RowMask mask;
  bool hooks = false;
  std::vector<std::pair<Col, std::uint16_t>> stuck_at_one = {};
};

/// Runs transfer() and the reference on identical blocks and compares
/// the destination cells, the hook draws, the mismatch rows and the cost.

void expect_matches_reference(const TransferCase& tc, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  MemoryBlock src, dst, ref;
  const Operand src_op = xfer_operand(100);
  const Operand dst_op = xfer_operand(200);
  fill_random(src, 100, rng);
  Xoshiro256 dst_rng(seed + 1), ref_rng(seed + 1);
  fill_random(dst, 200, dst_rng);
  fill_random(ref, 200, ref_rng);
  for (const auto& [col, row] : tc.stuck_at_one) {
    dst.inject_stuck_at(col, row, true);
    ref.inject_stuck_at(col, row, true);
  }
  BlockExecutor dexec(dst, RowMask::all());
  BlockExecutor rexec(ref, RowMask::all());  // same one-rail SET as dexec

  ScriptedHooks hooks(seed + 2), ref_hooks(seed + 2);
  FixedFunctionSwitch sw(tc.stride);
  if (tc.hooks) sw.set_fault_hooks(&hooks, /*parity=*/true);
  dexec.reset_stats();
  sw.transfer(src, src_op, tc.mask, dexec, dst_op, tc.route);
  reference_transfer(src, src_op, tc.mask, ref, dst_op,
                     route_offset(tc.route, tc.stride),
                     tc.hooks ? &ref_hooks : nullptr, tc.hooks);

  for (unsigned i = 0; i < kXferWidth; ++i) {
    for (std::size_t w = 0; w < ColumnBits::kWords; ++w) {
      ASSERT_EQ(dst.column(dst_op.col(i)).word(w),
                ref.column(dst_op.col(i)).word(w))
          << "stride " << tc.stride << " route "
          << static_cast<int>(tc.route) << " bit " << i << " word " << w;
    }
  }
  EXPECT_EQ(hooks.draws, ref_hooks.draws) << "stride " << tc.stride;
  EXPECT_EQ(hooks.mismatches, ref_hooks.mismatches) << "stride " << tc.stride;
  const unsigned cols = kXferWidth + (tc.hooks ? 1u : 0u);
  EXPECT_EQ(dexec.stats().cycles, cols);
  EXPECT_EQ(dexec.stats().transfer_bits, cols * kBlockRows);
}

constexpr FixedFunctionSwitch::Route kRoutes[] = {
    FixedFunctionSwitch::Route::kStraight, FixedFunctionSwitch::Route::kPlusS,
    FixedFunctionSwitch::Route::kMinusS};

TEST(SwitchWordTransfer, MatchesPerBitReferenceOnEveryRouteAndStride) {
  // Strides 1..256 cover in-word shifts, exact word shifts (64, 128) and
  // shifts that straddle word boundaries; with every row active, the
  // +/-s routes push rows off both ends of the block.
  Xoshiro256 rng(41);
  for (unsigned stride = 1; stride <= 256; ++stride) {
    for (const auto route : kRoutes) {
      expect_matches_reference({stride, route, RowMask::all()}, stride);
      expect_matches_reference({stride, route, random_mask(rng)}, stride + 7);
    }
  }
}

TEST(SwitchWordTransfer, PartialMasksMatchPerBitReference) {
  Xoshiro256 rng(43);
  for (const unsigned stride : {1u, 3u, 63u, 64u, 65u, 128u, 200u, 256u}) {
    for (const auto route : kRoutes) {
      // Prefix, suffix-free ranges and single rows, including rows that
      // would land outside the block.
      expect_matches_reference({stride, route, RowMask::first_rows(300)}, 1);
      RowMask edges;
      edges.set(0, true);
      edges.set(63, true);
      edges.set(64, true);
      edges.set(kBlockRows - 1, true);
      expect_matches_reference({stride, route, edges}, 2);
      expect_matches_reference({stride, route, RowMask()}, 3);
      expect_matches_reference({stride, route, random_mask(rng)}, 4);
    }
  }
}

TEST(SwitchWordTransfer, RowsLeavingTheBlockAreDropped) {
  MemoryBlock src, dst;
  BlockExecutor sexec(src, RowMask::all());
  BlockExecutor dexec(dst, RowMask::all());
  const Operand so = xfer_operand(100);
  const Operand dop = xfer_operand(200);
  std::vector<std::uint64_t> vals(kBlockRows);
  for (std::size_t r = 0; r < kBlockRows; ++r) vals[r] = r + 1;
  sexec.host_write(so, vals);

  const FixedFunctionSwitch sw(200);
  sw.transfer(src, so, RowMask::all(), dexec, dop,
              FixedFunctionSwitch::Route::kPlusS);
  const auto got = dexec.host_read(dop);
  for (std::size_t r = 0; r < 200; ++r) ASSERT_EQ(got[r], 0u) << r;
  for (std::size_t r = 200; r < kBlockRows; ++r) {
    ASSERT_EQ(got[r], r - 200 + 1) << r;
  }
}

TEST(SwitchWordTransfer, HookDrawsAndParityMismatchesMatchReference) {
  // Transient flips plus stuck destination cells: the word-wide path
  // must draw corrupt_bit() for exactly the same (bit, row) sequence and
  // report exactly the same mismatch rows as the per-bit loop.
  Xoshiro256 rng(47);
  const std::vector<std::pair<Col, std::uint16_t>> stuck = {
      {200, 5}, {203, 64}, {207, 130}, {212, 511}, {201, 300}};
  for (const unsigned stride : {1u, 2u, 63u, 64u, 100u, 128u, 256u}) {
    for (const auto route : kRoutes) {
      TransferCase tc{stride, route, RowMask::all(), true, stuck};
      expect_matches_reference(tc, stride * 3);
      tc.mask = random_mask(rng);
      expect_matches_reference(tc, stride * 3 + 1);
    }
  }
}

TEST(FixedFunctionSwitch, LogicCostIndependentOfPortCount) {
  EXPECT_EQ(FixedFunctionSwitch::logic_per_row(), 3u);
  // A crossbar needs per-row logic proportional to the row count.
  EXPECT_EQ(FixedFunctionSwitch::crossbar_logic_per_row(512), 512u);
}

TEST(DeviceModel, PaperParameters) {
  const auto dev = DeviceModel::paper_45nm();
  EXPECT_DOUBLE_EQ(dev.cycle_ns, 1.1);
  EXPECT_GT(dev.r_off_ohm / dev.r_on_ohm, 100.0);  // high Roff/Ron
}

TEST(DeviceModel, MonteCarloNoiseMargin) {
  // Section IV-A: 5000 trials, 10% variation, max 25.6% margin reduction,
  // still functional. Our resistive-divider model with the same knobs must
  // show a bounded, non-fatal degradation.
  const auto dev = DeviceModel::paper_45nm();
  Xoshiro256 rng(2020);
  const auto res = monte_carlo_noise_margin(dev, 5000, 0.10, rng);
  EXPECT_GT(res.nominal_margin, 0.0);
  EXPECT_GT(res.max_reduction_pct, 0.0);
  EXPECT_LT(res.max_reduction_pct, 30.0);
  EXPECT_TRUE(res.functional);
}

TEST(DeviceModel, HigherVariationDegradesMore) {
  const auto dev = DeviceModel::paper_45nm();
  Xoshiro256 rng1(1), rng2(1);
  const auto low = monte_carlo_noise_margin(dev, 2000, 0.05, rng1);
  const auto high = monte_carlo_noise_margin(dev, 2000, 0.30, rng2);
  EXPECT_LT(low.max_reduction_pct, high.max_reduction_pct);
}

TEST(ExecStats, EnergyAccounting) {
  const auto dev = DeviceModel::paper_45nm();
  ExecStats s;
  s.cell_events = 1000;
  s.transfer_bits = 100;
  const double e = s.energy_fj(dev);
  EXPECT_DOUBLE_EQ(e, 1000 * dev.cell_switch_energy_fj +
                          100 * dev.switch_transfer_energy_fj);
  ExecStats t;
  t.cycles = 5;
  t.cell_events = 1;
  s += t;
  EXPECT_EQ(s.cycles, 5u);
  EXPECT_EQ(s.cell_events, 1001u);
}

}  // namespace
}  // namespace cryptopim::pim
