// Tests for the lock-step gate replay (src/pim/gate_kernels.*,
// BlockExecutor::replay): every SIMD kernel table writes the same cells
// as the scalar one, and replaying k blocks as lanes of one instruction
// stream is k one-block replays — cells, ExecStats and write-verify
// reports — including blocks with stuck cells and remapped columns.
#include "pim/gate_kernels.h"

#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "common/rng.h"
#include "pim/circuits/arith.h"
#include "pim/circuits/reduction.h"
#include "pim/executor.h"
#include "pim/program.h"

namespace cryptopim::pim {
namespace {

constexpr unsigned kGateKinds = 13;  // GateKind::kSet0 .. GateKind::kCopy
constexpr Col kCols = 48;            // columns the random programs touch

void fill_random(MemoryBlock& blk, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  for (Col c = 0; c < kCols; ++c) {
    for (std::size_t w = 0; w < ColumnBits::kWords; ++w) {
      blk.column(c).set_word(w, rng.next());
    }
  }
}

void expect_same_cells(const MemoryBlock& got, const MemoryBlock& want,
                       const std::string& what) {
  for (Col c = 0; c < kBlockCols; ++c) {
    for (std::size_t w = 0; w < ColumnBits::kWords; ++w) {
      ASSERT_EQ(got.column(c).word(w), want.column(c).word(w))
          << what << ": column " << c << " word " << w;
    }
  }
}

// A mask table whose slots together span exactly words [first, last),
// with random rows inside.
std::array<RowMask, kMaskSlots> random_masks(unsigned first, unsigned last,
                                             Xoshiro256& rng) {
  std::array<RowMask, kMaskSlots> masks;
  for (auto& m : masks) {
    for (std::size_t r = first * 64; r < last * 64; ++r) {
      m.set(r, (rng.next() & 3) != 0);
    }
  }
  masks[0].set(first * 64, true);  // pin the window's edges
  masks[kMaskSlots - 1].set(last * 64 - 1, true);
  return masks;
}

std::vector<Instr> random_program(std::size_t size, Xoshiro256& rng) {
  std::vector<Instr> prog;
  for (std::size_t i = 0; i < size; ++i) {
    MicroOp op;
    op.kind = static_cast<GateKind>(i % kGateKinds);  // every kind, often
    op.dst = static_cast<Col>(1 + rng.next_below(kCols - 1));
    op.a = static_cast<Col>(rng.next_below(kCols));
    op.b = static_cast<Col>(rng.next_below(kCols));
    op.c = static_cast<Col>(rng.next_below(kCols));
    const std::uint64_t pol = rng.next_below(8);  // every polarity
    op.neg_a = (pol & 1) != 0;
    op.neg_b = (pol & 2) != 0;
    op.neg_c = (pol & 4) != 0;
    prog.push_back(Instr{op, static_cast<std::uint8_t>(i % kMaskSlots)});
  }
  return prog;
}

std::vector<const GateKernels*> simd_tables() {
  std::vector<const GateKernels*> out;
  for (const GateKernels* k : {avx2_gate_kernels(), avx512_gate_kernels()}) {
    if (k != nullptr) out.push_back(k);
  }
  return out;
}

TEST(GateKernels, EveryTableMatchesScalarOnRandomPrograms) {
  const auto tables = simd_tables();
  if (tables.empty()) GTEST_SKIP() << "no SIMD gate-kernel table on this CPU";
  Xoshiro256 rng(2024);
  // Windows of 1..8 words at every offset that fits; two lanes with
  // different windows run in each call.
  for (unsigned len = 1; len <= ColumnBits::kWords; ++len) {
    for (unsigned first = 0; first + len <= ColumnBits::kWords; ++first) {
      const unsigned other_first = (first + 3) % (ColumnBits::kWords - len + 1);
      const auto masks0 = random_masks(first, first + len, rng);
      const auto masks1 = random_masks(other_first, other_first + len, rng);
      const auto prog = random_program(4 * kGateKinds * 8, rng);
      const std::uint64_t seed0 = rng.next(), seed1 = rng.next();
      MemoryBlock want0, want1;
      fill_random(want0, seed0);
      fill_random(want1, seed1);
      const std::array<GateLane, 2> want_lanes = {
          gate_lane(want0, masks0.data(), {first, first + len}),
          gate_lane(want1, masks1.data(), {other_first, other_first + len})};
      scalar_gate_kernels().run(prog.data(), prog.data() + prog.size(),
                                want_lanes.data(), want_lanes.size());
      for (const GateKernels* k : tables) {
        MemoryBlock got0, got1;
        fill_random(got0, seed0);
        fill_random(got1, seed1);
        const std::array<GateLane, 2> lanes = {
            gate_lane(got0, masks0.data(), {first, first + len}),
            gate_lane(got1, masks1.data(), {other_first, other_first + len})};
        k->run(prog.data(), prog.data() + prog.size(), lanes.data(),
               lanes.size());
        const std::string at = std::string(k->name) + " window [" +
                               std::to_string(first) + ", " +
                               std::to_string(first + len) + ")";
        expect_same_cells(got0, want0, at + " lane 0");
        expect_same_cells(got1, want1, at + " lane 1");
      }
    }
  }
}

TEST(GateKernels, BestTableIsOneOfTheAvailable) {
  const GateKernels& best = best_gate_kernels();
  bool found = &best == &scalar_gate_kernels();
  for (const GateKernels* k : simd_tables()) found = found || k == &best;
  EXPECT_TRUE(found) << best.name;
}

// Counts refused writes, as the reliability layer does.
struct CountingObserver final : WriteVerifyObserver {
  std::uint64_t refused = 0;
  void stuck_write(Col, std::size_t, bool) override { ++refused; }
};

// Lane setups of the lock-step test: plain, stuck cells in the columns
// the program writes, a remapped data and processing column, and a
// different mask table.
enum class Setup { kPlain, kStuck, kRemapped, kOtherMasks };
constexpr std::array<Setup, 4> kSetups = {Setup::kPlain, Setup::kStuck,
                                          Setup::kRemapped,
                                          Setup::kOtherMasks};

struct Bank {
  MemoryBlock block;
  CountingObserver observer;
  std::unique_ptr<BlockExecutor> exec;
  std::vector<RowMask> slots;
};

// A bank as a stage bank starts: faults and remaps before the rails,
// observer attached after, operands written by the host.
void prepare(Bank& bank, Setup setup, std::uint64_t seed) {
  if (setup == Setup::kStuck) {
    for (std::size_t r = 0; r < 40; ++r) {
      bank.block.inject_stuck_at(static_cast<Col>(60 + r % 30), r * 7 % 256,
                                 (r & 1) != 0);
    }
  }
  if (setup == Setup::kRemapped) {
    bank.block.remap_column(9, 500);    // an input operand column
    bank.block.remap_column(70, 501);   // a processing column
  }
  bank.block.set_write_verify(&bank.observer);
  bank.exec = std::make_unique<BlockExecutor>(bank.block,
                                              RowMask::first_rows(256));
  bank.exec->reserve_region(8, 32);
  Xoshiro256 rng(seed);
  std::vector<std::uint64_t> a(256), b(256);
  for (auto& x : a) x = rng.next_bits(14);
  for (auto& x : b) x = rng.next_bits(14);
  bank.exec->host_write(bank.exec->contiguous(8, 16), a);
  bank.exec->host_write(bank.exec->contiguous(24, 16), b);
  RowMask high, low;
  const std::size_t stride = setup == Setup::kOtherMasks ? 32 : 1;
  for (std::size_t r = 0; r < 256; ++r) ((r & stride) ? high : low).set(r, true);
  bank.slots = {RowMask::first_rows(256), high, low};
  bank.exec->reset_stats();
}

TEST(LockStepReplay, MatchesSequentialOneLaneReplays) {
  // A stage-shaped program: multiply + Montgomery on the high rows, an
  // add + Barrett on the low rows.
  const std::uint32_t q = 12289;
  const auto mont = ntt::MontgomeryShiftAdd::paper_spec(q);
  const auto barrett = ntt::BarrettShiftAdd::paper_spec(q);
  Program prog;
  {
    MemoryBlock scratch;
    BlockExecutor e(scratch, RowMask());
    e.reserve_region(8, 32);
    ProgramRecorder rec(e, prog, 1);
    const Operand x = e.contiguous(8, 16), y = e.contiguous(24, 16);
    Operand prod = circuits::multiply(e, x, y);
    Operand red = circuits::montgomery_reduce(e, prod, mont, true);
    e.free(prod);
    e.free(red);
    rec.set_mask_slot(2);
    Operand sum = circuits::add(e, x.slice(0, 14), y.slice(0, 14), 15);
    Operand bred = circuits::barrett_reduce(e, sum, barrett, true);
    e.free(sum);
    e.free(bred);
  }
  ASSERT_GT(prog.size(), 1000u);

  std::array<Bank, kSetups.size()> lock, seq;
  for (std::size_t i = 0; i < kSetups.size(); ++i) {
    prepare(lock[i], kSetups[i], 100 + i);
    prepare(seq[i], kSetups[i], 100 + i);
  }
  std::vector<ReplayLane> lanes;
  for (auto& bank : lock) lanes.push_back({bank.exec.get(), bank.slots});
  BlockExecutor::replay(prog, lanes);
  for (auto& bank : seq) {
    const ReplayLane lane{bank.exec.get(), bank.slots};
    BlockExecutor::replay(prog, {&lane, 1});
  }

  for (std::size_t i = 0; i < kSetups.size(); ++i) {
    const std::string at = "lane " + std::to_string(i);
    expect_same_cells(lock[i].block, seq[i].block, at);
    const ExecStats& got = lock[i].exec->stats();
    const ExecStats& want = seq[i].exec->stats();
    EXPECT_EQ(got.cycles, want.cycles) << at;
    EXPECT_EQ(got.micro_ops, want.micro_ops) << at;
    EXPECT_EQ(got.cell_events, want.cell_events) << at;
    EXPECT_EQ(got.transfer_bits, want.transfer_bits) << at;
    EXPECT_EQ(got.cols_peak, want.cols_peak) << at;
    EXPECT_EQ(lock[i].observer.refused, seq[i].observer.refused) << at;
  }
  // The stuck lane really refused writes, and the faults held.
  EXPECT_GT(lock[1].observer.refused, 0u);
  for (const StuckFault& f : lock[1].block.faults()) {
    EXPECT_EQ(lock[1].block.column(f.col).get(f.row), f.value);
  }
  // The other masks gave the last lane different cells than the first.
  bool differs = false;
  for (Col c = 40; c < kBlockCols && !differs; ++c) {
    differs = lock[0].block.column(c).words() != lock[3].block.column(c).words();
  }
  EXPECT_TRUE(differs);
}

}  // namespace
}  // namespace cryptopim::pim
