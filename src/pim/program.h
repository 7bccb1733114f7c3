// Microcode programs and the CryptoPIM controller.
//
// The paper implements and synthesizes a controller (System Verilog /
// Design Compiler, Section IV-A) that sequences the gate micro-ops of each
// pipeline stage. Because every bank executes the same stage logic, the
// controller broadcasts ONE microcode program per stage to all banks; the
// only per-bank state is which row-mask slot each phase drives and the
// pre-loaded data columns (twiddles).
//
// This module reifies that: a Program is a recorded sequence of gate
// micro-ops annotated with a mask slot; BlockExecutor records into a
// Program while circuits run, and replays it on any number of blocks in
// lock-step (BlockExecutor::replay: one instruction stream, every block
// a lane of it).
// A program is compiled once and replayed many times, so everything a
// replay needs is precomputed at record time: per-slot cycle totals (the
// replay charges cycles, micro-ops and cell events in bulk from the
// slots' popcounts), the column high-water mark of the recording run,
// and the circuit-level trace spans as cycle-offset markers. Replay is
// bit-exact with direct execution (tested), which is what makes the
// broadcast-SIMD execution model of the paper sound.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "pim/executor.h"
#include "pim/isa.h"

namespace cryptopim::pim {

/// A trace span boundary recorded inside a program: replay re-emits it
/// on the replaying executor's track at `cycle` cycles into the program.
struct SpanMark {
  std::uint64_t cycle = 0;
  bool begin = false;  ///< begin(name, cat) vs end of the innermost span
  std::string name;
  std::string cat;
};

/// A recorded stage program.
class Program {
 public:
  void append(const MicroOp& op, std::uint8_t mask_slot);
  void mark_begin(std::string name, std::string cat) {
    marks_.push_back(SpanMark{cycles_, true, std::move(name), std::move(cat)});
  }
  void mark_end() { marks_.push_back(SpanMark{cycles_, false, {}, {}}); }
  /// Column-allocator occupancy seen while recording; the maximum is
  /// charged as cols_peak on every replay.
  void note_cols_in_use(std::uint64_t in_use) noexcept {
    if (in_use > cols_peak_) cols_peak_ = in_use;
  }

  std::size_t size() const noexcept { return instrs_.size(); }
  bool empty() const noexcept { return instrs_.empty(); }
  const std::vector<Instr>& instrs() const noexcept { return instrs_; }
  const std::vector<SpanMark>& marks() const noexcept { return marks_; }

  /// Total crossbar cycles the program consumes (mask-independent).
  std::uint64_t cycles() const noexcept { return cycles_; }
  /// Cycles of the instructions recorded under each mask slot.
  const std::array<std::uint64_t, kMaskSlots>& slot_cycles() const noexcept {
    return slot_cycles_;
  }
  std::uint64_t cols_peak() const noexcept { return cols_peak_; }
  /// One past the highest column any instruction writes.
  Col written_end() const noexcept { return written_end_; }

  /// Encoded size in bits, as a controller-ROM estimate: opcode (4) +
  /// 3 x column id (9 for 512 columns) + polarity (3) + mask slot (2).
  std::uint64_t rom_bits() const noexcept { return instrs_.size() * 36ull; }

 private:
  std::vector<Instr> instrs_;
  std::vector<SpanMark> marks_;
  std::array<std::uint64_t, kMaskSlots> slot_cycles_{};
  std::uint64_t cycles_ = 0;
  std::uint64_t cols_peak_ = 0;
  Col written_end_ = 0;
};

/// Records every micro-op an executor issues while in scope.
///
///   Program prog;
///   {
///     ProgramRecorder rec(exec, prog, /*mask_slot=*/0);
///     circuits::add(exec, a, b, 16);     // recorded
///     rec.set_mask_slot(1);
///     circuits::sub(exec, a, b, 16);     // recorded under slot 1
///   }
class ProgramRecorder {
 public:
  ProgramRecorder(BlockExecutor& exec, Program& program,
                  std::uint8_t mask_slot = 0);
  ~ProgramRecorder();
  ProgramRecorder(const ProgramRecorder&) = delete;
  ProgramRecorder& operator=(const ProgramRecorder&) = delete;

  void set_mask_slot(std::uint8_t slot);

 private:
  BlockExecutor& exec_;
};

/// The stage-program library of one accelerator configuration: per-stage
/// microcode plus controller-level totals (the quantities one would size
/// the synthesized controller by). Stages that run the same microcode
/// (every butterfly level, every scale) share one Program.
class Controller {
 public:
  /// Register a stage program under a human-readable name; returns its id.
  std::size_t add_stage(std::string name,
                        std::shared_ptr<const Program> program);
  std::size_t add_stage(std::string name, Program program) {
    return add_stage(std::move(name),
                     std::make_shared<const Program>(std::move(program)));
  }

  std::size_t stage_count() const noexcept { return stages_.size(); }
  const Program& program(std::size_t id) const {
    return *stages_.at(id).program;
  }
  const std::string& name(std::size_t id) const { return stages_.at(id).name; }

  /// Broadcast one stage to many blocks (the SIMD-across-banks execution
  /// the architecture relies on): one lock-step replay with every bank a
  /// lane. Each bank gets its own mask table.
  void run_stage(std::size_t id,
                 std::span<BlockExecutor* const> banks,
                 std::span<const std::vector<RowMask>> mask_tables) const;

  std::uint64_t total_instructions() const noexcept;
  std::uint64_t total_rom_bits() const noexcept;

 private:
  struct Stage {
    std::string name;
    std::shared_ptr<const Program> program;
  };
  std::vector<Stage> stages_;
};

}  // namespace cryptopim::pim
