// NTT-specific fixed-function inter-block switch (Section III-C).
//
// Unlike a full crossbar switch (whose logic grows with the square of the
// port count), the fixed-function switch wires exactly three routes per
// row — rowA -> rowA, rowA -> rowA+s, rowA -> rowA-s — for one hard-coded
// stride s (the butterfly stride of the NTT stage it feeds). Three logic
// switches per row, independent of the number of inputs/outputs.
//
// A transfer moves one full column per cycle; moving an N-bit operand
// through one route costs N cycles, and the three routes of a butterfly
// stage cost 3N in total ("transferring data between two blocks in NTT
// requires only 3*bitwidth cycles").
//
// Reliability extension: the switch datapath can carry one extra *parity*
// column per route — the even parity of the operand's bits, computed at
// the source sense amps and compared against a recount at the destination
// after the write lands (so a stuck destination cell or an in-flight flip
// shows up as a per-row parity mismatch). The hook interface below is how
// the reliability layer (src/reliability) injects transient corruption
// and collects mismatches without the pim layer depending on it.
#pragma once

#include <cstdint>

#include "pim/block.h"
#include "pim/executor.h"

namespace cryptopim::pim {

/// Observer/corrupter for switch transfers, implemented by the
/// reliability layer. All methods are called only while attached.
class TransferFaultHooks {
 public:
  virtual ~TransferFaultHooks() = default;
  /// Called once per transferred bit; return true to flip it in flight
  /// (transient coupling/driver noise on the inter-block wire).
  virtual bool corrupt_bit() = 0;
  /// The destination's recount disagreed with the transmitted parity on
  /// `row` — in-flight or in-cell corruption detected.
  virtual void parity_mismatch(std::size_t row) = 0;
};

class FixedFunctionSwitch {
 public:
  enum class Route { kStraight, kPlusS, kMinusS };

  /// `stride` is the hard-wired s of this switch instance.
  explicit FixedFunctionSwitch(unsigned stride) : stride_(stride) {}

  unsigned stride() const noexcept { return stride_; }

  /// Attach reliability hooks. `parity` adds the parity column to every
  /// subsequent transfer (one extra cycle per route, checked at the
  /// destination). nullptr detaches.
  void set_fault_hooks(TransferFaultHooks* hooks, bool parity) noexcept {
    hooks_ = hooks;
    parity_ = parity && hooks != nullptr;
  }

  /// Move operand `src_op` (in `src`) to `dst_op` (in `dst`) through one
  /// route: active src row r lands in dst row r (+/- s). Rows that would
  /// leave [0, kBlockRows) are dropped (the NTT schedule never produces
  /// them). Charges width cycles + width*rows transfer bits to `dst_exec`
  /// (+1 cycle when the parity column rides along). Each bit column moves
  /// as one shifted, masked 512-row word copy; with hooks attached,
  /// corrupt_bit() is still drawn once per transferred bit, bit-major and
  /// in ascending row order. `src` and `dst_exec`'s block are distinct.
  void transfer(const MemoryBlock& src, const Operand& src_op,
                const RowMask& mask, BlockExecutor& dst_exec,
                const Operand& dst_op, Route route) const;

  /// Logic elements per row: the defining advantage over a crossbar.
  static constexpr std::uint64_t logic_per_row() { return 3; }
  /// A traditional crossbar needs a switch per input/output pair.
  static constexpr std::uint64_t crossbar_logic_per_row(unsigned rows) {
    return rows;  // rows^2 total over `rows` rows
  }

 private:
  unsigned stride_;
  TransferFaultHooks* hooks_ = nullptr;
  bool parity_ = false;
};

}  // namespace cryptopim::pim
