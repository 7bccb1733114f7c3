#include "pim/switch.h"

#include <bit>
#include <cassert>

namespace cryptopim::pim {

namespace {

using Word = std::uint64_t;
using Words = ColumnBits::Words;
constexpr int kWords = static_cast<int>(ColumnBits::kWords);

// Row r of `in` moved to row r + offset; rows leaving [0, kBlockRows)
// are dropped.
Words shift_rows(const Words& in, int offset) {
  Words out{};
  const int k = offset < 0 ? -offset : offset;
  const int ws = k / 64;
  const int bs = k % 64;
  if (offset >= 0) {
    for (int w = kWords - 1; w >= ws; --w) {
      Word v = in[w - ws] << bs;
      if (bs != 0 && w - ws > 0) v |= in[w - ws - 1] >> (64 - bs);
      out[w] = v;
    }
  } else {
    for (int w = 0; w + ws < kWords; ++w) {
      Word v = in[w + ws] >> bs;
      if (bs != 0 && w + ws + 1 < kWords) v |= in[w + ws + 1] << (64 - bs);
      out[w] = v;
    }
  }
  return out;
}

}  // namespace

void FixedFunctionSwitch::transfer(const MemoryBlock& src,
                                   const Operand& src_op, const RowMask& mask,
                                   BlockExecutor& dst_exec,
                                   const Operand& dst_op,
                                   Route route) const {
  assert(src_op.width() == dst_op.width());
  const int offset = route == Route::kStraight ? 0
                     : route == Route::kPlusS ? static_cast<int>(stride_)
                                              : -static_cast<int>(stride_);

  MemoryBlock& dst = dst_exec.block();
  // Destination rows the active source rows land in.
  const Words landed = shift_rows(mask.words(), offset);
  // Even parity of the bits each row puts on the wires, latched at the
  // source sense amps alongside the data columns (indexed by the row it
  // lands in).
  Words sent_parity{};
  for (unsigned bit = 0; bit < src_op.width(); ++bit) {
    Words moved = src.column(src_op.col(bit)).words();
    for (int w = 0; w < kWords; ++w) moved[w] &= mask.word(w);
    if (offset != 0) moved = shift_rows(moved, offset);
    if (parity_) {
      for (int w = 0; w < kWords; ++w) sent_parity[w] ^= moved[w];
    }
    if (hooks_ != nullptr) {
      // One draw per transferred bit, in row order.
      for (int w = 0; w < kWords; ++w) {
        for (Word rest = landed[w]; rest != 0; rest &= rest - 1) {
          if (hooks_->corrupt_bit()) moved[w] ^= rest & -rest;
        }
      }
    }
    ColumnBits& dc = dst.column(dst_op.col(bit));
    for (int w = 0; w < kWords; ++w) {
      dc.set_word(w, (dc.word(w) & ~landed[w]) | moved[w]);
    }
  }
  dst.enforce_faults();
  if (parity_) {
    // Destination-side recount: re-read the cells the transfer landed in
    // (stuck faults have re-asserted by now, so in-cell corruption is
    // visible too) and compare against the transmitted parity column.
    Words got{};
    for (unsigned bit = 0; bit < dst_op.width(); ++bit) {
      const ColumnBits& dc = dst.column(dst_op.col(bit));
      for (int w = 0; w < kWords; ++w) got[w] ^= dc.word(w);
    }
    for (int w = 0; w < kWords; ++w) {
      for (Word bad = (got[w] ^ sent_parity[w]) & landed[w]; bad != 0;
           bad &= bad - 1) {
        hooks_->parity_mismatch(static_cast<std::size_t>(w) * 64 +
                                static_cast<unsigned>(std::countr_zero(bad)));
      }
    }
  }
  // One column per cycle through the route (+1 for the parity column).
  const char* what = route == Route::kStraight ? "switch.straight"
                     : route == Route::kPlusS ? "switch.plus_s"
                                              : "switch.minus_s";
  const unsigned cols = src_op.width() + (parity_ ? 1u : 0u);
  dst_exec.charge_transfer(cols, cols, what);
}

}  // namespace cryptopim::pim
