#include "pim/executor.h"

#include <bit>
#include <cassert>

#include "obs/metrics.h"
#include "pim/program.h"

namespace cryptopim::pim {

namespace {

using Word = std::uint64_t;

// v = f(a, b, c) on every word of the window, written under the mask.
// Input complements are folded in as XOR masks, so the loop is
// branch-free.
template <typename F>
inline void gate_words(ColumnBits& dst, const ColumnBits& ca,
                       const ColumnBits& cb, const ColumnBits& cc,
                       const MicroOp& op, const RowMask& mask,
                       RowMask::WordWindow win, F f) {
  const Word na = op.neg_a ? ~Word{0} : 0;
  const Word nb = op.neg_b ? ~Word{0} : 0;
  const Word nc = op.neg_c ? ~Word{0} : 0;
  for (unsigned w = win.first; w < win.last; ++w) {
    const Word m = mask.word(w);
    const Word v = f(ca.word(w) ^ na, cb.word(w) ^ nb, cc.word(w) ^ nc);
    dst.set_word(w, (dst.word(w) & ~m) | (v & m));
  }
}

// The one gate kernel behind issue() and replay(): evaluates `op` on the
// rows of `mask` inside `win`, with the kind switch hoisted out of the
// word loop. No accounting, no fault enforcement.
void apply_gate(MemoryBlock& block, const MicroOp& op, const RowMask& mask,
                RowMask::WordWindow win) {
  ColumnBits& d = block.column(op.dst);
  const ColumnBits& a = block.column(op.a);
  const ColumnBits& b = block.column(op.b);
  const ColumnBits& c = block.column(op.c);
  const auto run = [&](auto f) { gate_words(d, a, b, c, op, mask, win, f); };
  using W = Word;
  switch (op.kind) {
    case GateKind::kSet0: run([](W, W, W) { return W{0}; }); break;
    case GateKind::kSet1: run([](W, W, W) { return ~W{0}; }); break;
    case GateKind::kNot:  run([](W x, W, W) { return ~x; }); break;
    case GateKind::kNor:  run([](W x, W y, W) { return ~(x | y); }); break;
    case GateKind::kNand: run([](W x, W y, W) { return ~(x & y); }); break;
    case GateKind::kOr:   run([](W x, W y, W) { return x | y; }); break;
    case GateKind::kAnd:  run([](W x, W y, W) { return x & y; }); break;
    case GateKind::kXor2: run([](W x, W y, W) { return x ^ y; }); break;
    case GateKind::kXor3: run([](W x, W y, W z) { return x ^ y ^ z; }); break;
    case GateKind::kMaj3:
      run([](W x, W y, W z) { return (x & y) | (x & z) | (y & z); });
      break;
    case GateKind::kMin3:
      run([](W x, W y, W z) { return ~((x & y) | (x & z) | (y & z)); });
      break;
    case GateKind::kMux:
      run([](W x, W y, W z) { return (x & z) | (y & ~z); });
      break;
    case GateKind::kCopy: run([](W x, W, W) { return x; }); break;
  }
}

// In-place transpose of a 64x64 bit matrix: bit c of t[r] and bit r of
// t[c] trade places (recursive block swap, 6 rounds of 32 word pairs).
void transpose64(std::array<Word, 64>& t) noexcept {
  Word m = 0x00000000FFFFFFFFull;
  for (unsigned j = 32; j != 0; j >>= 1, m ^= m << j) {
    for (unsigned k = 0; k < 64; k = ((k | j) + 1) & ~j) {
      const Word x = ((t[k] >> j) ^ t[k | j]) & m;
      t[k] ^= x << j;
      t[k | j] ^= x;
    }
  }
}

}  // namespace

void ExecStats::publish(obs::MetricsRegistry& reg) const {
  reg.counter("cryptopim.exec.cycles", "cycles").add(cycles);
  reg.counter("cryptopim.exec.micro_ops", "ops").add(micro_ops);
  reg.counter("cryptopim.exec.cell_events", "events").add(cell_events);
  reg.counter("cryptopim.switch.transfer_bits", "bits").add(transfer_bits);
  reg.histogram("cryptopim.exec.cols_peak", "columns").add(cols_peak);
}

BlockExecutor::BlockExecutor(MemoryBlock& block, RowMask mask,
                             DeviceModel device)
    : block_(block), mask_(mask), device_(device) {
  free_cols_.reserve(kBlockCols - 2);
  // LIFO: hand out low column ids first.
  for (std::size_t c = kBlockCols; c-- > 2;) {
    free_cols_.push_back(static_cast<Col>(c));
  }
  refcount_[kZeroCol] = kSticky;
  refcount_[kOneCol] = kSticky;
  // Establish the constant rails. Power-on state is all-zero, so only the
  // one-rail needs a SET.
  set1(kOneCol);
}

Col BlockExecutor::alloc_col() {
  if (free_cols_.empty()) {
    throw std::runtime_error("BlockExecutor: out of processing columns");
  }
  const Col c = free_cols_.back();
  free_cols_.pop_back();
  assert(refcount_[c] == 0);
  refcount_[c] = 1;
  // Column-allocator occupancy high-water mark (rails + reserved regions
  // + live allocations).
  const std::uint64_t in_use = kBlockCols - free_cols_.size();
  if (in_use > stats_.cols_peak) stats_.cols_peak = in_use;
  if (recorder_ != nullptr) recorder_->note_cols_in_use(in_use);
  return c;
}

Operand BlockExecutor::alloc(unsigned width) {
  std::vector<Col> cols(width);
  for (auto& c : cols) c = alloc_col();
  return Operand(std::move(cols));
}

void BlockExecutor::retain_col(Col c) {
  if (refcount_[c] == kSticky) return;
  assert(refcount_[c] > 0);
  ++refcount_[c];
}

void BlockExecutor::free_col(Col c) {
  if (refcount_[c] == kSticky) return;
  assert(refcount_[c] > 0);
  if (--refcount_[c] == 0) free_cols_.push_back(c);
}

void BlockExecutor::free(const Operand& op) {
  for (Col c : op.cols()) free_col(c);
}

void BlockExecutor::reserve_region(Col base, unsigned width) {
  const unsigned end = base + width;
  for (unsigned c = base; c < end; ++c) {
    assert(refcount_[c] == 0 && "region already in use");
    refcount_[c] = kSticky;
  }
  std::erase_if(free_cols_, [&](Col c) { return c >= base && c < end; });
}

Operand BlockExecutor::contiguous(Col base, unsigned width) const {
  // MemoryBlock numbers are MSB-first: bit i (LSB-first) lives at
  // column base + width - 1 - i.
  std::vector<Col> cols(width);
  for (unsigned i = 0; i < width; ++i) {
    cols[i] = static_cast<Col>(base + width - 1 - i);
  }
  return Operand(std::move(cols));
}

Operand BlockExecutor::shifted(const Operand& op, unsigned k) const {
  std::vector<Col> cols;
  cols.reserve(op.width() + k);
  cols.insert(cols.end(), k, kZeroCol);
  cols.insert(cols.end(), op.cols().begin(), op.cols().end());
  return Operand(std::move(cols));
}

Operand BlockExecutor::zext(const Operand& op, unsigned width) const {
  assert(width >= op.width());
  std::vector<Col> cols = op.cols();
  cols.insert(cols.end(), width - op.width(), kZeroCol);
  return Operand(std::move(cols));
}

Operand BlockExecutor::constant(std::uint64_t value, unsigned width) {
  assert(width == 64 || value < (std::uint64_t{1} << width));
  // Row-invariant constants are pure rail aliases: bit i reads the one- or
  // zero-rail directly, costing no cycles and no columns.
  std::vector<Col> cols(width);
  for (unsigned i = 0; i < width; ++i) {
    cols[i] = ((value >> i) & 1u) ? kOneCol : kZeroCol;
  }
  return Operand(std::move(cols));
}

void BlockExecutor::issue(const MicroOp& op) {
  // The zero rail is shared by every shifted/zero-extended operand view;
  // writing to it would silently corrupt unrelated operands.
  assert(op.dst != kZeroCol);
  if (recorder_ != nullptr) recorder_->append(op, record_slot_);
  const unsigned cycles = gate_cycles(op.kind);
  stats_.cycles += cycles;
  stats_.micro_ops += 1;
  stats_.cell_events += static_cast<std::uint64_t>(cycles) * mask_.count();
  apply_gate(block_, op, mask_, mask_.word_window());
  block_.enforce_faults();
}

void BlockExecutor::replay(const Program& program,
                           std::span<const RowMask> mask_slots) {
  // Replaying into a recording would need the markers re-based too; no
  // caller does it.
  assert(recorder_ == nullptr);
  std::array<RowMask::WordWindow, kMaskSlots> windows{};
  std::uint64_t cell_events = 0;
  for (std::size_t s = 0; s < kMaskSlots; ++s) {
    const std::uint64_t cycles = program.slot_cycles()[s];
    if (cycles == 0) continue;
    assert(s < mask_slots.size());
    windows[s] = mask_slots[s].word_window();
    cell_events += cycles * mask_slots[s].count();
  }

  // Stuck cells re-assert after every gate, as with issue(); a fault-free
  // block (the common case) skips the check entirely.
  const bool faulty = !block_.faults().empty();
  for (const Instr& i : program.instrs()) {
    apply_gate(block_, i.op, mask_slots[i.mask_slot], windows[i.mask_slot]);
    if (faulty) block_.enforce_faults();
  }

#if CRYPTOPIM_TRACING
  if (tracer_ != nullptr) {
    const std::uint64_t t0 = trace_now();
    for (const SpanMark& m : program.marks()) {
      if (m.begin) {
        tracer_->begin(trace_track_, m.name, m.cat, t0 + m.cycle);
      } else {
        tracer_->end(trace_track_, t0 + m.cycle);
      }
    }
  }
#endif
  stats_.cycles += program.cycles();
  stats_.micro_ops += program.size();
  stats_.cell_events += cell_events;
  if (program.cols_peak() > stats_.cols_peak) {
    stats_.cols_peak = program.cols_peak();
  }
}

void BlockExecutor::trace_begin(std::string name, std::string cat) {
#if CRYPTOPIM_TRACING
  if (recorder_ != nullptr) recorder_->mark_begin(name, cat);
  if (tracer_ != nullptr) {
    tracer_->begin(trace_track_, std::move(name), std::move(cat),
                   trace_now());
  }
#else
  (void)name, (void)cat;
#endif
}

void BlockExecutor::trace_end() {
#if CRYPTOPIM_TRACING
  if (recorder_ != nullptr) recorder_->mark_end();
  if (tracer_ != nullptr) tracer_->end(trace_track_, trace_now());
#endif
}

void BlockExecutor::charge_transfer(unsigned bits, unsigned cycles,
                                    const char* what) {
#if CRYPTOPIM_TRACING
  if (tracer_ != nullptr) {
    tracer_->emit(trace_track_, what, "transfer", trace_now(), cycles);
  }
#else
  (void)what;
#endif
  stats_.cycles += cycles;
  stats_.transfer_bits += static_cast<std::uint64_t>(bits) * mask_.count();
}

void BlockExecutor::host_write(const Operand& op,
                               std::span<const std::uint64_t> values) {
  assert(op.width() <= 64);
  // One 64-row word at a time: gather the active rows' values, transpose
  // so tile[i] holds bit i of every row, and store each bit column with
  // one masked word write.
  std::array<Word, 64> tile;
  std::size_t v = 0;
  for (std::size_t w = 0; w < ColumnBits::kWords; ++w) {
    const Word m = mask_.word(w);
    if (m == 0) continue;
    tile.fill(0);
    for (Word rest = m; rest != 0; rest &= rest - 1) {
      assert(v < values.size());
      tile[static_cast<unsigned>(std::countr_zero(rest))] = values[v++];
    }
    transpose64(tile);
    for (unsigned i = 0; i < op.width(); ++i) {
      ColumnBits& col = block_.column(op.col(i));
      col.set_word(w, (col.word(w) & ~m) | (tile[i] & m));
    }
  }
  assert(v == values.size());
  block_.enforce_faults();
}

std::vector<std::uint64_t> BlockExecutor::host_read(const Operand& op) const {
  assert(op.width() <= 64);
  std::vector<std::uint64_t> out;
  out.reserve(mask_.count());
  std::array<Word, 64> tile;
  for (std::size_t w = 0; w < ColumnBits::kWords; ++w) {
    const Word m = mask_.word(w);
    if (m == 0) continue;
    tile.fill(0);
    for (unsigned i = 0; i < op.width(); ++i) {
      tile[i] = block_.column(op.col(i)).word(w);
    }
    transpose64(tile);  // tile[r] is now row r's value
    for (Word rest = m; rest != 0; rest &= rest - 1) {
      out.push_back(tile[static_cast<unsigned>(std::countr_zero(rest))]);
    }
  }
  return out;
}

void BlockExecutor::host_broadcast(const Operand& op, std::uint64_t value) {
  for (unsigned i = 0; i < op.width(); ++i) {
    ColumnBits& col = block_.column(op.col(i));
    const bool bit = (value >> i) & 1u;
    for (std::size_t w = 0; w < ColumnBits::kWords; ++w) {
      const Word m = mask_.word(w);
      col.set_word(w, bit ? col.word(w) | m : col.word(w) & ~m);
    }
  }
  block_.enforce_faults();
}

}  // namespace cryptopim::pim
