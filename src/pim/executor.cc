#include "pim/executor.h"

#include <algorithm>
#include <bit>
#include <cassert>

#include "obs/metrics.h"
#include "pim/program.h"

namespace cryptopim::pim {

namespace {

using Word = std::uint64_t;

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

ExecMetrics::ExecMetrics(obs::MetricsRegistry& reg)
    : cycles(&reg.counter("cryptopim.exec.cycles", "cycles")),
      micro_ops(&reg.counter("cryptopim.exec.micro_ops", "ops")),
      cell_events(&reg.counter("cryptopim.exec.cell_events", "events")),
      transfer_bits(&reg.counter("cryptopim.switch.transfer_bits", "bits")),
      cols_peak(&reg.histogram("cryptopim.exec.cols_peak", "columns")) {}

void ExecStats::publish(const ExecMetrics& m) const {
  m.cycles->add(cycles);
  m.micro_ops->add(micro_ops);
  m.cell_events->add(cell_events);
  m.transfer_bits->add(transfer_bits);
  m.cols_peak->add(cols_peak);
}

BlockExecutor::BlockExecutor(MemoryBlock& block, const RowMask& mask,
                             DeviceModel device)
    : block_(block), mask_(mask), device_(device) {
  free_cols_.reserve(kBlockCols - 2);
  refcount_[kZeroCol] = kSticky;
  refcount_[kOneCol] = kSticky;
  reset();
}

void BlockExecutor::reset() {
  stats_ = ExecStats{};
  // Every column but the rails and the reserved regions is free again,
  // LIFO, low column ids first: the order reserve_region() leaves, so an
  // allocator nobody used since needs no rebuild.
  if (free_cols_.empty() || allocator_used_) {
    free_cols_.clear();
    for (std::size_t c = kBlockCols; c-- > 2;) {
      if (refcount_[c] == kSticky) continue;
      refcount_[c] = 0;
      free_cols_.push_back(static_cast<Col>(c));
    }
    allocator_used_ = false;
  }
  recorder_ = nullptr;
  record_slot_ = 0;
  tracer_ = nullptr;
  trace_track_ = 0;
  trace_base_ = 0;
  metrics_ = nullptr;
  // Establish the constant rails. Power-on state is all-zero, so only the
  // one-rail needs a SET.
  set1(kOneCol);
}

obs::MetricsRegistry& BlockExecutor::metrics() const noexcept {
  return metrics_ != nullptr ? *metrics_ : obs::metrics();
}

Col BlockExecutor::alloc_col() {
  if (free_cols_.empty()) {
    throw std::runtime_error("BlockExecutor: out of processing columns");
  }
  const Col c = free_cols_.back();
  free_cols_.pop_back();
  allocator_used_ = true;
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
  allocator_used_ = true;
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
  const RowMask::WordWindow win = mask_.word_window();
  if (win.last != 0) {  // an empty mask (a recording run) drives no cell
    const Instr instr{op, 0};
    block_.note_written(block_.physical_column(op.dst));
    GateLane lane = gate_lane(block_, &mask_, win);
    lane.faulty = nullptr;  // enforced below, with or without faults
    best_gate_kernels().run(&instr, &instr + 1, &lane, 1);
  }
  block_.enforce_faults();
}

void BlockExecutor::replay(const Program& program,
                           std::span<const ReplayLane> lanes,
                           const GateKernels& kernels) {
  const auto& slot_cycles = program.slot_cycles();
  // Each lane's window spans the rows of every slot the program drives.
  std::vector<GateLane> gate_lanes;
  gate_lanes.reserve(lanes.size());
  for (const ReplayLane& l : lanes) {
    // Replaying into a recording would need the markers re-based too; no
    // caller does it.
    assert(l.exec->recorder_ == nullptr);
    RowMask::WordWindow win;
    for (std::size_t s = 0; s < kMaskSlots; ++s) {
      if (slot_cycles[s] == 0) continue;
      assert(s < l.mask_slots.size());
      const RowMask::WordWindow w = l.mask_slots[s].word_window();
      if (w.last == 0) continue;
      win = win.last == 0 ? w
                          : RowMask::WordWindow{std::min(win.first, w.first),
                                                std::max(win.last, w.last)};
    }
    MemoryBlock& block = l.exec->block_;
    if (program.written_end() > 0) {
      block.note_written(block.has_remaps() ? kBlockCols - 1
                                            : program.written_end() - 1);
    }
    gate_lanes.push_back(gate_lane(block, l.mask_slots.data(), win));
  }

  // Lanes run in groups of at most kLaneGroup: across 16 blocks the
  // columns one program touches (~9 KiB per block) fall out of the near
  // caches, and per-lane cost rose ~15% (n = 4096, both softbanks) over
  // what the shared dispatch saves.
  constexpr std::size_t kLaneGroup = 8;
  const std::vector<Instr>& instrs = program.instrs();
  for (std::size_t g = 0; g < gate_lanes.size(); g += kLaneGroup) {
    kernels.run(instrs.data(), instrs.data() + instrs.size(),
                gate_lanes.data() + g,
                std::min(kLaneGroup, gate_lanes.size() - g));
  }

  for (const ReplayLane& l : lanes) {
    BlockExecutor& e = *l.exec;
#if CRYPTOPIM_TRACING
    if (e.tracer_ != nullptr) {
      const std::uint64_t t0 = e.trace_now();
      for (const SpanMark& m : program.marks()) {
        if (m.begin) {
          e.tracer_->begin(e.trace_track_, m.name, m.cat, t0 + m.cycle);
        } else {
          e.tracer_->end(e.trace_track_, t0 + m.cycle);
        }
      }
    }
#endif
    for (std::size_t s = 0; s < kMaskSlots; ++s) {
      if (slot_cycles[s] != 0) {
        e.stats_.cell_events += slot_cycles[s] * l.mask_slots[s].count();
      }
    }
    e.stats_.cycles += program.cycles();
    e.stats_.micro_ops += program.size();
    if (program.cols_peak() > e.stats_.cols_peak) {
      e.stats_.cols_peak = program.cols_peak();
    }
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
  host_write_columns(op, bit_columns(values, mask_, op.width()));
}

void BlockExecutor::host_write_columns(const Operand& op,
                                       std::span<const ColumnBits> images) {
  assert(images.size() == op.width());
  // One masked word write per bit column and 64-row word.
  const RowMask::WordWindow win = mask_.word_window();
  for (unsigned i = 0; i < op.width(); ++i) {
    ColumnBits& col = block_.column(op.col(i));
    for (unsigned w = win.first; w < win.last; ++w) {
      const Word m = mask_.word(w);
      col.set_word(w, (col.word(w) & ~m) | (images[i].word(w) & m));
    }
  }
  block_.enforce_faults();
}

std::vector<ColumnBits> BlockExecutor::bit_columns(
    std::span<const std::uint64_t> values, const RowMask& mask,
    unsigned width) {
  assert(width <= 64);
  // One 64-row word at a time: gather the active rows' values and
  // transpose so tile[i] holds bit i of every row.
  std::vector<ColumnBits> images(width);
  std::array<Word, 64> tile;
  std::size_t v = 0;
  for (std::size_t w = 0; w < ColumnBits::kWords; ++w) {
    const Word m = mask.word(w);
    if (m == 0) continue;
    tile.fill(0);
    for (Word rest = m; rest != 0; rest &= rest - 1) {
      assert(v < values.size());
      tile[static_cast<unsigned>(std::countr_zero(rest))] = values[v++];
    }
    transpose64(tile);
    for (unsigned i = 0; i < width; ++i) images[i].set_word(w, tile[i] & m);
  }
  assert(v == values.size());
  return images;
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
