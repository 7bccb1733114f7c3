#include "pim/block.h"

#include <bit>
#include <stdexcept>

namespace cryptopim::pim {

RowMask RowMask::first_rows(std::size_t count) {
  assert(count <= kBlockRows);
  RowMask m;
  std::size_t remaining = count;
  for (std::size_t w = 0; w < ColumnBits::kWords && remaining > 0; ++w) {
    if (remaining >= 64) {
      m.words_[w] = ~std::uint64_t{0};
      remaining -= 64;
    } else {
      m.words_[w] = (std::uint64_t{1} << remaining) - 1;
      remaining = 0;
    }
  }
  return m;
}

RowMask RowMask::all() { return first_rows(kBlockRows); }

std::size_t RowMask::count() const noexcept {
  std::size_t n = 0;
  for (const auto w : words_) n += static_cast<std::size_t>(std::popcount(w));
  return n;
}

RowMask::WordWindow RowMask::word_window() const noexcept {
  WordWindow win;
  for (unsigned w = 0; w < ColumnBits::kWords; ++w) {
    if (words_[w] == 0) continue;
    if (win.last == 0) win.first = w;
    win.last = w + 1;
  }
  return win;
}

namespace {

// Host-facing surfaces must reject bad coordinates even under NDEBUG
// (asserts compile out in release builds; silent wraparound would corrupt
// neighbouring operands).
void check_number_range(std::size_t row, Col base, unsigned width) {
  if (row >= kBlockRows || width == 0 || width > 64 ||
      static_cast<std::size_t>(base) + width > kBlockCols) {
    throw std::invalid_argument("MemoryBlock number access out of range");
  }
}

}  // namespace

void MemoryBlock::write_number(std::size_t row, Col base, unsigned width,
                               std::uint64_t value) {
  check_number_range(row, base, width);
  for (unsigned i = 0; i < width; ++i) {
    // MSB-first: bit (width-1-i) of the value goes to column base+i.
    column(static_cast<Col>(base + i)).set(row, (value >> (width - 1 - i)) & 1u);
  }
}

std::uint64_t MemoryBlock::read_number(std::size_t row, Col base,
                                       unsigned width) const {
  check_number_range(row, base, width);
  std::uint64_t v = 0;
  for (unsigned i = 0; i < width; ++i) {
    v = (v << 1) | static_cast<std::uint64_t>(
                       column(static_cast<Col>(base + i)).get(row));
  }
  return v;
}

void MemoryBlock::clear() noexcept {
  for (auto& c : cols_) c.clear();
  written_end_ = 0;
  enforce_faults();
}

void MemoryBlock::reset() noexcept {
  faults_.clear();
  remap_.reset();
  observer_ = nullptr;
  for (unsigned c = 0; c < written_end_; ++c) cols_[c].clear();
  written_end_ = 0;
}

void MemoryBlock::inject_stuck_at(Col col, std::size_t row, bool value) {
  if (col >= kBlockCols || row >= kBlockRows) {
    throw std::invalid_argument("MemoryBlock::inject_stuck_at out of range");
  }
  faults_.push_back(
      StuckFault{col, static_cast<std::uint16_t>(row), value});
  enforce_faults();
}

void MemoryBlock::remap_column(Col logical, Col physical) {
  if (logical >= kBlockCols || physical >= kBlockCols) {
    throw std::invalid_argument("MemoryBlock::remap_column out of range");
  }
  if (!remap_) {
    remap_ = std::make_unique<std::array<Col, kBlockCols>>();
    for (std::size_t c = 0; c < kBlockCols; ++c) {
      (*remap_)[c] = static_cast<Col>(c);
    }
  }
  (*remap_)[logical] = physical;
}

void MemoryBlock::enforce_faults() noexcept {
  for (const auto& f : faults_) {
    auto& c = cols_[f.col];
    if (c.get(f.row) != f.value) {
      c.set(f.row, f.value);
      note_written(f.col);
      // The preceding write tried to store the opposite bit: a
      // program-verify failure in real ReRAM.
      if (observer_ != nullptr) observer_->stuck_write(f.col, f.row, f.value);
    }
  }
}

}  // namespace cryptopim::pim
