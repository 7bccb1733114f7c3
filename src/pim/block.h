// A PIM-enabled ReRAM crossbar memory block.
//
// The block is an r x c array of single-bit cells (512 x 512 in the paper,
// Section III-C). Cells in one row share a wordline, cells in one column a
// bitline. Digital PIM executes a logic gate by applying an execution
// voltage across operand bitlines and grounding the result bitline; the
// gate evaluates simultaneously in every activated row — this is the
// row-parallelism CryptoPIM exploits for vector-wide arithmetic.
//
// Storage is column-major (one bitset per column over the rows) so a gate
// op is a handful of word-wide boolean operations regardless of how many
// rows participate, mirroring the constant-latency hardware behaviour.
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

namespace cryptopim::pim {

/// Column index within a block.
using Col = std::uint16_t;

inline constexpr std::size_t kBlockRows = 512;
inline constexpr std::size_t kBlockCols = 512;

/// Bitset over the rows of one column. One cache line: a 512-row column
/// is exactly one AVX-512 register.
class alignas(64) ColumnBits {
 public:
  static constexpr std::size_t kWords = kBlockRows / 64;
  using Words = std::array<std::uint64_t, kWords>;

  std::uint64_t word(std::size_t w) const noexcept { return words_[w]; }
  const Words& words() const noexcept { return words_; }
  void set_word(std::size_t w, std::uint64_t v) noexcept { words_[w] = v; }
  std::uint64_t* data() noexcept { return words_.data(); }
  const std::uint64_t* data() const noexcept { return words_.data(); }

  bool get(std::size_t row) const noexcept {
    return (words_[row / 64] >> (row % 64)) & 1u;
  }
  void set(std::size_t row, bool v) noexcept {
    const std::uint64_t bit = std::uint64_t{1} << (row % 64);
    if (v) {
      words_[row / 64] |= bit;
    } else {
      words_[row / 64] &= ~bit;
    }
  }
  void clear() noexcept { words_.fill(0); }

 private:
  Words words_{};
};

/// Row mask selecting which wordlines participate in a gate op.
class alignas(64) RowMask {
 public:
  /// All rows inactive.
  RowMask() = default;
  /// Rows [0, count) active.
  static RowMask first_rows(std::size_t count);
  /// All kBlockRows rows active.
  static RowMask all();

  std::uint64_t word(std::size_t w) const noexcept { return words_[w]; }
  const ColumnBits::Words& words() const noexcept { return words_; }
  bool get(std::size_t row) const noexcept {
    return (words_[row / 64] >> (row % 64)) & 1u;
  }
  void set(std::size_t row, bool v) noexcept {
    const std::uint64_t bit = std::uint64_t{1} << (row % 64);
    if (v) {
      words_[row / 64] |= bit;
    } else {
      words_[row / 64] &= ~bit;
    }
  }
  std::size_t count() const noexcept;

  /// Words [first, last) span every active row: first is the lowest
  /// non-zero word, last one past the highest ({0, 0} when empty). Gate
  /// kernels iterate only this window.
  struct WordWindow {
    unsigned first = 0, last = 0;
  };
  WordWindow word_window() const noexcept;

 private:
  ColumnBits::Words words_{};
};

/// A permanently failed cell: reads always return `value` regardless of
/// writes (stuck-at-0 / stuck-at-1, the dominant ReRAM endurance failure
/// mode). Coordinates are *physical*: a fault names a cell of the array,
/// not the logical column the periphery map (remap_column) may have
/// steered away from it.
struct StuckFault {
  Col col = 0;
  std::uint16_t row = 0;
  bool value = false;
};

/// Observer of program-verify failures, implemented by the reliability
/// layer. ReRAM writes are program-verify cycles (SET/RESET then read
/// back); a stuck cell that cannot take the intended value is visible to
/// the write driver immediately. enforce_faults() models the readback:
/// every bit it has to flip back to the stuck value is a write the cell
/// refused, reported here.
class WriteVerifyObserver {
 public:
  virtual ~WriteVerifyObserver() = default;
  /// Physical cell (col, row) refused a write and holds `stuck_value`.
  virtual void stuck_write(Col col, std::size_t row, bool stuck_value) = 0;
};

/// One 512x512 crossbar.
///
/// Numbers are stored MSB-first across consecutive columns (Section
/// III-B.1: "N continuous memory cells in a row represent an N-bit number,
/// with the first cell storing the Most Significant Bit").
///
/// Host-facing entry points (write_number, read_number, inject_stuck_at,
/// remap_column) bounds-check unconditionally and throw
/// std::invalid_argument — they are untrusted-input surfaces and must not
/// corrupt memory in NDEBUG builds. The per-gate column() accessor stays
/// assert-only: it sits on the hot path and its callers (executor,
/// circuits) only produce column ids they allocated themselves.
class MemoryBlock {
 public:
  ColumnBits& column(Col c) noexcept {
    assert(c < kBlockCols);
    const Col p = physical_column(c);
    note_written(p);
    return cols_[p];
  }
  const ColumnBits& column(Col c) const noexcept {
    assert(c < kBlockCols);
    return cols_[remap_ ? (*remap_)[c] : c];
  }

  /// Write an N-bit number into row `row`, MSB at column `base`.
  void write_number(std::size_t row, Col base, unsigned width,
                    std::uint64_t value);
  /// Read the N-bit number whose MSB is at column `base` in row `row`.
  std::uint64_t read_number(std::size_t row, Col base, unsigned width) const;

  /// Reset every cell to 0 (power-on state). Stuck cells re-assert.
  void clear() noexcept;
  /// Back to a factory-fresh block: every cell 0, no stuck faults, no
  /// column remaps, no write-verify observer. Clears only the columns
  /// written since the last clear or reset.
  void reset() noexcept;

  // -- fault injection --------------------------------------------------------
  /// Mark a *physical* cell as permanently stuck. Enforced by
  /// enforce_faults(), which the executor and the switches call after
  /// every mutation.
  void inject_stuck_at(Col col, std::size_t row, bool value);
  void clear_faults() noexcept { faults_.clear(); }
  const std::vector<StuckFault>& faults() const noexcept { return faults_; }
  /// Re-assert every stuck cell's value. Bits actually flipped (i.e.
  /// writes the cell refused) are reported to the attached
  /// WriteVerifyObserver — attach it *after* planting faults so the
  /// initial assertion stays silent.
  void enforce_faults() noexcept;
  /// Attach the program-verify observer (nullptr detaches).
  void set_write_verify(WriteVerifyObserver* obs) noexcept {
    observer_ = obs;
  }

  // -- column remap (periphery repair) ----------------------------------------
  /// Steer logical column `logical` to physical column `physical` — the
  /// column-mux repair path: a worn-out column is abandoned in place and
  /// a spare takes over its address. Applies to every access through
  /// column() (gates, host I/O, switch transfers); stuck faults remain
  /// addressed physically.
  void remap_column(Col logical, Col physical);
  /// Physical column currently serving logical column `c`.
  Col physical_column(Col c) const noexcept {
    return remap_ ? (*remap_)[c] : c;
  }
  bool has_remaps() const noexcept { return remap_ != nullptr; }
  void clear_remaps() noexcept { remap_.reset(); }

  // -- raw access for the gate kernels (pim/gate_kernels.h) -------------------
  /// The kBlockCols physical columns, indexed by physical column id.
  /// Whoever writes through it notes the columns (note_written).
  ColumnBits* physical_columns() noexcept { return cols_.data(); }
  /// Physical column `p` may hold set bits: reset() must clear it.
  void note_written(Col p) noexcept {
    if (p >= written_end_) written_end_ = p + 1u;
  }
  /// Logical -> physical column map; nullptr while it is the identity.
  const Col* remap_table() const noexcept {
    return remap_ ? remap_->data() : nullptr;
  }

 private:
  std::vector<ColumnBits> cols_ = std::vector<ColumnBits>(kBlockCols);
  std::vector<StuckFault> faults_;
  WriteVerifyObserver* observer_ = nullptr;
  // Identity when null (the common, fault-free case): one pointer test on
  // the access path instead of an unconditional indirection.
  std::unique_ptr<std::array<Col, kBlockCols>> remap_;
  // Physical columns at or above this have held only zeros since the last
  // clear() or reset().
  unsigned written_end_ = 0;
};

}  // namespace cryptopim::pim
