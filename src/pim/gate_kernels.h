// Per-ISA gate kernels of the lock-step microcode replay.
//
// A stage program is recorded once and broadcast to every block that
// runs it (pim/program.h). The replay turns that into one loop:
// instruction outer, lanes inner, where a lane is one block plus the mask
// table it replays under. A GateKernels table supplies the loop. Three
// tables exist — portable scalar (one 64-row word at a time), AVX2 (four
// words, one ymm) and AVX-512 (a whole 512-row column, one zmm) — and the
// replay takes the widest one the running CPU supports
// (`__builtin_cpu_supports`), with no build flag or setting involved.
//
// Every table writes bit-identical cells: a vector covers the lane's word
// window rounded out to whole vectors, and the words it adds outside the
// window have an all-zero mask in every slot the program uses, so the
// masked write leaves them untouched (tests/test_gate_kernels.cc).
#pragma once

#include <cstddef>

#include "pim/block.h"
#include "pim/isa.h"

namespace cryptopim::pim {

/// One block of a lock-step replay, as the kernels see it.
struct GateLane {
  ColumnBits* cols = nullptr;      ///< the block's physical columns
  const Col* remap = nullptr;      ///< logical -> physical; null: identity
  const RowMask* masks = nullptr;  ///< mask table, indexed by Instr::mask_slot
  /// Non-null when the block has stuck cells: they re-assert (and report
  /// refused writes) after every gate.
  MemoryBlock* faulty = nullptr;
  /// Words [first, last) cover every row the program's slots drive.
  unsigned first = 0, last = 0;
};

/// The lane of `block` replaying under `masks` over words `win`.
GateLane gate_lane(MemoryBlock& block, const RowMask* masks,
                   RowMask::WordWindow win);

struct GateKernels {
  const char* name;
  /// Evaluates instructions [begin, end) on every lane: instruction
  /// outer, lanes inner. Lanes must be distinct blocks. No accounting.
  void (*run)(const Instr* begin, const Instr* end, const GateLane* lanes,
              std::size_t n_lanes);
};

/// Portable reference loop; always available.
const GateKernels& scalar_gate_kernels();
/// The SIMD tables, or nullptr when the CPU (or the target) lacks the ISA.
const GateKernels* avx2_gate_kernels();
const GateKernels* avx512_gate_kernels();
/// The widest table the running CPU supports.
const GateKernels& best_gate_kernels();

}  // namespace cryptopim::pim
