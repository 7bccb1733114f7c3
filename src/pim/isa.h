// The gate micro-op ISA executed inside a memory block.
//
// Gate latencies follow FELIX [10]: NOT/NOR/NAND/OR and 3-input minority
// evaluate in a single crossbar cycle; two-input XOR takes two cycles,
// three-input XOR three, majority two (minority + complement). Input
// polarity flags model the hardware's ability to pick execution voltages
// that absorb an input complement at no latency cost — the multiplier and
// the reductions rely on this to consume NAND-generated partial products
// directly.
#pragma once

#include <cstddef>
#include <cstdint>

#include "pim/block.h"

namespace cryptopim::pim {

enum class GateKind : std::uint8_t {
  kSet0,   ///< dst := 0            (1 cycle, cell RESET)
  kSet1,   ///< dst := 1            (1 cycle, cell SET)
  kNot,    ///< dst := !a           (1 cycle)
  kNor,    ///< dst := !(a | b)     (1 cycle)
  kNand,   ///< dst := !(a & b)     (1 cycle)
  kOr,     ///< dst := a | b        (1 cycle)
  kAnd,    ///< dst := a & b        (2 cycles: NAND + NOT)
  kXor2,   ///< dst := a ^ b        (2 cycles)
  kXor3,   ///< dst := a ^ b ^ c    (3 cycles)
  kMaj3,   ///< dst := maj(a,b,c)   (2 cycles: minority + NOT)
  kMin3,   ///< dst := !maj(a,b,c)  (1 cycle, FELIX native minority)
  kMux,    ///< dst := c ? a : b    (3 cycles)
  kCopy,   ///< dst := a            (2 cycles: NOT + NOT)
};

/// Crossbar cycles consumed by one gate evaluation (row-parallel: the same
/// count regardless of how many rows participate).
constexpr unsigned gate_cycles(GateKind k) noexcept {
  switch (k) {
    case GateKind::kSet0:
    case GateKind::kSet1:
    case GateKind::kNot:
    case GateKind::kNor:
    case GateKind::kNand:
    case GateKind::kOr:
    case GateKind::kMin3:
      return 1;
    case GateKind::kAnd:
    case GateKind::kXor2:
    case GateKind::kMaj3:
    case GateKind::kCopy:
      return 2;
    case GateKind::kXor3:
    case GateKind::kMux:
      return 3;
  }
  return 0;  // unreachable
}

/// Number of operand inputs a gate reads.
constexpr unsigned gate_arity(GateKind k) noexcept {
  switch (k) {
    case GateKind::kSet0:
    case GateKind::kSet1:
      return 0;
    case GateKind::kNot:
    case GateKind::kCopy:
      return 1;
    case GateKind::kNor:
    case GateKind::kNand:
    case GateKind::kOr:
    case GateKind::kAnd:
    case GateKind::kXor2:
      return 2;
    case GateKind::kXor3:
    case GateKind::kMaj3:
    case GateKind::kMin3:
    case GateKind::kMux:
      return 3;
  }
  return 0;  // unreachable
}

/// One micro-op: dst column := gate(inputs), over the active row mask.
/// `neg_a/b/c` complement the corresponding input before the gate
/// (voltage-polarity trick, latency-free).
struct MicroOp {
  GateKind kind = GateKind::kSet0;
  Col dst = 0;
  Col a = 0, b = 0, c = 0;
  bool neg_a = false, neg_b = false, neg_c = false;
};

/// Mask-table entries per bank (the instruction's 2-bit slot field).
inline constexpr std::size_t kMaskSlots = 4;

/// One controller instruction: a gate micro-op driven on the rows selected
/// by `mask_slot` (an index into the per-bank mask table).
struct Instr {
  MicroOp op;
  std::uint8_t mask_slot = 0;
};

}  // namespace cryptopim::pim
