#include "pim/gate_kernels.h"

#include <cstdint>

namespace cryptopim::pim {

namespace {

namespace scalar {

using V = std::uint64_t;
constexpr unsigned kVecWords = 1;

inline V load(const std::uint64_t* p) { return *p; }
inline void store(std::uint64_t* p, V v) { *p = v; }
inline V splat(std::uint64_t x) { return x; }

#include "pim/gate_kernels_simd.inc"

}  // namespace scalar

constexpr GateKernels kScalar = {"scalar", scalar::run};

}  // namespace

GateLane gate_lane(MemoryBlock& block, const RowMask* masks,
                   RowMask::WordWindow win) {
  return GateLane{block.physical_columns(),
                  block.remap_table(),
                  masks,
                  block.faults().empty() ? nullptr : &block,
                  win.first,
                  win.last};
}

const GateKernels& scalar_gate_kernels() { return kScalar; }

const GateKernels& best_gate_kernels() {
  static const GateKernels& best = avx512_gate_kernels() != nullptr
                                       ? *avx512_gate_kernels()
                                   : avx2_gate_kernels() != nullptr
                                       ? *avx2_gate_kernels()
                                       : kScalar;
  return best;
}

}  // namespace cryptopim::pim
