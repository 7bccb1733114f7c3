// A served polynomial-multiplication request: the unit of work flowing
// through the online serving runtime (src/runtime/serving.*).
//
// Requests are modelled, not materialised: a request names a degree
// class, a tenant and (optionally) a deadline, and the runtime charges
// the cycle cost the hardware model predicts for it. A sampled subset
// (`verify = true`) additionally carries a data seed; on completion the
// runtime materialises the operands, produces the product through the
// software mirror of the datapath and Freivalds-checks it, so a serving
// run ends with actually-verified results rather than only cycle
// accounting.
#pragma once

#include <cstdint>

namespace cryptopim::runtime {

/// Primitive op classes a protocol request compiles into (see
/// runtime/protocol.h). Raw polymul requests never carry one.
enum class OpClass : std::uint8_t {
  kPolymul,    ///< full negacyclic multiply on a superbank lane
  kNttLimb,    ///< one RNS limb of a wide multiply on a superbank lane
  kSample,     ///< host-side Keccak/XOF sampling (no lane)
  kAggregate,  ///< host-side join (CRT recombine / share aggregation)
};

struct Request {
  std::uint64_t id = 0;
  std::uint32_t tenant = 0;
  std::uint32_t degree = 0;
  std::uint32_t client = 0;          ///< closed-loop client that issued it
  std::uint64_t arrival_cycle = 0;
  /// Absolute cycle the tenant wants the result by; 0 = no deadline.
  std::uint64_t deadline_cycle = 0;
  /// Unloaded service latency (pipeline fill + extra segment beats),
  /// filled in at admission from the performance model. This is what
  /// shortest-job-first orders on.
  std::uint64_t service_cycles = 0;
  /// Carry data: on completion the result is Freivalds-verified.
  bool verify = false;
  std::uint64_t data_seed = 0;
  /// Retry attempts consumed so far (resilience layer); latency is still
  /// measured from the original arrival_cycle.
  unsigned attempts = 0;

  // -- protocol DAG linkage (zero for classic raw-polymul requests) ----------
  /// Owning protocol request id; 0 = raw polymul, not part of a DAG.
  std::uint64_t proto_id = 0;
  /// Position of this op in the compiled DAG (< 64).
  std::uint32_t op_index = 0;
  OpClass op_class = OpClass::kPolymul;
  /// Nonzero: siblings sharing the group should land on distinct lanes.
  std::uint32_t fanout_group = 0;
  /// Bitmask over op indices that must complete before this op may
  /// dispatch (the dependency frontier checks it against the done mask).
  std::uint64_t parent_mask = 0;
};

/// A laneless protocol host op (sampling / aggregation): it runs at a
/// fixed host cost and never waits for a superbank lane.
inline bool is_host_op(const Request& r) noexcept {
  return r.proto_id != 0 &&
         (r.op_class == OpClass::kSample || r.op_class == OpClass::kAggregate);
}

}  // namespace cryptopim::runtime
