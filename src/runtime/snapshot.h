// Periodic state snapshots for durable serving (schema "snapshot/1").
//
// Recovery in this repo is replay-based (see runtime/journal.h): the
// deterministic event clock re-executes the run from its origin and the
// journal pins the externally-visible commitments. Snapshots ride that
// mechanism as periodic *cross-checks* rather than cold-restore images:
// every `--snapshot-every N` global events the runtime serializes its
// full state (lane geometry, wear counters, breaker and shard-map state,
// RNG cursors, WFQ ledgers) into `snap-<index>.json`, and a recovering
// run — as its replay passes the same index — rebuilds the state dump
// and verifies the stored CRC matches. A divergence means the replay is
// not reproducing the pre-crash run and recovery fails loudly instead of
// silently double-serving.
//
// Document shape:
//
//   {"schema":"snapshot/1","index":<u64>,"crc":"<hex8>","state":{...}}
//
// with `crc` = crc32 of the compact serialization of `state`. Writes go
// through a temp file + rename so a crash mid-snapshot never leaves a
// half-written document under the canonical name.
#pragma once

#include <cstdint>
#include <string>

#include "obs/json.h"

namespace cryptopim::runtime {

/// Atomically persists `state` as `<dir>/snap-<index>.json`. Returns the
/// file's basename; also outputs the CRC of the state serialization so
/// the caller can journal it.
std::string write_snapshot(const std::string& dir, std::uint64_t index,
                           const obs::Json& state, std::uint32_t* state_crc);

/// `v` as 16 lowercase hex digits: how snapshot states carry 64-bit RNG
/// digests, which would lose bits on the JSON number path.
std::string u64_hex(std::uint64_t v);

struct SnapshotLoadResult {
  bool ok = false;
  std::string error;
  std::uint64_t index = 0;
  std::uint32_t crc = 0;   ///< stored CRC of the state serialization
  obs::Json state;
};

/// Parses and validates one snapshot document (schema + field checks).
SnapshotLoadResult load_snapshot(const std::string& path);

/// Scans `dir` for `snap-*.json` and returns the valid snapshot with the
/// highest index (ok=false if none parse).
SnapshotLoadResult load_latest_snapshot(const std::string& dir);

/// True iff `state`'s compact serialization hashes to `expected_crc`.
/// Comparing CRCs of serializations (not parsed doubles round-tripped)
/// keeps full-width u64 fields exact.
bool snapshot_state_matches(const obs::Json& state, std::uint32_t expected_crc);

}  // namespace cryptopim::runtime
