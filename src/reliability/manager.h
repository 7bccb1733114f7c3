// ReliabilityManager: the inject -> detect -> retry -> remap -> degrade
// policy engine threaded through the simulators.
//
// One manager guards one superbank (the banks executing one
// multiplication). It owns the fault model and plants faults into every
// stage block the simulator materialises. Detection is layered:
// program-verify (stuck cells refuse writes — pim::WriteVerifyObserver)
// catches endurance corruption at the source, the switch parity column
// catches in-flight corruption, and the Freivalds check backstops the
// delivered result. On detection the manager repairs:
//
//   1. *retry*: rerun the multiplication. Transient flips draw fresh
//      randomness, so a retry alone clears them.
//   2. *column remap*: stuck cells are endurance failures and survive
//      retries. Diagnosis (a modeled BIST column march, cycle-charged)
//      locates the bad columns of each physical block; each is steered to
//      one of the block's spare columns through the periphery column mux
//      (MemoryBlock::remap_column).
//   3. *bank remap*: a block whose spare columns are exhausted takes its
//      whole bank out of service; the bank's role moves to a chip spare.
//   4. *degrade*: with no spare banks left the superbank is lost —
//      UnrecoverableFault tells the chip level to replan with fewer
//      superbanks (arch::ChipConfig::plan_for_degree(n, failed_banks)).
//
// Every verify/retry/repair cycle is accounted and lands in
// SimReport::reliability.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "ntt/params.h"
#include "ntt/poly.h"
#include "pim/block.h"
#include "pim/switch.h"
#include "reliability/fault_model.h"
#include "reliability/verifier.h"

namespace cryptopim::reliability {

struct ReliabilityConfig {
  FaultConfig fault;
  VerifyConfig verify;        ///< points = 0 disables the Freivalds check
  bool parity = true;         ///< parity column on every switch transfer
  unsigned max_retries = 4;   ///< attempts = 1 + max_retries
  unsigned spare_cols_per_block = 8;
  unsigned spare_banks = 4;   ///< superbank-local share of the chip spares

  // Modeled repair costs, in crossbar cycles.
  static constexpr std::uint64_t kBistCyclesPerBlock = 2 * pim::kBlockCols;
  static constexpr std::uint64_t kRemapCyclesPerColumn = 8;
  static constexpr std::uint64_t kBankRemapCycles = 4096;
};

/// Per-multiply reliability ledger (embedded in sim::SimReport).
struct RelStats {
  bool enabled = false;
  bool verified = false;       ///< final result passed all checks
  unsigned attempts = 0;
  std::uint64_t faults_planted = 0;     ///< distinct stuck cells exposed
  std::uint64_t transient_flips = 0;
  std::uint64_t parity_mismatches = 0;
  /// Program-verify (write-readback) failures: writes a stuck cell
  /// refused. The primary stuck-fault detector — it fires at the moment
  /// of corruption, including corruption the Freivalds check is nearly
  /// blind to (errors confined to a single NTT bin vanish at n-1 of the
  /// n evaluation roots).
  std::uint64_t write_verify_failures = 0;
  std::uint64_t verify_checks = 0;
  std::uint64_t verify_failures = 0;
  std::uint64_t columns_remapped = 0;
  std::uint64_t banks_remapped = 0;
  std::uint64_t wear_failures = 0;
  std::uint64_t verify_cycles = 0;
  std::uint64_t repair_cycles = 0;
  std::uint64_t retry_cycles = 0;  ///< wall cycles of abandoned attempts

  std::uint64_t overhead_cycles() const noexcept {
    return verify_cycles + repair_cycles + retry_cycles;
  }
};

/// The superbank is beyond local repair; the chip must degrade.
struct UnrecoverableFault : std::runtime_error {
  explicit UnrecoverableFault(const std::string& what, RelStats s)
      : std::runtime_error(what), stats(std::move(s)) {}
  RelStats stats;
};

class ReliabilityManager final : public pim::TransferFaultHooks,
                                 public pim::WriteVerifyObserver {
 public:
  ReliabilityManager(ReliabilityConfig cfg, const ntt::NttParams& params);

  const ReliabilityConfig& config() const noexcept { return cfg_; }
  FaultModel& fault_model() noexcept { return model_; }

  // -- simulator lifecycle ----------------------------------------------------
  /// Start a new multiply: resets the per-run ledger (remaps and wear
  /// persist — they are hardware state).
  void begin_run();
  /// Start an attempt within the current run.
  void begin_attempt();
  /// Plant faults into (and apply recorded repairs to) the block backing
  /// pipeline stage `stage` of logical bank `bank`, and advance the data
  /// columns' wear. Called by the simulator for every stage state.
  void prepare_block(unsigned stage, unsigned bank, pim::MemoryBlock& blk);
  /// Any detection (parity mismatch or program-verify failure) since
  /// begin_attempt()? The simulator aborts the attempt early when so.
  bool attempt_dirty() const noexcept {
    return attempt_parity_errors_ > 0 || attempt_write_errors_ > 0;
  }
  /// End-of-attempt check: parity clean and Freivalds agrees.
  bool verify(const ntt::Poly& a, const ntt::Poly& b, const ntt::Poly& c);
  /// An attempt was abandoned after `wasted_cycles` of wall time.
  void note_retry(std::uint64_t wasted_cycles);
  /// Diagnose and repair: BIST every block seen this run, remap faulty
  /// columns to spares, fail banks out to chip spares. Throws
  /// UnrecoverableFault once the spare banks are exhausted.
  void repair();
  /// Final result delivered: seal the ledger.
  void finish_run(bool verified);

  const RelStats& stats() const noexcept { return stats_; }
  /// Physical banks taken out of service so far (lifetime, for
  /// chip-level replanning).
  unsigned failed_banks() const noexcept { return failed_banks_; }
  unsigned spare_banks_left() const noexcept {
    return cfg_.spare_banks - spare_banks_used_;
  }
  bool parity_enabled() const noexcept { return cfg_.parity; }
  pim::TransferFaultHooks* hooks() noexcept {
    return cfg_.fault.transient_rate > 0 || cfg_.parity ? this : nullptr;
  }

  // -- pim::TransferFaultHooks ------------------------------------------------
  bool corrupt_bit() override;
  void parity_mismatch(std::size_t row) override;

  // -- pim::WriteVerifyObserver -----------------------------------------------
  void stuck_write(pim::Col col, std::size_t row, bool stuck_value) override;

  /// First spare-column id: [spare_base(), kBlockCols) is the repair pool
  /// the executor must not allocate from.
  pim::Col spare_base() const noexcept {
    return static_cast<pim::Col>(pim::kBlockCols - cfg_.spare_cols_per_block);
  }

 private:
  /// Physical blocks are addressed (physical bank) * kStageStride + stage.
  static constexpr std::uint32_t kStageStride = 64;

  struct BlockRepair {
    std::vector<std::pair<pim::Col, pim::Col>> remaps;  ///< logical -> spare
    std::set<pim::Col> abandoned;  ///< physical columns taken out of use
    unsigned spares_used = 0;
  };

  std::uint32_t block_id(unsigned stage, unsigned bank) const {
    return bank_map_.at(bank) * kStageStride + stage;
  }
  /// Move logical bank `bank` to a fresh physical bank. Throws
  /// UnrecoverableFault when the spare pool is dry.
  void fail_bank(unsigned bank);

  ReliabilityConfig cfg_;
  ntt::NttParams params_;
  FaultModel model_;
  ResultVerifier verifier_;
  unsigned width_;   ///< datapath bit-width (wear tracking)
  unsigned banks_;   ///< logical banks per polynomial

  std::vector<std::uint32_t> bank_map_;  ///< logical -> physical bank
  std::uint32_t next_spare_bank_;
  unsigned spare_banks_used_ = 0;
  unsigned failed_banks_ = 0;
  std::map<std::uint32_t, BlockRepair> repairs_;      ///< by physical block
  std::map<std::uint32_t, std::uint64_t> run_faults_; ///< per-block count

  RelStats stats_;
  std::uint64_t attempt_parity_errors_ = 0;
  std::uint64_t attempt_write_errors_ = 0;
};

}  // namespace cryptopim::reliability
