#include "reliability/manager.h"

#include <algorithm>

#include "common/bitutil.h"

namespace cryptopim::reliability {

ReliabilityManager::ReliabilityManager(ReliabilityConfig cfg,
                                       const ntt::NttParams& params)
    : cfg_(cfg),
      params_(params),
      model_(cfg.fault),
      verifier_(params, cfg.verify),
      width_(bit_length(params.q)),
      banks_(params.n > pim::kBlockRows
                 ? params.n / static_cast<unsigned>(pim::kBlockRows)
                 : 1u) {
  if (cfg_.spare_cols_per_block >= pim::kBlockCols / 2) {
    throw std::invalid_argument("spare_cols_per_block too large");
  }
  bank_map_.resize(banks_);
  for (unsigned b = 0; b < banks_; ++b) bank_map_[b] = b;
  next_spare_bank_ = banks_;
}

void ReliabilityManager::begin_run() {
  stats_ = RelStats{};
  stats_.enabled = true;
  run_faults_.clear();
  attempt_parity_errors_ = 0;
}

void ReliabilityManager::begin_attempt() {
  ++stats_.attempts;
  attempt_parity_errors_ = 0;
  attempt_write_errors_ = 0;
}

void ReliabilityManager::prepare_block(unsigned stage, unsigned bank,
                                       pim::MemoryBlock& blk) {
  const std::uint32_t id = block_id(stage, bank);
  // Wear first: a column that crosses its endurance limit on this very
  // write fails *this* attempt, like hardware would.
  if (cfg_.fault.endurance_limit > 0) {
    auto wear_col = [&](pim::Col c) {
      if (model_.note_wear(id, c)) ++stats_.wear_failures;
    };
    wear_col(0);  // constant rails
    wear_col(1);
    for (unsigned i = 0; i < 3 * width_; ++i) {
      wear_col(static_cast<pim::Col>(8 + i));  // stage data region
    }
  }
  const unsigned planted = model_.plant(id, blk);
  // Count each physical block's faults once per run, not once per attempt.
  if (run_faults_.emplace(id, planted).second) {
    stats_.faults_planted += planted;
  }
  // Re-apply this block's recorded repairs (fresh stage state, same
  // physical block -> same column mux programming).
  if (const auto it = repairs_.find(id); it != repairs_.end()) {
    for (const auto& [logical, spare] : it->second.remaps) {
      blk.remap_column(logical, spare);
    }
  }
  // Attach program-verify last: the initial fault assertion above is
  // power-on state, not a refused write.
  blk.set_write_verify(this);
}

bool ReliabilityManager::verify(const ntt::Poly& a, const ntt::Poly& b,
                                const ntt::Poly& c) {
  if (attempt_dirty()) return false;
  if (cfg_.verify.points == 0) return true;
  ++stats_.verify_checks;
  stats_.verify_cycles += verifier_.cycles_per_check();
  const bool ok = verifier_.check(a, b, c);
  if (!ok) ++stats_.verify_failures;
  return ok;
}

void ReliabilityManager::note_retry(std::uint64_t wasted_cycles) {
  stats_.retry_cycles += wasted_cycles;
}

void ReliabilityManager::repair() {
  // Diagnose every block this run touched: a modeled BIST column march
  // (cycle-charged) reveals the stuck cells the fault model planted.
  // Iterate a copy — fail_bank() rewrites bank_map_ under us.
  const std::vector<std::uint32_t> seen = [this] {
    std::vector<std::uint32_t> ids;
    ids.reserve(run_faults_.size());
    for (const auto& [id, count] : run_faults_) ids.push_back(id);
    return ids;
  }();

  for (const std::uint32_t id : seen) {
    stats_.repair_cycles += ReliabilityConfig::kBistCyclesPerBlock;
    const auto faults = model_.faults_for_block(id);
    if (faults.empty()) continue;
    // The block may belong to a bank already failed over; repairing the
    // abandoned physical block is pointless.
    const std::uint32_t phys_bank = id / kStageStride;
    const auto owner = std::find(bank_map_.begin(), bank_map_.end(), phys_bank);
    if (owner == bank_map_.end()) continue;
    const unsigned bank =
        static_cast<unsigned>(owner - bank_map_.begin());

    auto& rep = repairs_[id];
    bool bank_lost = false;
    for (const auto& f : faults) {
      if (rep.abandoned.count(f.col) > 0) continue;
      // Which logical column does this physical cell serve?
      pim::Col logical = f.col;
      const auto serving = std::find_if(
          rep.remaps.begin(), rep.remaps.end(),
          [&f](const auto& m) { return m.second == f.col; });
      if (serving != rep.remaps.end()) {
        logical = serving->first;
      } else if (std::any_of(rep.remaps.begin(), rep.remaps.end(),
                             [&f](const auto& m) { return m.first == f.col; })) {
        // Already remapped away from this physical column.
        rep.abandoned.insert(f.col);
        continue;
      } else if (f.col >= spare_base()) {
        // A faulty, still-unused spare: strike it from the pool.
        rep.abandoned.insert(f.col);
        continue;
      }
      // Claim the next healthy spare.
      pim::Col spare = 0;
      bool found = false;
      while (rep.spares_used < cfg_.spare_cols_per_block) {
        const auto cand = static_cast<pim::Col>(
            pim::kBlockCols - 1 - rep.spares_used);
        ++rep.spares_used;
        if (rep.abandoned.count(cand) == 0) {
          spare = cand;
          found = true;
          break;
        }
      }
      if (!found) {
        bank_lost = true;
        break;
      }
      rep.abandoned.insert(f.col);
      // Drop a stale remap of the same logical column (re-failed spare).
      std::erase_if(rep.remaps,
                    [logical](const auto& m) { return m.first == logical; });
      rep.remaps.emplace_back(logical, spare);
      ++stats_.columns_remapped;
      stats_.repair_cycles += ReliabilityConfig::kRemapCyclesPerColumn;
    }
    if (bank_lost) fail_bank(bank);
  }
}

void ReliabilityManager::fail_bank(unsigned bank) {
  ++failed_banks_;
  ++stats_.banks_remapped;
  stats_.repair_cycles += ReliabilityConfig::kBankRemapCycles;
  if (spare_banks_used_ >= cfg_.spare_banks) {
    finish_run(false);
    throw UnrecoverableFault(
        "superbank out of spare banks: chip must degrade", stats_);
  }
  ++spare_banks_used_;
  const std::uint32_t fresh = next_spare_bank_++;
  // Drop repair state and run-fault bookkeeping of the abandoned bank;
  // the fresh physical bank starts clean (with its own planted faults).
  const std::uint32_t old_phys = bank_map_[bank];
  for (unsigned s = 0; s < kStageStride; ++s) {
    repairs_.erase(old_phys * kStageStride + s);
    run_faults_.erase(old_phys * kStageStride + s);
  }
  bank_map_[bank] = fresh;
}

void ReliabilityManager::finish_run(bool verified) {
  stats_.verified = verified;
}

bool ReliabilityManager::corrupt_bit() {
  if (model_.transient_flip()) {
    ++stats_.transient_flips;
    return true;
  }
  return false;
}

void ReliabilityManager::parity_mismatch(std::size_t /*row*/) {
  ++stats_.parity_mismatches;
  ++attempt_parity_errors_;
}

void ReliabilityManager::stuck_write(pim::Col /*col*/, std::size_t /*row*/,
                                     bool /*stuck_value*/) {
  ++stats_.write_verify_failures;
  ++attempt_write_errors_;
}

}  // namespace cryptopim::reliability
