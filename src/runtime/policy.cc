#include "runtime/policy.h"

#include <limits>

namespace cryptopim::runtime {

std::size_t Policy::pick(std::span<const Request> queue,
                         const std::vector<bool>& eligible,
                         const PolicyContext& ctx) const {
  std::size_t best = npos;
  for (std::size_t i = 0; i < queue.size(); ++i) {
    if (!eligible[i]) continue;
    if (best == npos || before(queue[i], queue[best], ctx)) best = i;
  }
  return best;
}

namespace {

/// Stable final tie-break: older request first, then lower id.
bool older(const Request& a, const Request& b) noexcept {
  if (a.arrival_cycle != b.arrival_cycle) {
    return a.arrival_cycle < b.arrival_cycle;
  }
  return a.id < b.id;
}

class FifoPolicy final : public Policy {
 public:
  std::string_view name() const noexcept override { return "fifo"; }
  bool before(const Request& a, const Request& b,
              const PolicyContext&) const noexcept override {
    return older(a, b);
  }
};

class SjfPolicy final : public Policy {
 public:
  std::string_view name() const noexcept override { return "sjf"; }
  bool before(const Request& a, const Request& b,
              const PolicyContext&) const noexcept override {
    if (a.service_cycles != b.service_cycles) {
      return a.service_cycles < b.service_cycles;
    }
    return older(a, b);
  }
};

class EdfPolicy final : public Policy {
 public:
  std::string_view name() const noexcept override { return "edf"; }
  bool before(const Request& a, const Request& b,
              const PolicyContext&) const noexcept override {
    // deadline 0 = none: sorts after every real deadline.
    const std::uint64_t da = a.deadline_cycle
                                 ? a.deadline_cycle
                                 : std::numeric_limits<std::uint64_t>::max();
    const std::uint64_t db = b.deadline_cycle
                                 ? b.deadline_cycle
                                 : std::numeric_limits<std::uint64_t>::max();
    if (da != db) return da < db;
    return older(a, b);
  }
};

class WfqPolicy final : public Policy {
 public:
  std::string_view name() const noexcept override { return "wfq"; }
  bool before(const Request& a, const Request& b,
              const PolicyContext& ctx) const noexcept override {
    const double ua = usage(a, ctx), ub = usage(b, ctx);
    if (ua != ub) return ua < ub;
    return older(a, b);
  }
  /// One bucket per tenant: usage is per tenant, so within a bucket the
  /// order is (arrival, id) whatever the live usage.
  std::uint32_t bucket(const Request& r) const noexcept override {
    return r.tenant;
  }

 private:
  static double usage(const Request& r, const PolicyContext& ctx) noexcept {
    return r.tenant < ctx.tenant_usage.size() ? ctx.tenant_usage[r.tenant]
                                              : 0.0;
  }
};

}  // namespace

std::unique_ptr<Policy> make_policy(std::string_view name) {
  if (name == "fifo") return std::make_unique<FifoPolicy>();
  if (name == "sjf") return std::make_unique<SjfPolicy>();
  if (name == "edf") return std::make_unique<EdfPolicy>();
  if (name == "wfq") return std::make_unique<WfqPolicy>();
  return nullptr;
}

const std::vector<std::string>& policy_names() {
  static const std::vector<std::string> names = {"fifo", "sjf", "edf", "wfq"};
  return names;
}

}  // namespace cryptopim::runtime
