// Tests for the serving runtime's AdmissionQueue (runtime/admission_queue.h).
//
// The main test is differential: over thousands of seeded random queues,
// for all four policies, the queue's pick sequence must equal the
// reference dispatcher it replaced — repeated Policy::pick over the
// insertion-ordered backlog with an eligibility mask, then erase. The
// random queues mix arrival ties with distinct ids, duplicate ids,
// requests without a deadline, equal and changing wfq usage, degree
// classes blocked mid-round, fan-out ops passed over, and DAG parents
// completing between rounds.
#include "runtime/admission_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"

namespace cryptopim::runtime {
namespace {

constexpr std::uint32_t kDegrees[] = {256, 1024, 4096};

/// The reference: a vector in insertion order, scanned on every pick
/// the way the dispatcher did before the AdmissionQueue.
struct Reference {
  std::vector<Request> queue;
  std::vector<std::uint64_t> seqs;  ///< the AdmissionQueue seq of each
  std::map<std::uint64_t, std::uint64_t> live_protos;  ///< pid -> done mask

  bool ready(const Request& r) const {
    if (r.proto_id == 0) return true;
    const auto it = live_protos.find(r.proto_id);
    return it != live_protos.end() &&
           (it->second & r.parent_mask) == r.parent_mask;
  }
  void erase(std::size_t i) {
    queue.erase(queue.begin() + static_cast<long>(i));
    seqs.erase(seqs.begin() + static_cast<long>(i));
  }
};

class Differential {
 public:
  Differential(const std::string& policy, std::uint64_t seed)
      : policy_(make_policy(policy)), rng_(seed) {
    q_.reset(*policy_);
    // Few distinct values: ties on usage are common.
    for (double& u : usage_) u = static_cast<double>(rng_.next_below(3));
  }

  void run(int steps) {
    for (int s = 0; s < steps; ++s) {
      const std::uint64_t roll = rng_.next_below(100);
      if (roll < 45) {
        push_random();
      } else if (roll < 70) {
        round();
      } else if (roll < 82) {
        complete_parent();
      } else if (roll < 88) {
        kill_proto();
      } else if (roll < 94) {
        timeout_random_id();
      } else {
        for (double& u : usage_) u = 1.0;  // all tenants tied
      }
      check_indexes();
    }
    // Insertion-order walk and drain keep the reference order.
    std::vector<std::uint64_t> walked;
    q_.for_each([&](const Request& r) { walked.push_back(r.id); });
    const std::vector<Request> drained = q_.drain();
    ASSERT_EQ(drained.size(), ref_.queue.size());
    for (std::size_t i = 0; i < drained.size(); ++i) {
      EXPECT_EQ(drained[i].id, ref_.queue[i].id);
      EXPECT_EQ(walked[i], ref_.queue[i].id);
      EXPECT_EQ(drained[i].arrival_cycle, ref_.queue[i].arrival_cycle);
    }
    EXPECT_EQ(q_.size(), 0u);
  }

  int picks() const { return picks_; }

 private:
  void push_random() {
    Request r;
    r.id = rng_.next_below(24);  // small range: duplicate ids
    r.tenant = static_cast<std::uint32_t>(rng_.next_below(4));
    r.degree = kDegrees[rng_.next_below(3)];
    r.arrival_cycle = rng_.next_below(8);  // ties with distinct ids
    r.service_cycles = 100 * (1 + rng_.next_below(3));
    r.deadline_cycle = rng_.next_below(3) == 0 ? 0 : 50 + rng_.next_below(4);
    if (rng_.next_below(3) == 0) {
      // A DAG op of one of a few protocols: op 0 has no parent, later ops
      // depend on a random subset of ops 0..3.
      r.proto_id = 1 + rng_.next_below(4);
      r.op_index = static_cast<std::uint32_t>(rng_.next_below(6));
      r.parent_mask = r.op_index == 0 ? 0 : 1 + rng_.next_below(15);
      const std::uint64_t cls = rng_.next_below(4);
      r.op_class = static_cast<OpClass>(cls);
      if (r.op_class == OpClass::kNttLimb || r.op_class == OpClass::kPolymul) {
        r.fanout_group = static_cast<std::uint32_t>(rng_.next_below(3));
      }
      if (!ref_.live_protos.contains(r.proto_id) && rng_.next_below(4) != 0) {
        // The protocol is (re)admitted; ops queued while it was not live
        // are re-filed like any other change of its done mask.
        ref_.live_protos[r.proto_id] = 0;
        q_.update_proto(r.proto_id, /*live=*/true, 0);
      }
    }
    const bool ready = ref_.ready(r);
    ref_.queue.push_back(r);
    ref_.seqs.push_back(next_seq_++);
    q_.push(r, ready);
  }

  /// One dispatch round, mirroring the runtime's try_dispatch: each pick
  /// is either taken, blocks its degree class, or (fan-out ops) passes.
  void round() {
    std::set<std::uint32_t> blocked;
    std::vector<std::uint32_t> blocked_list;
    std::set<std::uint64_t> skipped;
    const PolicyContext ctx{rng_.next_below(100), usage_};
    for (;;) {
      std::vector<bool> eligible(ref_.queue.size());
      for (std::size_t i = 0; i < ref_.queue.size(); ++i) {
        const Request& p = ref_.queue[i];
        eligible[i] = (is_host_op(p) || !blocked.contains(p.degree)) &&
                      !skipped.contains(p.id) && ref_.ready(p);
      }
      const std::size_t idx = policy_->pick(ref_.queue, eligible, ctx);
      const AdmissionQueue::Entry* best = q_.best(ctx, blocked_list);
      if (idx == Policy::npos) {
        ASSERT_EQ(best, nullptr) << "queue picked id " << best->request.id
                                 << " where the reference picked none";
        break;
      }
      ASSERT_NE(best, nullptr) << "reference picked index " << idx;
      ASSERT_EQ(best->seq, ref_.seqs[idx])
          << "pick " << picks_ << ": queue id " << best->request.id
          << ", reference id " << ref_.queue[idx].id;
      ++picks_;
      const Request& r = ref_.queue[idx];
      const std::uint64_t action = rng_.next_below(10);
      if (!is_host_op(r) && action < 2) {
        if (r.fanout_group != 0) {
          skipped.insert(r.id);
          q_.park(*best);
        } else {
          blocked.insert(r.degree);
          blocked_list.push_back(r.degree);
        }
        continue;
      }
      const Request taken = q_.take(*best);
      EXPECT_EQ(taken.id, r.id);
      ref_.erase(idx);
      if (taken.proto_id != 0 && action == 9) {
        // Shed: the protocol is torn down mid-round, parked ops included.
        tear_down(taken.proto_id);
        continue;
      }
      // Dispatch charges the tenant: wfq order changes mid-round.
      if (rng_.next_below(2) == 0) usage_[taken.tenant] += 1.0;
    }
    q_.unpark_all();
  }

  /// fail_protocol: every queued op of `pid` goes.
  void tear_down(std::uint64_t pid) {
    std::size_t n = 0;
    for (std::size_t i = ref_.queue.size(); i-- > 0;) {
      if (ref_.queue[i].proto_id == pid) {
        ref_.erase(i);
        ++n;
      }
    }
    EXPECT_EQ(q_.erase_proto(pid), n);
    ref_.live_protos.erase(pid);
  }

  void complete_parent() {
    if (ref_.live_protos.empty()) return;
    auto it = ref_.live_protos.begin();
    std::advance(it, static_cast<long>(rng_.next_below(ref_.live_protos.size())));
    it->second |= std::uint64_t{1} << rng_.next_below(4);
    q_.update_proto(it->first, /*live=*/true, it->second);
  }

  void kill_proto() {
    const std::uint64_t pid = 1 + rng_.next_below(4);
    if (rng_.next_below(2) == 0) {
      tear_down(pid);
    } else {
      // Completed elsewhere: queued copies stay but are orphans.
      ref_.live_protos.erase(pid);
      q_.update_proto(pid, /*live=*/false, 0);
    }
  }

  void timeout_random_id() {
    const std::uint64_t id = rng_.next_below(24);
    const AdmissionQueue::Entry* e = q_.find_id(id);
    const auto it = std::find_if(ref_.queue.begin(), ref_.queue.end(),
                                 [id](const Request& r) { return r.id == id; });
    if (it == ref_.queue.end()) {
      EXPECT_EQ(e, nullptr);
      return;
    }
    ASSERT_NE(e, nullptr);
    const auto i = static_cast<std::size_t>(it - ref_.queue.begin());
    EXPECT_EQ(e->seq, ref_.seqs[i]);
    q_.take(*e);
    ref_.erase(i);
  }

  void check_indexes() {
    ASSERT_EQ(q_.size(), ref_.queue.size());
    std::map<std::uint32_t, std::size_t> degrees;
    std::map<std::uint64_t, std::size_t> protos;
    for (const Request& r : ref_.queue) {
      degrees[r.degree] += 1;
      if (r.proto_id != 0) protos[r.proto_id] += 1;
    }
    EXPECT_EQ(q_.degree_counts(), degrees);
    for (const std::uint32_t d : kDegrees) {
      EXPECT_EQ(q_.degree_count(d), degrees[d]);
    }
    for (std::uint64_t pid = 1; pid <= 4; ++pid) {
      EXPECT_EQ(q_.proto_count(pid), protos[pid]);
    }
  }

  std::unique_ptr<Policy> policy_;
  Xoshiro256 rng_;
  AdmissionQueue q_;
  Reference ref_;
  std::uint64_t next_seq_ = 0;
  std::vector<double> usage_ = std::vector<double>(4);
  int picks_ = 0;
};

class AdmissionQueueDifferential
    : public ::testing::TestWithParam<std::string> {};

TEST_P(AdmissionQueueDifferential, PickSequenceEqualsReferenceScan) {
  int picks = 0;
  for (std::uint64_t seed = 1; seed <= 1000; ++seed) {
    Differential d(GetParam(), seed * 0x9e3779b97f4a7c15ull);
    d.run(120);
    if (HasFatalFailure() || HasNonfatalFailure()) {
      FAIL() << "policy " << GetParam() << ", seed " << seed;
    }
    picks += d.picks();
  }
  EXPECT_GT(picks, 10000);  // the comparison actually exercised picks
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, AdmissionQueueDifferential,
                         ::testing::Values("fifo", "sjf", "edf", "wfq"));

}  // namespace
}  // namespace cryptopim::runtime
