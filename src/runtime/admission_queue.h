// Admission queue of the serving runtime: every admitted request that is
// waiting for a lane, indexed so that picking the next one to dispatch
// costs O(buckets + log backlog) instead of a pass over the backlog.
//
// Each request is stored once, keyed by (id, admission sequence number
// `seq`), which doubles as the id index queued timeouts look requests up
// in. Walks in insertion order (drain, for_each) visit the requests by
// `seq`, the order a plain vector with push_back / erase would keep;
// chip crash and drain hand requests to the fleet in that order. Around
// the store sit:
//
//   ready buckets  one ordered set per (lane class, Policy::bucket): the
//                  lane class is the degree, or kHostClass for laneless
//                  protocol host ops; the order is the policy's `before`
//                  with `seq` as the final tie-break
//   degree counts  queued requests per degree, in every state
//   proto lists    queued ops per protocol request
//
// A DAG op whose parents have not all completed waits outside the
// buckets; update_proto() files it when its last parent completes. The
// dispatcher takes the minimum over the heads of the buckets it has not
// blocked (best), and a request it cannot place right now (a fan-out op
// boxed out by its siblings) is parked: passed over, with every request
// sharing its id, until unpark_all() ends the round. The pick sequence
// equals repeated Policy::pick over the insertion-ordered backlog with
// the same eligibility mask.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <span>
#include <vector>

#include "runtime/policy.h"
#include "runtime/request.h"

namespace cryptopim::runtime {

class AdmissionQueue {
 public:
  struct Entry {
    Request request;
    std::uint64_t seq = 0;  ///< admission sequence: insertion order

   private:
    friend class AdmissionQueue;
    enum class State : std::uint8_t { kWaiting, kReady, kParked };
    State state = State::kWaiting;
  };

  /// Empty the queue and order its ready buckets by `policy`, which is
  /// not owned and must outlive every later call.
  void reset(const Policy& policy);

  std::size_t size() const noexcept { return entries_.size(); }

  /// Admit `r` at the back of the insertion order. `ready` is false for
  /// a DAG op with a parent still incomplete.
  void push(Request r, bool ready);

  /// The ready request to serve next under `ctx`: the minimum under
  /// (Policy::before, seq) over the bucket heads, skipping degree
  /// classes in `blocked` (host ops are never blocked) and parked
  /// requests; nullptr when there is none.
  const Entry* best(const PolicyContext& ctx,
                    std::span<const std::uint32_t> blocked);
  /// Pass over `e`, and every queued request with its id, until
  /// unpark_all().
  void park(const Entry& e);
  /// End a dispatch round: parked requests return to their buckets.
  void unpark_all();

  /// Remove a queued request and return it.
  Request take(const Entry& e);
  /// First queued request, in insertion order, with `id`; nullptr if none.
  const Entry* find_id(std::uint64_t id) const;

  /// Queued requests per degree (every state; zero counts are absent).
  const std::map<std::uint32_t, std::size_t>& degree_counts() const noexcept {
    return by_degree_;
  }
  std::size_t degree_count(std::uint32_t degree) const;

  /// Queued ops of protocol request `pid`.
  std::size_t proto_count(std::uint64_t pid) const;
  /// Re-file the queued ops of `pid`: an op is ready iff `live` and all
  /// of its parents are in `done_mask`.
  void update_proto(std::uint64_t pid, bool live, std::uint64_t done_mask);
  /// Remove every queued op of `pid`; returns how many there were.
  std::size_t erase_proto(std::uint64_t pid);

  /// Visit every queued request in insertion order.
  template <typename F>
  void for_each(F&& f) const {
    for (const Entry* e : in_order()) f(e->request);
  }
  /// Remove and return every queued request, in insertion order.
  std::vector<Request> drain();
  void clear();

 private:
  /// Lane class of laneless protocol host ops. No degree is 0, so a
  /// blocked degree class never blocks them.
  static constexpr std::uint32_t kHostClass = 0;

  struct Order {
    const Policy* policy;
    bool operator()(const Entry* a, const Entry* b) const noexcept;
  };
  using Bucket = std::set<Entry*, Order>;
  using BucketKey = std::pair<std::uint32_t, std::uint32_t>;

  Bucket& bucket_of(const Entry& e);
  std::vector<const Entry*> in_order() const;  ///< sorted by seq
  void file(Entry& e);    ///< into its ready bucket
  void unfile(Entry& e);  ///< out of its bucket or the parked list
  void set_aside(Entry& e);  ///< parked until unpark_all()
  /// Head of `b` that is not an id-twin of a parked request.
  const Entry* head(Bucket& b);

  const Policy* policy_ = nullptr;
  std::uint64_t next_seq_ = 0;
  std::map<std::pair<std::uint64_t, std::uint64_t>, Entry>
      entries_;                          ///< by (id, seq)
  std::map<BucketKey, Bucket> buckets_;  ///< created on first use
  std::map<std::uint32_t, std::size_t> by_degree_;
  std::map<std::uint64_t, std::vector<Entry*>> by_proto_;
  std::vector<Entry*> parked_;
  std::set<std::uint64_t> parked_ids_;
};

}  // namespace cryptopim::runtime
