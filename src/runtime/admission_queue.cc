#include "runtime/admission_queue.h"

#include <algorithm>

namespace cryptopim::runtime {

namespace {

/// The dispatch order: the policy's comparator, then admission order.
bool precedes(const Policy& policy, const AdmissionQueue::Entry& a,
              const AdmissionQueue::Entry& b,
              const PolicyContext& ctx) noexcept {
  if (policy.before(a.request, b.request, ctx)) return true;
  if (policy.before(b.request, a.request, ctx)) return false;
  return a.seq < b.seq;
}

}  // namespace

bool AdmissionQueue::Order::operator()(const Entry* a,
                                       const Entry* b) const noexcept {
  // Within one bucket `before` does not depend on the context.
  static const PolicyContext kNoContext{};
  return precedes(*policy, *a, *b, kNoContext);
}

void AdmissionQueue::reset(const Policy& policy) {
  clear();
  policy_ = &policy;
  next_seq_ = 0;
}

void AdmissionQueue::push(Request r, bool ready) {
  const std::uint64_t seq = next_seq_++;
  Entry& e = entries_[{r.id, seq}];
  e.request = std::move(r);
  e.seq = seq;
  ++by_degree_[e.request.degree];
  if (e.request.proto_id != 0) by_proto_[e.request.proto_id].push_back(&e);
  if (ready) file(e);
}

AdmissionQueue::Bucket& AdmissionQueue::bucket_of(const Entry& e) {
  const BucketKey key{is_host_op(e.request) ? kHostClass : e.request.degree,
                      policy_->bucket(e.request)};
  return buckets_.try_emplace(key, Order{policy_}).first->second;
}

std::vector<const AdmissionQueue::Entry*> AdmissionQueue::in_order() const {
  std::vector<const Entry*> out;
  out.reserve(entries_.size());
  for (const auto& [key, e] : entries_) out.push_back(&e);
  std::sort(out.begin(), out.end(),
            [](const Entry* a, const Entry* b) { return a->seq < b->seq; });
  return out;
}

void AdmissionQueue::file(Entry& e) {
  bucket_of(e).insert(&e);
  e.state = Entry::State::kReady;
}

void AdmissionQueue::unfile(Entry& e) {
  if (e.state == Entry::State::kReady) {
    bucket_of(e).erase(&e);
  } else if (e.state == Entry::State::kParked) {
    parked_.erase(std::find(parked_.begin(), parked_.end(), &e));
  }
  e.state = Entry::State::kWaiting;
}

const AdmissionQueue::Entry* AdmissionQueue::head(Bucket& b) {
  while (!b.empty()) {
    Entry* h = *b.begin();
    if (!parked_ids_.contains(h->request.id)) return h;
    set_aside(*h);
  }
  return nullptr;
}

const AdmissionQueue::Entry* AdmissionQueue::best(
    const PolicyContext& ctx, std::span<const std::uint32_t> blocked) {
  const Entry* top = nullptr;
  for (auto& [key, bucket] : buckets_) {
    // kHostClass is no degree, so host ops are never blocked.
    if (std::find(blocked.begin(), blocked.end(), key.first) != blocked.end()) {
      continue;
    }
    const Entry* h = head(bucket);
    if (h != nullptr && (top == nullptr || precedes(*policy_, *h, *top, ctx))) {
      top = h;
    }
  }
  return top;
}

void AdmissionQueue::park(const Entry& e) {
  Entry& m = entries_.find({e.request.id, e.seq})->second;
  parked_ids_.insert(m.request.id);
  set_aside(m);
}

void AdmissionQueue::set_aside(Entry& e) {
  unfile(e);
  e.state = Entry::State::kParked;
  parked_.push_back(&e);
}

void AdmissionQueue::unpark_all() {
  for (Entry* e : parked_) file(*e);
  parked_.clear();
  parked_ids_.clear();
}

Request AdmissionQueue::take(const Entry& e) {
  const auto it = entries_.find({e.request.id, e.seq});
  Entry& m = it->second;
  unfile(m);
  const auto d = by_degree_.find(m.request.degree);
  if (--d->second == 0) by_degree_.erase(d);
  if (m.request.proto_id != 0) {
    const auto p = by_proto_.find(m.request.proto_id);
    std::vector<Entry*>& ops = p->second;
    ops.erase(std::find(ops.begin(), ops.end(), &m));
    if (ops.empty()) by_proto_.erase(p);
  }
  Request r = std::move(m.request);
  entries_.erase(it);
  return r;
}

const AdmissionQueue::Entry* AdmissionQueue::find_id(std::uint64_t id) const {
  const auto it = entries_.lower_bound({id, 0});
  return it != entries_.end() && it->first.first == id ? &it->second
                                                       : nullptr;
}

std::size_t AdmissionQueue::degree_count(std::uint32_t degree) const {
  const auto it = by_degree_.find(degree);
  return it == by_degree_.end() ? 0 : it->second;
}

std::size_t AdmissionQueue::proto_count(std::uint64_t pid) const {
  const auto it = by_proto_.find(pid);
  return it == by_proto_.end() ? 0 : it->second.size();
}

void AdmissionQueue::update_proto(std::uint64_t pid, bool live,
                                  std::uint64_t done_mask) {
  const auto it = by_proto_.find(pid);
  if (it == by_proto_.end()) return;
  for (Entry* e : it->second) {
    const std::uint64_t parents = e->request.parent_mask;
    const bool ready = live && (done_mask & parents) == parents;
    if (ready && e->state == Entry::State::kWaiting) {
      file(*e);
    } else if (!ready && e->state == Entry::State::kReady) {
      unfile(*e);
    }
  }
}

std::size_t AdmissionQueue::erase_proto(std::uint64_t pid) {
  const auto it = by_proto_.find(pid);
  if (it == by_proto_.end()) return 0;
  const std::vector<Entry*> ops = it->second;  // take() edits the list
  for (const Entry* e : ops) take(*e);
  return ops.size();
}

std::vector<Request> AdmissionQueue::drain() {
  std::vector<Request> out;
  out.reserve(entries_.size());
  for (const Entry* e : in_order()) out.push_back(e->request);
  clear();
  return out;
}

void AdmissionQueue::clear() {
  entries_.clear();
  buckets_.clear();
  by_degree_.clear();
  by_proto_.clear();
  parked_.clear();
  parked_ids_.clear();
}

}  // namespace cryptopim::runtime
