// In-memory span recorder for the traced run: (name, start, end, parent,
// workload), written out as JSON Lines when the run ends. A span's self
// time is its duration minus the part its child spans cover.
#pragma once

#include <chrono>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class Spans {
 public:
  using Clock = std::chrono::steady_clock;

  explicit Spans(std::string workload)
      : workload_(std::move(workload)), origin_(Clock::now()) {}

  /// Interned name id (spans store ids so per-event spans stay small).
  std::uint32_t id(const std::string& name) {
    const auto [it, fresh] = ids_.emplace(name, names_.size());
    if (fresh) names_.push_back(name);
    return it->second;
  }

  void open(std::uint32_t name) {
    spans_.push_back({name, parent(), Clock::now(), {}});
    stack_.push_back(spans_.size() - 1);
  }
  void close() {
    spans_[stack_.back()].end = Clock::now();
    stack_.pop_back();
  }
  /// A finished leaf span under the innermost open span.
  void add(std::uint32_t name, Clock::time_point start,
           Clock::time_point end) {
    spans_.push_back({name, parent(), start, end});
  }

  /// Summed self time of every span called `name`, in seconds.
  double self_s(const std::string& name) const {
    const auto it = ids_.find(name);
    if (it == ids_.end()) return 0;
    std::vector<double> child(spans_.size(), 0.0);
    for (const auto& s : spans_) {
      if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += dur(s);
    }
    double total = 0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].name == it->second) total += dur(spans_[i]) - child[i];
    }
    return total;
  }

  /// One JSON object per span: name, start/end in seconds from the
  /// recorder's creation, parent index (-1 = root) and workload. False
  /// when the file could not be written.
  bool write(const std::string& path) const {
    std::ofstream out(path, std::ios::trunc);
    out << std::fixed << std::setprecision(9);  // nanoseconds
    for (const auto& s : spans_) {
      out << "{\"name\":\"" << names_[s.name] << "\",\"start\":"
          << since(s.start) << ",\"end\":" << since(s.end)
          << ",\"parent\":" << s.parent << ",\"workload\":\"" << workload_
          << "\"}\n";
    }
    return static_cast<bool>(out);
  }

 private:
  struct Span {
    std::uint32_t name;
    long parent;
    Clock::time_point start, end;
  };
  long parent() const {
    return stack_.empty() ? -1 : static_cast<long>(stack_.back());
  }
  static double dur(const Span& s) {
    return std::chrono::duration<double>(s.end - s.start).count();
  }
  double since(Clock::time_point t) const {
    return std::chrono::duration<double>(t - origin_).count();
  }

  std::string workload_;
  Clock::time_point origin_;
  std::map<std::string, std::uint32_t> ids_;
  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
};

/// Opens a span for the enclosing scope; a null recorder records nothing.
class Scope {
 public:
  Scope(Spans* spans, const std::string& name) : spans_(spans) {
    if (spans_ != nullptr) spans_->open(spans_->id(name));
  }
  ~Scope() {
    if (spans_ != nullptr) spans_->close();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Spans* spans_;
};

}  // namespace perfbench
