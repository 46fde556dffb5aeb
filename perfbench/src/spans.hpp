// In-memory span recorder for the traced run. Spans are recorded by the
// benchmark around its calls into each library layer; executor task events
// from ExecResult::trace are attached as children of the span of the call
// that produced them, on worker lanes. Everything stays in memory until
// the run ends and is then written as Chrome trace-event JSON.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline double now_s() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::string name;
  double t0 = 0.0;
  double t1 = 0.0;
  int parent = -1;   ///< index of the enclosing span, -1 for a root
  int request = 0;   ///< id shared by all spans of one traced request
  int lane = -1;     ///< -1: the calling thread; >= 0: executor worker
  [[nodiscard]] double dur() const { return t1 - t0; }
};

/// Length of the union of [a, b) intervals, each clipped to [lo, hi).
inline double covered(std::vector<std::pair<double, double>> iv, double lo,
                      double hi) {
  std::sort(iv.begin(), iv.end());
  double total = 0.0, cur_a = 0.0, cur_b = 0.0;
  bool open = false;
  for (auto [a, b] : iv) {
    a = std::max(a, lo);
    b = std::min(b, hi);
    if (b <= a) continue;
    if (open && a <= cur_b) {
      cur_b = std::max(cur_b, b);
      continue;
    }
    if (open) total += cur_b - cur_a;
    cur_a = a;
    cur_b = b;
    open = true;
  }
  if (open) total += cur_b - cur_a;
  return total;
}

class Tracer {
 public:
  int begin(const std::string& name, int parent, int request) {
    spans_.push_back({name, now_s(), 0.0, parent, request, -1});
    return static_cast<int>(spans_.size()) - 1;
  }
  void end(int id) { spans_[id].t1 = now_s(); }
  int add(Span s) {
    spans_.push_back(std::move(s));
    return static_cast<int>(spans_.size()) - 1;
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Span duration minus the part of it its children cover.
  [[nodiscard]] std::vector<double> self_times() const {
    std::vector<std::vector<std::pair<double, double>>> kids(spans_.size());
    for (const Span& s : spans_) {
      if (s.parent >= 0) kids[s.parent].push_back({s.t0, s.t1});
    }
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      self[i] = spans_[i].dur() - covered(kids[i], spans_[i].t0, spans_[i].t1);
    }
    return self;
  }

  /// Consistency of the tree under `root`: every child lies inside its
  /// parent, calling-thread siblings do not overlap, and so the self times
  /// of the calling-thread spans plus the time the worker-lane task events
  /// cover add up to the root span. Returns the absolute mismatch in
  /// seconds (negative when a containment rule is broken).
  [[nodiscard]] double root_mismatch(int root) const {
    const double tol = 1e-9;
    std::vector<double> self = self_times();
    std::vector<int> in_tree(spans_.size(), 0);
    in_tree[root] = 1;
    double sum = 0.0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (static_cast<int>(i) != root && (s.parent < 0 || !in_tree[s.parent]))
        continue;
      in_tree[i] = 1;
      if (s.parent >= 0 && static_cast<int>(i) != root) {
        const Span& p = spans_[s.parent];
        if (s.t0 < p.t0 - tol || s.t1 > p.t1 + tol) return -1.0;
      }
      if (s.lane >= 0) continue;
      sum += self[i];
      std::vector<std::pair<double, double>> tasks, seq;
      for (std::size_t c = i + 1; c < spans_.size(); ++c) {
        if (spans_[c].parent != static_cast<int>(i)) continue;
        (spans_[c].lane >= 0 ? tasks : seq).push_back({spans_[c].t0, spans_[c].t1});
      }
      sum += covered(tasks, s.t0, s.t1);
      std::sort(seq.begin(), seq.end());
      for (std::size_t k = 1; k < seq.size(); ++k) {
        if (seq[k].first < seq[k - 1].second - tol) return -1.0;
      }
    }
    return std::fabs(sum - spans_[root].dur());
  }

  /// Chrome trace-event JSON ("X" events; pid = request, tid = lane + 1;
  /// args carry the span id, its parent and its self time).
  bool write_chrome(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const double base = spans_.empty() ? 0.0 : spans_.front().t0;
    const std::vector<double> self = self_times();
    std::fprintf(f, "{\"traceEvents\":[\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%d,\"tid\":%d,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                   "\"parent\":%d,\"self_us\":%.3f}}\n",
                   i == 0 ? "" : ",", s.name.c_str(), s.request, s.lane + 1,
                   (s.t0 - base) * 1e6, s.dur() * 1e6, i, s.parent,
                   self[i] * 1e6);
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Span> spans_;
};

}  // namespace perfbench
