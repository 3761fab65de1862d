#pragma once

/// \file spans.hpp
/// Benchmark-side spans for the traced run.
///
/// ftla-bench opens a span around every call it makes into a layer
/// (setup, factorization, verification, kernel probe, runtime submit/run)
/// and closes it when the call returns. Spans nest on one thread — the
/// benchmark is a single closed-loop caller — so each span's parent is
/// the span open when it started. They stay in memory and are written
/// as JSON when the run ends. Spans inside the library are out of scope.

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ftla::bench {

class SpanRecorder {
 public:
  struct Span {
    std::string name;
    double start_s = 0.0;  ///< seconds since the recorder was created
    double end_s = 0.0;
    int parent = -1;        ///< index into spans(), -1 for a root
    std::uint64_t run = 0;  ///< attempt the span belongs to (0: none)
  };

  int open(std::string_view name, std::uint64_t run) {
    Span s;
    s.name = std::string(name);
    s.start_s = now();
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.run = run;
    spans_.push_back(std::move(s));
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }

  void close(int id) {
    spans_[static_cast<std::size_t>(id)].end_s = now();
    if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
  }

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Each span's duration minus the time its direct children cover.
  [[nodiscard]] std::vector<double> self_times() const {
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      self[i] = spans_[i].end_s - spans_[i].start_s;
    }
    for (const auto& s : spans_) {
      if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.end_s - s.start_s;
    }
    return self;
  }

  /// Share of span `root`'s duration covered by spans below it.
  [[nodiscard]] double coverage(int root) const {
    const auto& r = spans_[static_cast<std::size_t>(root)];
    const double total = r.end_s - r.start_s;
    return total > 0.0 ? 1.0 - self_times()[static_cast<std::size_t>(root)] / total : 0.0;
  }

  /// {"spans": [...], "by_name": {name: {count, total_s, self_s}}}.
  void write_json(std::ostream& os) const {
    const auto self = self_times();
    struct Agg {
      std::size_t count = 0;
      double total = 0.0;
      double self = 0.0;
    };
    std::map<std::string, Agg> by_name;
    os << "{\"spans\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const auto& s = spans_[i];
      auto& a = by_name[s.name];
      ++a.count;
      a.total += s.end_s - s.start_s;
      a.self += self[i];
      os << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name << "\",\"start_s\":" << s.start_s
         << ",\"end_s\":" << s.end_s << ",\"parent\":" << s.parent << ",\"run\":" << s.run
         << "}";
    }
    os << "],\n\"by_name\":{";
    bool first = true;
    for (const auto& [name, a] : by_name) {
      os << (first ? "\n" : ",\n") << "\"" << name << "\":{\"count\":" << a.count
         << ",\"total_s\":" << a.total << ",\"self_s\":" << a.self << "}";
      first = false;
    }
    os << "}}\n";
  }

 private:
  [[nodiscard]] double now() const {
    return std::chrono::duration<double>(Clock::now() - origin_).count();
  }

  using Clock = std::chrono::steady_clock;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// Opens a span for the enclosing scope; a null recorder makes it free.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, std::string_view name, std::uint64_t run = 0)
      : rec_(rec), id_(rec ? rec->open(name, run) : -1) {}
  ~ScopedSpan() {
    if (rec_) rec_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
  int id_;
};

}  // namespace ftla::bench
