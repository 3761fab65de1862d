#pragma once

/// \file summary.hpp
/// Sample summaries and the metric record ftla-bench prints.
///
/// Quartiles follow Python's `statistics.quantiles(data, n=4)` (the
/// default "exclusive" method), so a number printed here equals what
/// compare.py computes from the same samples.

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

namespace ftla::bench {

struct Summary {
  std::size_t n = 0;
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
};

inline double median_of_sorted(const std::vector<double>& v) {
  const std::size_t n = v.size();
  if (n == 0) return 0.0;
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Median and exclusive-method quartiles of `samples` (empty → all zero).
inline Summary summarize(std::vector<double> samples) {
  Summary s;
  s.n = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.median = median_of_sorted(samples);
  if (samples.size() == 1) {
    s.q1 = s.q3 = samples.front();
    return s;
  }
  const auto ld = static_cast<long>(samples.size());
  const long m = ld + 1;
  auto cut = [&](long i) {
    long j = i * m / 4;
    j = std::clamp(j, 1L, ld - 1);
    const long delta = i * m - j * 4;
    return (samples[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
            samples[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
           4.0;
  };
  s.q1 = cut(1);
  s.q3 = cut(3);
  return s;
}

/// A single computed value (a count, a ratio of medians) as a summary.
inline Summary single(double value) { return Summary{1, value, value, value}; }

/// One named metric of the printed result.
struct Metric {
  std::string name;
  std::string unit;
  Summary summary;
};

}  // namespace ftla::bench
