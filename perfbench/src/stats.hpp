/// \file stats.hpp
/// Order statistics the benchmark reports: medians, quartiles, and a tail
/// percentile that states how many samples lie beyond it.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <vector>

namespace perfbench {

/// Median of \p values (mean of the two middle values for even sizes).
/// Throws on an empty input: a metric with no samples is a benchmark bug.
inline double median(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("median of no samples");
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  const double lower =
      *std::max_element(values.begin(), values.begin() + mid);
  return (lower + upper) / 2.0;
}

struct Quartiles {
  double q1 = 0.0;
  double q2 = 0.0;
  double q3 = 0.0;

  /// Distance between the first and third quartile as a share of the
  /// median (0 when the median is 0).
  [[nodiscard]] double relative_spread() const {
    return q2 == 0.0 ? 0.0 : (q3 - q1) / std::fabs(q2);
  }
};

/// Quartiles by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so the spread a run records matches the one its consumers compute.
/// A single sample yields that sample three times.
inline Quartiles quartiles(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("quartiles of no samples");
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n == 1) return {values[0], values[0], values[0]};
  double q[3];
  const long long m = static_cast<long long>(n) + 1;
  for (long long i = 1; i <= 3; ++i) {
    // j is 1-based and clamped to [1, n-1] before delta is taken, as in
    // CPython; delta may then fall outside [0, 4] and extrapolate.
    const long long j =
        std::clamp<long long>(i * m / 4, 1, static_cast<long long>(n) - 1);
    const long long delta = i * m - j * 4;
    q[i - 1] = (values[static_cast<std::size_t>(j - 1)] *
                    static_cast<double>(4 - delta) +
                values[static_cast<std::size_t>(j)] *
                    static_cast<double>(delta)) /
               4.0;
  }
  return {q[0], q[1], q[2]};
}

/// A tail percentile together with the evidence behind it.
struct Tail {
  double value = 0.0;        ///< the percentile (nearest-rank)
  std::size_t samples = 0;   ///< sample count it was taken over
  std::size_t beyond = 0;    ///< samples strictly greater than value
  /// True when at least ten samples lie beyond the percentile — the
  /// smallest tail the benchmark treats as measured rather than anecdotal.
  [[nodiscard]] bool resolved() const { return beyond >= 10; }
};

/// Nearest-rank \p percent percentile (0 < percent <= 100) of \p values,
/// with the count of samples beyond it. Reorders \p values.
template <typename T>
Tail percentile(std::vector<T>& values, double percent) {
  if (values.empty())
    throw std::invalid_argument("percentile of no samples");
  if (!(percent > 0.0 && percent <= 100.0))
    throw std::invalid_argument("percentile outside (0, 100]");
  const std::size_t n = values.size();
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(percent / 100.0 * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  std::nth_element(values.begin(), values.begin() + (rank - 1),
                   values.end());
  const T value = values[rank - 1];
  const std::size_t beyond = static_cast<std::size_t>(std::count_if(
      values.begin() + rank, values.end(),
      [value](const T& v) { return v > value; }));
  return {static_cast<double>(value), n, beyond};
}

}  // namespace perfbench
