// Arithmetic the benchmark reports with: nearest-rank percentiles under the
// "ten samples beyond" rule, medians, and span self time (a span's duration
// minus the part of its interval that child spans cover).
#ifndef PERFBENCH_BENCH_MATH_H_
#define PERFBENCH_BENCH_MATH_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Samples a percentile needs beyond it before the benchmark reports it.
constexpr size_t kMinTailSamples = 10;

/// 1-based nearest rank of the `permille`-th percentile of `n` samples:
/// ceil(permille * n / 1000), at least 1. Integer arithmetic, so p90 of 100
/// samples is exactly rank 90.
inline size_t PercentileRank(size_t n, uint32_t permille) {
  const size_t rank = (static_cast<size_t>(permille) * n + 999) / 1000;
  return std::max<size_t>(rank, 1);
}

/// Samples strictly beyond the percentile's rank.
inline size_t TailSamples(size_t n, uint32_t permille) {
  return n == 0 ? 0 : n - std::min(n, PercentileRank(n, permille));
}

/// True when `n` samples leave at least kMinTailSamples beyond the
/// `permille`-th percentile (p90 needs 100 samples, p99 needs 1000).
inline bool PercentileSupported(size_t n, uint32_t permille) {
  return TailSamples(n, permille) >= kMinTailSamples;
}

/// Nearest-rank percentile; 0 when there are no samples.
inline double Percentile(std::vector<double> samples, uint32_t permille) {
  if (samples.empty()) return 0.0;
  const size_t k = PercentileRank(samples.size(), permille) - 1;
  std::nth_element(samples.begin(), samples.begin() + k, samples.end());
  return samples[k];
}

/// Median: the mean of the two middle samples for even counts; 0 when
/// there are no samples.
inline double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

/// A closed time interval in seconds on one clock.
struct Interval {
  double start = 0.0;
  double end = 0.0;
};

/// Length of the union of `children`, each clipped to `parent`. Children
/// may overlap each other (parallel fetches) or stick out of the parent
/// (work that began before the span); only the covered part counts.
inline double CoveredLength(const Interval& parent,
                            std::vector<Interval> children) {
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) {
              return a.start < b.start;
            });
  double covered = 0.0;
  double cursor = parent.start;  // end of the union counted so far
  for (const Interval& c : children) {
    const double lo = std::max(c.start, cursor);
    const double hi = std::min(c.end, parent.end);
    if (hi > lo) {
      covered += hi - lo;
      cursor = hi;
    }
  }
  return covered;
}

/// Self time of `parent`: its duration minus the part children cover.
inline double SelfTime(const Interval& parent,
                       const std::vector<Interval>& children) {
  const double duration = std::max(0.0, parent.end - parent.start);
  return duration - CoveredLength(parent, children);
}

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_MATH_H_
