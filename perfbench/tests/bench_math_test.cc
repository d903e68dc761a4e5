// Unit tests of the benchmark's own arithmetic: the percentile rule and
// span self time. Run by `python3 perfbench/run.py --self-test`.
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_math.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "FAILED line %d: %s\n", line, what);
    ++failures;
  }
}
#define EXPECT(cond) Expect((cond), #cond, __LINE__)

bool Near(double a, double b) { return std::fabs(a - b) < 1e-12; }

using perfbench::Interval;

void TestPercentileRank() {
  using perfbench::PercentileRank;
  EXPECT(PercentileRank(100, 900) == 90);
  EXPECT(PercentileRank(1000, 990) == 990);
  EXPECT(PercentileRank(10, 500) == 5);
  EXPECT(PercentileRank(11, 500) == 6);
  EXPECT(PercentileRank(1, 990) == 1);
  EXPECT(PercentileRank(0, 500) == 1);
}

void TestTenBeyondRule() {
  using perfbench::PercentileSupported;
  using perfbench::TailSamples;
  EXPECT(TailSamples(100, 900) == 10);
  EXPECT(PercentileSupported(100, 900));
  EXPECT(!PercentileSupported(99, 900));
  EXPECT(PercentileSupported(1000, 990));
  EXPECT(!PercentileSupported(999, 990));
  EXPECT(PercentileSupported(20, 500));
  EXPECT(!PercentileSupported(19, 500));
  EXPECT(!PercentileSupported(5000, 1000));  // nothing lies beyond a max
  EXPECT(TailSamples(0, 500) == 0);
}

void TestPercentileAndMedian() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // 1..100, reversed
  EXPECT(Near(perfbench::Percentile(v, 900), 90.0));
  EXPECT(Near(perfbench::Percentile(v, 500), 50.0));
  EXPECT(Near(perfbench::Percentile(v, 1000), 100.0));
  EXPECT(Near(perfbench::Median({3.0, 1.0, 2.0}), 2.0));
  EXPECT(Near(perfbench::Median({4.0, 1.0, 3.0, 2.0}), 2.5));
  EXPECT(Near(perfbench::Median({}), 0.0));
  EXPECT(Near(perfbench::Percentile({}, 900), 0.0));
}

void TestSelfTime() {
  using perfbench::SelfTime;
  const Interval parent{10.0, 20.0};
  // No children: all self time.
  EXPECT(Near(SelfTime(parent, {}), 10.0));
  // Disjoint children inside.
  EXPECT(Near(SelfTime(parent, {{11, 12}, {15, 18}}), 6.0));
  // Overlapping children (parallel fetches) count their union once.
  EXPECT(Near(SelfTime(parent, {{11, 15}, {12, 14}, {13, 16}}), 5.0));
  // Unsorted input.
  EXPECT(Near(SelfTime(parent, {{15, 18}, {11, 12}}), 6.0));
  // Children sticking out of the parent are clipped to it.
  EXPECT(Near(SelfTime(parent, {{5, 12}, {19, 25}}), 7.0));
  // Children entirely outside do not count.
  EXPECT(Near(SelfTime(parent, {{1, 2}, {21, 22}}), 10.0));
  // A child covering the whole parent leaves no self time.
  EXPECT(Near(SelfTime(parent, {{0, 30}}), 0.0));
  // Touching intervals do not double count.
  EXPECT(Near(SelfTime(parent, {{11, 13}, {13, 15}}), 6.0));
  // A degenerate parent has no self time.
  EXPECT(Near(SelfTime({5, 5}, {{4, 6}}), 0.0));
}

}  // namespace

int main() {
  TestPercentileRank();
  TestTenBeyondRule();
  TestPercentileAndMedian();
  TestSelfTime();
  if (failures == 0) std::printf("bench_math_test: all passed\n");
  return failures == 0 ? 0 : 1;
}
