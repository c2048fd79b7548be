// Sample statistics for the benchmark's reports: percentiles with the
// ten-samples-beyond rule, and interval unions for self-time attribution.

#ifndef SWIFT_PERFBENCH_STATS_H_
#define SWIFT_PERFBENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

// Nearest-rank percentile `permille`/10 of `samples` (e.g. permille 990 is
// p99): the smallest sample with at least that share of samples at or below
// it. 0 when `samples` is empty.
double Percentile(std::vector<double> samples, uint32_t permille);

// Samples strictly above the nearest-rank percentile `permille` of n.
size_t SamplesBeyond(size_t n, uint32_t permille);

// The highest of p99.9, p99, p95, p90 and p50 that leaves at least ten of
// `n` samples beyond it; 0 when even p50 does not.
uint32_t TailPermille(size_t n);

struct Summary {
  size_t n = 0;
  double p50 = 0;
  double p99 = 0;
  uint32_t tail_permille = 0;  // TailPermille(n)
  double tail = 0;             // the sample at tail_permille
};

Summary Summarize(const std::vector<double>& samples);

struct Interval {
  int64_t start = 0;
  int64_t end = 0;  // exclusive; end <= start is empty
};

// Total length covered by the union of `intervals`.
int64_t UnionLength(std::vector<Interval> intervals);

// Median of a small sample (the middle value, or the mean of the two middle
// values). 0 when empty.
double Median(std::vector<double> values);

}  // namespace perfbench

#endif  // SWIFT_PERFBENCH_STATS_H_
