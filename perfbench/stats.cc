#include "perfbench/stats.h"

#include <algorithm>

namespace perfbench {

namespace {

// 1-based nearest rank of percentile `permille` among n samples.
size_t NearestRank(size_t n, uint32_t permille) {
  const size_t rank = (static_cast<uint64_t>(permille) * n + 999) / 1000;
  return std::clamp<size_t>(rank, 1, n);
}

}  // namespace

double Percentile(std::vector<double> samples, uint32_t permille) {
  if (samples.empty()) {
    return 0;
  }
  const size_t index = NearestRank(samples.size(), permille) - 1;
  std::nth_element(samples.begin(), samples.begin() + static_cast<ptrdiff_t>(index),
                   samples.end());
  return samples[index];
}

size_t SamplesBeyond(size_t n, uint32_t permille) {
  return n == 0 ? 0 : n - NearestRank(n, permille);
}

uint32_t TailPermille(size_t n) {
  for (uint32_t permille : {999u, 990u, 950u, 900u, 500u}) {
    if (SamplesBeyond(n, permille) >= 10) {
      return permille;
    }
  }
  return 0;
}

Summary Summarize(const std::vector<double>& samples) {
  Summary summary;
  summary.n = samples.size();
  summary.p50 = Percentile(samples, 500);
  summary.p99 = Percentile(samples, 990);
  summary.tail_permille = TailPermille(samples.size());
  if (summary.tail_permille != 0) {
    summary.tail = Percentile(samples, summary.tail_permille);
  }
  return summary;
}

int64_t UnionLength(std::vector<Interval> intervals) {
  std::sort(intervals.begin(), intervals.end(),
            [](const Interval& a, const Interval& b) { return a.start < b.start; });
  int64_t total = 0;
  bool open = false;
  Interval run;
  for (const Interval& interval : intervals) {
    if (interval.end <= interval.start) {
      continue;
    }
    if (open && interval.start <= run.end) {
      run.end = std::max(run.end, interval.end);
      continue;
    }
    if (open) {
      total += run.end - run.start;
    }
    run = interval;
    open = true;
  }
  if (open) {
    total += run.end - run.start;
  }
  return total;
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : (values[mid - 1] + values[mid]) / 2;
}

}  // namespace perfbench
