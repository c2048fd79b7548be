// Tests of the benchmark's own logic: percentile selection, interval-union
// self time, the reference model, and a tiny-size run of every workload.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "perfbench/bench.h"
#include "perfbench/ceilings.h"
#include "perfbench/stats.h"
#include "perfbench/taps.h"
#include "src/util/logging.h"

namespace perfbench {
namespace {

TEST(PercentileTest, NearestRank) {
  std::vector<double> samples(100);
  std::iota(samples.begin(), samples.end(), 1.0);
  std::reverse(samples.begin(), samples.end());
  EXPECT_EQ(Percentile(samples, 500), 50);
  EXPECT_EQ(Percentile(samples, 990), 99);
  EXPECT_EQ(Percentile(samples, 1000), 100);
  EXPECT_EQ(Percentile({7.0}, 990), 7);
  EXPECT_EQ(Percentile({}, 500), 0);
}

TEST(PercentileTest, TailNeedsTenSamplesBeyond) {
  EXPECT_EQ(SamplesBeyond(1000, 990), 10u);
  EXPECT_EQ(SamplesBeyond(999, 990), 9u);
  EXPECT_EQ(TailPermille(1000), 990u);
  EXPECT_EQ(TailPermille(999), 950u);
  EXPECT_EQ(TailPermille(9999), 990u);
  EXPECT_EQ(TailPermille(10000), 999u);
  EXPECT_EQ(TailPermille(200), 950u);
  EXPECT_EQ(TailPermille(100), 900u);
  EXPECT_EQ(TailPermille(20), 500u);
  EXPECT_EQ(TailPermille(19), 0u);
}

TEST(PercentileTest, SummaryPicksTheTail) {
  std::vector<double> samples(1000);
  std::iota(samples.begin(), samples.end(), 1.0);
  const Summary s = Summarize(samples);
  EXPECT_EQ(s.n, 1000u);
  EXPECT_EQ(s.p50, 500);
  EXPECT_EQ(s.tail_permille, 990u);
  EXPECT_EQ(s.tail, 990);
}

TEST(UnionLengthTest, MergesOverlapsAndIgnoresEmpties) {
  EXPECT_EQ(UnionLength({}), 0);
  EXPECT_EQ(UnionLength({{0, 10}, {20, 25}}), 15);
  EXPECT_EQ(UnionLength({{0, 10}, {5, 15}}), 15);
  EXPECT_EQ(UnionLength({{0, 30}, {5, 10}, {12, 14}}), 30);
  EXPECT_EQ(UnionLength({{10, 20}, {0, 10}}), 20);
  EXPECT_EQ(UnionLength({{5, 5}, {8, 3}, {0, 2}}), 2);
}

Span MakeSpan(uint64_t id, uint64_t call, SpanKind kind, int64_t start, int64_t end) {
  Span span;
  span.id = id;
  span.call = call;
  span.kind = kind;
  span.start_ns = start;
  span.end_ns = end;
  return span;
}

TEST(SelfTimeTest, CallMinusUnionOfItsTransportOps) {
  const std::vector<Span> spans = {
      MakeSpan(1, 1, SpanKind::kCallRead, 0, 10'000),
      // Two overlapping ops cover [1000, 7000): 6 µs.
      MakeSpan(2, 1, SpanKind::kTransportRead, 1'000, 5'000),
      MakeSpan(3, 1, SpanKind::kTransportRead, 3'000, 7'000),
      // Store spans are not transport ops.
      MakeSpan(4, 1, SpanKind::kStoreRead, 0, 10'000),
      MakeSpan(6, 6, SpanKind::kCallWrite, 20'000, 30'000),
      // Clipped to the call: covers [20000, 22000).
      MakeSpan(7, 6, SpanKind::kTransportWrite, 19'000, 22'000),
      // An op of no user call (set-up) is ignored.
      MakeSpan(8, 0, SpanKind::kTransportWrite, 0, 30'000),
  };
  std::vector<double> self = CallSelfTimesUs(spans);
  ASSERT_EQ(self.size(), 2u);
  EXPECT_DOUBLE_EQ(self[0], 4.0);
  EXPECT_DOUBLE_EQ(self[1], 8.0);
}

TEST(SliceTest, MixRateWeightsEachKindsMedianSlice) {
  PhaseResult phase;
  // 20 reads of 1 MB at 100 MB/s, then 20 writes at 50 MB/s.
  for (int i = 0; i < 20; ++i) {
    phase.calls.push_back({0.01, 1'000'000, true});
  }
  for (int i = 0; i < 20; ++i) {
    phase.calls.push_back({0.02, 1'000'000, false});
  }
  phase.calls[3].seconds = 1.0;  // one slow read moves one slice, not the median
  const SliceStats slices = Slices(phase);
  ASSERT_EQ(slices.read_mbps.size(), kWindows);
  ASSERT_EQ(slices.write_mbps.size(), kWindows);
  ASSERT_EQ(slices.read_p50_us.size(), kWindows);
  WorkloadSpec spec;
  spec.read_fraction = 0.5;  // 1 / (0.5 / 100 + 0.5 / 50)
  EXPECT_NEAR(MixMbps(spec, slices), 200.0 / 3, 1e-6);
  spec.read_fraction = 1.0;
  EXPECT_NEAR(MixMbps(spec, slices), 100, 1e-6);
  EXPECT_EQ(MixMbps(spec, Slices(PhaseResult{})), 0);
}

TEST(ReferenceModelTest, PatternIsSeededAndPositional) {
  std::vector<uint8_t> a(4096), b(4096), whole(8192);
  FillPattern(a, 7, 0, 4096);
  FillPattern(b, 7, 0, 4096);
  EXPECT_EQ(a, b);
  FillPattern(whole, 7, 0, 0);
  EXPECT_TRUE(std::equal(a.begin(), a.end(), whole.begin() + 4096));
  FillPattern(b, 7, 1, 4096);
  EXPECT_NE(a, b);
  FillPattern(b, 8, 0, 4096);
  EXPECT_NE(a, b);
}

TEST(WorkloadTest, GeometryMatchesTheDesign) {
  for (bool tiny : {false, true}) {
    const auto stream = FindWorkload("stream_1m", tiny);
    ASSERT_TRUE(stream.has_value());
    const uint64_t row = stream->unit * (stream->agents - stream->parity_units);
    EXPECT_EQ(stream->io_bytes % row, 0u) << "stream writes must be whole rows";
    EXPECT_EQ(stream->object_bytes % stream->io_bytes, 0u);
    const auto degraded = FindWorkload("degraded_rs42", tiny);
    ASSERT_TRUE(degraded.has_value());
    EXPECT_EQ(degraded->io_bytes, 1u << 20);
    EXPECT_EQ(degraded->agents, 6u);
    EXPECT_EQ(degraded->parity_units, 2u);
  }
  EXPECT_FALSE(FindWorkload("nope", false).has_value());
}

class SmokeTest : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override { swift::SetMinLogLevel(swift::LogLevel::kWarning); }
};

// A tiny untraced phase, then a traced replay of the same calls: no call
// fails, every read matches the model, and the taps leave the counts alone.
TEST_P(SmokeTest, UntracedThenTracedReplay) {
  const auto spec = FindWorkload(GetParam(), true);
  ASSERT_TRUE(spec.has_value());
  const PhaseResult untraced = RunPhase(*spec, {.seed = 3, .seconds = 0.3, .setup_repeats = 2});
  EXPECT_EQ(untraced.failed, 0u) << untraced.first_error;
  EXPECT_GT(untraced.ops(), 0u);
  EXPECT_EQ(untraced.setup_s.size(), 2u);
  for (const Metric& metric : EndToEndMetrics(*spec, untraced)) {
    EXPECT_GT(metric.value, 0) << metric.name;
  }
  EXPECT_GT(untraced.rebuild_bytes, 0u);

  SpanLog log;
  const PhaseResult traced = RunPhase(*spec, {.seed = 3, .op_limit = untraced.ops(), .log = &log});
  EXPECT_EQ(traced.failed, 0u) << traced.first_error;
  EXPECT_EQ(traced.ops(), untraced.ops());
  for (const std::string& mismatch : CountMismatches(untraced, traced)) {
    ADD_FAILURE() << mismatch;
  }
  const std::vector<Span> spans = log.spans();
  EXPECT_EQ(CallSelfTimesUs(spans).size(), traced.ops());
  const std::vector<Metric> layers = LayerMetrics(*spec, untraced, traced, spans);
  auto value = [&](const std::string& name) {
    for (const Metric& metric : layers) {
      if (metric.name == name) {
        return metric.value;
      }
    }
    ADD_FAILURE() << "missing " << name;
    return 0.0;
  };
  EXPECT_GT(value("transport.ops_per_user_op"), 0);
  EXPECT_GT(value("transport.inflight_mean"), 0);
  EXPECT_GT(value("store.us_per_mib"), 0);
  EXPECT_GT(value("trace.overhead_ratio"), 0);
  EXPECT_GT(value("rebuild.op_p50_us"), 0);
  EXPECT_GT(value("agent.write_service_p50_us"), 0);
  if (spec->pattern == Pattern::kDegraded) {
    EXPECT_GT(value("erasure.reconstruct_bytes_per_user_byte"), 0);
  }

  bool correct = true;
  const std::vector<Metric> ceilings = MeasureCeilings(*spec, 3, 0.01, &correct);
  EXPECT_TRUE(correct);
  EXPECT_EQ(ceilings.size(), 5u);
}

INSTANTIATE_TEST_SUITE_P(Workloads, SmokeTest, ::testing::ValuesIn(WorkloadNames()));

}  // namespace
}  // namespace perfbench
