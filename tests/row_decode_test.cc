// The row decoder (src/core/row_decode.h): one decode per row for every lost
// unit of that row, survivors read once, promotion within the m budget.
//
// Reads are counted at the in-process transport and plans at the codec's
// matrix-inversion counter, so each property is pinned by a counter, not a
// clock. ci.sh also runs this suite under ThreadSanitizer (survivor
// completions fold on pool threads).

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <vector>

#include "src/agent/local_cluster.h"
#include "src/core/distribution_agent.h"
#include "src/core/row_decode.h"
#include "src/util/metrics.h"
#include "src/util/rng.h"

namespace swift {
namespace {

std::vector<uint8_t> Pattern(size_t n, uint64_t seed) {
  std::vector<uint8_t> out(n);
  Rng rng(seed);
  for (auto& b : out) {
    b = static_cast<uint8_t>(rng.UniformInt(0, 255));
  }
  return out;
}

uint64_t CounterValue(const char* name) {
  return MetricRegistry::Global().GetCounter(name)->Value();
}

// RS(4,2) over six in-process agents, six full rows written.
struct Rs42Cell {
  Rs42Cell() : cluster({.num_agents = 6}) {
    auto file = cluster.CreateFile({.object_name = "obj",
                                    .expected_size = MiB(1),
                                    .typical_request = KiB(16),
                                    .redundancy = true,
                                    .parity_units = 2,
                                    .min_agents = 6,
                                    .max_agents = 6});
    EXPECT_TRUE(file.ok()) << file.status().ToString();
    unit = (*file)->layout().config().stripe_unit;
    row_bytes = (*file)->layout().config().RowDataBytes();
    data = Pattern(6 * row_bytes, 91);
    EXPECT_TRUE((*file)->PWrite(0, data).ok());
    EXPECT_TRUE((*file)->Close().ok());
    metadata = *cluster.directory().Lookup("obj");
    layout.emplace(metadata.stripe);
  }

  uint64_t BytesRead() {
    uint64_t total = 0;
    for (uint32_t id : metadata.agent_ids) {
      total += cluster.transport(id)->stats().bytes_read;
    }
    return total;
  }

  LocalSwiftCluster cluster;
  ObjectMetadata metadata;
  std::optional<StripeLayout> layout;
  std::vector<uint8_t> data;
  uint64_t unit = 0;
  uint64_t row_bytes = 0;
};

TEST(RowDecodeTest, MultiTargetRowReadsEachSurvivorOnce) {
  Rs42Cell cell;
  // Both failed columns hold data units of row 0.
  const uint32_t a = cell.layout->AgentAtPosition(0, 0);
  const uint32_t b = cell.layout->AgentAtPosition(0, 1);
  auto file = cell.cluster.OpenFile("obj");
  ASSERT_TRUE(file.ok());
  (*file)->MarkColumnFailed(a);
  (*file)->MarkColumnFailed(b);

  const uint64_t bytes_before = cell.BytesRead();
  const uint64_t units_before = CounterValue("swift_file_parity_reconstructions_total");
  std::vector<uint8_t> row(cell.row_bytes);
  auto n = (*file)->PRead(0, row);
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  EXPECT_TRUE(std::equal(row.begin(), row.end(), cell.data.begin()));
  // Two live data units, then k = 4 survivors for both lost units at once.
  EXPECT_EQ(cell.BytesRead() - bytes_before, (4 + 2) * cell.unit);
  // The counter counts rebuilt units, not decodes.
  EXPECT_EQ(CounterValue("swift_file_parity_reconstructions_total") - units_before, 2u);
}

TEST(RowDecodeTest, PlansMemoizedPerErasedPositionSet) {
  Rs42Cell cell;
  const uint32_t failed[2] = {1, 4};
  std::set<std::vector<uint32_t>> patterns;
  for (uint64_t row = 0; row < 6; ++row) {
    std::vector<uint32_t> positions;
    for (uint32_t column : failed) {
      positions.push_back(cell.layout->UnitPositionOf(row, column));
    }
    std::sort(positions.begin(), positions.end());
    patterns.insert(positions);
  }
  auto file = cell.cluster.OpenFile("obj");
  ASSERT_TRUE(file.ok());
  for (uint32_t column : failed) {
    (*file)->MarkColumnFailed(column);
  }

  const uint64_t inversions_before = CounterValue("swift_erasure_matrix_inversions_total");
  std::vector<uint8_t> read_back(cell.data.size());
  auto n = (*file)->PRead(0, read_back);
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  EXPECT_EQ(read_back, cell.data);
  const uint64_t inversions = CounterValue("swift_erasure_matrix_inversions_total") -
                              inversions_before;
  EXPECT_LE(inversions, patterns.size());

  // A second pass over the same rows plans nothing new.
  ASSERT_TRUE((*file)->PRead(0, read_back).ok());
  EXPECT_EQ(CounterValue("swift_erasure_matrix_inversions_total") - inversions_before,
            inversions);
}

TEST(RowDecodeTest, UnavailableSurvivorIsPromotedAndReported) {
  Rs42Cell cell;
  auto transports = cell.cluster.TransportsFor(cell.metadata.agent_ids);
  std::vector<uint32_t> handles;
  for (AgentTransport* transport : transports) {
    auto opened = transport->Open("obj", 0);
    ASSERT_TRUE(opened.ok());
    handles.push_back(opened->handle);
  }
  DistributionAgent distribution(transports);
  RowDecoder decoder(*cell.layout, distribution, handles);

  // Row 0: the target is data position 0; positions 1 and 2 are the first
  // survivors its plan reads.
  const uint32_t target[1] = {cell.layout->AgentAtPosition(0, 0)};
  const uint32_t first = cell.layout->AgentAtPosition(0, 1);
  const uint32_t second = cell.layout->AgentAtPosition(0, 2);
  std::vector<uint8_t> unit(cell.unit);
  uint8_t* const outs[1] = {unit.data()};

  cell.cluster.transport(cell.metadata.agent_ids[first])->set_crashed(true);
  RowDecodeReport report;
  ASSERT_TRUE(decoder.DecodeRow(0, {}, target, outs, report).ok());
  EXPECT_TRUE(std::equal(unit.begin(), unit.end(), cell.data.begin()));
  EXPECT_EQ(report.erasures, 2u);
  EXPECT_EQ(report.unavailable, std::vector<uint32_t>{first});

  // A third erasure is past RS(4,2)'s budget.
  cell.cluster.transport(cell.metadata.agent_ids[second])->set_crashed(true);
  RowDecodeReport lost;
  EXPECT_EQ(decoder.DecodeRow(0, {}, target, outs, lost).code(), StatusCode::kDataLoss);
  EXPECT_EQ(lost.erasures, 3u);
  std::sort(lost.unavailable.begin(), lost.unavailable.end());
  EXPECT_EQ(lost.unavailable, (std::vector<uint32_t>{std::min(first, second),
                                                     std::max(first, second)}));

  for (uint32_t c = 0; c < transports.size(); ++c) {
    (void)transports[c]->Close(handles[c]);
  }
}

TEST(RowDecodeTest, SwiftFileMarksPromotedSurvivorFailed) {
  Rs42Cell cell;
  const uint32_t lost = cell.layout->AgentAtPosition(2, 0);
  const uint32_t dying = cell.layout->AgentAtPosition(2, 1);
  auto file = cell.cluster.OpenFile("obj");
  ASSERT_TRUE(file.ok());
  (*file)->MarkColumnFailed(lost);
  cell.cluster.transport(cell.metadata.agent_ids[dying])->set_crashed(true);

  // Only the lost unit of row 2: no live read touches the dying column, so
  // the decoder is the one that finds it down.
  std::vector<uint8_t> read_back(cell.unit);
  auto n = (*file)->PRead(2 * cell.row_bytes, read_back);
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  EXPECT_TRUE(std::equal(read_back.begin(), read_back.end(),
                         cell.data.begin() + 2 * cell.row_bytes));
  std::vector<uint32_t> expected = {lost, dying};
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ((*file)->failed_columns(), expected);
}

}  // namespace
}  // namespace swift
