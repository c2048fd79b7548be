// The row decoder (src/core/row_decode.h): every lost unit of every row a
// read touches decoded in the read's own batch, survivors the read already
// fetches reused, the rest read once over the targets' range, promotion
// within the m budget.
//
// Reads are counted at the in-process transport, round trips at the batch
// latency histogram and plans at the codec's matrix-inversion counter, so
// each property is pinned by a counter, not a clock. ci.sh also runs this
// suite under ThreadSanitizer (survivor completions fold on pool threads).

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/agent/local_cluster.h"
#include "src/core/distribution_agent.h"
#include "src/core/row_decode.h"
#include "src/core/swift_file.h"
#include "src/util/metrics.h"
#include "src/util/rng.h"
#include "src/util/units.h"

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

uint64_t BatchCount() {
  return MetricRegistry::Global().GetHistogram("swift_dist_batch_latency_us")->Snap().count;
}

// Forwards to an in-process transport but advertises a window of four, so
// the distribution agent cuts reads into stripe-unit ops as it does over UDP.
class WindowedTransport : public AgentTransport {
 public:
  explicit WindowedTransport(AgentTransport* inner) : inner_(inner) {}
  Result<AgentOpenResult> Open(const std::string& name, uint32_t flags) override {
    return inner_->Open(name, flags);
  }
  Status Write(uint32_t handle, uint64_t offset, std::span<const uint8_t> data) override {
    return inner_->Write(handle, offset, data);
  }
  Result<BufferSlice> Read(uint32_t handle, uint64_t offset, uint64_t length) override {
    return inner_->Read(handle, offset, length);
  }
  Result<uint64_t> Stat(uint32_t handle) override { return inner_->Stat(handle); }
  Status Truncate(uint32_t handle, uint64_t size) override {
    return inner_->Truncate(handle, size);
  }
  Status Close(uint32_t handle) override { return inner_->Close(handle); }
  Status Remove(const std::string& name) override { return inner_->Remove(name); }
  void StartRead(uint32_t handle, uint64_t offset, uint64_t length,
                 ReadCompletion done) override {
    inner_->StartRead(handle, offset, length, std::move(done));
  }
  void StartWrite(uint32_t handle, uint64_t offset, std::span<const uint8_t> data,
                  WriteCompletion done) override {
    inner_->StartWrite(handle, offset, data, std::move(done));
  }
  uint32_t max_in_flight() const override { return 4; }
  TransportStats stats() const override { return inner_->stats(); }

 private:
  AgentTransport* inner_;
};

// One object of `rows` full rows over `agents` in-process agents: 64 KiB
// units, m parity units (XOR for m = 1, Reed-Solomon above), agent ids equal
// to columns. `windowed` puts a WindowedTransport over every column.
struct Cell {
  Cell(uint32_t agents, uint32_t m, uint64_t rows, bool windowed = false)
      : cluster({.num_agents = agents}) {
    TransferPlan plan;
    plan.object_name = "cell";
    plan.stripe.num_agents = agents;
    plan.stripe.stripe_unit = kUnit;
    plan.stripe.parity = ParityMode::kRotating;
    plan.stripe.parity_units = m;
    plan.stripe.codec = m == 1 ? ErasureKind::kXor : ErasureKind::kReedSolomon;
    for (uint32_t i = 0; i < agents; ++i) {
      plan.agent_ids.push_back(i);
    }
    for (AgentTransport* transport : cluster.TransportsFor(plan.agent_ids)) {
      if (windowed) {
        windows.push_back(std::make_unique<WindowedTransport>(transport));
        transport = windows.back().get();
      }
      transports.push_back(transport);
    }
    layout.emplace(plan.stripe);
    row_bytes = plan.stripe.RowDataBytes();
    data = Pattern(rows * row_bytes, 17 + agents + m);
    auto file = SwiftFile::Create(plan, transports, &directory);
    EXPECT_TRUE(file.ok()) << file.status().ToString();
    EXPECT_TRUE((*file)->PWrite(0, data).ok());
    EXPECT_TRUE((*file)->Close().ok());
  }

  std::unique_ptr<SwiftFile> Open() {
    auto file = SwiftFile::Open("cell", transports, &directory);
    EXPECT_TRUE(file.ok()) << file.status().ToString();
    return file.ok() ? std::move(*file) : nullptr;
  }

  TransportStats Stats() {
    TransportStats total;
    for (AgentTransport* transport : transports) {
      const TransportStats stats = transport->stats();
      total.ops_submitted += stats.ops_submitted;
      total.bytes_read += stats.bytes_read;
    }
    return total;
  }

  // Flips one stored byte of `column`'s unit in `row` under the checksums.
  void Corrupt(uint64_t row, uint32_t column) {
    BackingStore* store = cluster.raw_store(column);
    const uint64_t offset = row * kUnit + 100;
    auto byte = store->ReadAt("cell", offset, 1);
    ASSERT_TRUE(byte.ok()) << byte.status().ToString();
    const uint8_t flipped[1] = {static_cast<uint8_t>((*byte)[0] ^ 0x40)};
    ASSERT_TRUE(store->WriteAt("cell", offset, flipped).ok());
  }

  static constexpr uint64_t kUnit = KiB(64);
  LocalSwiftCluster cluster;
  std::vector<std::unique_ptr<WindowedTransport>> windows;
  std::vector<AgentTransport*> transports;
  ObjectDirectory directory;
  std::optional<StripeLayout> layout;
  std::vector<uint8_t> data;
  uint64_t row_bytes = 0;
};

// Every set of at most m of `agents` columns, the empty set included.
std::vector<std::vector<uint32_t>> ErasurePatterns(uint32_t agents, uint32_t m) {
  std::vector<std::vector<uint32_t>> patterns;
  for (uint32_t mask = 0; mask < (1u << agents); ++mask) {
    if (static_cast<uint32_t>(__builtin_popcount(mask)) > m) {
      continue;
    }
    std::vector<uint32_t> pattern;
    for (uint32_t c = 0; c < agents; ++c) {
      if ((mask >> c) & 1u) {
        pattern.push_back(c);
      }
    }
    patterns.push_back(pattern);
  }
  return patterns;
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
  // The two live data units the read fetches are survivors too: only the
  // two parity units are added, k = 4 units in all.
  EXPECT_EQ(cell.BytesRead() - bytes_before, 4 * cell.unit);
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
  const uint32_t first = cell.layout->AgentAtPosition(0, 1);
  const uint32_t second = cell.layout->AgentAtPosition(0, 2);
  std::vector<uint8_t> unit(cell.unit);
  const UnitRange target[1] = {{0, cell.layout->AgentAtPosition(0, 0), 0, cell.unit, unit.data()}};

  cell.cluster.transport(cell.metadata.agent_ids[first])->set_crashed(true);
  RowDecodeReport report;
  ASSERT_TRUE(decoder.Decode(target, {}, report).ok());
  EXPECT_TRUE(std::equal(unit.begin(), unit.end(), cell.data.begin()));
  EXPECT_EQ(report.erasures, 2u);
  EXPECT_EQ(report.unavailable, std::vector<uint32_t>{first});

  // A third erasure is past RS(4,2)'s budget.
  cell.cluster.transport(cell.metadata.agent_ids[second])->set_crashed(true);
  RowDecodeReport lost;
  EXPECT_EQ(decoder.Decode(target, {}, lost).code(), StatusCode::kDataLoss);
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

// A degraded read is one batch: the live data units it fetches are the
// survivors, and only the rows' live parity units are added to that batch.
TEST(RowDecodeTest, DegradedReadIsOneBatchOfKUnitsPerRow) {
  Cell cell(6, 2, 6, /*windowed=*/true);
  const uint32_t failed[2] = {1, 4};
  auto file = cell.Open();
  ASSERT_NE(file, nullptr);
  uint64_t lost_units = 0;
  for (uint64_t row = 1; row < 5; ++row) {
    for (uint32_t column : failed) {
      lost_units += cell.layout->UnitPositionOf(row, column) < 4 ? 1 : 0;
    }
  }
  for (uint32_t column : failed) {
    file->MarkColumnFailed(column);
  }

  const TransportStats before = cell.Stats();
  const uint64_t batches_before = BatchCount();
  const uint64_t units_before = CounterValue("swift_file_parity_reconstructions_total");
  std::vector<uint8_t> rows(4 * cell.row_bytes);
  auto n = file->PRead(cell.row_bytes, rows);
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  EXPECT_TRUE(std::equal(rows.begin(), rows.end(), cell.data.begin() + cell.row_bytes));
  const TransportStats after = cell.Stats();
  // k units per row, each one stripe-unit op: the user bytes exactly.
  EXPECT_EQ(after.bytes_read - before.bytes_read, rows.size());
  EXPECT_EQ(after.ops_submitted - before.ops_submitted, 16u);
  EXPECT_EQ(BatchCount() - batches_before, 1u);
  EXPECT_GT(lost_units, 0u);
  EXPECT_EQ(CounterValue("swift_file_parity_reconstructions_total") - units_before, lost_units);
}

// A fragment of a lost unit reads each survivor over the fragment only.
TEST(RowDecodeTest, FragmentReadsSurvivorsOverItsRangeOnly) {
  Cell cell(4, 1, 4);
  const uint64_t offset = cell.row_bytes + 8 * 1024 + 100;  // row 1, inside one unit
  const uint32_t lost = cell.layout->Locate(offset).agent;
  auto file = cell.Open();
  ASSERT_NE(file, nullptr);
  file->MarkColumnFailed(lost);

  const TransportStats before = cell.Stats();
  std::vector<uint8_t> fragment(KiB(4));
  auto n = file->PRead(offset, fragment);
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  EXPECT_TRUE(std::equal(fragment.begin(), fragment.end(), cell.data.begin() + offset));
  EXPECT_EQ(cell.Stats().bytes_read - before.bytes_read, 3 * KiB(4));
}

// A held survivor the live batch finds corrupt is erased from its row's plan,
// the row decodes around it, and read-repair still rewrites it.
TEST(RowDecodeTest, CorruptHeldSurvivorReplansAndIsRepaired) {
  Cell cell(6, 2, 4);
  const uint64_t row = 2;
  const uint32_t lost = cell.layout->AgentAtPosition(row, 0);
  const uint32_t corrupt = cell.layout->AgentAtPosition(row, 2);
  cell.Corrupt(row, corrupt);
  {
    auto file = cell.Open();
    ASSERT_NE(file, nullptr);
    file->MarkColumnFailed(lost);
    const uint64_t repairs_before = CounterValue("swift_file_read_repairs_total");
    std::vector<uint8_t> got(cell.row_bytes);
    auto n = file->PRead(row * cell.row_bytes, got);
    ASSERT_TRUE(n.ok()) << n.status().ToString();
    EXPECT_TRUE(std::equal(got.begin(), got.end(), cell.data.begin() + row * cell.row_bytes));
    EXPECT_EQ(CounterValue("swift_file_read_repairs_total") - repairs_before, 1u);
    EXPECT_EQ(file->failed_columns(), std::vector<uint32_t>{lost});
  }
  // The unit was written back: a healthy read of the row repairs nothing.
  auto file = cell.Open();
  ASSERT_NE(file, nullptr);
  const uint64_t repairs_before = CounterValue("swift_file_read_repairs_total");
  std::vector<uint8_t> got(cell.row_bytes);
  ASSERT_TRUE(file->PRead(row * cell.row_bytes, got).ok());
  EXPECT_TRUE(std::equal(got.begin(), got.end(), cell.data.begin() + row * cell.row_bytes));
  EXPECT_EQ(CounterValue("swift_file_read_repairs_total"), repairs_before);
}

TEST(RowDecodeTest, CorruptHeldSurvivorPastTheBudgetIsDataLoss) {
  Cell cell(4, 1, 4);
  const uint64_t row = 1;
  const uint32_t lost = cell.layout->AgentAtPosition(row, 0);
  cell.Corrupt(row, cell.layout->AgentAtPosition(row, 1));
  auto file = cell.Open();
  ASSERT_NE(file, nullptr);
  file->MarkColumnFailed(lost);
  std::vector<uint8_t> got(cell.row_bytes);
  EXPECT_EQ(file->PRead(row * cell.row_bytes, got).status().code(), StatusCode::kDataLoss);
}

// A survivor agent answering kUnavailable inside the fused batch is marked
// failed and its row decodes around it; past m the read is kDataLoss.
TEST(RowDecodeTest, UnavailableSurvivorInTheFusedBatchIsMarkedFailed) {
  Cell cell(6, 2, 4);
  const uint64_t row = 1;
  const uint32_t lost = cell.layout->AgentAtPosition(row, 1);
  const uint32_t parity = cell.layout->AgentAtPosition(row, 4);  // read by the decoder
  const uint32_t data = cell.layout->AgentAtPosition(row, 3);    // read by the live batch
  {
    auto file = cell.Open();
    ASSERT_NE(file, nullptr);
    file->MarkColumnFailed(lost);
    cell.cluster.transport(parity)->FailNextCalls(1);
    std::vector<uint8_t> got(cell.row_bytes);
    auto n = file->PRead(row * cell.row_bytes, got);
    ASSERT_TRUE(n.ok()) << n.status().ToString();
    EXPECT_TRUE(std::equal(got.begin(), got.end(), cell.data.begin() + row * cell.row_bytes));
    std::vector<uint32_t> expected = {lost, parity};
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(file->failed_columns(), expected);
  }
  {
    auto file = cell.Open();
    ASSERT_NE(file, nullptr);
    file->MarkColumnFailed(lost);
    cell.cluster.transport(data)->FailNextCalls(1);
    std::vector<uint8_t> got(cell.row_bytes);
    auto n = file->PRead(row * cell.row_bytes, got);
    ASSERT_TRUE(n.ok()) << n.status().ToString();
    EXPECT_TRUE(std::equal(got.begin(), got.end(), cell.data.begin() + row * cell.row_bytes));
    std::vector<uint32_t> expected = {lost, data};
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(file->failed_columns(), expected);
  }
  auto file = cell.Open();
  ASSERT_NE(file, nullptr);
  file->MarkColumnFailed(lost);
  cell.cluster.transport(parity)->set_crashed(true);
  cell.cluster.transport(data)->set_crashed(true);
  std::vector<uint8_t> got(cell.row_bytes);
  EXPECT_EQ(file->PRead(row * cell.row_bytes, got).status().code(), StatusCode::kDataLoss);
}

// Seeded unaligned reads over every erasure pattern the codec covers.
void SweepErasurePatterns(uint32_t agents, uint32_t m) {
  Cell cell(agents, m, 5);
  Rng rng(agents * 10 + m);
  for (const std::vector<uint32_t>& pattern : ErasurePatterns(agents, m)) {
    auto file = cell.Open();
    ASSERT_NE(file, nullptr);
    for (uint32_t column : pattern) {
      file->MarkColumnFailed(column);
    }
    for (int i = 0; i < 12; ++i) {
      const uint64_t offset = static_cast<uint64_t>(
          rng.UniformInt(0, static_cast<int64_t>(cell.data.size()) - 1));
      const uint64_t length = static_cast<uint64_t>(
          rng.UniformInt(1, static_cast<int64_t>(std::min<uint64_t>(
                                2 * cell.row_bytes, cell.data.size() - offset))));
      std::vector<uint8_t> got(length);
      auto n = file->PRead(offset, got);
      ASSERT_TRUE(n.ok()) << n.status().ToString();
      ASSERT_TRUE(std::equal(got.begin(), got.end(), cell.data.begin() + offset))
          << "failed " << pattern.size() << " columns, read [" << offset << ", +" << length
          << ")";
    }
  }
}

TEST(RowDecodeTest, UnalignedReadsOverEveryXorErasurePattern) { SweepErasurePatterns(4, 1); }

TEST(RowDecodeTest, UnalignedReadsOverEveryRs42ErasurePattern) { SweepErasurePatterns(6, 2); }

}  // namespace
}  // namespace swift
