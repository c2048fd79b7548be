// Partial-row writes (SwiftFile::WriteRowParity, DESIGN.md §7).
//
// A partial-row write gathers the old data ranges and the touched range of
// each live parity unit in one round trip, folds the delta in memory, then
// writes parity and data in one batch. Two properties are pinned here:
//
//   * The write-hole contract. One write of the batch fails while its column
//     stays live; it must be re-sent with the same bytes, so a later
//     reconstruction of the data unit through parity yields the new bytes.
//     A column that goes kUnavailable in the same batch is re-planned around
//     without losing the other column's re-send.
//   * The range limit. Only the touched bytes of each live parity unit move:
//     a 4 KiB write on 64 KiB units reads and writes 4 KiB per live parity
//     column, counted at the transport.
//
// Every test is deterministic (in-process agents, fixed seeds); ci.sh also
// runs this suite under ThreadSanitizer (ctest -R '^PartialRowWrite').

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/agent/backing_store.h"
#include "src/agent/storage_agent.h"
#include "src/core/object_directory.h"
#include "src/core/swift_file.h"
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

// In-memory store that can fail its next WriteAt calls with a chosen status,
// changing nothing — a transient write fault (kIoError) or a store that went
// away mid-batch (kUnavailable).
class FailingStore : public BackingStore {
 public:
  bool Exists(const std::string& object_name) override { return inner_.Exists(object_name); }
  Status Ensure(const std::string& object_name) override { return inner_.Ensure(object_name); }
  Result<BufferSlice> ReadAt(const std::string& object_name, uint64_t offset,
                             uint64_t length) override {
    return inner_.ReadAt(object_name, offset, length);
  }
  Status WriteAt(const std::string& object_name, uint64_t offset,
                 std::span<const uint8_t> data) override {
    int budget = fail_budget_.load();
    while (budget > 0) {
      if (fail_budget_.compare_exchange_weak(budget, budget - 1)) {
        ++failures_;
        return Status(fail_code_.load(), "injected write failure");
      }
    }
    return inner_.WriteAt(object_name, offset, data);
  }
  Result<uint64_t> Size(const std::string& object_name) override {
    return inner_.Size(object_name);
  }
  Status Truncate(const std::string& object_name, uint64_t size) override {
    return inner_.Truncate(object_name, size);
  }
  Status Remove(const std::string& object_name) override { return inner_.Remove(object_name); }

  void FailNextWrites(int n, StatusCode code) {
    fail_code_.store(code);
    fail_budget_.store(n);
  }
  int failures() const { return failures_.load(); }

 private:
  InMemoryBackingStore inner_;
  std::atomic<int> fail_budget_{0};
  std::atomic<StatusCode> fail_code_{StatusCode::kIoError};
  std::atomic<int> failures_{0};
};

// k+m in-process agents, one object "obj" striped over them in column order.
class Cell {
 public:
  Cell(uint32_t k, uint32_t m, uint64_t unit = KiB(64)) {
    plan_.object_name = "obj";
    plan_.stripe.num_agents = k + m;
    plan_.stripe.stripe_unit = unit;
    plan_.stripe.parity = ParityMode::kRotating;
    plan_.stripe.parity_units = m;
    plan_.stripe.codec = m > 1 ? ErasureKind::kReedSolomon : ErasureKind::kXor;
    for (uint32_t c = 0; c < k + m; ++c) {
      agents_.push_back(std::make_unique<Agent>());
      transports_.push_back(&agents_.back()->transport);
      plan_.agent_ids.push_back(c);
    }
  }

  std::unique_ptr<SwiftFile> Create() {
    auto file = SwiftFile::Create(plan_, transports_, &directory_);
    EXPECT_TRUE(file.ok()) << file.status().ToString();
    return file.ok() ? std::move(*file) : nullptr;
  }
  // A fresh session: no column is known failed.
  std::unique_ptr<SwiftFile> Open() {
    auto file = SwiftFile::Open("obj", transports_, &directory_);
    EXPECT_TRUE(file.ok()) << file.status().ToString();
    return file.ok() ? std::move(*file) : nullptr;
  }

  FailingStore& store(uint32_t column) { return agents_[column]->store; }
  std::vector<TransportStats> Stats() const {
    std::vector<TransportStats> stats;
    for (const auto& agent : agents_) {
      stats.push_back(agent->transport.stats());
    }
    return stats;
  }

 private:
  struct Agent {
    Agent() : core(&store), transport(&core) {}
    FailingStore store;
    StorageAgentCore core;
    InProcTransport transport;
  };
  TransferPlan plan_;
  std::vector<std::unique_ptr<Agent>> agents_;
  std::vector<AgentTransport*> transports_;
  ObjectDirectory directory_;
};

// Reads [offset, offset + expected.size()) of `file` and compares.
void ExpectRange(SwiftFile& file, uint64_t offset, const std::vector<uint8_t>& expected,
                 const std::string& label) {
  std::vector<uint8_t> read_back(expected.size());
  auto n = file.PRead(offset, read_back);
  ASSERT_TRUE(n.ok()) << label << ": " << n.status().ToString();
  ASSERT_EQ(*n, expected.size()) << label;
  EXPECT_TRUE(read_back == expected) << label << ": bytes differ";
}

// ------------------------------------------------------------ write hole ---

// The base object (three full rows, written on the full-row path), then one
// 4 KiB partial-row write into row 1's second data unit, with `fail_column`'s
// next store write failing with kIoError. The PWrite is retried, as a client
// would after an error. A fresh session with the data column marked failed
// must then reconstruct the new bytes through parity.
void RunFailedWriteCase(uint32_t k, uint32_t m, bool fail_data, uint32_t parity_index) {
  const std::string label = "k=" + std::to_string(k) + " m=" + std::to_string(m) +
                            (fail_data ? " data" : " parity" + std::to_string(parity_index));
  Cell cell(k, m);
  auto file = cell.Create();
  ASSERT_NE(file, nullptr);
  const uint64_t unit = file->layout().config().stripe_unit;
  const uint64_t row_bytes = file->layout().config().RowDataBytes();
  std::vector<uint8_t> reference = Pattern(3 * row_bytes, 11);
  ASSERT_TRUE(file->PWrite(0, reference).ok());

  const uint64_t row = 1;
  const uint64_t offset = row * row_bytes + unit + KiB(8);
  const std::vector<uint8_t> update = Pattern(KiB(4), 12);
  const uint32_t data_column = file->layout().Locate(offset).agent;
  const uint32_t fail_column =
      fail_data ? data_column : file->layout().ParityLocation(row, parity_index).agent;

  cell.store(fail_column).FailNextWrites(1, StatusCode::kIoError);
  auto first = file->PWrite(offset, update);
  EXPECT_EQ(cell.store(fail_column).failures(), 1) << label << ": fault did not fire";
  // The same-bytes re-send hides a single transient write fault.
  EXPECT_TRUE(first.ok()) << label << ": " << first.status().ToString();
  auto retry = file->PWrite(offset, update);
  ASSERT_TRUE(retry.ok()) << label << ": " << retry.status().ToString();
  std::copy(update.begin(), update.end(), reference.begin() + offset);
  EXPECT_FALSE(file->degraded()) << label;
  ASSERT_TRUE(file->Close().ok());

  auto healthy = cell.Open();
  ASSERT_NE(healthy, nullptr);
  ExpectRange(*healthy, 0, reference, label + " healthy");

  auto through_parity = cell.Open();
  ASSERT_NE(through_parity, nullptr);
  through_parity->MarkColumnFailed(data_column);
  ExpectRange(*through_parity, offset, update, label + " reconstructed range");
  ExpectRange(*through_parity, 0, reference, label + " reconstructed object");
}

TEST(PartialRowWriteHoleTest, XorFailedDataWriteIsResentWithSameBytes) {
  RunFailedWriteCase(3, 1, /*fail_data=*/true, 0);
}

TEST(PartialRowWriteHoleTest, XorFailedParityWriteIsResentWithSameBytes) {
  RunFailedWriteCase(3, 1, /*fail_data=*/false, 0);
}

TEST(PartialRowWriteHoleTest, Rs42FailedDataWriteIsResentWithSameBytes) {
  RunFailedWriteCase(4, 2, /*fail_data=*/true, 0);
}

TEST(PartialRowWriteHoleTest, Rs42FailedParityWriteIsResentWithSameBytes) {
  RunFailedWriteCase(4, 2, /*fail_data=*/false, 0);
  RunFailedWriteCase(4, 2, /*fail_data=*/false, 1);
}

// In one write batch, parity column 0 goes kUnavailable while parity column 1
// fails with kIoError and the data lands. Column 1 must still get its re-send
// before WriteRange re-plans around column 0, so the surviving parity agrees
// with the data.
TEST(PartialRowWriteHoleTest, Rs42UnavailableAndIoErrorParityInOneBatch) {
  Cell cell(4, 2);
  auto file = cell.Create();
  ASSERT_NE(file, nullptr);
  const uint64_t unit = file->layout().config().stripe_unit;
  const uint64_t row_bytes = file->layout().config().RowDataBytes();
  std::vector<uint8_t> reference = Pattern(3 * row_bytes, 21);
  ASSERT_TRUE(file->PWrite(0, reference).ok());

  const uint64_t row = 2;
  const uint64_t offset = row * row_bytes + 3 * unit + KiB(20);
  const std::vector<uint8_t> update = Pattern(KiB(4) + 123, 22);
  const uint32_t data_column = file->layout().Locate(offset).agent;
  const uint32_t gone = file->layout().ParityLocation(row, 0).agent;
  const uint32_t flaky = file->layout().ParityLocation(row, 1).agent;

  cell.store(gone).FailNextWrites(1, StatusCode::kUnavailable);
  cell.store(flaky).FailNextWrites(1, StatusCode::kIoError);
  auto written = file->PWrite(offset, update);
  ASSERT_TRUE(written.ok()) << written.status().ToString();
  EXPECT_EQ(cell.store(gone).failures(), 1);
  EXPECT_EQ(cell.store(flaky).failures(), 1);
  EXPECT_EQ(file->failed_columns(), std::vector<uint32_t>{gone});
  std::copy(update.begin(), update.end(), reference.begin() + offset);

  // The live session reads byte-exact after the re-plan, and so does a
  // reconstruction of the data unit from the re-sent parity.
  ExpectRange(*file, 0, reference, "same session");
  ASSERT_TRUE(file->Close().ok());
  auto degraded = cell.Open();
  ASSERT_NE(degraded, nullptr);
  degraded->MarkColumnFailed(gone);  // stale: its write never landed
  degraded->MarkColumnFailed(data_column);
  ExpectRange(*degraded, offset, update, "reconstructed range");
  ExpectRange(*degraded, 0, reference, "reconstructed object");
}

// A column that keeps failing writes while staying reachable is re-sent a
// bounded number of times, then the error reaches the caller.
TEST(PartialRowWriteHoleTest, PersistentWriteFailureIsBoundedAndSurfaced) {
  Cell cell(3, 1);
  auto file = cell.Create();
  ASSERT_NE(file, nullptr);
  const uint64_t row_bytes = file->layout().config().RowDataBytes();
  ASSERT_TRUE(file->PWrite(0, Pattern(row_bytes, 31)).ok());

  const uint64_t offset = KiB(4);
  const uint32_t data_column = file->layout().Locate(offset).agent;
  cell.store(data_column).FailNextWrites(1000, StatusCode::kIoError);
  auto written = file->PWrite(offset, Pattern(KiB(4), 32));
  EXPECT_EQ(written.code(), StatusCode::kIoError);
  EXPECT_GT(cell.store(data_column).failures(), 1) << "no re-send";
  EXPECT_LT(cell.store(data_column).failures(), 10) << "re-sends are not bounded";
  EXPECT_FALSE(file->degraded());
}

// ----------------------------------------------------------- range limit ---

// Per-column transport payload bytes moved by one PWrite.
struct Moved {
  uint64_t read = 0;
  uint64_t written = 0;
};

std::vector<Moved> MovedBy(Cell& cell, SwiftFile& file, uint64_t offset,
                           const std::vector<uint8_t>& bytes) {
  const std::vector<TransportStats> before = cell.Stats();
  auto written = file.PWrite(offset, bytes);
  EXPECT_TRUE(written.ok()) << written.status().ToString();
  const std::vector<TransportStats> after = cell.Stats();
  std::vector<Moved> moved(before.size());
  for (size_t c = 0; c < before.size(); ++c) {
    moved[c].read = after[c].bytes_read - before[c].bytes_read;
    moved[c].written = after[c].bytes_written - before[c].bytes_written;
  }
  return moved;
}

// Expects each live parity column of `row` to read and write exactly
// `parity_bytes`, each column in `data_bytes` to read and write its bytes,
// and every other column to move nothing.
void ExpectMoved(const SwiftFile& file, const std::vector<Moved>& moved, uint64_t row,
                 uint64_t parity_bytes, const std::vector<std::pair<uint32_t, uint64_t>>& data_bytes,
                 const std::string& label) {
  std::vector<uint64_t> expected(moved.size(), 0);
  const uint32_t m = file.layout().config().ParityUnitsPerRow();
  for (uint32_t j = 0; j < m; ++j) {
    expected[file.layout().ParityLocation(row, j).agent] = parity_bytes;
  }
  for (const auto& [column, bytes] : data_bytes) {
    expected[column] = bytes;
  }
  const std::vector<uint32_t> failed = file.failed_columns();
  for (uint32_t c = 0; c < moved.size(); ++c) {
    const bool dead = std::find(failed.begin(), failed.end(), c) != failed.end();
    const uint64_t want = dead ? 0 : expected[c];
    EXPECT_EQ(moved[c].read, want) << label << ": column " << c << " read";
    EXPECT_EQ(moved[c].written, want) << label << ": column " << c << " written";
  }
}

TEST(PartialRowWriteBytesTest, AlignedWriteMovesOnlyTouchedParityRange) {
  for (uint32_t m : {1u, 2u}) {
    const uint32_t k = m == 1 ? 3 : 4;
    const std::string label = m == 1 ? "XOR(3+1)" : "RS(4,2)";
    Cell cell(k, m);
    auto file = cell.Create();
    ASSERT_NE(file, nullptr);
    const uint64_t unit = file->layout().config().stripe_unit;
    ASSERT_EQ(unit, KiB(64));
    const uint64_t row_bytes = file->layout().config().RowDataBytes();
    std::vector<uint8_t> reference = Pattern(3 * row_bytes, 41);
    ASSERT_TRUE(file->PWrite(0, reference).ok());

    const uint64_t row = 1;
    const uint64_t offset = row * row_bytes + 2 * unit + KiB(16);
    const std::vector<uint8_t> update = Pattern(KiB(4), 42);
    const std::vector<Moved> moved = MovedBy(cell, *file, offset, update);
    ExpectMoved(*file, moved, row, KiB(4), {{file->layout().Locate(offset).agent, KiB(4)}},
                label);
    std::copy(update.begin(), update.end(), reference.begin() + offset);
    ExpectRange(*file, 0, reference, label);
  }
}

TEST(PartialRowWriteBytesTest, UnalignedStraddleMovesExactlyTheUnionRange) {
  for (uint32_t m : {1u, 2u}) {
    const uint32_t k = m == 1 ? 3 : 4;
    const std::string label = m == 1 ? "XOR(3+1)" : "RS(4,2)";
    Cell cell(k, m);
    auto file = cell.Create();
    ASSERT_NE(file, nullptr);
    const uint64_t unit = file->layout().config().stripe_unit;
    const uint64_t row_bytes = file->layout().config().RowDataBytes();
    std::vector<uint8_t> reference = Pattern(3 * row_bytes, 51);
    ASSERT_TRUE(file->PWrite(0, reference).ok());
    const uint64_t row = 1;

    // [unit - 3 KiB, unit) of one unit and [0, 5 KiB) of the next: the
    // in-unit ranges leave a gap, so parity moves 3 + 5 KiB, not the hull.
    uint64_t offset = row * row_bytes + unit - KiB(3);
    std::vector<uint8_t> update = Pattern(KiB(8), 52);
    std::vector<Moved> moved = MovedBy(cell, *file, offset, update);
    ExpectMoved(*file, moved, row, KiB(8),
                {{file->layout().Locate(offset).agent, KiB(3)},
                 {file->layout().Locate(offset + KiB(3)).agent, KiB(5)}},
                label + " disjoint");
    std::copy(update.begin(), update.end(), reference.begin() + offset);

    // [8 KiB + 1, unit) and [0, 8 KiB + 1): the ranges meet, so the union is
    // the whole unit.
    offset = row * row_bytes + unit + KiB(8) + 1;
    update = Pattern(unit, 53);
    moved = MovedBy(cell, *file, offset, update);
    ExpectMoved(*file, moved, row, unit,
                {{file->layout().Locate(offset).agent, unit - KiB(8) - 1},
                 {file->layout().Locate(offset + unit - KiB(8) - 1).agent, KiB(8) + 1}},
                label + " overlapping");
    std::copy(update.begin(), update.end(), reference.begin() + offset);
    ExpectRange(*file, 0, reference, label);
  }
}

TEST(PartialRowWriteBytesTest, DegradedPartialRowWritesStayByteExact) {
  Cell cell(4, 2);
  auto file = cell.Create();
  ASSERT_NE(file, nullptr);
  const uint64_t unit = file->layout().config().stripe_unit;
  const uint64_t row_bytes = file->layout().config().RowDataBytes();
  std::vector<uint8_t> reference = Pattern(3 * row_bytes, 61);
  ASSERT_TRUE(file->PWrite(0, reference).ok());
  const uint64_t row = 0;
  const uint32_t dead_parity = file->layout().ParityLocation(row, 0).agent;
  file->MarkColumnFailed(dead_parity);

  // Parity column failed: the surviving parity column still moves 4 KiB.
  uint64_t offset = row * row_bytes + unit + KiB(32);
  std::vector<uint8_t> update = Pattern(KiB(4), 62);
  const std::vector<Moved> moved = MovedBy(cell, *file, offset, update);
  ExpectMoved(*file, moved, row, KiB(4), {{file->layout().Locate(offset).agent, KiB(4)}},
              "parity failed");
  std::copy(update.begin(), update.end(), reference.begin() + offset);

  // Data column failed too: the write lands in the surviving parity only.
  offset = row * row_bytes + 3 * unit + KiB(60);
  const uint32_t dead_data = file->layout().Locate(offset).agent;
  file->MarkColumnFailed(dead_data);
  update = Pattern(KiB(6), 63);
  ASSERT_TRUE(file->PWrite(offset, update).ok());
  std::copy(update.begin(), update.end(), reference.begin() + offset);
  ExpectRange(*file, 0, reference, "degraded session");
  ASSERT_TRUE(file->Close().ok());

  auto reopened = cell.Open();
  ASSERT_NE(reopened, nullptr);
  reopened->MarkColumnFailed(dead_parity);
  reopened->MarkColumnFailed(dead_data);
  ExpectRange(*reopened, 0, reference, "fresh degraded session");
}

}  // namespace
}  // namespace swift
