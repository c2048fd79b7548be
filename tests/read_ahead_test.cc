// Sequential read-ahead (SwiftFile, DESIGN.md §8): a stream of row-sized
// reads leaves the next rows in flight between calls, and the next read
// takes them. Every read is checked byte for byte against a reference model
// of the object; the prefetch's effect is pinned by the
// swift_file_readahead_* counters and the transports' op and byte counts,
// never by a clock. Ops are held back, where a case needs a prefetch in
// flight, by a gate the test opens itself — no sleeps. ci.sh also runs this
// suite under ThreadSanitizer (prefetch completions land on other threads
// while the file drains them).

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/agent/local_cluster.h"
#include "src/agent/storage_agent.h"
#include "src/agent/udp_agent_server.h"
#include "src/agent/udp_transport.h"
#include "src/core/swift_file.h"
#include "src/util/metrics.h"
#include "src/util/rng.h"
#include "src/util/units.h"

namespace swift {
namespace {

constexpr uint64_t kUnit = KiB(16);

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

// Bytes taken from a prefetch, and bytes prefetched for nothing, since
// construction.
struct ReadAheadDelta {
  uint64_t hit0 = CounterValue("swift_file_readahead_bytes_total");
  uint64_t discarded0 = CounterValue("swift_file_readahead_discarded_bytes_total");
  uint64_t hit() const { return CounterValue("swift_file_readahead_bytes_total") - hit0; }
  uint64_t discarded() const {
    return CounterValue("swift_file_readahead_discarded_bytes_total") - discarded0;
  }
};

// Forwards to an in-process transport but advertises a window of four, so
// the distribution agent pipelines stripe-unit ops as it does over UDP. Reads
// of agent offsets at or past the gate are parked until Release(); all
// others complete inline on the submitting thread.
class GatedTransport : public AgentTransport {
 public:
  explicit GatedTransport(InProcTransport* inner) : inner_(inner) {}
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
    auto run = [this, handle, offset, length, done = std::move(done)]() mutable {
      inner_->StartRead(handle, offset, length, std::move(done));
    };
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (offset >= gate_) {
        parked_.push_back(std::move(run));
        return;
      }
    }
    run();
  }
  void StartWrite(uint32_t handle, uint64_t offset, std::span<const uint8_t> data,
                  WriteCompletion done) override {
    inner_->StartWrite(handle, offset, data, std::move(done));
  }
  uint32_t max_in_flight() const override { return 4; }
  TransportStats stats() const override { return inner_->stats(); }

  // Parks reads at agent offsets >= `offset` (UINT64_MAX: none).
  void Gate(uint64_t offset) {
    std::lock_guard<std::mutex> lock(mutex_);
    gate_ = offset;
  }
  size_t parked() {
    std::lock_guard<std::mutex> lock(mutex_);
    return parked_.size();
  }
  // Runs every parked read on the calling thread and opens the gate.
  void Release() {
    std::deque<std::function<void()>> runs;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      gate_ = UINT64_MAX;
      runs.swap(parked_);
    }
    for (auto& run : runs) {
      run();
    }
  }

 private:
  InProcTransport* inner_;
  std::mutex mutex_;
  uint64_t gate_ = UINT64_MAX;
  std::deque<std::function<void()>> parked_;
};

// One object of `rows` full rows over in-process agents behind gated
// transports: 16 KiB units, m parity units (XOR for m = 1, Reed-Solomon
// above), agent ids equal to columns. `model` mirrors every byte.
struct Cell {
  Cell(uint32_t agents, uint32_t m, uint64_t rows) : cluster({.num_agents = agents}) {
    plan.object_name = "cell";
    plan.stripe.num_agents = agents;
    plan.stripe.stripe_unit = kUnit;
    plan.stripe.parity = ParityMode::kRotating;
    plan.stripe.parity_units = m;
    plan.stripe.codec = m == 1 ? ErasureKind::kXor : ErasureKind::kReedSolomon;
    for (uint32_t i = 0; i < agents; ++i) {
      plan.agent_ids.push_back(i);
      gates.push_back(std::make_unique<GatedTransport>(cluster.transport(i)));
      transports.push_back(gates.back().get());
    }
    row_bytes = plan.stripe.RowDataBytes();
    model = Pattern(rows * row_bytes, 31 + agents + m);
    auto file = SwiftFile::Create(plan, transports, &directory);
    EXPECT_TRUE(file.ok()) << file.status().ToString();
    EXPECT_TRUE((*file)->PWrite(0, model).ok());
    EXPECT_TRUE((*file)->Close().ok());
  }

  std::unique_ptr<SwiftFile> Open() {
    auto file = SwiftFile::Open("cell", transports, &directory);
    EXPECT_TRUE(file.ok()) << file.status().ToString();
    return file.ok() ? std::move(*file) : nullptr;
  }

  // Reads [offset, +length) and checks it against the model (short at EOF).
  void ExpectRead(SwiftFile& file, uint64_t offset, uint64_t length) {
    std::vector<uint8_t> got(length);
    auto n = file.PRead(offset, got);
    ASSERT_TRUE(n.ok()) << n.status().ToString();
    const uint64_t want = offset >= model.size() ? 0 : std::min(length, model.size() - offset);
    ASSERT_EQ(*n, want);
    ASSERT_TRUE(std::equal(got.begin(), got.begin() + want, model.begin() + offset))
        << "bytes differ from the model in [" << offset << ", +" << want << ")";
  }

  // Parks every read of stripe row `row` and above.
  void GateFromRow(uint64_t row) {
    for (auto& gate : gates) {
      gate->Gate(row * kUnit);
    }
  }
  size_t Parked() {
    size_t parked = 0;
    for (auto& gate : gates) {
      parked += gate->parked();
    }
    return parked;
  }
  void ReleaseAll() {
    for (auto& gate : gates) {
      gate->Release();
    }
  }

  uint64_t OpsSubmitted() const {
    uint64_t ops = 0;
    for (const auto& gate : gates) {
      ops += gate->stats().ops_submitted;
    }
    return ops;
  }
  uint64_t BytesRead() const {
    uint64_t bytes = 0;
    for (const auto& gate : gates) {
      bytes += gate->stats().bytes_read;
    }
    return bytes;
  }

  LocalSwiftCluster cluster;
  TransferPlan plan;
  std::vector<std::unique_ptr<GatedTransport>> gates;
  std::vector<AgentTransport*> transports;
  ObjectDirectory directory;
  uint64_t row_bytes = 0;
  std::vector<uint8_t> model;
};

// A stream of two-row reads: the first two are read on their own, every
// later one is taken whole from the prefetch its predecessor left, and
// nothing is fetched twice or for nothing.
TEST(ReadAheadTest, SequentialReadsAreTakenFromThePrefetch) {
  Cell cell(4, 1, 24);
  auto file = cell.Open();
  ASSERT_NE(file, nullptr);
  const uint64_t chunk = 2 * cell.row_bytes;
  const ReadAheadDelta delta;
  const uint64_t bytes_before = cell.BytesRead();
  for (uint64_t offset = 0; offset < cell.model.size(); offset += chunk) {
    cell.ExpectRead(*file, offset, chunk);
  }
  EXPECT_EQ(delta.hit(), cell.model.size() - 2 * chunk);
  EXPECT_EQ(delta.discarded(), 0u);
  EXPECT_EQ(cell.BytesRead() - bytes_before, cell.model.size());
}

// A read larger than the prefetch takes what it covers and fetches the rest
// in the prefetch's own batch: one batch wait per read.
TEST(ReadAheadTest, LargerReadFetchesTheRestInThePrefetchBatch) {
  Cell cell(4, 1, 24);
  auto file = cell.Open();
  ASSERT_NE(file, nullptr);
  const uint64_t row = cell.row_bytes;
  cell.ExpectRead(*file, 0, row);
  cell.ExpectRead(*file, row, row);  // engages: one row ahead
  const ReadAheadDelta delta;
  const uint64_t batches = BatchCount();
  cell.ExpectRead(*file, 2 * row, 3 * row);
  EXPECT_EQ(delta.hit(), row);
  EXPECT_EQ(BatchCount() - batches, 1u);
  cell.ExpectRead(*file, 5 * row, 3 * row);  // three rows ahead now
  EXPECT_EQ(delta.hit(), 4 * row);
  EXPECT_EQ(delta.discarded(), 0u);
}

// A write into the prefetched range drains and discards the prefetch before
// it lands: the next read sees the written bytes, not the prefetched ones.
TEST(ReadAheadTest, ReadAfterWriteThroughALivePrefetch) {
  Cell cell(4, 1, 24);
  auto file = cell.Open();
  ASSERT_NE(file, nullptr);
  const uint64_t chunk = 2 * cell.row_bytes;
  cell.ExpectRead(*file, 0, chunk);
  cell.GateFromRow(4);  // the prefetch of rows 4 and 5 stays in flight
  cell.ExpectRead(*file, chunk, chunk);
  ASSERT_GT(cell.Parked(), 0u);

  const ReadAheadDelta delta;
  // A partial-row write and a full-row write into the prefetched rows; the
  // prefetch's reads complete on another thread while the write drains it.
  std::thread releaser([&cell] { cell.ReleaseAll(); });
  const std::vector<uint8_t> partial = Pattern(5000, 91);
  ASSERT_TRUE(file->PWrite(2 * chunk + 700, partial).ok());
  releaser.join();
  std::copy(partial.begin(), partial.end(), cell.model.begin() + 2 * chunk + 700);
  const std::vector<uint8_t> full = Pattern(cell.row_bytes, 92);
  ASSERT_TRUE(file->PWrite(2 * chunk + cell.row_bytes, full).ok());
  std::copy(full.begin(), full.end(), cell.model.begin() + 2 * chunk + cell.row_bytes);
  EXPECT_EQ(delta.discarded(), chunk);

  cell.ExpectRead(*file, 2 * chunk, chunk);
  EXPECT_EQ(delta.hit(), 0u);
  // The stream goes on: the read after the write prefetched again.
  cell.ExpectRead(*file, 3 * chunk, chunk);
  EXPECT_EQ(delta.hit(), chunk);
}

// Truncate with a prefetch in flight: the prefetch is drained and dropped,
// and reads past the new end see nothing.
TEST(ReadAheadTest, TruncateWhileAPrefetchIsInFlight) {
  Cell cell(4, 1, 24);
  auto file = cell.Open();
  ASSERT_NE(file, nullptr);
  const uint64_t chunk = 2 * cell.row_bytes;
  cell.ExpectRead(*file, 0, chunk);
  cell.GateFromRow(4);
  cell.ExpectRead(*file, chunk, chunk);
  ASSERT_GT(cell.Parked(), 0u);

  const ReadAheadDelta delta;
  std::thread releaser([&cell] { cell.ReleaseAll(); });
  const uint64_t new_size = 2 * chunk + cell.row_bytes / 2;  // inside the prefetch
  ASSERT_TRUE(file->Truncate(new_size).ok());
  releaser.join();
  cell.model.resize(new_size);
  EXPECT_EQ(delta.discarded(), chunk);

  cell.ExpectRead(*file, 2 * chunk, chunk);  // short: the model's tail
  cell.ExpectRead(*file, 3 * chunk, chunk);  // past the end
  EXPECT_EQ(delta.hit(), 0u);
  cell.ExpectRead(*file, 0, new_size);
}

// Close, and destruction without Close, with a prefetch in flight: both
// drain it while its completions land on another thread.
TEST(ReadAheadTest, CloseAndDestroyWithAPrefetchInFlight) {
  Cell cell(4, 1, 24);
  const uint64_t chunk = 2 * cell.row_bytes;
  for (const bool close_first : {true, false}) {
    auto file = cell.Open();
    ASSERT_NE(file, nullptr);
    cell.ExpectRead(*file, 0, chunk);
    cell.GateFromRow(4);
    cell.ExpectRead(*file, chunk, chunk);
    ASSERT_GT(cell.Parked(), 0u);
    const ReadAheadDelta delta;
    std::thread releaser([&cell] { cell.ReleaseAll(); });
    if (close_first) {
      EXPECT_TRUE(file->Close().ok());
    }
    file.reset();
    releaser.join();
    EXPECT_EQ(delta.discarded(), chunk);
  }
  auto file = cell.Open();
  ASSERT_NE(file, nullptr);
  cell.ExpectRead(*file, 0, cell.model.size());
}

// A column marked failed between a prefetch's start and its use: the
// prefetch (planned healthy) is dropped, the read decodes around the
// column, and the stream goes on prefetching degraded.
TEST(ReadAheadTest, ColumnFailedBetweenIssueAndUse) {
  Cell cell(4, 1, 24);
  auto file = cell.Open();
  ASSERT_NE(file, nullptr);
  const uint64_t chunk = 2 * cell.row_bytes;
  cell.ExpectRead(*file, 0, chunk);
  cell.ExpectRead(*file, chunk, chunk);
  const ReadAheadDelta delta;
  file->MarkColumnFailed(2);
  cell.ExpectRead(*file, 2 * chunk, chunk);
  EXPECT_EQ(delta.discarded(), chunk);
  EXPECT_EQ(delta.hit(), 0u);
  for (uint64_t offset = 3 * chunk; offset < cell.model.size(); offset += chunk) {
    cell.ExpectRead(*file, offset, chunk);
  }
  EXPECT_EQ(delta.hit(), cell.model.size() - 3 * chunk);
  EXPECT_EQ(delta.discarded(), chunk);
  EXPECT_EQ(file->failed_columns(), std::vector<uint32_t>{2});
}

// An in-process agent goes unavailable while a prefetch's reads on it are
// in flight: they fail, the column is marked failed, the prefetch is
// dropped and the read is served degraded through the retry loop.
TEST(ReadAheadTest, AgentUnavailableUnderAPrefetch) {
  Cell cell(4, 1, 24);
  auto file = cell.Open();
  ASSERT_NE(file, nullptr);
  const uint64_t chunk = 2 * cell.row_bytes;
  cell.ExpectRead(*file, 0, chunk);
  cell.GateFromRow(4);
  cell.ExpectRead(*file, chunk, chunk);
  ASSERT_GT(cell.gates[1]->parked(), 0u);
  cell.cluster.transport(1)->set_crashed(true);
  cell.ReleaseAll();  // column 1's prefetch reads fail kUnavailable here
  EXPECT_TRUE(file->degraded());

  const ReadAheadDelta delta;
  cell.ExpectRead(*file, 2 * chunk, chunk);
  EXPECT_EQ(delta.discarded(), chunk);
  EXPECT_EQ(delta.hit(), 0u);
  EXPECT_EQ(file->failed_columns(), std::vector<uint32_t>{1});
  cell.ExpectRead(*file, 3 * chunk, chunk);
  EXPECT_EQ(delta.hit(), chunk);
}

// Degraded RS(4,2) with two failed columns: each prefetch decodes in its own
// batch; every unit is read once (transport bytes = user bytes) and each
// read waits on one batch.
TEST(ReadAheadTest, DegradedRs42SequentialReads) {
  Cell cell(6, 2, 24);
  auto file = cell.Open();
  ASSERT_NE(file, nullptr);
  file->MarkColumnFailed(1);
  file->MarkColumnFailed(4);
  const uint64_t chunk = 4 * cell.row_bytes;
  const ReadAheadDelta delta;
  const uint64_t bytes_before = cell.BytesRead();
  const uint64_t batches = BatchCount();
  uint64_t reads = 0;
  for (uint64_t offset = 0; offset < cell.model.size(); offset += chunk, ++reads) {
    cell.ExpectRead(*file, offset, chunk);
  }
  EXPECT_EQ(delta.hit(), cell.model.size() - 2 * chunk);
  EXPECT_EQ(delta.discarded(), 0u);
  EXPECT_EQ(cell.BytesRead() - bytes_before, cell.model.size());
  EXPECT_EQ(BatchCount() - batches, reads);
  // A second pass starts at 0 after the end: a new stream, prefetched from
  // its first read on.
  for (uint64_t offset = 0; offset < cell.model.size(); offset += chunk) {
    cell.ExpectRead(*file, offset, chunk);
  }
  EXPECT_EQ(delta.hit(), 2 * cell.model.size() - 3 * chunk);
  EXPECT_EQ(delta.discarded(), 0u);
}

// Non-sequential row reads, sub-row sequential reads and reads repeated at
// offset 0 never prefetch: nothing is fetched beyond what they return.
TEST(ReadAheadTest, RandomSubRowAndRepeatedReadsNeverPrefetch) {
  Cell cell(4, 1, 24);
  auto file = cell.Open();
  ASSERT_NE(file, nullptr);
  const uint64_t row = cell.row_bytes;
  const ReadAheadDelta delta;
  const uint64_t bytes_before = cell.BytesRead();
  uint64_t user_bytes = 0;
  Rng rng(5);
  uint64_t last_end = 0;
  for (int i = 0; i < 40; ++i) {
    uint64_t r = static_cast<uint64_t>(rng.UniformInt(0, 23));
    if (r * row == last_end || (r == 0 && last_end == cell.model.size())) {
      r = (r + 2) % 24;  // never the read that would continue the last one
    }
    cell.ExpectRead(*file, r * row, row);
    last_end = (r + 1) * row;
    user_bytes += row;
  }
  for (uint64_t offset = 0; offset < 4 * row; offset += row / 2) {
    cell.ExpectRead(*file, offset, row / 2);
    user_bytes += row / 2;
  }
  for (int i = 0; i < 4; ++i) {
    cell.ExpectRead(*file, 0, row);
    user_bytes += row;
  }
  EXPECT_EQ(delta.hit(), 0u);
  EXPECT_EQ(delta.discarded(), 0u);
  EXPECT_EQ(cell.BytesRead() - bytes_before, user_bytes);
}

// Over real UDP loopback agents, where ops complete on reactor threads:
// two identical sequential passes submit exactly the same transport ops, and
// every byte of both is right.
TEST(ReadAheadTest, IdenticalPassesSubmitTheSameOpsOverUdp) {
  struct Agent {
    Agent() : core(&store), server(&core, UdpAgentServer::Options{}) {
      EXPECT_TRUE(server.Start().ok());
    }
    InMemoryBackingStore store;
    StorageAgentCore core;
    UdpAgentServer server;
  };
  std::vector<std::unique_ptr<Agent>> agents;
  std::vector<std::unique_ptr<UdpTransport>> transports;
  std::vector<AgentTransport*> raw;
  TransferPlan plan;
  plan.object_name = "udp";
  plan.stripe.num_agents = 4;
  plan.stripe.stripe_unit = kUnit;
  plan.stripe.parity = ParityMode::kRotating;
  for (uint32_t i = 0; i < 4; ++i) {
    agents.push_back(std::make_unique<Agent>());
    transports.push_back(std::make_unique<UdpTransport>(agents.back()->server.port(),
                                                        UdpTransport::Options{}));
    raw.push_back(transports.back().get());
    plan.agent_ids.push_back(i);
  }
  ObjectDirectory directory;
  auto file = SwiftFile::Create(plan, raw, &directory);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  const uint64_t chunk = 5 * plan.stripe.RowDataBytes();
  const std::vector<uint8_t> model = Pattern(12 * chunk, 77);
  ASSERT_TRUE((*file)->PWrite(0, model).ok());

  auto ops = [&transports] {
    uint64_t total = 0;
    for (const auto& transport : transports) {
      total += transport->stats().ops_submitted;
    }
    return total;
  };
  const ReadAheadDelta delta;
  std::vector<uint64_t> pass_ops;
  std::vector<uint8_t> got(chunk);
  for (int pass = 0; pass < 2; ++pass) {
    const uint64_t before = ops();
    for (uint64_t offset = 0; offset < model.size(); offset += chunk) {
      auto n = (*file)->PRead(offset, got);
      ASSERT_TRUE(n.ok()) << n.status().ToString();
      ASSERT_EQ(*n, chunk);
      ASSERT_TRUE(std::equal(got.begin(), got.end(), model.begin() + offset));
    }
    pass_ops.push_back(ops() - before);
  }
  EXPECT_EQ(pass_ops[0], pass_ops[1]);
  EXPECT_GT(delta.hit(), 0u);
  EXPECT_EQ(delta.discarded(), 0u);
}

}  // namespace
}  // namespace swift
