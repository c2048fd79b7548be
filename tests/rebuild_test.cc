// Rebuild: restoring full redundancy after an agent is replaced.

#include <gtest/gtest.h>

#include <atomic>

#include "src/agent/local_cluster.h"
#include "src/core/rebuild.h"
#include "src/proto/message.h"
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

struct RebuildFixture {
  explicit RebuildFixture(uint32_t agents, uint64_t object_bytes, bool parity = true,
                          uint32_t parity_units = 1)
      : cluster({.num_agents = agents}) {
    auto file = cluster.CreateFile({.object_name = "obj",
                                    .expected_size = object_bytes,
                                    .typical_request = KiB(16) * agents,
                                    .redundancy = parity,
                                    .parity_units = parity_units,
                                    .min_agents = agents,
                                    .max_agents = agents});
    EXPECT_TRUE(file.ok()) << file.status().ToString();
    data = Pattern(object_bytes, 42);
    EXPECT_TRUE((*file)->PWrite(0, data).ok());
    EXPECT_TRUE((*file)->Close().ok());
    metadata = *cluster.directory().Lookup("obj");
  }

  // Simulates replacing agent `column` with a blank machine: wipe the store
  // and rebuild onto it.
  Result<RebuildReport> ReplaceAndRebuild(uint32_t column) {
    auto* core = cluster.agent_core(metadata.agent_ids[column]);
    // "Wipe": drop the old file so the replacement starts blank.
    auto opened = core->Open(metadata.name, kOpenCreate);
    EXPECT_TRUE(opened.ok());
    EXPECT_TRUE(core->Truncate(opened->handle, 0).ok());
    EXPECT_TRUE(core->Close(opened->handle).ok());
    return RebuildColumn(metadata, cluster.TransportsFor(metadata.agent_ids), column);
  }

  // Flips one stored byte of the first data unit `column` holds, under the
  // checksum layer: reads of that unit then answer kDataCorrupt.
  void CorruptDataUnit(uint32_t column) {
    const StripeLayout layout(metadata.stripe);
    uint64_t row = 0;
    while (layout.UnitPositionOf(row, column) >= metadata.stripe.DataAgentsPerRow()) {
      ++row;
    }
    BackingStore* store = cluster.raw_store(metadata.agent_ids[column]);
    const uint64_t offset = row * metadata.stripe.stripe_unit + 5;
    auto byte = store->ReadAt(metadata.name, offset, 1);
    ASSERT_TRUE(byte.ok()) << byte.status().ToString();
    const uint8_t flipped[1] = {static_cast<uint8_t>((*byte)[0] ^ 0x20)};
    ASSERT_TRUE(store->WriteAt(metadata.name, offset, flipped).ok());
  }

  bool ContentsIntact() {
    auto file = cluster.OpenFile("obj");
    EXPECT_TRUE(file.ok());
    std::vector<uint8_t> read_back(data.size());
    auto n = (*file)->PRead(0, read_back);
    return n.ok() && read_back == data;
  }

  bool ContentsIntactAfterFreshFailure(uint32_t fresh_failure) {
    auto file = cluster.OpenFile("obj");
    EXPECT_TRUE(file.ok());
    (*file)->MarkColumnFailed(fresh_failure);
    std::vector<uint8_t> read_back(data.size());
    auto n = (*file)->PRead(0, read_back);
    return n.ok() && read_back == data;
  }

  LocalSwiftCluster cluster;
  std::vector<uint8_t> data;
  ObjectMetadata metadata;
};

TEST(RebuildTest, EveryColumnRebuildable) {
  for (uint32_t lost = 0; lost < 4; ++lost) {
    RebuildFixture fixture(4, KiB(200) + 37);  // ragged tail: partial last unit
    auto report = fixture.ReplaceAndRebuild(lost);
    ASSERT_TRUE(report.ok()) << "lost " << lost << ": " << report.status().ToString();
    EXPECT_GT(report->rows_rebuilt, 0u);

    // The replacement is byte-identical: after rebuild, the object must
    // survive the failure of ANY single column, including the rebuilt one
    // and each survivor.
    for (uint32_t fresh = 0; fresh < 4; ++fresh) {
      EXPECT_TRUE(fixture.ContentsIntactAfterFreshFailure(fresh))
          << "lost " << lost << ", fresh failure " << fresh;
    }
  }
}

TEST(RebuildTest, RebuiltFileSizesMatchLayout) {
  RebuildFixture fixture(3, KiB(100));
  const uint32_t lost = 1;
  ASSERT_TRUE(fixture.ReplaceAndRebuild(lost).ok());
  StripeLayout layout(fixture.metadata.stripe);
  auto* core = fixture.cluster.agent_core(fixture.metadata.agent_ids[lost]);
  auto opened = core->Open(fixture.metadata.name, 0);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(opened->size, layout.AgentFileSize(lost, fixture.metadata.size));
}

TEST(RebuildTest, RequiresParity) {
  RebuildFixture fixture(3, KiB(64), /*parity=*/false);
  auto report =
      RebuildColumn(fixture.metadata, fixture.cluster.TransportsFor(fixture.metadata.agent_ids), 0);
  EXPECT_EQ(report.code(), StatusCode::kInvalidArgument);
}

TEST(RebuildTest, SecondFailureBlocksRebuild) {
  RebuildFixture fixture(4, KiB(128));
  fixture.cluster.transport(fixture.metadata.agent_ids[2])->set_crashed(true);
  auto report = fixture.ReplaceAndRebuild(0);
  EXPECT_EQ(report.code(), StatusCode::kUnavailable);
}

TEST(RebuildTest, ValidatesArguments) {
  RebuildFixture fixture(3, KiB(64));
  auto transports = fixture.cluster.TransportsFor(fixture.metadata.agent_ids);
  EXPECT_EQ(RebuildColumn(fixture.metadata, transports, 7).code(),
            StatusCode::kInvalidArgument);
  transports.pop_back();
  EXPECT_EQ(RebuildColumn(fixture.metadata, transports, 0).code(),
            StatusCode::kInvalidArgument);
}

TEST(RebuildTest, EmptyObjectRebuildsToEmpty) {
  RebuildFixture fixture(3, 0);
  auto report = fixture.ReplaceAndRebuild(0);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->rows_rebuilt, 0u);
  EXPECT_EQ(report->bytes_written, 0u);
}

// Forwards to an agent's transport, but can make Open or every read answer
// kUnavailable (an agent that is down at open, or dies after it), and fail
// writes with kIoError while staying reachable.
class FlakyTransport : public AgentTransport {
 public:
  explicit FlakyTransport(AgentTransport* inner) : inner_(inner) {}
  bool fail_open = false;
  bool fail_reads = false;
  bool fail_writes = false;
  std::atomic<int> fail_next_writes{0};
  std::atomic<int> writes{0};

  Result<AgentOpenResult> Open(const std::string& object_name, uint32_t flags) override {
    if (fail_open) {
      return UnavailableError("agent down at open");
    }
    return inner_->Open(object_name, flags);
  }
  Status Write(uint32_t handle, uint64_t offset, std::span<const uint8_t> data) override {
    ++writes;
    if (fail_writes || fail_next_writes.fetch_sub(1) > 0) {
      return IoError("spare refused the write");
    }
    return inner_->Write(handle, offset, data);
  }
  Result<BufferSlice> Read(uint32_t handle, uint64_t offset, uint64_t length) override {
    if (fail_reads) {
      return UnavailableError("agent died");
    }
    return inner_->Read(handle, offset, length);
  }
  Result<uint64_t> Stat(uint32_t handle) override { return inner_->Stat(handle); }
  Status Truncate(uint32_t handle, uint64_t size) override {
    return inner_->Truncate(handle, size);
  }
  Status Close(uint32_t handle) override { return inner_->Close(handle); }
  Status Remove(const std::string& object_name) override { return inner_->Remove(object_name); }

 private:
  AgentTransport* inner_;
};

TEST(RebuildTest, Rs42DecodesAroundCorruptSurvivor) {
  RebuildFixture fixture(6, KiB(400) + 11, /*parity=*/true, /*parity_units=*/2);
  fixture.CorruptDataUnit(0);
  auto report = fixture.ReplaceAndRebuild(5);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report->rows_rebuilt, 0u);
  EXPECT_TRUE(fixture.ContentsIntact());
  EXPECT_TRUE(fixture.ContentsIntactAfterFreshFailure(5));
}

TEST(RebuildTest, Rs42DecodesAroundUnavailableSurvivor) {
  RebuildFixture fixture(6, KiB(400) + 11, /*parity=*/true, /*parity_units=*/2);
  auto transports = fixture.cluster.TransportsFor(fixture.metadata.agent_ids);
  FlakyTransport dying(transports[0]);
  dying.fail_reads = true;
  transports[0] = &dying;
  auto report = RebuildColumn(fixture.metadata, transports, 5);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report->rows_rebuilt, 0u);
  EXPECT_TRUE(fixture.ContentsIntact());
  EXPECT_TRUE(fixture.ContentsIntactAfterFreshFailure(5));
}

TEST(RebuildTest, FailedReplacementWriteIsResent) {
  RebuildFixture fixture(4, KiB(400) + 11);
  auto transports = fixture.cluster.TransportsFor(fixture.metadata.agent_ids);
  FlakyTransport spare(transports[3]);
  spare.fail_next_writes = 1;
  transports[3] = &spare;
  auto report = RebuildColumn(fixture.metadata, transports, 3);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(static_cast<uint64_t>(spare.writes.load()), report->rows_rebuilt + 1);
  EXPECT_TRUE(fixture.ContentsIntact());
  EXPECT_TRUE(fixture.ContentsIntactAfterFreshFailure(0));
}

TEST(RebuildTest, ReplacementThatKeepsFailingWritesFailsTheRebuild) {
  RebuildFixture fixture(4, KiB(400) + 11);
  auto transports = fixture.cluster.TransportsFor(fixture.metadata.agent_ids);
  FlakyTransport spare(transports[3]);
  spare.fail_writes = true;
  transports[3] = &spare;
  auto report = RebuildColumn(fixture.metadata, transports, 3);
  ASSERT_EQ(report.code(), StatusCode::kIoError);
  EXPECT_NE(report.status().message().find("row 0 on column 3"), std::string::npos)
      << report.status().ToString();
}

TEST(RebuildTest, XorCorruptSurvivorIsDataLoss) {
  // Lost column plus corrupt survivor: two erasures, one parity unit.
  RebuildFixture fixture(4, KiB(200));
  fixture.CorruptDataUnit(0);
  EXPECT_EQ(fixture.ReplaceAndRebuild(3).code(), StatusCode::kDataLoss);
}

TEST(RebuildTest, FailedOpenClosesEveryOpenedHandle) {
  RebuildFixture fixture(4, KiB(128));
  auto transports = fixture.cluster.TransportsFor(fixture.metadata.agent_ids);
  FlakyTransport down(transports[3]);
  down.fail_open = true;
  transports[3] = &down;
  EXPECT_EQ(RebuildColumn(fixture.metadata, transports, 0).code(), StatusCode::kUnavailable);
  // An agent refuses to remove an object with open handles.
  for (uint32_t c = 0; c < 3; ++c) {
    EXPECT_TRUE(fixture.cluster.agent_core(fixture.metadata.agent_ids[c])->Remove("obj").ok())
        << "column " << c;
  }
}

}  // namespace
}  // namespace swift
