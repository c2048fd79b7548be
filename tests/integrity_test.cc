// End-to-end data integrity: at-rest CRC sidecars (seal/verify/reseal and
// the sidecar lifecycle across truncate/remove), deterministic fault
// injection (each fault kind must surface as kDataCorrupt, never as wrong
// bytes), the self-healing read path (read-repair through parity), and the
// scrubber (detect → repair → clean second pass) — including the combined
// lossy-network + corrupt-disk case over real UDP sockets.

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/agent/backing_store.h"
#include "src/agent/faulty_store.h"
#include "src/agent/integrity_store.h"
#include "src/agent/local_cluster.h"
#include "src/agent/storage_agent.h"
#include "src/agent/udp_agent_server.h"
#include "src/agent/udp_transport.h"
#include "src/core/scrub.h"
#include "src/core/swift_file.h"
#include "src/util/metrics.h"
#include "src/util/rng.h"

namespace swift {
namespace {

std::vector<uint8_t> Pattern(size_t n, uint64_t seed = 1) {
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

// Flips one stored byte through `store` without touching any sidecar —
// silent corruption, exactly what a failing disk does.
void FlipByte(BackingStore& store, const std::string& name, uint64_t offset) {
  auto byte = store.ReadAt(name, offset, 1);
  ASSERT_TRUE(byte.ok()) << byte.status().ToString();
  const uint8_t flipped[1] = {static_cast<uint8_t>((*byte)[0] ^ 0x40)};
  ASSERT_TRUE(store.WriteAt(name, offset, flipped).ok());
}

// ------------------------------------------------- IntegrityBackingStore ---

TEST(IntegrityStoreTest, SealVerifyReseal) {
  InMemoryBackingStore inner;
  IntegrityBackingStore store(&inner);
  const std::vector<uint8_t> data = Pattern(3 * kIntegrityBlockSize + 100);
  ASSERT_TRUE(store.Ensure("obj").ok());
  ASSERT_TRUE(store.WriteAt("obj", 0, data).ok());

  auto read = store.ReadAt("obj", 0, data.size());
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, data);

  // Silent corruption in block 1 fails verification...
  FlipByte(inner, "obj", kIntegrityBlockSize + 17);
  auto corrupt = store.ReadAt("obj", 0, data.size());
  EXPECT_EQ(corrupt.code(), StatusCode::kDataCorrupt) << corrupt.status().ToString();
  // ...and a read that misses the bad block still succeeds.
  auto clean = store.ReadAt("obj", 0, kIntegrityBlockSize);
  EXPECT_TRUE(clean.ok()) << clean.status().ToString();

  // A whole-block overwrite reseals from the intended bytes: readable again.
  std::vector<uint8_t> fresh = Pattern(kIntegrityBlockSize, 7);
  ASSERT_TRUE(store.WriteAt("obj", kIntegrityBlockSize, fresh).ok());
  auto healed = store.ReadAt("obj", kIntegrityBlockSize, kIntegrityBlockSize);
  ASSERT_TRUE(healed.ok()) << healed.status().ToString();
  EXPECT_EQ(*healed, fresh);
}

TEST(IntegrityStoreTest, PartialWriteNeverBlessesCorruption) {
  InMemoryBackingStore inner;
  IntegrityBackingStore store(&inner);
  ASSERT_TRUE(store.Ensure("obj").ok());
  ASSERT_TRUE(store.WriteAt("obj", 0, Pattern(2 * kIntegrityBlockSize)).ok());
  FlipByte(inner, "obj", 5);

  // Patching a few bytes of a corrupt block must fail, not fold the corrupt
  // remainder into a fresh seal.
  const std::vector<uint8_t> patch(16, 0xAB);
  Status status = store.WriteAt("obj", 100, patch);
  EXPECT_EQ(status.code(), StatusCode::kDataCorrupt) << status.ToString();
  // The block is still corrupt (the patch changed nothing it can hide
  // behind); a full overwrite is the only way out.
  EXPECT_EQ(store.ReadAt("obj", 0, 16).code(), StatusCode::kDataCorrupt);
}

TEST(IntegrityStoreTest, TrustOnFirstUseSealsExistingFile) {
  InMemoryBackingStore inner;
  const std::vector<uint8_t> data = Pattern(kIntegrityBlockSize + 333);
  ASSERT_TRUE(inner.Ensure("legacy").ok());
  ASSERT_TRUE(inner.WriteAt("legacy", 0, data).ok());

  // First access through the integrity layer seals the current contents.
  IntegrityBackingStore store(&inner);
  auto read = store.ReadAt("legacy", 0, data.size());
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, data);
  EXPECT_TRUE(inner.Exists("legacy.crc"));

  // From then on the seal is live.
  FlipByte(inner, "legacy", 2);
  EXPECT_EQ(store.ReadAt("legacy", 0, 8).code(), StatusCode::kDataCorrupt);
}

TEST(IntegrityStoreTest, TornWriteDetectedPastShortenedEnd) {
  InMemoryBackingStore inner;
  IntegrityBackingStore store(&inner);
  const uint64_t size = 2 * kIntegrityBlockSize + 1000;
  ASSERT_TRUE(store.Ensure("obj").ok());
  ASSERT_TRUE(store.WriteAt("obj", 0, Pattern(size)).ok());

  // A torn write shears the file under the seal. Reads past the shortened
  // end must not come back as trusted zero-fill.
  ASSERT_TRUE(inner.Truncate("obj", kIntegrityBlockSize + 10).ok());
  auto tail = store.ReadAt("obj", 2 * kIntegrityBlockSize, 100);
  EXPECT_EQ(tail.code(), StatusCode::kDataCorrupt) << tail.status().ToString();

  auto report = store.Scrub("obj");
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->blocks_checked, 3u);  // sealed coverage, not current size
  EXPECT_FALSE(report->clean());
}

TEST(IntegrityStoreTest, TruncateLifecycle) {
  InMemoryBackingStore inner;
  IntegrityBackingStore store(&inner);
  const std::vector<uint8_t> data = Pattern(3 * kIntegrityBlockSize);
  ASSERT_TRUE(store.Ensure("obj").ok());
  ASSERT_TRUE(store.WriteAt("obj", 0, data).ok());

  // Shrink to mid-block: the boundary block is resealed over the kept head.
  const uint64_t small = kIntegrityBlockSize + 123;
  ASSERT_TRUE(store.Truncate("obj", small).ok());
  auto read = store.ReadAt("obj", 0, small);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_TRUE(std::memcmp(read->data(), data.data(), small) == 0);

  // Grow again: the extension is sealed zeros, all verifiable.
  ASSERT_TRUE(store.Truncate("obj", 2 * kIntegrityBlockSize + 5).ok());
  auto grown = store.ReadAt("obj", 0, 2 * kIntegrityBlockSize + 5);
  ASSERT_TRUE(grown.ok()) << grown.status().ToString();
  EXPECT_TRUE(std::memcmp(grown->data(), data.data(), small) == 0);
  for (uint64_t i = small; i < grown->size(); ++i) {
    ASSERT_EQ((*grown)[i], 0u) << "at " << i;
  }
  auto report = store.Scrub("obj");
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->clean());
}

TEST(IntegrityStoreTest, RemoveDropsSidecarAndIsIdempotent) {
  InMemoryBackingStore inner;
  IntegrityBackingStore store(&inner);
  ASSERT_TRUE(store.Ensure("obj").ok());
  ASSERT_TRUE(store.WriteAt("obj", 0, Pattern(100)).ok());
  EXPECT_TRUE(inner.Exists("obj.crc"));

  ASSERT_TRUE(store.Remove("obj").ok());
  EXPECT_FALSE(inner.Exists("obj"));
  EXPECT_FALSE(inner.Exists("obj.crc"));
  EXPECT_TRUE(store.Remove("obj").ok());  // removal is a goal state
}

TEST(IntegrityStoreTest, SidecarNamespaceIsPrivate) {
  InMemoryBackingStore inner;
  IntegrityBackingStore store(&inner);
  EXPECT_EQ(store.Ensure("sneaky.crc").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(store.ReadAt("sneaky.crc", 0, 1).code(), StatusCode::kInvalidArgument);
}

TEST(IntegrityStoreTest, ScrubReportsCorruptRanges) {
  InMemoryBackingStore inner;
  IntegrityBackingStore store(&inner);
  const uint64_t nblocks = 6;
  ASSERT_TRUE(store.Ensure("obj").ok());
  ASSERT_TRUE(store.WriteAt("obj", 0, Pattern(nblocks * kIntegrityBlockSize)).ok());

  FlipByte(inner, "obj", 0);                           // block 0
  FlipByte(inner, "obj", 4 * kIntegrityBlockSize + 9);  // block 4

  auto report = store.Scrub("obj");
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->blocks_checked, nblocks);
  ASSERT_EQ(report->corrupt_ranges.size(), 2u);
  EXPECT_EQ(report->corrupt_ranges[0].offset, 0u);
  EXPECT_EQ(report->corrupt_ranges[0].length, kIntegrityBlockSize);
  EXPECT_EQ(report->corrupt_ranges[1].offset, 4 * kIntegrityBlockSize);
  EXPECT_FALSE(report->truncated);
}

// Forwards every call to `inner` and counts the bytes written per file.
class CountingStore : public BackingStore {
 public:
  explicit CountingStore(BackingStore* inner) : inner_(inner) {}

  bool Exists(const std::string& name) override { return inner_->Exists(name); }
  Status Ensure(const std::string& name) override { return inner_->Ensure(name); }
  Result<BufferSlice> ReadAt(const std::string& name, uint64_t offset,
                             uint64_t length) override {
    return inner_->ReadAt(name, offset, length);
  }
  Status WriteAt(const std::string& name, uint64_t offset,
                 std::span<const uint8_t> data) override {
    written_[name] += data.size();
    return inner_->WriteAt(name, offset, data);
  }
  Result<uint64_t> Size(const std::string& name) override { return inner_->Size(name); }
  Status Truncate(const std::string& name, uint64_t size) override {
    return inner_->Truncate(name, size);
  }
  Status Remove(const std::string& name) override { return inner_->Remove(name); }

  uint64_t BytesWritten(const std::string& name) { return written_[name]; }
  void ResetCounts() { written_.clear(); }

 private:
  BackingStore* inner_;
  std::map<std::string, uint64_t> written_;
};

std::vector<uint8_t> StoredBytes(BackingStore& store, const std::string& name) {
  auto size = store.Size(name);
  EXPECT_TRUE(size.ok()) << size.status().ToString();
  if (!size.ok()) {
    return {};
  }
  auto bytes = store.ReadAt(name, 0, *size);
  EXPECT_TRUE(bytes.ok()) << bytes.status().ToString();
  return bytes.ok() ? std::vector<uint8_t>(bytes->begin(), bytes->end())
                    : std::vector<uint8_t>();
}

// The sidecar a fresh IntegrityBackingStore seals, by trust on first use,
// over a copy of `name`'s stored data.
std::vector<uint8_t> TofuSidecar(BackingStore& store, const std::string& name) {
  InMemoryBackingStore copy;
  EXPECT_TRUE(copy.Ensure(name).ok());
  EXPECT_TRUE(copy.WriteAt(name, 0, StoredBytes(store, name)).ok());
  IntegrityBackingStore fresh(&copy);
  EXPECT_TRUE(fresh.Ensure(name).ok());
  return StoredBytes(copy, name + ".crc");
}

TEST(IntegrityStoreTest, WritesPersistOnlyTheSealsTheyChange) {
  InMemoryBackingStore inner;
  CountingStore counting(&inner);
  IntegrityBackingStore store(&counting);
  constexpr uint64_t bs = kIntegrityBlockSize;
  ASSERT_TRUE(store.Ensure("obj").ok());
  ASSERT_TRUE(store.WriteAt("obj", 0, Pattern(MiB(1))).ok());
  EXPECT_EQ(StoredBytes(inner, "obj.crc"), TofuSidecar(inner, "obj"));

  // A one-block overwrite of a 1 MiB object rewrites one 4-byte seal.
  counting.ResetCounts();
  ASSERT_TRUE(store.WriteAt("obj", 5 * bs, Pattern(bs, 2)).ok());
  EXPECT_EQ(counting.BytesWritten("obj.crc"), 4u);
  EXPECT_EQ(StoredBytes(inner, "obj.crc"), TofuSidecar(inner, "obj"));

  // An unaligned overwrite straddling four blocks rewrites four seals.
  counting.ResetCounts();
  ASSERT_TRUE(store.WriteAt("obj", 10 * bs + 7, Pattern(3 * bs, 3)).ok());
  EXPECT_EQ(counting.BytesWritten("obj.crc"), 16u);
  EXPECT_EQ(StoredBytes(inner, "obj.crc"), TofuSidecar(inner, "obj"));

  // Appending past EOF seals the zero hole and the new tail, appending
  // exactly the new seals to the sidecar.
  counting.ResetCounts();
  ASSERT_TRUE(store.WriteAt("obj", MiB(1) + 3 * bs + 100, Pattern(500, 4)).ok());
  EXPECT_EQ(counting.BytesWritten("obj.crc"), 4u * 4);
  EXPECT_EQ(StoredBytes(inner, "obj.crc"), TofuSidecar(inner, "obj"));

  // A mid-block patch reseals its one block.
  counting.ResetCounts();
  ASSERT_TRUE(store.WriteAt("obj", 7 * bs + 100, Pattern(50, 5)).ok());
  EXPECT_EQ(counting.BytesWritten("obj.crc"), 4u);
  EXPECT_EQ(StoredBytes(inner, "obj.crc"), TofuSidecar(inner, "obj"));

  // Truncation, shrinking and growing, keeps the sidecar exact.
  ASSERT_TRUE(store.Truncate("obj", 300 * bs + 77).ok());
  EXPECT_EQ(StoredBytes(inner, "obj.crc"), TofuSidecar(inner, "obj"));
  ASSERT_TRUE(store.Truncate("obj", 400 * bs + 5).ok());
  EXPECT_EQ(StoredBytes(inner, "obj.crc"), TofuSidecar(inner, "obj"));

  auto read = store.ReadAt("obj", 0, 400 * bs + 5);
  EXPECT_TRUE(read.ok()) << read.status().ToString();
}

TEST(IntegrityStoreTest, RemovedSidecarIsRecreatedWhole) {
  InMemoryBackingStore inner;
  IntegrityBackingStore store(&inner);
  ASSERT_TRUE(store.Ensure("obj").ok());
  ASSERT_TRUE(store.WriteAt("obj", 0, Pattern(8 * kIntegrityBlockSize)).ok());

  // A wiped store loses the sidecar under the cache; the next write must
  // not leave a sidecar holding only its own seals.
  ASSERT_TRUE(inner.Remove("obj.crc").ok());
  ASSERT_TRUE(store.WriteAt("obj", kIntegrityBlockSize, Pattern(kIntegrityBlockSize, 2)).ok());
  EXPECT_EQ(StoredBytes(inner, "obj.crc"), TofuSidecar(inner, "obj"));
}

// ----------------------------------------------------- FaultyBackingStore ---

TEST(FaultyStoreTest, ParseFaultSpec) {
  auto spec = ParseFaultSpec("bitflip=0.01,torn=0.05,eio=0.002,stuck=8192+4096,seed=7");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_DOUBLE_EQ(spec->bitflip_per_write, 0.01);
  EXPECT_DOUBLE_EQ(spec->torn_write, 0.05);
  EXPECT_DOUBLE_EQ(spec->transient_eio, 0.002);
  EXPECT_EQ(spec->stuck_offset, 8192u);
  EXPECT_EQ(spec->stuck_length, 4096u);
  EXPECT_EQ(spec->seed, 7u);
  EXPECT_TRUE(spec->enabled());

  EXPECT_FALSE(ParseFaultSpec("bitflip=2.0").ok());   // probability out of range
  EXPECT_FALSE(ParseFaultSpec("gamma-rays=1").ok());  // unknown key
  EXPECT_FALSE(ParseFaultSpec("stuck=123").ok());     // missing "+<length>"
}

TEST(FaultyStoreTest, BitflipSurfacesAsDataCorrupt) {
  InMemoryBackingStore inner;
  FaultyBackingStore faulty(&inner, FaultSpec{.seed = 3, .bitflip_per_write = 1.0});
  IntegrityBackingStore store(&faulty);
  ASSERT_TRUE(store.Ensure("obj").ok());
  ASSERT_TRUE(store.WriteAt("obj", 0, Pattern(kIntegrityBlockSize)).ok());
  EXPECT_GE(faulty.bitflips_injected(), 1u);
  EXPECT_EQ(store.ReadAt("obj", 0, kIntegrityBlockSize).code(), StatusCode::kDataCorrupt);
}

TEST(FaultyStoreTest, TornWriteSurfacesAsDataCorrupt) {
  InMemoryBackingStore inner;
  FaultyBackingStore faulty(&inner, FaultSpec{.seed = 5, .torn_write = 1.0});
  IntegrityBackingStore store(&faulty);
  ASSERT_TRUE(store.Ensure("obj").ok());
  ASSERT_TRUE(store.WriteAt("obj", 0, Pattern(2 * kIntegrityBlockSize)).ok());
  EXPECT_GE(faulty.torn_writes_injected(), 1u);
  EXPECT_EQ(store.ReadAt("obj", 0, 2 * kIntegrityBlockSize).code(), StatusCode::kDataCorrupt);
}

TEST(FaultyStoreTest, TransientEioIsAnIoErrorNotCorruption) {
  InMemoryBackingStore inner;
  FaultyBackingStore faulty(&inner, FaultSpec{.seed = 11, .transient_eio = 1.0});
  ASSERT_TRUE(inner.Ensure("obj").ok());
  const std::vector<uint8_t> data = Pattern(64);
  EXPECT_EQ(faulty.WriteAt("obj", 0, data).code(), StatusCode::kIoError);
  EXPECT_EQ(faulty.ReadAt("obj", 0, 64).code(), StatusCode::kIoError);
  EXPECT_GE(faulty.transient_eios_injected(), 2u);
  // Nothing was written: the inner file is still empty.
  auto size = inner.Size("obj");
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 0u);
}

TEST(FaultyStoreTest, StuckAtZeroSurfacesAsDataCorrupt) {
  InMemoryBackingStore inner;
  FaultyBackingStore faulty(
      &inner, FaultSpec{.seed = 1, .stuck_offset = 0, .stuck_length = kIntegrityBlockSize});
  IntegrityBackingStore store(&faulty);
  ASSERT_TRUE(store.Ensure("obj").ok());
  ASSERT_TRUE(store.WriteAt("obj", 0, Pattern(2 * kIntegrityBlockSize)).ok());
  // The dead range reads zero under a seal of nonzero data.
  EXPECT_EQ(store.ReadAt("obj", 0, kIntegrityBlockSize).code(), StatusCode::kDataCorrupt);
  // Beyond the dead range the device is honest.
  auto ok = store.ReadAt("obj", kIntegrityBlockSize, kIntegrityBlockSize);
  EXPECT_TRUE(ok.ok()) << ok.status().ToString();
}

// ------------------------------------------------- self-healing SwiftFile ---

std::unique_ptr<SwiftFile> MakeFile(LocalSwiftCluster& cluster, const std::string& name,
                                    bool redundancy, uint32_t agents) {
  auto file = cluster.CreateFile({.object_name = name,
                                  .expected_size = MiB(1),
                                  .required_rate = 0,
                                  .typical_request = KiB(4) * (redundancy ? agents - 1 : agents),
                                  .redundancy = redundancy,
                                  .min_agents = agents,
                                  .max_agents = agents});
  EXPECT_TRUE(file.ok()) << file.status().ToString();
  return std::move(*file);
}

TEST(SelfHealingReadTest, ReadRepairsCorruptDataUnit) {
  LocalSwiftCluster cluster({.num_agents = 3});
  auto file = MakeFile(cluster, "obj", /*redundancy=*/true, 3);
  const uint64_t unit = file->layout().config().stripe_unit;
  const std::vector<uint8_t> data = Pattern(4 * unit);  // two full rows
  ASSERT_TRUE(file->Write(data).ok());

  // Rot a byte in the stripe unit that holds logical offset 0, underneath
  // the agent's checksum layer.
  const UnitLocation loc = file->layout().Locate(0);
  const uint64_t corrupt_before = CounterValue("swift_integrity_corrupt_total");
  const uint64_t repairs_before = CounterValue("swift_file_read_repairs_total");
  FlipByte(*cluster.raw_store(loc.agent), "obj", loc.agent_offset + 42);

  // The read returns the *correct* bytes (reconstructed from parity), the
  // column is not condemned, and the unit was rewritten on the agent.
  ASSERT_TRUE(file->Seek(0, SeekWhence::kSet).ok());
  std::vector<uint8_t> read_back(data.size());
  auto n = file->Read(read_back);
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  EXPECT_EQ(*n, data.size());
  EXPECT_EQ(read_back, data);
  EXPECT_FALSE(file->degraded());
  EXPECT_GE(CounterValue("swift_integrity_corrupt_total"), corrupt_before + 1);
  EXPECT_GE(CounterValue("swift_file_read_repairs_total"), repairs_before + 1);

  // Read-repair healed the disk, not just the response: the agent's own
  // scrub comes back clean.
  auto report = cluster.transport(loc.agent)->Scrub("obj");
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->clean());
}

TEST(SelfHealingReadTest, RmwWriteRepairsCorruptOldData) {
  LocalSwiftCluster cluster({.num_agents = 3});
  auto file = MakeFile(cluster, "obj", /*redundancy=*/true, 3);
  const uint64_t unit = file->layout().config().stripe_unit;
  ASSERT_TRUE(file->Write(Pattern(2 * unit)).ok());  // one full row

  // Corrupt the stored old data, then issue a partial-row write that must
  // read it back for the parity fold. The gather detects the corruption,
  // repairs the row, and the write succeeds with consistent parity.
  const UnitLocation loc = file->layout().Locate(0);
  FlipByte(*cluster.raw_store(loc.agent), "obj", loc.agent_offset + 3);
  const std::vector<uint8_t> patch = Pattern(64, 9);
  ASSERT_TRUE(file->PWrite(unit / 2, patch).ok());

  // Everything verifies after the dust settles: full read and clean scrubs.
  std::vector<uint8_t> all(file->size());
  ASSERT_TRUE(file->PRead(0, all).ok());
  for (uint32_t c = 0; c < cluster.agent_count(); ++c) {
    auto report = cluster.transport(c)->Scrub("obj");
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_TRUE(report->clean()) << "column " << c;
  }
}

TEST(SelfHealingReadTest, CorruptionWhileDegradedIsDataLoss) {
  LocalSwiftCluster cluster({.num_agents = 3});
  auto file = MakeFile(cluster, "obj", /*redundancy=*/true, 3);
  const uint64_t unit = file->layout().config().stripe_unit;
  const std::vector<uint8_t> data = Pattern(2 * unit);
  ASSERT_TRUE(file->Write(data).ok());

  // One column dead (within budget) plus silent rot on a survivor: the
  // corrupt unit's row has two losses, which single parity cannot cover.
  const UnitLocation lost = file->layout().Locate(0);
  const UnitLocation survivor = file->layout().Locate(unit);  // same row, next column
  file->MarkColumnFailed(lost.agent);
  FlipByte(*cluster.raw_store(survivor.agent), "obj", survivor.agent_offset + 1);

  std::vector<uint8_t> read_back(data.size());
  auto n = file->PRead(0, read_back);
  EXPECT_EQ(n.code(), StatusCode::kDataLoss) << n.status().ToString();
}

TEST(SelfHealingReadTest, NoParityMeansCorruptionSurfaces) {
  LocalSwiftCluster cluster({.num_agents = 2});
  auto file = MakeFile(cluster, "obj", /*redundancy=*/false, 2);
  const uint64_t unit = file->layout().config().stripe_unit;
  const std::vector<uint8_t> data = Pattern(2 * unit);
  ASSERT_TRUE(file->Write(data).ok());

  FlipByte(*cluster.raw_store(file->layout().Locate(0).agent), "obj", 0);
  std::vector<uint8_t> read_back(data.size());
  auto n = file->PRead(0, read_back);
  // No redundancy: the honest answer is the error, never the stored bytes.
  EXPECT_EQ(n.code(), StatusCode::kDataCorrupt) << n.status().ToString();
}

// ----------------------------------------------------------------- scrub ---

TEST(ScrubTest, RepairsDataAndParityUnits) {
  LocalSwiftCluster cluster({.num_agents = 3});
  auto file = MakeFile(cluster, "obj", /*redundancy=*/true, 3);
  const uint64_t unit = file->layout().config().stripe_unit;
  const std::vector<uint8_t> data = Pattern(4 * unit);
  ASSERT_TRUE(file->Write(data).ok());
  ASSERT_TRUE(file->Close().ok());

  // Rot a data unit of row 0 and the *parity* unit of row 1 — the latter is
  // invisible to normal reads, which is the whole reason scrubbing exists.
  const UnitLocation data_loc = file->layout().Locate(0);
  const UnitLocation parity_loc = file->layout().ParityLocation(1);
  FlipByte(*cluster.raw_store(data_loc.agent), "obj", data_loc.agent_offset + 7);
  FlipByte(*cluster.raw_store(parity_loc.agent), "obj", parity_loc.agent_offset + 7);

  auto metadata = cluster.directory().Lookup("obj");
  ASSERT_TRUE(metadata.ok());
  auto transports = cluster.TransportsFor(metadata->agent_ids);

  auto summary = ScrubObject(*metadata, transports);
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_EQ(summary->columns_scrubbed, 3u);
  EXPECT_EQ(summary->ranges_found, 2u);
  EXPECT_EQ(summary->ranges_repaired, 2u);
  EXPECT_EQ(summary->ranges_unrepairable, 0u);

  // Second pass: nothing left to find.
  auto second = ScrubObject(*metadata, transports);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->clean()) << "ranges_found=" << second->ranges_found;

  // And the data still round-trips.
  auto reopened = cluster.OpenFile("obj");
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  std::vector<uint8_t> read_back(data.size());
  ASSERT_TRUE((*reopened)->PRead(0, read_back).ok());
  EXPECT_EQ(read_back, data);
}

TEST(ScrubTest, TwoColumnsCorruptInOneRowIsUnrepairable) {
  LocalSwiftCluster cluster({.num_agents = 3});
  auto file = MakeFile(cluster, "obj", /*redundancy=*/true, 3);
  const uint64_t unit = file->layout().config().stripe_unit;
  ASSERT_TRUE(file->Write(Pattern(2 * unit)).ok());
  ASSERT_TRUE(file->Close().ok());

  const UnitLocation a = file->layout().Locate(0);
  const UnitLocation b = file->layout().Locate(unit);  // same row, second column
  FlipByte(*cluster.raw_store(a.agent), "obj", a.agent_offset);
  FlipByte(*cluster.raw_store(b.agent), "obj", b.agent_offset);

  auto metadata = cluster.directory().Lookup("obj");
  ASSERT_TRUE(metadata.ok());
  auto summary = ScrubObject(*metadata, cluster.TransportsFor(metadata->agent_ids));
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_EQ(summary->ranges_found, 2u);
  EXPECT_EQ(summary->ranges_repaired, 0u);
  EXPECT_EQ(summary->ranges_unrepairable, 2u);
}

// -------------------------------------- fault kinds through the full stack ---

// A 3-agent cluster where only agent 0 injects faults: the other columns
// stay healthy, so every fault lands within the single-failure budget and
// the read path must hide it completely.
struct OneBadAgentCluster {
  explicit OneBadAgentCluster(FaultSpec spec)
      : faulty(&bad_inner, spec),
        bad_integrity(&faulty),
        integrity1(&inner1),
        integrity2(&inner2),
        core0(&bad_integrity),
        core1(&integrity1),
        core2(&integrity2),
        t0(&core0),
        t1(&core1),
        t2(&core2) {}

  Result<std::unique_ptr<SwiftFile>> CreateFile(const std::string& name, uint64_t unit) {
    TransferPlan plan;
    plan.object_name = name;
    plan.stripe.num_agents = 3;
    plan.stripe.stripe_unit = unit;
    plan.stripe.parity = ParityMode::kRotating;
    plan.agent_ids = {0, 1, 2};
    return SwiftFile::Create(plan, {&t0, &t1, &t2}, &directory);
  }

  InMemoryBackingStore bad_inner, inner1, inner2;
  FaultyBackingStore faulty;
  IntegrityBackingStore bad_integrity, integrity1, integrity2;
  StorageAgentCore core0, core1, core2;
  InProcTransport t0, t1, t2;
  ObjectDirectory directory;
};

// Full-row writes (no read-modify-write) land despite the injector, because
// sealing uses the intended bytes; the poisoned column is then healed on
// read, every time, without ever surfacing wrong data. `rows` stays at 1 for
// tearing faults: a torn unit shortens the agent file, and a later write
// beyond the torn end would (correctly) refuse to reseal the corrupt tail.
void ExpectReadsHealFault(FaultSpec spec, uint64_t expect_counter_of = 0, uint64_t rows = 2) {
  OneBadAgentCluster cluster(spec);
  auto file = cluster.CreateFile("obj", kIntegrityBlockSize);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  const uint64_t row = 2 * kIntegrityBlockSize;  // two data units per row
  const std::vector<uint8_t> data = Pattern(rows * row);
  auto written = (*file)->Write(data);
  ASSERT_TRUE(written.ok()) << written.status().ToString();

  for (int pass = 0; pass < 2; ++pass) {
    std::vector<uint8_t> read_back(data.size());
    auto n = (*file)->PRead(0, read_back);
    ASSERT_TRUE(n.ok()) << "pass " << pass << ": " << n.status().ToString();
    EXPECT_EQ(read_back, data) << "pass " << pass;
  }
  EXPECT_FALSE((*file)->degraded());
  EXPECT_GE(cluster.faulty.bitflips_injected() + cluster.faulty.torn_writes_injected(),
            expect_counter_of);
}

TEST(FaultKindsTest, BitflipsAreHealedOnRead) {
  ExpectReadsHealFault(FaultSpec{.seed = 21, .bitflip_per_write = 1.0}, 1);
}

TEST(FaultKindsTest, TornWritesAreHealedOnRead) {
  ExpectReadsHealFault(FaultSpec{.seed = 22, .torn_write = 1.0}, 1, /*rows=*/1);
}

TEST(FaultKindsTest, StuckAtZeroIsHealedOnEveryRead) {
  // The first data unit of agent 0 never holds data again; each read must
  // reconstruct it (the repair write-back cannot stick).
  ExpectReadsHealFault(
      FaultSpec{.seed = 23, .stuck_offset = 0, .stuck_length = kIntegrityBlockSize});
}

TEST(FaultKindsTest, TransientEioIsRetryable) {
  OneBadAgentCluster cluster(FaultSpec{.seed = 24, .transient_eio = 0.3});
  auto file = cluster.CreateFile("obj", kIntegrityBlockSize);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  const std::vector<uint8_t> data = Pattern(4 * kIntegrityBlockSize);

  // EIO is transient by contract: nothing is written, nothing rots, the op
  // just fails. Client-level retries must eventually push everything through.
  Status written = InternalError("not attempted");
  for (int attempt = 0; attempt < 64 && !written.ok(); ++attempt) {
    written = (*file)->PWrite(0, data).status();
  }
  ASSERT_TRUE(written.ok()) << written.ToString();
  ASSERT_GE(cluster.faulty.transient_eios_injected(), 1u);

  std::vector<uint8_t> read_back(data.size());
  Status read = InternalError("not attempted");
  for (int attempt = 0; attempt < 64 && !read.ok(); ++attempt) {
    read = (*file)->PRead(0, read_back).status();
  }
  ASSERT_TRUE(read.ok()) << read.ToString();
  EXPECT_EQ(read_back, data);
}

// ------------------------------- lossy network + corrupt disk, real UDP ----

TEST(LossyCorruptStressTest, EndToEndOverUdp) {
  // Three real agents over UDP with outgoing packet loss on both sides and
  // an at-rest corruption planted mid-test: the combined failure modes the
  // paper's protocol (retransmission) and this PR (checksums + parity
  // repair) exist to survive. Loss seeds are fixed: reruns are identical.
  constexpr double kLoss = 0.03;
  std::vector<std::unique_ptr<InMemoryBackingStore>> inners;
  std::vector<std::unique_ptr<IntegrityBackingStore>> stores;
  std::vector<std::unique_ptr<StorageAgentCore>> cores;
  std::vector<std::unique_ptr<UdpAgentServer>> servers;
  std::vector<std::unique_ptr<UdpTransport>> transports;
  std::vector<AgentTransport*> transport_ptrs;
  for (uint32_t i = 0; i < 3; ++i) {
    inners.push_back(std::make_unique<InMemoryBackingStore>());
    stores.push_back(std::make_unique<IntegrityBackingStore>(inners.back().get()));
    cores.push_back(std::make_unique<StorageAgentCore>(stores.back().get()));
    servers.push_back(std::make_unique<UdpAgentServer>(
        cores.back().get(),
        UdpAgentServer::Options{.port = 0, .loss_probability = kLoss, .loss_seed = 100 + i}));
    ASSERT_TRUE(servers.back()->Start().ok());
    UdpTransport::Options options;
    options.loss_probability = kLoss;
    options.loss_seed = 200 + i;
    transports.push_back(std::make_unique<UdpTransport>(servers.back()->port(), options));
    transport_ptrs.push_back(transports.back().get());
  }

  ObjectDirectory directory;
  TransferPlan plan;
  plan.object_name = "obj";
  plan.stripe.num_agents = 3;
  plan.stripe.stripe_unit = kIntegrityBlockSize;
  plan.stripe.parity = ParityMode::kRotating;
  plan.agent_ids = {0, 1, 2};
  auto file = SwiftFile::Create(plan, transport_ptrs, &directory);
  ASSERT_TRUE(file.ok()) << file.status().ToString();

  const std::vector<uint8_t> data = Pattern(8 * kIntegrityBlockSize, 77);
  ASSERT_TRUE((*file)->Write(data).ok());

  // Plant silent rot under one agent's checksums while the network is lossy.
  const UnitLocation loc = (*file)->layout().Locate(0);
  FlipByte(*inners[loc.agent], "obj", loc.agent_offset + 13);

  std::vector<uint8_t> read_back(data.size());
  auto n = (*file)->PRead(0, read_back);
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  EXPECT_EQ(read_back, data);
  EXPECT_FALSE((*file)->degraded());

  // The SCRUB control op works over the same lossy wire and confirms the
  // read-repair stuck on disk.
  ObjectMetadata metadata{"obj", plan.stripe, plan.agent_ids, (*file)->size()};
  auto summary = ScrubObject(metadata, transport_ptrs);
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_EQ(summary->ranges_found, 0u);
  EXPECT_TRUE(summary->clean());

  // CLOSE is fire-and-mostly-forget under loss: the agent acks and retires
  // the session, so a dropped final ack is unrecoverable by retry. The
  // handle is released either way (close(2) semantics) — only a genuinely
  // unreachable agent is a failure here.
  const Status closed = (*file)->Close();
  EXPECT_TRUE(closed.ok() || closed.code() == StatusCode::kUnavailable) << closed.ToString();
  file->reset();
  transports.clear();
  for (auto& server : servers) {
    server->Stop();
  }
}

}  // namespace
}  // namespace swift
