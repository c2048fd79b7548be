// Hedged parity reads over real sockets: a straggler column is cancelled and
// its ranges rebuilt from parity survivors, the winner's bytes are byte-exact,
// and the cancelled loser's late replies are absorbed without touching the
// caller's buffer (read idempotency under hedging).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "src/agent/backing_store.h"
#include "src/agent/storage_agent.h"
#include "src/agent/udp_agent_server.h"
#include "src/agent/udp_transport.h"
#include "src/core/object_directory.h"
#include "src/core/swift_file.h"
#include "src/util/metrics.h"
#include "src/util/rng.h"
#include "src/util/units.h"

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

// In-memory store whose reads can be made slow on demand — a gray-failure
// agent: alive, answering, just late. Installed before the server starts, so
// toggling `slow` mid-test races with nothing but the sleep itself.
class DelayedBackingStore : public BackingStore {
 public:
  bool Exists(const std::string& object_name) override { return inner_.Exists(object_name); }
  Status Ensure(const std::string& object_name) override { return inner_.Ensure(object_name); }
  Result<BufferSlice> ReadAt(const std::string& object_name, uint64_t offset,
                             uint64_t length) override {
    if (slow_.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms_.load()));
    }
    return inner_.ReadAt(object_name, offset, length);
  }
  Status WriteAt(const std::string& object_name, uint64_t offset,
                 std::span<const uint8_t> data) override {
    return inner_.WriteAt(object_name, offset, data);
  }
  Result<uint64_t> Size(const std::string& object_name) override {
    return inner_.Size(object_name);
  }
  Status Truncate(const std::string& object_name, uint64_t size) override {
    return inner_.Truncate(object_name, size);
  }
  Status Remove(const std::string& object_name) override { return inner_.Remove(object_name); }

  void set_slow(bool slow) { slow_.store(slow, std::memory_order_release); }
  void set_delay_ms(int ms) { delay_ms_.store(ms); }

 private:
  InMemoryBackingStore inner_;
  std::atomic<bool> slow_{false};
  std::atomic<int> delay_ms_{300};
};

// One agent whose store can straggle.
struct SlowableAgent {
  SlowableAgent() : core(&store), server(&core, UdpAgentServer::Options{}) {
    Status status = server.Start();
    EXPECT_TRUE(status.ok()) << status.ToString();
  }
  DelayedBackingStore store;
  StorageAgentCore core;
  UdpAgentServer server;
};

struct SlowableCluster {
  explicit SlowableCluster(int n) {
    for (int i = 0; i < n; ++i) {
      agents.push_back(std::make_unique<SlowableAgent>());
      UdpTransport::Options options;
      options.max_retries = 6;
      options.initial_timeout_ms = 20;
      transports.push_back(
          std::make_unique<UdpTransport>(agents.back()->server.port(), options));
    }
  }
  std::vector<AgentTransport*> Transports() {
    std::vector<AgentTransport*> out;
    for (auto& t : transports) {
      out.push_back(t.get());
    }
    return out;
  }
  std::vector<std::unique_ptr<SlowableAgent>> agents;
  std::vector<std::unique_ptr<UdpTransport>> transports;
};

TransferPlan ParityPlanFor(const std::string& name, uint32_t agents) {
  TransferPlan plan;
  plan.object_name = name;
  plan.stripe.num_agents = agents;
  plan.stripe.stripe_unit = KiB(16);
  plan.stripe.parity = ParityMode::kRotating;
  for (uint32_t i = 0; i < agents; ++i) {
    plan.agent_ids.push_back(i);
  }
  return plan;
}

DistributionAgent::Options HedgedOptions() {
  DistributionAgent::Options io;
  io.hedged_reads = true;
  return io;
}

// Healthy cluster: the batches complete inside the hedge delay, so hedging
// never arms — reads stay single-path and the attempts counter is flat.
TEST(HedgeTest, HealthyReadsNeverHedge) {
  SlowableCluster cluster(3);
  ObjectDirectory directory;
  auto file = SwiftFile::Create(ParityPlanFor("healthy", 3), cluster.Transports(), &directory,
                                HedgedOptions());
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  std::vector<uint8_t> data = Pattern(KiB(64), 7);
  ASSERT_TRUE((*file)->Write(data).ok());

  const uint64_t attempts_before = CounterValue("swift_hedge_attempts_total");
  std::vector<uint8_t> read_back(KiB(64));
  for (int i = 0; i < 25; ++i) {
    ASSERT_TRUE((*file)->PRead(0, read_back).ok());
    ASSERT_EQ(read_back, data);
  }
  EXPECT_EQ(CounterValue("swift_hedge_attempts_total"), attempts_before);
  EXPECT_FALSE((*file)->degraded());
}

// One straggling column: the hedge cancels it, parity reconstruction wins the
// race, the bytes are exact, the straggler is NOT marked failed, and the
// loser's late reply is absorbed by the transport without rewriting the
// destination buffer.
TEST(HedgeTest, HedgedReadReconstructsAndAbsorbsLateReplies) {
  SlowableCluster cluster(3);
  ObjectDirectory directory;
  auto file = SwiftFile::Create(ParityPlanFor("tail", 3), cluster.Transports(), &directory,
                                HedgedOptions());
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  std::vector<uint8_t> data = Pattern(KiB(64), 9);
  ASSERT_TRUE((*file)->Write(data).ok());
  const std::vector<uint8_t> first_unit(data.begin(), data.begin() + KiB(16));

  // Warm the RTT estimators and the global hedge governor (the first 19
  // hedging-eligible reads can never hedge; earlier tests in this binary only
  // add to the governor's read count, never to its hedge count).
  std::vector<uint8_t> unit_buf(KiB(16));
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE((*file)->PRead(0, unit_buf).ok());
    ASSERT_EQ(unit_buf, first_unit);
  }

  const uint64_t attempts_before = CounterValue("swift_hedge_attempts_total");
  const uint64_t wins_before = CounterValue("swift_hedge_wins_total");
  const uint64_t cancelled_before = CounterValue("swift_udp_client_cancelled_reads_total");
  const uint64_t late_before =
      cluster.transports[0]->cc_snapshot().late_datagrams;

  // Row 0 parks parity on agent 2, so logical offset 0 lives on agent 0:
  // make exactly that column straggle. The batch has a single op, it stalls
  // for the full store delay, and the hedge must fire long before the
  // transport's retry budget gives up.
  cluster.agents[0]->store.set_slow(true);
  ASSERT_TRUE((*file)->PRead(0, unit_buf).ok());
  EXPECT_EQ(unit_buf, first_unit);
  cluster.agents[0]->store.set_slow(false);

  EXPECT_GT(CounterValue("swift_hedge_attempts_total"), attempts_before);
  EXPECT_GT(CounterValue("swift_hedge_wins_total"), wins_before);
  EXPECT_GT(CounterValue("swift_udp_client_cancelled_reads_total"), cancelled_before);
  // A straggler is late, not dead: hedging must not burn the parity budget.
  EXPECT_FALSE((*file)->degraded());

  // Idempotency: the cancelled op's reply eventually limps in from the
  // sleeping store. The transport must count it as late and drop it — the
  // caller's buffer keeps the reconstructed bytes.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (cluster.transports[0]->cc_snapshot().late_datagrams <= late_before &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GT(cluster.transports[0]->cc_snapshot().late_datagrams, late_before);
  EXPECT_EQ(unit_buf, first_unit);

  // The straggler column is healthy again; a fresh full-file read is exact.
  std::vector<uint8_t> read_back(KiB(64));
  ASSERT_TRUE((*file)->PRead(0, read_back).ok());
  EXPECT_EQ(read_back, data);
  EXPECT_FALSE((*file)->degraded());
}

// Degraded and hedged at once: RS(4,2) with one failed column keeps one
// parity unit to spare, so a straggler holding a survivor the degraded read
// decodes from is hedged too. The hedge rebuilds the straggler's range first,
// then the failed column's unit decodes from it: byte-exact, and only the
// failed column is marked.
TEST(HedgeTest, DegradedRs42HedgedReadIsExact) {
  SlowableCluster cluster(6);
  ObjectDirectory directory;
  TransferPlan plan = ParityPlanFor("degraded", 6);
  plan.stripe.parity_units = 2;
  plan.stripe.codec = ErasureKind::kReedSolomon;
  auto file = SwiftFile::Create(plan, cluster.Transports(), &directory, HedgedOptions());
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  const uint64_t row_bytes = plan.stripe.RowDataBytes();
  std::vector<uint8_t> data = Pattern(4 * row_bytes, 11);
  ASSERT_TRUE((*file)->Write(data).ok());
  const std::vector<uint8_t> first_row(data.begin(), data.begin() + row_bytes);

  const StripeLayout& layout = (*file)->layout();
  const uint32_t lost = layout.AgentAtPosition(0, 0);
  const uint32_t straggler = layout.AgentAtPosition(0, 1);
  (*file)->MarkColumnFailed(lost);
  std::vector<uint8_t> row_buf(row_bytes);
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE((*file)->PRead(0, row_buf).ok());
    ASSERT_EQ(row_buf, first_row);
  }

  const uint64_t attempts_before = CounterValue("swift_hedge_attempts_total");
  cluster.agents[straggler]->store.set_slow(true);
  auto n = (*file)->PRead(0, row_buf);
  cluster.agents[straggler]->store.set_slow(false);
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  EXPECT_EQ(row_buf, first_row);
  EXPECT_GT(CounterValue("swift_hedge_attempts_total"), attempts_before);
  EXPECT_EQ((*file)->failed_columns(), std::vector<uint32_t>{lost});

  std::vector<uint8_t> read_back(data.size());
  ASSERT_TRUE((*file)->PRead(0, read_back).ok());
  EXPECT_EQ(read_back, data);
}

}  // namespace
}  // namespace swift
