// End-to-end tests of the real-socket stack: the §3.1 protocol over actual
// UDP on loopback — open/reply on the agent's well-known port, packet-request
// reads, streamed writes with ACK/NACK recovery, loss injection, dead-agent
// detection, and the full SwiftFile striping core running over UdpTransport
// (including parity reconstruction when a real server dies).

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <set>
#include <vector>

#include "src/agent/backing_store.h"
#include "src/agent/storage_agent.h"
#include "src/agent/udp_agent_server.h"
#include "src/agent/udp_transport.h"
#include "src/core/object_directory.h"
#include "src/core/swift_file.h"
#include "src/util/rng.h"
#include "src/util/trace.h"
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

// One real storage agent: store + core + UDP server.
struct AgentUnderTest {
  explicit AgentUnderTest(UdpAgentServer::Options options = {}) : core(&store), server(&core, options) {
    Status status = server.Start();
    EXPECT_TRUE(status.ok()) << status.ToString();
  }
  InMemoryBackingStore store;
  StorageAgentCore core;
  UdpAgentServer server;
};

TEST(UdpEndToEndTest, OpenWriteReadClose) {
  AgentUnderTest agent;
  UdpTransport transport(agent.server.port(), UdpTransport::Options{});

  auto opened = transport.Open("obj", kOpenCreate);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(opened->size, 0u);

  std::vector<uint8_t> data = Pattern(KiB(100));
  ASSERT_TRUE(transport.Write(opened->handle, 0, data).ok());
  EXPECT_EQ(*transport.Stat(opened->handle), KiB(100));

  auto read = transport.Read(opened->handle, 0, KiB(100));
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, data);

  // Sub-range + zero-fill past EOF.
  auto slice = transport.Read(opened->handle, KiB(50), KiB(100));
  ASSERT_TRUE(slice.ok());
  EXPECT_TRUE(std::equal(slice->begin(), slice->begin() + KiB(50), data.begin() + KiB(50)));
  EXPECT_TRUE(std::all_of(slice->begin() + KiB(50), slice->end(),
                          [](uint8_t b) { return b == 0; }));

  ASSERT_TRUE(transport.Close(opened->handle).ok());
  EXPECT_EQ(agent.core.open_handle_count(), 0u);
}

TEST(UdpEndToEndTest, OpenSemanticsOverTheWire) {
  AgentUnderTest agent;
  UdpTransport transport(agent.server.port(), UdpTransport::Options{});
  // Missing object without create: agent-side NOT_FOUND crosses the wire.
  EXPECT_EQ(transport.Open("ghost", 0).code(), StatusCode::kNotFound);
  // Create, write, close; reopen without truncate preserves size.
  auto created = transport.Open("obj", kOpenCreate);
  ASSERT_TRUE(created.ok());
  ASSERT_TRUE(transport.Write(created->handle, 0, Pattern(1000)).ok());
  ASSERT_TRUE(transport.Close(created->handle).ok());
  auto reopened = transport.Open("obj", kOpenCreate);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened->size, 1000u);
  // Truncate over the wire.
  ASSERT_TRUE(transport.Truncate(reopened->handle, 10).ok());
  EXPECT_EQ(*transport.Stat(reopened->handle), 10u);
}

TEST(UdpEndToEndTest, SessionsShareTheWellKnownPortIndependently) {
  AgentUnderTest agent;
  UdpTransport transport(agent.server.port(), UdpTransport::Options{});
  auto a = transport.Open("a", kOpenCreate);
  auto b = transport.Open("b", kOpenCreate);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(agent.server.active_session_count(), 2u);
  // Both sessions usable independently.
  ASSERT_TRUE(transport.Write(a->handle, 0, Pattern(100, 1)).ok());
  ASSERT_TRUE(transport.Write(b->handle, 0, Pattern(100, 2)).ok());
  EXPECT_EQ(*transport.Read(a->handle, 0, 100), Pattern(100, 1));
  EXPECT_EQ(*transport.Read(b->handle, 0, 100), Pattern(100, 2));
  // Closing one session leaves the other served.
  ASSERT_TRUE(transport.Close(a->handle).ok());
  EXPECT_EQ(agent.server.active_session_count(), 1u);
  EXPECT_EQ(*transport.Read(b->handle, 0, 100), Pattern(100, 2));
}

TEST(UdpEndToEndTest, MultipleTransportsOneAgent) {
  // Several clients of one agent, as in a shared Swift installation.
  AgentUnderTest agent;
  UdpTransport c1(agent.server.port(), UdpTransport::Options{});
  UdpTransport c2(agent.server.port(), UdpTransport::Options{});
  auto h1 = c1.Open("shared", kOpenCreate);
  auto h2 = c2.Open("shared", kOpenCreate);
  ASSERT_TRUE(h1.ok());
  ASSERT_TRUE(h2.ok());
  ASSERT_TRUE(c1.Write(h1->handle, 0, Pattern(64, 5)).ok());
  EXPECT_EQ(*c2.Read(h2->handle, 0, 64), Pattern(64, 5));
}

TEST(UdpEndToEndTest, SurvivesHeavyPacketLoss) {
  // 20% loss in both directions; the retransmission machinery must converge
  // to byte-exact transfers ("can resubmit requests when packets are lost").
  const uint64_t trace_cut = FlightRecorder::NowNs();
  AgentUnderTest agent(UdpAgentServer::Options{.port = 0, .loss_probability = 0.2, .loss_seed = 7});
  UdpTransport::Options options;
  options.loss_probability = 0.2;
  options.loss_seed = 13;
  options.max_retries = 12;
  UdpTransport transport(agent.server.port(), options);

  auto opened = transport.Open("lossy", kOpenCreate);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::vector<uint8_t> data = Pattern(KiB(200), 3);
  ASSERT_TRUE(transport.Write(opened->handle, 0, data).ok());
  auto read = transport.Read(opened->handle, 0, data.size());
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, data);
  EXPECT_GT(transport.retransmissions(), 0u);

  // The flight recorder must account for every retransmission: each retried
  // request id has an OP_START and reached a terminal event (complete, or a
  // timeout/fail for ops that exhausted their budget).
  std::set<uint32_t> started;
  std::set<uint32_t> retried;
  std::set<uint32_t> terminal;
  for (const TraceEvent& event : FlightRecorder::Global().Snapshot()) {
    if (event.timestamp_ns < trace_cut) {
      continue;
    }
    switch (event.kind) {
      case TraceEventKind::kOpStart:
        started.insert(event.request_id);
        break;
      case TraceEventKind::kOpRetry:
        retried.insert(event.request_id);
        break;
      case TraceEventKind::kOpTimeout:
      case TraceEventKind::kOpComplete:
      case TraceEventKind::kOpFail:
        terminal.insert(event.request_id);
        break;
    }
  }
  EXPECT_FALSE(retried.empty()) << "retransmissions happened but left no OP_RETRY events";
  for (uint32_t id : retried) {
    EXPECT_TRUE(started.count(id)) << "OP_RETRY for request " << id << " has no OP_START";
    EXPECT_TRUE(terminal.count(id)) << "retried request " << id << " never reached a terminal event";
  }
}

TEST(UdpEndToEndTest, DeadAgentSurfacesAsUnavailable) {
  auto agent = std::make_unique<AgentUnderTest>();
  UdpTransport::Options options;
  options.max_retries = 3;
  options.initial_timeout_ms = 20;
  UdpTransport transport(agent->server.port(), options);
  auto opened = transport.Open("obj", kOpenCreate);
  ASSERT_TRUE(opened.ok());
  ASSERT_TRUE(transport.Write(opened->handle, 0, Pattern(100)).ok());

  agent->server.Stop();
  EXPECT_EQ(transport.Read(opened->handle, 0, 100).code(), StatusCode::kUnavailable);
  EXPECT_EQ(transport.Write(opened->handle, 0, Pattern(10)).code(), StatusCode::kUnavailable);
  EXPECT_EQ(transport.Stat(opened->handle).code(), StatusCode::kUnavailable);
}

// Timeouts from a short RTT estimate spend the retry count in far less time
// than the doubling table would, but the agent is declared unreachable only
// once it has also been silent for the table's whole span, so a process
// stall of a few hundred milliseconds does not pass for a dead agent.
TEST(UdpEndToEndTest, DeadAgentIsDeclaredOnlyAfterTheSilenceSpan) {
  auto agent = std::make_unique<AgentUnderTest>();
  UdpTransport::Options options;
  options.max_retries = 3;
  options.initial_timeout_ms = 20;
  options.max_timeout_ms = 80;
  UdpTransport transport(agent->server.port(), options);
  auto opened = transport.Open("obj", kOpenCreate);
  ASSERT_TRUE(opened.ok());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(transport.Write(opened->handle, 0, Pattern(100)).ok());
  }
  double srtt_us = 0;
  double rttvar_us = 0;
  ASSERT_TRUE(transport.RttEstimate(&srtt_us, &rttvar_us));

  agent->server.Stop();
  const uint64_t retransmissions = transport.retransmissions();
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(transport.Read(opened->handle, 0, 100).code(), StatusCode::kUnavailable);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  // 20 + 40 + 80 + 80 ms.
  EXPECT_EQ(options.retry_policy().SilenceMs(), 220);
  EXPECT_GE(elapsed, std::chrono::milliseconds(220));
  EXPECT_EQ(transport.retransmissions() - retransmissions,
            static_cast<uint64_t>(options.max_retries));
}

TEST(UdpEndToEndTest, UnknownHandleRejectedByAgent) {
  AgentUnderTest agent;
  UdpTransport transport(agent.server.port(), UdpTransport::Options{});
  auto opened = transport.Open("obj", kOpenCreate);
  ASSERT_TRUE(opened.ok());
  // Break the handle client-side: the read must fail cleanly, not hang.
  // (The agent session is bound to its own handle; a bogus client handle
  // means no session exists at all.)
  EXPECT_EQ(transport.Read(opened->handle + 99, 0, 10).code(), StatusCode::kNotFound);
}

TEST(UdpEndToEndTest, RemoveOverTheWire) {
  AgentUnderTest agent;
  UdpTransport transport(agent.server.port(), UdpTransport::Options{});
  auto opened = transport.Open("doomed", kOpenCreate);
  ASSERT_TRUE(opened.ok());
  ASSERT_TRUE(transport.Write(opened->handle, 0, Pattern(100)).ok());
  // Refused while open; fine after close; idempotent when already gone.
  EXPECT_EQ(transport.Remove("doomed").code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(transport.Close(opened->handle).ok());
  EXPECT_TRUE(transport.Remove("doomed").ok());
  EXPECT_TRUE(transport.Remove("doomed").ok());
  EXPECT_FALSE(agent.store.Exists("doomed"));
}

TEST(UdpEndToEndTest, LargeTransferManyPackets) {
  AgentUnderTest agent;
  UdpTransport transport(agent.server.port(), UdpTransport::Options{});
  auto opened = transport.Open("big", kOpenCreate);
  ASSERT_TRUE(opened.ok());
  std::vector<uint8_t> data = Pattern(MiB(4), 11);  // 512 packets each way
  ASSERT_TRUE(transport.Write(opened->handle, 0, data).ok());
  auto read = transport.Read(opened->handle, 0, data.size());
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, data);
}

// ----------------------- SwiftFile over real sockets -----------------------

struct UdpCluster {
  explicit UdpCluster(int n, double loss = 0) {
    for (int i = 0; i < n; ++i) {
      agents.push_back(std::make_unique<AgentUnderTest>(
          UdpAgentServer::Options{.port = 0, .loss_probability = loss,
                                  .loss_seed = static_cast<uint64_t>(i + 1)}));
      UdpTransport::Options options;
      options.loss_probability = loss;
      options.loss_seed = 100 + static_cast<uint64_t>(i);
      options.max_retries = loss > 0 ? 12 : 4;
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
  std::vector<std::unique_ptr<AgentUnderTest>> agents;
  std::vector<std::unique_ptr<UdpTransport>> transports;
};

TransferPlan PlanFor(const std::string& name, uint32_t agents, bool parity) {
  TransferPlan plan;
  plan.object_name = name;
  plan.stripe.num_agents = agents;
  plan.stripe.stripe_unit = KiB(16);
  plan.stripe.parity = parity ? ParityMode::kRotating : ParityMode::kNone;
  for (uint32_t i = 0; i < agents; ++i) {
    plan.agent_ids.push_back(i);
  }
  return plan;
}

TEST(UdpSwiftFileTest, StripedFileOverRealSockets) {
  UdpCluster cluster(3);
  ObjectDirectory directory;
  auto file = SwiftFile::Create(PlanFor("movie", 3, false), cluster.Transports(), &directory);
  ASSERT_TRUE(file.ok()) << file.status().ToString();

  std::vector<uint8_t> data = Pattern(KiB(300), 21);
  ASSERT_TRUE((*file)->Write(data).ok());
  // Bytes really are spread across the three server processes' stores:
  // 300 KiB over 16 KiB units = 18 full units + a 12 KiB tail on agent 0.
  uint64_t total_stored = 0;
  for (auto& agent : cluster.agents) {
    EXPECT_GE(agent->store.TotalBytes(), KiB(96));
    total_stored += agent->store.TotalBytes();
  }
  EXPECT_EQ(total_stored, KiB(300));
  std::vector<uint8_t> read_back(KiB(300));
  ASSERT_TRUE((*file)->PRead(0, read_back).ok());
  EXPECT_EQ(read_back, data);
}

TEST(UdpSwiftFileTest, ParityRecoveryAcrossRealAgentDeath) {
  UdpCluster cluster(3);
  ObjectDirectory directory;
  auto file = SwiftFile::Create(PlanFor("protected", 3, true), cluster.Transports(), &directory);
  ASSERT_TRUE(file.ok()) << file.status().ToString();

  std::vector<uint8_t> data = Pattern(KiB(128), 33);
  ASSERT_TRUE((*file)->Write(data).ok());

  // Kill one real server; reads must transparently reconstruct.
  cluster.agents[1]->server.Stop();
  std::vector<uint8_t> read_back(KiB(128));
  ASSERT_TRUE((*file)->PRead(0, read_back).ok());
  EXPECT_EQ(read_back, data);
  EXPECT_TRUE((*file)->degraded());
  EXPECT_EQ((*file)->failed_columns(), std::vector<uint32_t>{1});
}

TEST(UdpSwiftFileTest, LossyNetworkStillByteExact) {
  UdpCluster cluster(2, /*loss=*/0.15);
  ObjectDirectory directory;
  auto file = SwiftFile::Create(PlanFor("lossy", 2, false), cluster.Transports(), &directory);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  std::vector<uint8_t> data = Pattern(KiB(96), 44);
  ASSERT_TRUE((*file)->Write(data).ok());
  std::vector<uint8_t> read_back(KiB(96));
  ASSERT_TRUE((*file)->PRead(0, read_back).ok());
  EXPECT_EQ(read_back, data);
}

}  // namespace
}  // namespace swift
