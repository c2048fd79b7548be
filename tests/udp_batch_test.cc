// Batched-syscall I/O and multi-shard scale-out: RecvBatch/SendBatch
// semantics at the socket layer (batch boundaries, arena refills under
// pinned slices, partial sendmmsg completion, MSG_TRUNC surfacing) and the
// SO_REUSEPORT sharded agent server end to end — including lossy striped
// transfers, the per-datagram (batch=1) fallback staying wire-compatible, and
// the session contract: every datagram of a session is served by the shard
// that accepted its OPEN, on the well-known port, with no thread per file.

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/agent/backing_store.h"
#include "src/agent/storage_agent.h"
#include "src/agent/udp_agent_server.h"
#include "src/agent/udp_socket.h"
#include "src/agent/udp_transport.h"
#include "src/core/object_directory.h"
#include "src/core/swift_file.h"
#include "src/proto/message.h"
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

// A datagram whose first four bytes carry its index, so content checks
// survive any reordering.
std::vector<uint8_t> IndexedDatagram(uint32_t index, size_t size) {
  std::vector<uint8_t> data = Pattern(size, 1000 + index);
  std::memcpy(data.data(), &index, sizeof(index));
  return data;
}

uint32_t IndexOf(const BufferSlice& slice) {
  uint32_t index = 0;
  std::memcpy(&index, slice.span().data(), sizeof(index));
  return index;
}

TEST(UdpBatchTest, SendBatchRoundTrip) {
  UdpSocket sender;
  UdpSocket receiver;
  ASSERT_TRUE(sender.BindLoopback().ok());
  ASSERT_TRUE(receiver.BindLoopback().ok());
  const UdpEndpoint dst = UdpEndpoint::Loopback(receiver.local_port());

  std::vector<OutgoingDatagram> batch;
  for (uint32_t i = 0; i < 8; ++i) {
    batch.push_back(OutgoingDatagram{dst, IndexedDatagram(i, 512 + i * 100), BufferSlice{}});
  }
  ASSERT_TRUE(sender.SendBatch(batch).ok());

  std::vector<bool> seen(8, false);
  std::vector<UdpSocket::ReceivedDatagram> out;
  size_t received = 0;
  while (received < 8) {
    auto n = receiver.RecvBatch(2000, 8, out);
    ASSERT_TRUE(n.ok()) << n.status().ToString();
    for (const auto& datagram : out) {
      ASSERT_FALSE(datagram.truncated);
      const uint32_t index = IndexOf(datagram.data);
      ASSERT_LT(index, 8u);
      EXPECT_FALSE(seen[index]) << "datagram " << index << " delivered twice";
      seen[index] = true;
      EXPECT_EQ(datagram.data.span().size(), 512 + index * 100);
      const std::vector<uint8_t> expect = IndexedDatagram(index, 512 + index * 100);
      EXPECT_TRUE(std::equal(datagram.data.span().begin(), datagram.data.span().end(),
                             expect.begin()));
      ++received;
    }
  }
}

TEST(UdpBatchTest, BatchBoundaryReassemblyAcrossArenaRefills) {
  // Datagrams big enough that a handful exhaust the receive arena, received
  // while every earlier slice stays pinned: each refill must leave the old
  // block alive and byte-stable until the last slice drops.
  constexpr size_t kCount = 40;
  constexpr size_t kSize = 12 * 1024;
  UdpSocket sender;
  UdpSocket receiver;
  ASSERT_TRUE(sender.BindLoopback().ok());
  ASSERT_TRUE(receiver.BindLoopback().ok());
  const UdpEndpoint dst = UdpEndpoint::Loopback(receiver.local_port());

  std::vector<UdpSocket::ReceivedDatagram> pinned;  // keeps every block alive
  std::vector<UdpSocket::ReceivedDatagram> out;
  for (uint32_t base = 0; base < kCount; base += 8) {
    // Interleave send/receive so the loopback socket buffer never overflows.
    std::vector<OutgoingDatagram> batch;
    for (uint32_t i = base; i < base + 8; ++i) {
      batch.push_back(OutgoingDatagram{dst, IndexedDatagram(i, kSize), BufferSlice{}});
    }
    ASSERT_TRUE(sender.SendBatch(batch).ok());
    size_t got = 0;
    while (got < 8) {
      auto n = receiver.RecvBatch(2000, 8, out);
      ASSERT_TRUE(n.ok()) << n.status().ToString();
      got += *n;
      for (auto& datagram : out) {
        pinned.push_back(std::move(datagram));
      }
    }
  }

  ASSERT_EQ(pinned.size(), kCount);
  std::vector<bool> seen(kCount, false);
  for (const auto& datagram : pinned) {
    ASSERT_FALSE(datagram.truncated);
    ASSERT_EQ(datagram.data.span().size(), kSize);
    const uint32_t index = IndexOf(datagram.data);
    ASSERT_LT(index, kCount);
    EXPECT_FALSE(seen[index]);
    seen[index] = true;
    const std::vector<uint8_t> expect = IndexedDatagram(index, kSize);
    EXPECT_TRUE(std::equal(datagram.data.span().begin(), datagram.data.span().end(),
                           expect.begin()))
        << "datagram " << index << " corrupted across arena refills";
  }
}

TEST(UdpBatchTest, TruncatedDatagramIsADistinctError) {
  // A datagram bigger than the receive slot must surface as
  // kMessageTooLarge, never as a silently short payload.
  UdpSocket sender;
  UdpSocket receiver;
  ASSERT_TRUE(sender.BindLoopback().ok());
  ASSERT_TRUE(receiver.BindLoopback().ok());
  const UdpEndpoint dst = UdpEndpoint::Loopback(receiver.local_port());

  const std::vector<uint8_t> oversize = Pattern(20 * 1024, 5);  // > 16 KiB slot
  ASSERT_TRUE(sender.SendTo(dst, oversize).ok());
  auto received = receiver.RecvFrom(2000);
  EXPECT_EQ(received.code(), StatusCode::kMessageTooLarge);

  // Batch path: delivered with the flag set instead of failing the batch,
  // and a following good datagram still comes through.
  ASSERT_TRUE(sender.SendTo(dst, oversize).ok());
  ASSERT_TRUE(sender.SendTo(dst, Pattern(128, 6)).ok());
  std::vector<UdpSocket::ReceivedDatagram> out;
  size_t good = 0;
  size_t truncated = 0;
  while (good + truncated < 2) {
    auto n = receiver.RecvBatch(2000, 8, out);
    ASSERT_TRUE(n.ok()) << n.status().ToString();
    for (const auto& datagram : out) {
      if (datagram.truncated) {
        ++truncated;
      } else {
        EXPECT_EQ(datagram.data.span().size(), 128u);
        ++good;
      }
    }
  }
  EXPECT_EQ(truncated, 1u);
  EXPECT_EQ(good, 1u);
}

TEST(UdpBatchTest, PartialSendBatchCompletionSkipsBadDatagram) {
  // An un-sendable datagram (EMSGSIZE: bigger than any UDP datagram) in the
  // middle of a batch is treated as wire loss: the call succeeds and every
  // other datagram is delivered.
  UdpSocket sender;
  UdpSocket receiver;
  ASSERT_TRUE(sender.BindLoopback().ok());
  ASSERT_TRUE(receiver.BindLoopback().ok());
  const UdpEndpoint dst = UdpEndpoint::Loopback(receiver.local_port());

  std::vector<OutgoingDatagram> batch;
  for (uint32_t i = 0; i < 5; ++i) {
    const size_t size = (i == 2) ? 70 * 1024 : 256;  // #2 exceeds the UDP max
    batch.push_back(OutgoingDatagram{dst, IndexedDatagram(i, size), BufferSlice{}});
  }
  ASSERT_TRUE(sender.SendBatch(batch).ok());

  std::vector<bool> seen(5, false);
  std::vector<UdpSocket::ReceivedDatagram> out;
  size_t received = 0;
  while (received < 4) {
    auto n = receiver.RecvBatch(2000, 8, out);
    ASSERT_TRUE(n.ok()) << n.status().ToString();
    for (const auto& datagram : out) {
      ASSERT_FALSE(datagram.truncated);
      const uint32_t index = IndexOf(datagram.data);
      seen[index] = true;
      ++received;
    }
  }
  EXPECT_FALSE(seen[2]) << "the EMSGSIZE datagram cannot have arrived";
  for (uint32_t i : {0u, 1u, 3u, 4u}) {
    EXPECT_TRUE(seen[i]) << "datagram " << i << " lost to a mid-batch error";
  }
}

// One real storage agent: store + core + UDP server.
struct AgentUnderTest {
  explicit AgentUnderTest(UdpAgentServer::Options options = {})
      : core(&store), server(&core, options) {
    Status status = server.Start();
    EXPECT_TRUE(status.ok()) << status.ToString();
  }
  InMemoryBackingStore store;
  StorageAgentCore core;
  UdpAgentServer server;
};

TEST(UdpShardTest, ReuseportSpreadsOpensAcrossShards) {
  AgentUnderTest agent(UdpAgentServer::Options{.port = 0, .shards = 4});
  ASSERT_EQ(agent.server.shard_count(), 4u);
  UdpTransport transport(agent.server.port(), UdpTransport::Options{});

  // Each open uses a fresh client socket (fresh source port, fresh kernel
  // flow hash); with 32 flows over 4 shards, all landing on one shard is a
  // (1/4)^31-scale coincidence.
  std::vector<uint32_t> handles;
  for (int i = 0; i < 32; ++i) {
    auto opened = transport.Open("obj" + std::to_string(i), kOpenCreate);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    handles.push_back(opened->handle);
  }
  EXPECT_EQ(agent.server.active_session_count(), 32u);

  const std::vector<uint64_t> counts = agent.server.shard_datagram_counts();
  ASSERT_EQ(counts.size(), 4u);
  uint64_t total = 0;
  size_t nonzero = 0;
  for (uint64_t c : counts) {
    total += c;
    nonzero += c > 0 ? 1 : 0;
  }
  EXPECT_GE(total, 32u);  // every open hit the well-known port exactly once
  EXPECT_GE(nonzero, 2u) << "SO_REUSEPORT left every open on one shard";

  for (uint32_t handle : handles) {
    EXPECT_TRUE(transport.Close(handle).ok());
  }
  EXPECT_EQ(agent.core.open_handle_count(), 0u);
}

TEST(UdpShardTest, PerShardCountersVisibleViaStatsOp) {
  AgentUnderTest agent(UdpAgentServer::Options{.port = 0, .shards = 2});
  UdpTransport transport(agent.server.port(), UdpTransport::Options{});
  auto opened = transport.Open("stats-obj", kOpenCreate);
  ASSERT_TRUE(opened.ok());

  auto stats = transport.FetchStats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_NE(stats->find("swift_agent_shard0_datagrams_total"), std::string::npos)
      << "per-shard counters missing from the STATS snapshot:\n" << *stats;
  EXPECT_NE(stats->find("swift_agent_shard1_datagrams_total"), std::string::npos);
}

TEST(UdpShardTest, PerDatagramBaselineInteroperates) {
  // batch=1 client (the pre-batching per-datagram path) against a batching
  // sharded server: the wire format is unchanged, so transfers stay
  // byte-exact in both pairings.
  AgentUnderTest agent(
      UdpAgentServer::Options{.port = 0, .shards = 2, .socket_batch = 16});
  UdpTransport::Options options;
  options.socket_batch = 1;
  UdpTransport transport(agent.server.port(), options);

  auto opened = transport.Open("baseline", kOpenCreate);
  ASSERT_TRUE(opened.ok());
  const std::vector<uint8_t> data = Pattern(KiB(200), 17);
  ASSERT_TRUE(transport.Write(opened->handle, 0, data).ok());
  auto read = transport.Read(opened->handle, 0, data.size());
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, data);
}

TEST(UdpShardTest, ShardedServerSurvivesHeavyLoss) {
  // 20% loss in both directions against a 2-shard batching server: the
  // retry/backoff machinery must converge exactly as it did unsharded.
  AgentUnderTest agent(UdpAgentServer::Options{
      .port = 0, .loss_probability = 0.2, .loss_seed = 7, .shards = 2});
  UdpTransport::Options options;
  options.loss_probability = 0.2;
  options.loss_seed = 13;
  options.max_retries = 12;
  UdpTransport transport(agent.server.port(), options);

  auto opened = transport.Open("lossy", kOpenCreate);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const std::vector<uint8_t> data = Pattern(KiB(200), 3);
  ASSERT_TRUE(transport.Write(opened->handle, 0, data).ok());
  auto read = transport.Read(opened->handle, 0, data.size());
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, data);
  EXPECT_GT(transport.retransmissions(), 0u);
}

TEST(UdpShardTest, CollidingRequestIdsStayPerHandle) {
  // Every UdpTransport numbers its requests from 1, so two clients running
  // the same op sequence send the same request ids to the one shard serving
  // both. Write reassembly is keyed per handle: with loss on both sides
  // (NACKs, queries and retransmits in play) each reads back its own bytes.
  AgentUnderTest agent(UdpAgentServer::Options{
      .port = 0, .loss_probability = 0.1, .loss_seed = 5, .shards = 1});
  constexpr int kWrites = 4;
  constexpr size_t kUnit = 6 * kMaxPacketPayload;  // multi-packet writes
  std::vector<std::vector<uint8_t>> read_back(2);
  std::vector<std::thread> clients;
  for (int c = 0; c < 2; ++c) {
    clients.emplace_back([&, c] {
      UdpTransport::Options options;
      options.loss_probability = 0.1;
      options.loss_seed = 50 + static_cast<uint64_t>(c);
      options.max_retries = 12;
      UdpTransport transport(agent.server.port(), options);
      auto opened = transport.Open("collide" + std::to_string(c), kOpenCreate);
      ASSERT_TRUE(opened.ok()) << opened.status().ToString();
      for (int w = 0; w < kWrites; ++w) {
        const std::vector<uint8_t> unit = Pattern(kUnit, 100 * c + w);
        ASSERT_TRUE(transport.Write(opened->handle, w * kUnit, unit).ok());
      }
      auto read = transport.Read(opened->handle, 0, kWrites * kUnit);
      ASSERT_TRUE(read.ok()) << read.status().ToString();
      read_back[c].assign(read->begin(), read->end());
    });
  }
  for (auto& client : clients) {
    client.join();
  }
  for (int c = 0; c < 2; ++c) {
    std::vector<uint8_t> expected;
    for (int w = 0; w < kWrites; ++w) {
      const std::vector<uint8_t> unit = Pattern(kUnit, 100 * c + w);
      expected.insert(expected.end(), unit.begin(), unit.end());
    }
    EXPECT_EQ(read_back[c], expected) << "client " << c;
  }
}

TEST(UdpShardTest, OpenReplyNamesTheWellKnownPortAndUnknownHandlesAreDropped) {
  AgentUnderTest agent(UdpAgentServer::Options{.port = 0, .shards = 4});
  UdpSocket client;
  ASSERT_TRUE(client.BindLoopback().ok());
  const UdpEndpoint agent_port = UdpEndpoint::Loopback(agent.server.port());
  uint32_t next_id = 1;
  auto send = [&](Message request) {
    request.request_id = next_id++;
    ASSERT_TRUE(client.SendTo(agent_port, request.Encode()).ok());
  };
  auto receive = [&]() -> Message {
    auto received = client.RecvFrom(5000);
    EXPECT_TRUE(received.ok()) << received.status().ToString();
    if (!received.ok()) {
      return Message{};
    }
    auto reply = Message::Decode(received->data);
    EXPECT_TRUE(reply.ok()) << reply.status().ToString();
    return reply.ok() ? *reply : Message{};
  };
  auto request = [](MessageType type, uint32_t handle) {
    Message m;
    m.type = type;
    m.handle = handle;
    m.read_length = 16;
    return m;
  };
  auto open = [&](const std::string& name) -> Message {
    Message m = request(MessageType::kOpen, 0);
    m.object_name = name;
    m.open_flags = kOpenCreate;
    send(m);
    return receive();
  };

  const Message live = open("live");
  ASSERT_EQ(live.type, MessageType::kOpenReply);
  ASSERT_EQ(live.status_code, 0u);
  EXPECT_EQ(live.data_port, agent.server.port());
  // A retransmitted OPEN (same socket, same request id) gets the same
  // handle back instead of opening an orphan.
  Message again = request(MessageType::kOpen, 0);
  again.object_name = "live";
  again.open_flags = kOpenCreate;
  again.request_id = live.request_id;
  ASSERT_TRUE(client.SendTo(agent_port, again.Encode()).ok());
  const Message retried = receive();
  EXPECT_EQ(retried.type, MessageType::kOpenReply);
  EXPECT_EQ(retried.handle, live.handle);
  EXPECT_EQ(agent.server.active_session_count(), 1u);
  EXPECT_EQ(agent.core.open_handle_count(), 1u);
  const Message doomed = open("doomed");
  ASSERT_EQ(doomed.type, MessageType::kOpenReply);
  EXPECT_EQ(doomed.data_port, agent.server.port());
  EXPECT_EQ(agent.server.active_session_count(), 2u);

  send(request(MessageType::kClose, doomed.handle));
  EXPECT_EQ(receive().type, MessageType::kCloseAck);
  EXPECT_EQ(agent.server.active_session_count(), 1u);

  // One client socket means one shard, and that shard answers in arrival
  // order: if a reply to either stale READ_REQ existed it would arrive before
  // the live handle's STAT_REPLY.
  send(request(MessageType::kReadReq, doomed.handle));
  send(request(MessageType::kReadReq, live.handle + doomed.handle + 1000));  // never opened
  send(request(MessageType::kStat, live.handle));
  const uint32_t stat_id = next_id - 1;
  const Message stat = receive();
  EXPECT_EQ(stat.type, MessageType::kStatReply);
  EXPECT_EQ(stat.request_id, stat_id);
  EXPECT_EQ(stat.handle, live.handle);

  send(request(MessageType::kReadReq, live.handle));
  const Message data = receive();
  EXPECT_EQ(data.type, MessageType::kData);
  EXPECT_EQ(data.handle, live.handle);
}

size_t ThreadCount() {
  size_t threads = 0;
  for ([[maybe_unused]] const auto& task :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++threads;
  }
  return threads;
}

TEST(UdpShardTest, OpenFilesAddNoServerThreads) {
  // The agent runs shard_count() loop threads however many files are open:
  // a session is a table entry on its shard, not a thread of its own.
  AgentUnderTest agent;
  UdpTransport transport(agent.server.port(), UdpTransport::Options{});
  const size_t before = ThreadCount();
  std::vector<uint32_t> handles;
  for (int i = 0; i < 32; ++i) {
    auto opened = transport.Open("threads" + std::to_string(i), kOpenCreate);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    handles.push_back(opened->handle);
  }
  EXPECT_EQ(agent.server.active_session_count(), 32u);
  EXPECT_LT(ThreadCount(), before + 4) << "opening 32 files spawned threads";
  for (uint32_t handle : handles) {
    EXPECT_TRUE(transport.Close(handle).ok());
  }
  EXPECT_EQ(agent.server.active_session_count(), 0u);
}

TransferPlan PlanFor(const std::string& name, uint32_t agents) {
  TransferPlan plan;
  plan.object_name = name;
  plan.stripe.num_agents = agents;
  plan.stripe.stripe_unit = KiB(16);
  plan.stripe.parity = ParityMode::kNone;
  for (uint32_t i = 0; i < agents; ++i) {
    plan.agent_ids.push_back(i);
  }
  return plan;
}

TEST(UdpShardTest, LossyStripedFileOverShardedAgents) {
  // The full striping core over two sharded, batching, lossy agents: the
  // ISSUE's end-to-end gate for the scale-out refactor.
  std::vector<std::unique_ptr<AgentUnderTest>> agents;
  std::vector<std::unique_ptr<UdpTransport>> transports;
  for (int i = 0; i < 2; ++i) {
    agents.push_back(std::make_unique<AgentUnderTest>(UdpAgentServer::Options{
        .port = 0, .loss_probability = 0.15,
        .loss_seed = static_cast<uint64_t>(i + 1), .shards = 2}));
    UdpTransport::Options options;
    options.loss_probability = 0.15;
    options.loss_seed = 100 + static_cast<uint64_t>(i);
    options.max_retries = 12;
    options.initial_timeout_ms = 20;
    transports.push_back(
        std::make_unique<UdpTransport>(agents.back()->server.port(), options));
  }
  std::vector<AgentTransport*> raw;
  for (auto& t : transports) {
    raw.push_back(t.get());
  }

  ObjectDirectory directory;
  auto file = SwiftFile::Create(PlanFor("sharded-lossy", 2), raw, &directory);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  const std::vector<uint8_t> data = Pattern(KiB(96), 44);
  ASSERT_TRUE((*file)->Write(data).ok());
  std::vector<uint8_t> read_back(KiB(96));
  ASSERT_TRUE((*file)->PRead(0, read_back).ok());
  EXPECT_EQ(read_back, data);
}

TEST(UdpShardTest, StripedWriteDataRidesTheShards) {
  // Data datagrams land on the well-known port's shards, so a striped write
  // over 4-shard agents raises the per-shard counters by at least one copy
  // of every WRITE_DATA packet it needed.
  constexpr uint32_t kAgents = 2;
  std::vector<std::unique_ptr<AgentUnderTest>> agents;
  std::vector<std::unique_ptr<UdpTransport>> transports;
  std::vector<AgentTransport*> raw;
  for (uint32_t i = 0; i < kAgents; ++i) {
    agents.push_back(
        std::make_unique<AgentUnderTest>(UdpAgentServer::Options{.port = 0, .shards = 4}));
    transports.push_back(
        std::make_unique<UdpTransport>(agents.back()->server.port(), UdpTransport::Options{}));
    raw.push_back(transports.back().get());
  }
  auto shard_total = [&] {
    uint64_t total = 0;
    for (auto& agent : agents) {
      for (uint64_t count : agent->server.shard_datagram_counts()) {
        total += count;
      }
    }
    return total;
  };

  const TransferPlan plan = PlanFor("sharded-data", kAgents);
  ObjectDirectory directory;
  auto file = SwiftFile::Create(plan, raw, &directory);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  const std::vector<uint8_t> data = Pattern(KiB(512), 45);
  const uint64_t before = shard_total();
  ASSERT_TRUE((*file)->Write(data).ok());
  const uint64_t packets_per_unit =
      (plan.stripe.stripe_unit + kMaxPacketPayload - 1) / kMaxPacketPayload;
  const uint64_t data_datagrams = data.size() / plan.stripe.stripe_unit * packets_per_unit;
  EXPECT_GE(shard_total() - before, data_datagrams);
}

}  // namespace
}  // namespace swift
