// Tests of the asynchronous transport core: the RetryPolicy schedule shared
// by every UDP op state machine, the completion-based StartRead/StartWrite
// API on both transports, OpBatch status aggregation, where the
// distribution agent starts each op (submitter, completing thread or pool),
// and a pipelined stress run over real sockets with injected loss plus an
// agent crash — reads must stay byte-identical through parity
// reconstruction.

#include <gtest/gtest.h>

#include <condition_variable>
#include <deque>
#include <latch>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "src/agent/backing_store.h"
#include "src/agent/storage_agent.h"
#include "src/agent/udp_agent_server.h"
#include "src/agent/udp_transport.h"
#include "src/core/distribution_agent.h"
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

// ------------------------------------------------------------- RetryPolicy --

TEST(RetryPolicyTest, BackoffDoublesAndSaturatesAtMax) {
  RetryPolicy policy{.initial_timeout_ms = 40, .max_timeout_ms = 320, .max_retries = 6};
  int t = policy.FirstTimeout();
  EXPECT_EQ(t, 40);
  t = policy.NextTimeout(t);
  EXPECT_EQ(t, 80);
  t = policy.NextTimeout(t);
  EXPECT_EQ(t, 160);
  t = policy.NextTimeout(t);
  EXPECT_EQ(t, 320);
  // Saturated: stays clamped at max_timeout_ms forever, never overshoots.
  t = policy.NextTimeout(t);
  EXPECT_EQ(t, 320);
  EXPECT_EQ(policy.NextTimeout(320), 320);
}

TEST(RetryPolicyTest, ClampsDegenerateConfigurations) {
  // Initial above the ceiling: first timeout is already the ceiling.
  RetryPolicy inverted{.initial_timeout_ms = 500, .max_timeout_ms = 320, .max_retries = 2};
  EXPECT_EQ(inverted.FirstTimeout(), 320);
  EXPECT_EQ(inverted.NextTimeout(inverted.FirstTimeout()), 320);
  // Zero/negative timeouts never produce a busy-poll schedule.
  RetryPolicy zero{.initial_timeout_ms = 0, .max_timeout_ms = 0, .max_retries = 1};
  EXPECT_GE(zero.FirstTimeout(), 1);
  EXPECT_GE(zero.NextTimeout(0), 1);
  // Doubling from just below half the ceiling saturates instead of passing it.
  RetryPolicy policy{.initial_timeout_ms = 100, .max_timeout_ms = 300, .max_retries = 1};
  EXPECT_EQ(policy.NextTimeout(200), 300);
}

TEST(RetryPolicyTest, BudgetIsMaxRetriesPlusOneTransmissions) {
  RetryPolicy policy{.initial_timeout_ms = 10, .max_timeout_ms = 20, .max_retries = 3};
  // 3 retries allowed: the 1st..3rd consecutive timeout retransmits, the 4th
  // (= max_retries + 1 transmissions all unanswered) gives up.
  EXPECT_FALSE(policy.Exhausted(1));
  EXPECT_FALSE(policy.Exhausted(3));
  EXPECT_TRUE(policy.Exhausted(4));
}

// Regression: the read path and the write path must burn the identical
// number of retransmissions before declaring a dead agent unavailable.
TEST(RetryPolicyTest, ConsistentBudgetAcrossReadAndWritePaths) {
  InMemoryBackingStore store;
  StorageAgentCore core(&store);
  UdpAgentServer server(&core, {});
  ASSERT_TRUE(server.Start().ok());

  UdpTransport::Options options;
  options.initial_timeout_ms = 5;
  options.max_timeout_ms = 20;
  options.max_retries = 3;
  UdpTransport transport(server.port(), options);
  auto opened = transport.Open("obj", kOpenCreate);
  ASSERT_TRUE(opened.ok());
  ASSERT_TRUE(transport.Write(opened->handle, 0, Pattern(100)).ok());
  server.Stop();

  uint64_t before = transport.retransmissions();
  EXPECT_EQ(transport.Read(opened->handle, 0, 100).code(), StatusCode::kUnavailable);
  const uint64_t read_retries = transport.retransmissions() - before;

  before = transport.retransmissions();
  EXPECT_EQ(transport.Write(opened->handle, 0, Pattern(100)).code(), StatusCode::kUnavailable);
  const uint64_t write_retries = transport.retransmissions() - before;

  EXPECT_EQ(read_retries, static_cast<uint64_t>(options.max_retries));
  EXPECT_EQ(write_retries, static_cast<uint64_t>(options.max_retries));
}

// --------------------------------------------------------------- async API --

// Collects async completions and lets the test block until all arrive.
class Collector {
 public:
  void ExpectOk(Status status) {
    std::lock_guard<std::mutex> lock(mutex_);
    EXPECT_TRUE(status.ok()) << status.ToString();
    ++completed_;
    cv_.notify_all();
  }
  void WaitFor(size_t n) {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return completed_ >= n; });
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  size_t completed_ = 0;
};

TEST(AsyncTransportTest, UdpPipelinedReadsAndWrites) {
  InMemoryBackingStore store;
  StorageAgentCore core(&store);
  UdpAgentServer server(&core, {});
  ASSERT_TRUE(server.Start().ok());

  UdpTransport::Options options;
  options.max_in_flight_ops = 8;
  UdpTransport transport(server.port(), options);
  EXPECT_EQ(transport.max_in_flight(), 8u);

  auto opened = transport.Open("obj", kOpenCreate);
  ASSERT_TRUE(opened.ok());

  // 8 writes to distinct slices, all submitted before any completes.
  const size_t kSlice = KiB(64);
  std::vector<uint8_t> data = Pattern(8 * kSlice, 17);
  Collector writes;
  for (size_t i = 0; i < 8; ++i) {
    transport.StartWrite(opened->handle, i * kSlice,
                         std::span<const uint8_t>(data.data() + i * kSlice, kSlice),
                         [&](Status status) { writes.ExpectOk(std::move(status)); });
  }
  writes.WaitFor(8);

  // 8 pipelined reads of the same slices; results must be byte-identical.
  std::vector<BufferSlice> slices(8);
  Collector reads;
  for (size_t i = 0; i < 8; ++i) {
    transport.StartRead(opened->handle, i * kSlice, kSlice,
                        [&, i](Result<BufferSlice> result) {
                          if (result.ok()) {
                            slices[i] = std::move(*result);
                          }
                          reads.ExpectOk(result.status());
                        });
  }
  transport.Drain();
  reads.WaitFor(8);
  for (size_t i = 0; i < 8; ++i) {
    EXPECT_TRUE(std::equal(slices[i].begin(), slices[i].end(), data.begin() + i * kSlice))
        << "slice " << i;
  }

  const TransportStats stats = transport.stats();
  EXPECT_EQ(stats.ops_completed, stats.ops_submitted);
  EXPECT_EQ(stats.ops_failed, 0u);
  EXPECT_GE(stats.bytes_written, data.size());
  EXPECT_GE(stats.bytes_read, data.size());
}

// The zero-copy read path end-to-end over a lossy network: StartReadInto
// reassembles retransmitted datagrams directly into the caller's buffer, and
// delivery must be byte-exact with no staging copy on the client side (the
// reassembler placement is the only counted client copy, even under loss —
// duplicates are dropped before they touch the destination).
TEST(AsyncTransportTest, LossyReadIntoUserBufferIsByteExact) {
  constexpr double kLoss = 0.08;
  InMemoryBackingStore store;
  StorageAgentCore core(&store);
  UdpAgentServer server(&core, {.port = 0, .loss_probability = kLoss, .loss_seed = 21});
  ASSERT_TRUE(server.Start().ok());

  UdpTransport::Options options;
  options.loss_probability = kLoss;
  options.loss_seed = 91;
  options.initial_timeout_ms = 10;
  options.max_timeout_ms = 80;
  options.max_retries = 12;
  options.max_in_flight_ops = 4;
  UdpTransport transport(server.port(), options);

  auto opened = transport.Open("obj", kOpenCreate);
  ASSERT_TRUE(opened.ok());
  const size_t kSlice = KiB(48);
  std::vector<uint8_t> data = Pattern(4 * kSlice, 23);
  Collector writes;
  for (size_t i = 0; i < 4; ++i) {
    transport.StartWrite(opened->handle, i * kSlice,
                         std::span<const uint8_t>(data.data() + i * kSlice, kSlice),
                         [&](Status status) { writes.ExpectOk(std::move(status)); });
  }
  writes.WaitFor(4);

  std::vector<uint8_t> out(4 * kSlice, 0xEE);
  Collector reads;
  for (size_t i = 0; i < 4; ++i) {
    transport.StartReadInto(opened->handle, i * kSlice,
                            std::span<uint8_t>(out.data() + i * kSlice, kSlice),
                            [&](Status status) { reads.ExpectOk(std::move(status)); });
  }
  transport.Drain();
  reads.WaitFor(4);
  EXPECT_EQ(out, data);
  EXPECT_GT(transport.retransmissions(), 0u);  // the loss was real

  const TransportStats stats = transport.stats();
  EXPECT_EQ(stats.ops_completed, stats.ops_submitted);
  EXPECT_EQ(stats.ops_failed, 0u);
  EXPECT_GE(stats.bytes_read, out.size());
}

// Each read started from the previous read's completion runs on the
// reactor thread, which swaps its inbox before it polls: only the first
// read, submitted from outside, writes the wake pipe.
TEST(AsyncTransportTest, ReadsStartedFromCompletionsDoNotWakeTheReactor) {
  InMemoryBackingStore store;
  StorageAgentCore core(&store);
  UdpAgentServer server(&core, {});
  ASSERT_TRUE(server.Start().ok());
  UdpTransport transport(server.port(), {});
  auto opened = transport.Open("obj", kOpenCreate);
  ASSERT_TRUE(opened.ok());
  std::vector<uint8_t> data = Pattern(KiB(4), 3);
  ASSERT_TRUE(transport.Write(opened->handle, 0, data).ok());

  constexpr int kChain = 32;
  Counter* wake_writes = MetricRegistry::Global().GetCounter("swift_udp_client_wake_writes_total");
  const uint64_t before = wake_writes->Value();
  std::vector<uint8_t> out(data.size());
  Collector reads;
  std::function<void(int)> read = [&](int i) {
    transport.StartReadInto(opened->handle, 0, out, [&, i](Status status) {
      if (i + 1 < kChain) {
        read(i + 1);
      }
      reads.ExpectOk(std::move(status));
    });
  };
  read(0);
  reads.WaitFor(kChain);
  EXPECT_LE(wake_writes->Value() - before, 1u);
  EXPECT_EQ(out, data);
}

// A cancellation completes its read on the reactor thread after the loop's
// inbox swap; a read started from that completion must still go out, with
// no other op in flight to end the coming poll.
TEST(AsyncTransportTest, ReadStartedFromACancellationStillRuns) {
  InMemoryBackingStore store;
  StorageAgentCore core(&store);
  UdpAgentServer server(&core, {});
  ASSERT_TRUE(server.Start().ok());
  UdpTransport::Options options;
  options.initial_timeout_ms = 20;
  options.max_timeout_ms = 40;
  options.max_retries = 3;
  UdpTransport transport(server.port(), options);
  auto opened = transport.Open("obj", kOpenCreate);
  ASSERT_TRUE(opened.ok());
  server.Stop();  // the first read stays in flight until cancelled

  std::vector<uint8_t> out(KiB(4));
  std::mutex mutex;
  std::condition_variable cv;
  std::optional<Status> second;
  const uint64_t token = transport.StartCancellableReadInto(
      opened->handle, 0, out, [&](Status status) {
        EXPECT_EQ(status.code(), StatusCode::kCancelled);
        transport.StartReadInto(opened->handle, 0, out, [&](Status status) {
          std::lock_guard<std::mutex> lock(mutex);
          second = std::move(status);
          cv.notify_all();
        });
      });
  ASSERT_NE(token, 0u);
  transport.CancelRead(token);
  std::unique_lock<std::mutex> lock(mutex);
  ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(10), [&] { return second.has_value(); }));
  EXPECT_EQ(second->code(), StatusCode::kUnavailable);  // its agent is gone
}

TEST(AsyncTransportTest, InProcCompletesInlineAndCounts) {
  InMemoryBackingStore store;
  StorageAgentCore core(&store);
  InProcTransport transport(&core);
  EXPECT_EQ(transport.max_in_flight(), 1u);

  auto opened = transport.Open("obj", kOpenCreate);
  ASSERT_TRUE(opened.ok());
  std::vector<uint8_t> data = Pattern(1000, 5);
  bool write_done = false;
  transport.StartWrite(opened->handle, 0, data, [&](Status status) {
    EXPECT_TRUE(status.ok());
    write_done = true;
  });
  EXPECT_TRUE(write_done);  // inline: completion before return

  bool read_done = false;
  transport.StartRead(opened->handle, 0, 1000, [&](Result<BufferSlice> result) {
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(*result, data);
    read_done = true;
  });
  EXPECT_TRUE(read_done);

  const TransportStats stats = transport.stats();
  EXPECT_EQ(stats.ops_submitted, 2u);
  EXPECT_EQ(stats.ops_completed, 2u);
  EXPECT_EQ(stats.bytes_written, 1000u);
  EXPECT_EQ(stats.bytes_read, 1000u);
}

TEST(AsyncTransportTest, FailedOpsLandInStats) {
  InMemoryBackingStore store;
  StorageAgentCore core(&store);
  InProcTransport transport(&core);
  auto opened = transport.Open("obj", kOpenCreate);
  ASSERT_TRUE(opened.ok());
  transport.FailNextCalls(1);
  transport.StartWrite(opened->handle, 0, Pattern(10), [](Status status) {
    EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  });
  EXPECT_EQ(transport.stats().ops_failed, 1u);
}

// ----------------------------------------------------------------- OpBatch --

TEST(OpBatchTest, UnavailableWinsOverOtherErrorsPerColumn) {
  InMemoryBackingStore store;
  StorageAgentCore core(&store);
  InProcTransport t0(&core);
  InProcTransport t1(&core);
  DistributionAgent agent({&t0, &t1});

  OpBatch batch(&agent);
  // Column 0: an IO error then an unavailable — the aggregate must surface
  // kUnavailable (it is what triggers parity takeover).
  batch.Submit(0, [](AgentTransport*, DistributionAgent::Completion done) {
    done(IoError("disk on fire"));
  });
  batch.Submit(0, [](AgentTransport*, DistributionAgent::Completion done) {
    done(UnavailableError("agent died"));
  });
  // Column 1: all OK.
  batch.Submit(1, [](AgentTransport*, DistributionAgent::Completion done) { done(OkStatus()); });
  std::vector<Status> statuses = batch.Wait();
  EXPECT_EQ(statuses[0].code(), StatusCode::kUnavailable);
  EXPECT_TRUE(statuses[1].ok());
}

TEST(OpBatchTest, ColumnOpsStartInSubmissionOrder) {
  InMemoryBackingStore store;
  StorageAgentCore core(&store);
  InProcTransport transport(&core);
  DistributionAgent agent({&transport});

  // With a sync transport the window is 1, so ops on one column must run
  // strictly in submission order.
  std::mutex mutex;
  std::vector<int> order;
  OpBatch batch(&agent);
  for (int i = 0; i < 16; ++i) {
    batch.Submit(0, [&, i](AgentTransport*, DistributionAgent::Completion done) {
      {
        std::lock_guard<std::mutex> lock(mutex);
        order.push_back(i);
      }
      done(OkStatus());
    });
  }
  batch.Wait();
  ASSERT_EQ(order.size(), 16u);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(DistributionAgentTest, WindowIsCappedByTransportMaxInFlight) {
  InMemoryBackingStore store;
  StorageAgentCore core(&store);
  InProcTransport transport(&core);
  DistributionAgent::Options options;
  options.ops_in_flight = 8;
  DistributionAgent agent({&transport}, options);
  // InProc advertises max_in_flight() == 1: no pipelining against it.
  EXPECT_EQ(agent.window(0), 1u);
}

// ------------------------------------------------------------ op dispatch --

// An asynchronous transport the test completes by hand: every Start* records
// the thread it ran on and parks its completion until CompleteNext().
class ManualTransport : public AgentTransport {
 public:
  Result<AgentOpenResult> Open(const std::string&, uint32_t) override {
    return AgentOpenResult{};
  }
  Status Write(uint32_t, uint64_t, std::span<const uint8_t>) override { return OkStatus(); }
  Result<BufferSlice> Read(uint32_t, uint64_t, uint64_t) override { return BufferSlice(); }
  Result<uint64_t> Stat(uint32_t) override { return uint64_t{0}; }
  Status Truncate(uint32_t, uint64_t) override { return OkStatus(); }
  Status Close(uint32_t) override { return OkStatus(); }
  Status Remove(const std::string&) override { return OkStatus(); }
  void StartWrite(uint32_t, uint64_t, std::span<const uint8_t>, WriteCompletion done) override {
    std::lock_guard<std::mutex> lock(mutex_);
    start_threads_.push_back(std::this_thread::get_id());
    parked_.push_back(std::move(done));
    max_outstanding_ = std::max(max_outstanding_, parked_.size());
  }
  uint32_t max_in_flight() const override { return 4; }

  // Runs the oldest parked completion on the calling thread.
  void CompleteNext() {
    WriteCompletion done;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ASSERT_FALSE(parked_.empty());
      done = std::move(parked_.front());
      parked_.pop_front();
    }
    done(OkStatus());
  }
  std::vector<std::thread::id> start_threads() {
    std::lock_guard<std::mutex> lock(mutex_);
    return start_threads_;
  }
  size_t max_outstanding() {
    std::lock_guard<std::mutex> lock(mutex_);
    return max_outstanding_;
  }

 private:
  std::mutex mutex_;
  std::deque<WriteCompletion> parked_;
  std::vector<std::thread::id> start_threads_;
  size_t max_outstanding_ = 0;
};

// An in-process transport that advertises a window: it completes every op
// inline, yet the distribution agent treats it as asynchronous.
class InlineWindowedTransport : public InProcTransport {
 public:
  using InProcTransport::InProcTransport;
  uint32_t max_in_flight() const override { return 4; }
};

void StartEmptyWrite(AgentTransport* transport, DistributionAgent::Completion done) {
  transport->StartWrite(0, 0, {}, std::move(done));
}

// Completes the transport's oldest parked op on a thread of its own and
// returns that thread's id.
std::thread::id CompleteOnNewThread(ManualTransport& transport) {
  std::thread::id id;
  std::thread completer([&] {
    id = std::this_thread::get_id();
    transport.CompleteNext();
  });
  completer.join();
  return id;
}

TEST(DistributionAgentTest, AsyncOpStartsOnTheThreadThatFreesItsSlot) {
  ManualTransport transport;
  DistributionAgent::Options options;
  options.ops_in_flight = 1;
  DistributionAgent agent({&transport}, options);
  OpBatch batch(&agent);
  for (int i = 0; i < 3; ++i) {
    batch.Submit(0, StartEmptyWrite);
  }
  // The window had room for the first op only: it started right here.
  ASSERT_EQ(transport.start_threads().size(), 1u);
  EXPECT_EQ(transport.start_threads()[0], std::this_thread::get_id());

  // Each completion frees the slot and starts the next queued op on the
  // completing thread.
  const std::thread::id first = CompleteOnNewThread(transport);
  const std::thread::id second = CompleteOnNewThread(transport);
  transport.CompleteNext();
  for (const Status& status : batch.Wait()) {
    EXPECT_TRUE(status.ok()) << status.ToString();
  }
  const std::vector<std::thread::id> starts = transport.start_threads();
  ASSERT_EQ(starts.size(), 3u);
  EXPECT_EQ(starts[1], first);
  EXPECT_EQ(starts[2], second);
  EXPECT_EQ(transport.max_outstanding(), 1u);
}

TEST(DistributionAgentTest, CompletionMaySubmitToTheSameAgent) {
  ManualTransport transport;
  DistributionAgent::Options options;
  options.ops_in_flight = 1;
  DistributionAgent agent({&transport}, options);
  std::mutex mutex;
  std::vector<int> order;
  auto op = [&](int id) {
    return [&, id](AgentTransport* t, DistributionAgent::Completion done) {
      {
        std::lock_guard<std::mutex> lock(mutex);
        order.push_back(id);
      }
      StartEmptyWrite(t, std::move(done));
    };
  };
  // Op 0's completion submits op 2 while op 0 still holds the only slot and
  // op 1 waits for it.
  agent.Submit(0, [&](AgentTransport* t, DistributionAgent::Completion done) {
    {
      std::lock_guard<std::mutex> lock(mutex);
      order.push_back(0);
    }
    t->StartWrite(0, 0, {}, [&, done = std::move(done)](Status status) {
      agent.Submit(0, op(2));
      done(std::move(status));
    });
  });
  agent.Submit(0, op(1));
  CompleteOnNewThread(transport);
  CompleteOnNewThread(transport);
  transport.CompleteNext();
  agent.Flush();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(DistributionAgentTest, InlineCompletionsChainWithoutRecursing) {
  InMemoryBackingStore store;
  StorageAgentCore core(&store);
  InlineWindowedTransport transport(&core);
  DistributionAgent agent({&transport});
  ASSERT_EQ(agent.window(0), 4u);
  // Every op completes inside its own start, and each completion submits the
  // next op: a long chain that must run as a loop on this thread.
  constexpr int kChain = 20000;
  int started = 0;
  std::function<void(AgentTransport*, DistributionAgent::Completion)> op =
      [&](AgentTransport* t, DistributionAgent::Completion done) {
        ++started;
        t->StartWrite(0, 0, {}, [&, done = std::move(done)](Status status) {
          if (started < kChain) {
            agent.Submit(0, op);
          }
          done(std::move(status));
        });
      };
  agent.Submit(0, op);
  agent.Flush();
  EXPECT_EQ(started, kChain);
}

TEST(DistributionAgentTest, RunPerAgentJobsOverlapOnAsyncColumns) {
  ManualTransport t0;
  ManualTransport t1;
  DistributionAgent agent({&t0, &t1});
  // Each job waits for the other to arrive: both finish only if they run at
  // the same time.
  std::latch both(2);
  std::vector<Status> statuses = agent.RunPerAgent({
      [&] {
        both.arrive_and_wait();
        return OkStatus();
      },
      [&] {
        both.arrive_and_wait();
        return OkStatus();
      },
  });
  ASSERT_EQ(statuses.size(), 2u);
  EXPECT_TRUE(statuses[0].ok());
  EXPECT_TRUE(statuses[1].ok());
}

TEST(DistributionAgentTest, SyncColumnsOverlapAcrossColumns) {
  InMemoryBackingStore store;
  StorageAgentCore core(&store);
  InProcTransport t0(&core);
  InProcTransport t1(&core);
  DistributionAgent agent({&t0, &t1});
  ASSERT_EQ(agent.window(0), 1u);
  std::latch both(2);
  OpBatch batch(&agent);
  for (uint32_t c = 0; c < 2; ++c) {
    batch.Submit(c, [&](AgentTransport*, DistributionAgent::Completion done) {
      both.arrive_and_wait();
      done(OkStatus());
    });
  }
  for (const Status& status : batch.Wait()) {
    EXPECT_TRUE(status.ok()) << status.ToString();
  }
}

// ------------------------------------------------------------- stress test --

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

// Pipelined reads+writes over a lossy network, then an agent crash mid-
// workload: every read must come back byte-identical to the reference model,
// through parity reconstruction once degraded.
TEST(AsyncPipelineStressTest, LossyPipelineSurvivesAgentCrash) {
  constexpr uint32_t kAgents = 4;
  constexpr double kLoss = 0.08;
  std::vector<std::unique_ptr<AgentUnderTest>> agents;
  std::vector<std::unique_ptr<UdpTransport>> transports;
  std::vector<AgentTransport*> raw;
  for (uint32_t i = 0; i < kAgents; ++i) {
    agents.push_back(std::make_unique<AgentUnderTest>(UdpAgentServer::Options{
        .port = 0, .loss_probability = kLoss, .loss_seed = 40 + i}));
    UdpTransport::Options options;
    options.loss_probability = kLoss;
    options.loss_seed = 80 + i;
    options.initial_timeout_ms = 10;
    options.max_timeout_ms = 80;
    options.max_retries = 12;
    options.max_in_flight_ops = 8;
    transports.push_back(std::make_unique<UdpTransport>(agents.back()->server.port(), options));
    raw.push_back(transports.back().get());
  }

  TransferPlan plan;
  plan.object_name = "stress";
  plan.stripe.num_agents = kAgents;
  plan.stripe.stripe_unit = KiB(16);
  plan.stripe.parity = ParityMode::kRotating;
  for (uint32_t i = 0; i < kAgents; ++i) {
    plan.agent_ids.push_back(i);
  }

  ObjectDirectory directory;
  DistributionAgent::Options io_options;
  io_options.ops_in_flight = 4;
  auto file = SwiftFile::Create(plan, raw, &directory, io_options);
  ASSERT_TRUE(file.ok()) << file.status().ToString();

  // Reference model: a plain byte vector mirroring every write.
  const size_t kFileBytes = KiB(768);
  std::vector<uint8_t> model(kFileBytes, 0);
  std::vector<uint8_t> base = Pattern(kFileBytes, 7);
  ASSERT_TRUE((*file)->PWrite(0, base).ok());
  std::copy(base.begin(), base.end(), model.begin());

  Rng rng(99);
  auto random_op = [&](uint64_t op_seed) {
    const uint64_t offset = static_cast<uint64_t>(rng.UniformInt(0, kFileBytes - 1));
    const uint64_t length =
        std::min<uint64_t>(1 + static_cast<uint64_t>(rng.UniformInt(0, KiB(160))),
                           kFileBytes - offset);
    if (rng.UniformInt(0, 1) == 0) {
      std::vector<uint8_t> data = Pattern(length, op_seed);
      ASSERT_TRUE((*file)->PWrite(offset, data).ok());
      std::copy(data.begin(), data.end(), model.begin() + offset);
    } else {
      std::vector<uint8_t> out(length);
      auto n = (*file)->PRead(offset, out);
      ASSERT_TRUE(n.ok()) << n.status().ToString();
      ASSERT_EQ(*n, length);
      ASSERT_TRUE(std::equal(out.begin(), out.end(), model.begin() + offset))
          << "mismatch at offset " << offset << " length " << length;
    }
  };

  for (uint64_t i = 0; i < 12; ++i) {
    random_op(1000 + i);
  }

  // Crash one agent mid-workload. The next op that touches it discovers the
  // failure, marks the column degraded, and every read thereafter must
  // reconstruct byte-identical data from the survivors' units + parity.
  agents[2]->server.Stop();
  for (uint64_t i = 0; i < 12; ++i) {
    random_op(2000 + i);
  }

  std::vector<uint8_t> full(kFileBytes);
  ASSERT_TRUE((*file)->PRead(0, full).ok());
  EXPECT_EQ(full, model);
  EXPECT_TRUE((*file)->degraded());
  EXPECT_EQ((*file)->failed_columns(), std::vector<uint32_t>{2});

  // The pipeline was actually exercised: multiple ops per transport, and the
  // lossy network forced retransmissions.
  for (uint32_t i = 0; i < kAgents; ++i) {
    const TransportStats stats = transports[i]->stats();
    EXPECT_GT(stats.ops_submitted, 0u) << "agent " << i;
    EXPECT_EQ(stats.ops_completed, stats.ops_submitted) << "agent " << i;
  }
  EXPECT_GT(transports[0]->retransmissions(), 0u);
}

}  // namespace
}  // namespace swift
