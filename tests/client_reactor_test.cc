// The shared client reactor behind every UdpTransport: its thread count does
// not follow stripe width, a lone op's waiter drives it (no wake-pipe write,
// the completion on the waiter's own thread), so does the waiter of a small
// batch whose ops sit one per reactor — unless another thread drives one of
// them, two share one, or the wait is timed — an op nobody waits on still
// retransmits and times out, waiters on different stripes hand the driver
// role over without losing a wake-up, channels never cross-deliver, a
// transport destroyed with ops in flight aborts them, and partial-row writes
// driven by their waiters match a reference model. No test sleeps.

#include <gtest/gtest.h>

#include <algorithm>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <latch>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
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

// Threads of this process named like the client reactor's.
size_t ReactorThreads() {
  size_t count = 0;
  for (const auto& task : std::filesystem::directory_iterator("/proc/self/task")) {
    std::ifstream comm(task.path() / "comm");
    std::string name;
    std::getline(comm, name);
    count += name == "swift-reactor" ? 1 : 0;
  }
  return count;
}

struct Agent {
  Agent() : core(&store), server(&core, UdpAgentServer::Options{}) {
    EXPECT_TRUE(server.Start().ok());
  }
  InMemoryBackingStore store;
  StorageAgentCore core;
  UdpAgentServer server;
};

// A striped file over its own UDP transports to `agents`.
struct Stripe {
  Stripe(std::vector<std::unique_ptr<Agent>>& agents, size_t width, const std::string& name) {
    TransferPlan plan;
    plan.object_name = name;
    plan.stripe.num_agents = static_cast<uint32_t>(width);
    plan.stripe.stripe_unit = KiB(16);
    std::vector<AgentTransport*> raw;
    for (size_t i = 0; i < width; ++i) {
      transports.push_back(
          std::make_unique<UdpTransport>(agents[i]->server.port(), UdpTransport::Options{}));
      raw.push_back(transports.back().get());
      plan.agent_ids.push_back(static_cast<uint32_t>(i));
    }
    auto created = SwiftFile::Create(plan, raw, &directory, DistributionAgent::Options{});
    EXPECT_TRUE(created.ok()) << created.status().ToString();
    file = std::move(*created);
  }
  std::vector<std::unique_ptr<UdpTransport>> transports;
  ObjectDirectory directory;
  std::unique_ptr<SwiftFile> file;
};

std::vector<std::unique_ptr<Agent>> StartAgents(size_t n) {
  std::vector<std::unique_ptr<Agent>> agents;
  for (size_t i = 0; i < n; ++i) {
    agents.push_back(std::make_unique<Agent>());
  }
  return agents;
}

// Waits, on the test thread's own condition variable (never through Poll()),
// for one completion's status.
class StatusSlot {
 public:
  AgentTransport::WriteCompletion Completion() {
    return [this](Status status) {
      std::lock_guard<std::mutex> lock(mutex_);
      status_.emplace(std::move(status));
      thread_ = std::this_thread::get_id();
      cv_.notify_all();
    };
  }
  std::optional<Status> Wait(std::chrono::seconds limit) {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait_for(lock, limit, [this] { return status_.has_value(); });
    return status_;
  }
  std::thread::id thread() {
    std::lock_guard<std::mutex> lock(mutex_);
    return thread_;
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::optional<Status> status_;
  std::thread::id thread_;
};

TEST(ClientReactorTest, ThreadCountDoesNotFollowStripeWidth) {
  auto agents = StartAgents(6);
  std::vector<size_t> counts;
  for (size_t width : {3, 4, 6}) {
    Stripe stripe(agents, width, "width" + std::to_string(width));
    std::vector<uint8_t> data = Pattern(KiB(64), width);
    ASSERT_TRUE(stripe.file->PWrite(0, data).ok());
    std::vector<uint8_t> back(data.size());
    ASSERT_TRUE(stripe.file->PRead(0, back).ok());
    EXPECT_EQ(back, data);
    counts.push_back(ReactorThreads());
  }
  EXPECT_GE(counts[0], 1u);
  EXPECT_EQ(counts[1], counts[0]);
  EXPECT_EQ(counts[2], counts[0]);
}

// Records the thread each read completion runs on; forwards Poll() so the
// batch's waiter can still drive the transport underneath.
class CompletionThreadTap : public AgentTransport {
 public:
  explicit CompletionThreadTap(AgentTransport* inner) : inner_(inner) {}
  Result<AgentOpenResult> Open(const std::string& name, uint32_t flags) override {
    return inner_->Open(name, flags);
  }
  Status Write(uint32_t h, uint64_t off, std::span<const uint8_t> data) override {
    return inner_->Write(h, off, data);
  }
  Result<BufferSlice> Read(uint32_t h, uint64_t off, uint64_t len) override {
    return inner_->Read(h, off, len);
  }
  Result<uint64_t> Stat(uint32_t h) override { return inner_->Stat(h); }
  Status Truncate(uint32_t h, uint64_t size) override { return inner_->Truncate(h, size); }
  Status Close(uint32_t h) override { return inner_->Close(h); }
  Status Remove(const std::string& name) override { return inner_->Remove(name); }
  void StartReadInto(uint32_t h, uint64_t off, std::span<uint8_t> out,
                     WriteCompletion done) override {
    inner_->StartReadInto(h, off, out, [this, done = std::move(done)](Status status) {
      threads.push_back(std::this_thread::get_id());
      done(std::move(status));
    });
  }
  void StartWrite(uint32_t h, uint64_t off, std::span<const uint8_t> data,
                  WriteCompletion done) override {
    inner_->StartWrite(h, off, data, std::move(done));
  }
  uint32_t max_in_flight() const override { return inner_->max_in_flight(); }
  uint32_t current_window() const override { return inner_->current_window(); }
  size_t Poll() override { return inner_->Poll(); }
  void Drain() override { inner_->Drain(); }

  std::vector<std::thread::id> threads;  // one read at a time in this test

 private:
  AgentTransport* inner_;
};

TEST(ClientReactorTest, LoneReadOnAnIdleStripeIsDrivenByItsWaiter) {
  auto agents = StartAgents(3);
  std::vector<std::unique_ptr<UdpTransport>> transports;
  std::vector<std::unique_ptr<CompletionThreadTap>> taps;
  std::vector<AgentTransport*> raw;
  TransferPlan plan;
  plan.object_name = "lone";
  plan.stripe.num_agents = 3;
  plan.stripe.stripe_unit = KiB(16);
  for (uint32_t i = 0; i < 3; ++i) {
    transports.push_back(
        std::make_unique<UdpTransport>(agents[i]->server.port(), UdpTransport::Options{}));
    taps.push_back(std::make_unique<CompletionThreadTap>(transports.back().get()));
    raw.push_back(taps.back().get());
    plan.agent_ids.push_back(i);
  }
  ObjectDirectory directory;
  auto file = SwiftFile::Create(plan, raw, &directory, DistributionAgent::Options{});
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  std::vector<uint8_t> data = Pattern(KiB(96), 5);
  ASSERT_TRUE((*file)->PWrite(0, data).ok());

  const uint64_t wake_writes = CounterValue("swift_udp_client_wake_writes_total");
  const uint64_t wakeups = CounterValue("swift_udp_client_reactor_wakeups_total");
  std::vector<uint8_t> out(KiB(4));
  ASSERT_TRUE((*file)->PRead(KiB(20), out).ok());
  EXPECT_EQ(out, std::vector<uint8_t>(data.begin() + KiB(20), data.begin() + KiB(24)));
  EXPECT_EQ(CounterValue("swift_udp_client_wake_writes_total"), wake_writes);
  // The waiter's own poll returns are counted like the reactor thread's.
  EXPECT_GE(CounterValue("swift_udp_client_reactor_wakeups_total"), wakeups + 1);
  // Offset 20 KiB lives in stripe unit 1, on column 1.
  ASSERT_EQ(taps[1]->threads.size(), 1u);
  EXPECT_EQ(taps[1]->threads[0], std::this_thread::get_id());
}

TEST(ClientReactorTest, UnwaitedOpRetransmitsAndTimesOut) {
  Agent agent;
  UdpTransport::Options options;
  options.initial_timeout_ms = 5;
  options.max_timeout_ms = 10;
  options.max_retries = 3;
  UdpTransport transport(agent.server.port(), options);
  auto opened = transport.Open("unwaited", kOpenCreate);
  ASSERT_TRUE(opened.ok());
  agent.server.Stop();  // no reply will ever come

  const uint64_t retransmissions = transport.retransmissions();
  std::vector<uint8_t> out(KiB(4));
  StatusSlot slot;
  transport.StartReadInto(opened->handle, 0, out, slot.Completion());
  const std::optional<Status> status = slot.Wait(std::chrono::seconds(30));
  ASSERT_TRUE(status.has_value()) << "the read never completed";
  EXPECT_EQ(status->code(), StatusCode::kUnavailable);
  EXPECT_EQ(transport.retransmissions() - retransmissions,
            static_cast<uint64_t>(options.max_retries));
  EXPECT_NE(slot.thread(), std::this_thread::get_id());
}

TEST(ClientReactorTest, WaitersOnTwoStripesBothComplete) {
  auto agents = StartAgents(3);
  Stripe a(agents, 3, "stripe-a");
  Stripe b(agents, 3, "stripe-b");
  const std::vector<uint8_t> data_a = Pattern(KiB(96), 11);
  const std::vector<uint8_t> data_b = Pattern(KiB(96), 12);
  ASSERT_TRUE(a.file->PWrite(0, data_a).ok());
  ASSERT_TRUE(b.file->PWrite(0, data_b).ok());

  // Both threads start together and read one 4 KiB unit at a time, so the
  // driver role passes between them (and the reactor thread) thousands of
  // times; a lost wake-up at a hand-off would hang one of them.
  constexpr int kReads = 500;
  std::latch start(2);
  auto reader = [&start](Stripe& stripe, const std::vector<uint8_t>& data, int* mismatches) {
    std::vector<uint8_t> out(KiB(4));
    start.arrive_and_wait();
    for (int i = 0; i < kReads; ++i) {
      const uint64_t offset = static_cast<uint64_t>(i % 24) * KiB(4);
      if (!stripe.file->PRead(offset, out).ok() ||
          !std::equal(out.begin(), out.end(), data.begin() + static_cast<ptrdiff_t>(offset))) {
        ++*mismatches;
      }
    }
  };
  int bad_a = 0;
  int bad_b = 0;
  std::thread ta(reader, std::ref(a), std::cref(data_a), &bad_a);
  std::thread tb(reader, std::ref(b), std::cref(data_b), &bad_b);
  ta.join();
  tb.join();
  EXPECT_EQ(bad_a, 0);
  EXPECT_EQ(bad_b, 0);
}

TEST(ClientReactorTest, ConcurrentOpsOnTwoChannelsNeverCrossDeliver) {
  Agent first;
  Agent second;
  UdpTransport one(first.server.port(), UdpTransport::Options{});
  UdpTransport two(second.server.port(), UdpTransport::Options{});
  // The same object name and handle space on both agents, different bytes.
  auto h1 = one.Open("same", kOpenCreate);
  auto h2 = two.Open("same", kOpenCreate);
  ASSERT_TRUE(h1.ok() && h2.ok());
  const std::vector<uint8_t> d1 = Pattern(KiB(32), 21);
  const std::vector<uint8_t> d2 = Pattern(KiB(32), 22);
  ASSERT_TRUE(one.Write(h1->handle, 0, d1).ok());
  ASSERT_TRUE(two.Write(h2->handle, 0, d2).ok());

  constexpr int kReads = 64;
  std::vector<std::vector<uint8_t>> out(2 * kReads, std::vector<uint8_t>(KiB(32)));
  std::vector<StatusSlot> slots(2 * kReads);
  for (int i = 0; i < kReads; ++i) {
    one.StartReadInto(h1->handle, 0, out[2 * i], slots[2 * i].Completion());
    two.StartReadInto(h2->handle, 0, out[2 * i + 1], slots[2 * i + 1].Completion());
  }
  for (int i = 0; i < 2 * kReads; ++i) {
    const std::optional<Status> status = slots[i].Wait(std::chrono::seconds(30));
    ASSERT_TRUE(status.has_value() && status->ok()) << "read " << i;
    EXPECT_EQ(out[i], i % 2 == 0 ? d1 : d2) << "read " << i;
  }
}

TEST(ClientReactorTest, DestroyingATransportAbortsItsOps) {
  Agent silent;
  Agent live;
  UdpTransport::Options slow;
  slow.initial_timeout_ms = 10'000;  // nothing retries or times out by itself
  slow.max_timeout_ms = 10'000;
  auto doomed = std::make_unique<UdpTransport>(silent.server.port(), slow);
  auto opened = doomed->Open("doomed", kOpenCreate);
  ASSERT_TRUE(opened.ok());
  silent.server.Stop();

  constexpr int kReads = 4;
  std::vector<std::vector<uint8_t>> out(kReads, std::vector<uint8_t>(KiB(4)));
  std::vector<StatusSlot> slots(kReads);
  for (int i = 0; i < kReads; ++i) {
    doomed->StartReadInto(opened->handle, 0, out[i], slots[i].Completion());
  }
  doomed.reset();
  for (int i = 0; i < kReads; ++i) {
    const std::optional<Status> status = slots[i].Wait(std::chrono::seconds(0));
    ASSERT_TRUE(status.has_value()) << "read " << i << " outlived its transport";
    EXPECT_EQ(status->code(), StatusCode::kUnavailable);
  }

  // The reactor itself carries on for every other channel.
  UdpTransport survivor(live.server.port(), UdpTransport::Options{});
  auto handle = survivor.Open("after", kOpenCreate);
  ASSERT_TRUE(handle.ok());
  const std::vector<uint8_t> data = Pattern(KiB(8), 31);
  ASSERT_TRUE(survivor.Write(handle->handle, 0, data).ok());
  auto back = survivor.Read(handle->handle, 0, data.size());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, data);
}

// ------------------------------------------------- small batches, driven

constexpr const char* kKicks = "swift_udp_client_reactor_kicks_total";
constexpr const char* kWakeWrites = "swift_udp_client_wake_writes_total";

// Client reactors in the process: one per core, at most four. Channels are
// dealt over them round-robin, so transports made one after another sit on
// different reactors when there are two or more.
size_t ReactorPool() { return std::clamp<size_t>(std::thread::hardware_concurrency(), 1, 4); }

// One storage agent's column: a UDP transport behind a completion-thread
// tap, with `bytes` written at offset 0 of an open file.
struct Column {
  Column(Agent& agent, const std::vector<uint8_t>& bytes, UdpTransport::Options options = {})
      : transport(agent.server.port(), options), tap(&transport) {
    auto opened = transport.Open("column", kOpenCreate);
    EXPECT_TRUE(opened.ok()) << opened.status().ToString();
    handle = opened.ok() ? opened->handle : 0;
    EXPECT_TRUE(transport.Write(handle, 0, bytes).ok());
  }
  UdpTransport transport;
  CompletionThreadTap tap;
  uint32_t handle = 0;
};

// Reads the start of `column`'s file into `out` as one op of `batch`.
void SubmitRead(OpBatch& batch, uint32_t index, Column& column, std::span<uint8_t> out) {
  batch.Submit(index, [&column, out](AgentTransport* transport,
                                     DistributionAgent::Completion done) {
    transport->StartReadInto(column.handle, 0, out, std::move(done));
  });
}

void ExpectAllOk(const std::vector<Status>& statuses) {
  for (const Status& status : statuses) {
    EXPECT_TRUE(status.ok()) << status.ToString();
  }
}

TEST(ClientReactorTest, SmallBatchOnTwoIdleReactorsIsDrivenByItsWaiter) {
  if (ReactorPool() < 2) {
    GTEST_SKIP() << "needs two client reactors (two cores)";
  }
  auto agents = StartAgents(2);
  const std::vector<uint8_t> d0 = Pattern(KiB(4), 41);
  const std::vector<uint8_t> d1 = Pattern(KiB(4), 42);
  Column a(*agents[0], d0);
  Column b(*agents[1], d1);
  DistributionAgent distribution({&a.tap, &b.tap});
  std::vector<uint8_t> out0(KiB(4));
  std::vector<uint8_t> out1(KiB(4));

  const uint64_t kicks = CounterValue(kKicks);
  const uint64_t wake_writes = CounterValue(kWakeWrites);
  {
    OpBatch batch(&distribution);
    SubmitRead(batch, 0, a, out0);
    SubmitRead(batch, 1, b, out1);
    ExpectAllOk(batch.Wait());
  }
  EXPECT_EQ(out0, d0);
  EXPECT_EQ(out1, d1);
  // Neither op went to a reactor thread.
  EXPECT_EQ(CounterValue(kKicks), kicks);
  EXPECT_EQ(CounterValue(kWakeWrites), wake_writes);
  ASSERT_EQ(a.tap.threads.size(), 1u);
  ASSERT_EQ(b.tap.threads.size(), 1u);
  EXPECT_EQ(a.tap.threads[0], std::this_thread::get_id());
  EXPECT_EQ(b.tap.threads[0], std::this_thread::get_id());
}

TEST(ClientReactorTest, SmallBatchFallsBackWhenAnotherThreadDrivesOneReactor) {
  const size_t pool = ReactorPool();
  if (pool < 2) {
    GTEST_SKIP() << "needs two client reactors (two cores)";
  }
  auto agents = StartAgents(2);
  Agent silent;
  const std::vector<uint8_t> d0 = Pattern(KiB(4), 43);
  const std::vector<uint8_t> d1 = Pattern(KiB(4), 44);
  // a and b on two reactors; `busy` dealt round to a's.
  Column a(*agents[0], d0);
  Column b(*agents[1], d1);
  std::vector<std::unique_ptr<UdpTransport>> fillers;
  for (size_t i = 2; i < pool; ++i) {
    fillers.push_back(std::make_unique<UdpTransport>(agents[0]->server.port(),
                                                     UdpTransport::Options{}));
  }
  UdpTransport::Options slow;
  slow.initial_timeout_ms = 10'000;  // the busy op lasts until its transport goes
  slow.max_timeout_ms = 10'000;
  std::vector<uint8_t> never(KiB(4));
  StatusSlot aborted;
  auto busy = std::make_unique<UdpTransport>(silent.server.port(), slow);
  auto busy_handle = busy->Open("busy", kOpenCreate);
  ASSERT_TRUE(busy_handle.ok());
  silent.server.Stop();
  DistributionAgent distribution({&a.tap, &b.tap});
  std::vector<uint8_t> out0(KiB(4));
  std::vector<uint8_t> out1(KiB(4));
  {
    OpBatch batch(&distribution);
    SubmitRead(batch, 0, a, out0);
    SubmitRead(batch, 1, b, out1);
    // Both ops are held for this thread. A second op on a's reactor, from
    // outside any PollScope, kicks its thread, which starts both and then
    // blocks in poll for a reply that never comes.
    const uint64_t sent = busy->datagrams_sent();
    busy->StartReadInto(busy_handle->handle, 0, never, aborted.Completion());
    while (busy->datagrams_sent() == sent) {
      std::this_thread::yield();
    }
    ExpectAllOk(batch.Wait());
  }
  EXPECT_EQ(out0, d0);
  EXPECT_EQ(out1, d1);
  // a's op ran where it was started: on its reactor's thread.
  ASSERT_EQ(a.tap.threads.size(), 1u);
  EXPECT_NE(a.tap.threads[0], std::this_thread::get_id());
  ASSERT_EQ(b.tap.threads.size(), 1u);
  busy.reset();
  const std::optional<Status> status = aborted.Wait(std::chrono::seconds(0));
  ASSERT_TRUE(status.has_value()) << "the busy read outlived its transport";
  EXPECT_EQ(status->code(), StatusCode::kUnavailable);
}

TEST(ClientReactorTest, TwoOpsOfABatchOnOneReactorGoToItsThread) {
  Agent agent;
  const std::vector<uint8_t> data = Pattern(KiB(4), 45);
  Column a(agent, data);
  DistributionAgent distribution({&a.tap});
  std::vector<uint8_t> out0(KiB(4));
  std::vector<uint8_t> out1(KiB(4));

  const uint64_t kicks = CounterValue(kKicks);
  {
    OpBatch batch(&distribution);
    SubmitRead(batch, 0, a, out0);
    SubmitRead(batch, 0, a, out1);
    ExpectAllOk(batch.Wait());
  }
  EXPECT_EQ(out0, data);
  EXPECT_EQ(out1, data);
  EXPECT_GE(CounterValue(kKicks), kicks + 1);
  ASSERT_EQ(a.tap.threads.size(), 2u);
  EXPECT_NE(a.tap.threads[0], std::this_thread::get_id());
  EXPECT_NE(a.tap.threads[1], std::this_thread::get_id());
}

TEST(ClientReactorTest, TimedWaitReleasesEveryHeldOp) {
  auto agents = StartAgents(2);
  const std::vector<uint8_t> d0 = Pattern(KiB(4), 46);
  const std::vector<uint8_t> d1 = Pattern(KiB(4), 47);
  Column a(*agents[0], d0);
  Column b(*agents[1], d1);
  DistributionAgent distribution({&a.tap, &b.tap});
  std::vector<uint8_t> out0(KiB(4));
  std::vector<uint8_t> out1(KiB(4));
  {
    OpBatch batch(&distribution);
    SubmitRead(batch, 0, a, out0);
    SubmitRead(batch, 1, b, out1);
    // The hedged-read loop's wait: it cannot drive and keep its timeout, so
    // the reactor threads run both ops.
    EXPECT_TRUE(batch.WaitFor(std::chrono::seconds(30)));
    ExpectAllOk(batch.Wait());
  }
  EXPECT_EQ(out0, d0);
  EXPECT_EQ(out1, d1);
  ASSERT_EQ(a.tap.threads.size(), 1u);
  ASSERT_EQ(b.tap.threads.size(), 1u);
  EXPECT_NE(a.tap.threads[0], std::this_thread::get_id());
  EXPECT_NE(b.tap.threads[0], std::this_thread::get_id());
}

TEST(ClientReactorTest, TransportsDestroyedRightAfterADrivenBatchLeaveNothingBehind) {
  auto agents = StartAgents(3);
  const std::vector<uint8_t> d0 = Pattern(KiB(4), 48);
  const std::vector<uint8_t> d1 = Pattern(KiB(4), 49);
  for (int round = 0; round < 8; ++round) {
    auto a = std::make_unique<Column>(*agents[0], d0);
    auto b = std::make_unique<Column>(*agents[1], d1);
    std::vector<uint8_t> out0(KiB(4));
    std::vector<uint8_t> out1(KiB(4));
    {
      DistributionAgent distribution({&a->tap, &b->tap});
      OpBatch batch(&distribution);
      SubmitRead(batch, 0, *a, out0);
      SubmitRead(batch, 1, *b, out1);
      ExpectAllOk(batch.Wait());
    }
    a.reset();
    b.reset();
    EXPECT_EQ(out0, d0);
    EXPECT_EQ(out1, d1);
  }
  // The reactors carry on for every other channel.
  UdpTransport survivor(agents[2]->server.port(), UdpTransport::Options{});
  auto handle = survivor.Open("after", kOpenCreate);
  ASSERT_TRUE(handle.ok());
  ASSERT_TRUE(survivor.Write(handle->handle, 0, d0).ok());
  auto back = survivor.Read(handle->handle, 0, d0.size());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, d0);
}

// Random partial-row writes (and reads) on an XOR(3+1) stripe over UDP,
// checked byte for byte against a model. Two threads, each on its own stripe
// over the same agents, so the waiters' small batches contend for the
// reactors: driving passes between them and the reactor threads.
TEST(ClientReactorTest, PartialRowWritesMatchAReferenceModel) {
  auto agents = StartAgents(4);
  constexpr uint64_t kUnit = KiB(16);
  constexpr uint64_t kBytes = 8 * 3 * kUnit;  // eight rows
  auto writer = [&agents](uint64_t seed, int* mismatches) {
    std::vector<std::unique_ptr<UdpTransport>> transports;
    std::vector<AgentTransport*> raw;
    TransferPlan plan;
    plan.object_name = "model" + std::to_string(seed);
    plan.stripe.num_agents = 4;
    plan.stripe.stripe_unit = kUnit;
    plan.stripe.parity = ParityMode::kRotating;
    for (uint32_t i = 0; i < 4; ++i) {
      transports.push_back(
          std::make_unique<UdpTransport>(agents[i]->server.port(), UdpTransport::Options{}));
      raw.push_back(transports.back().get());
      plan.agent_ids.push_back(i);
    }
    ObjectDirectory directory;
    auto file = SwiftFile::Create(plan, raw, &directory, DistributionAgent::Options{});
    if (!file.ok()) {
      ++*mismatches;
      return;
    }
    std::vector<uint8_t> model = Pattern(kBytes, seed);
    if (!(*file)->PWrite(0, model).ok()) {
      ++*mismatches;
      return;
    }
    Rng rng(seed);
    std::vector<uint8_t> out;
    for (int i = 0; i < 150; ++i) {
      // Mostly 4 KiB writes inside one unit, some spanning units and rows.
      const uint64_t length =
          i % 4 == 0 ? static_cast<uint64_t>(rng.UniformInt(1, 3 * kUnit)) : KiB(4);
      const uint64_t offset = static_cast<uint64_t>(rng.UniformInt(0, kBytes - length));
      const std::vector<uint8_t> bytes = Pattern(length, seed * 1000 + i);
      if (!(*file)->PWrite(offset, bytes).ok()) {
        ++*mismatches;
        continue;
      }
      std::copy(bytes.begin(), bytes.end(), model.begin() + static_cast<ptrdiff_t>(offset));
      const uint64_t at = static_cast<uint64_t>(rng.UniformInt(0, kBytes - KiB(4)));
      out.assign(KiB(4), 0);
      if (!(*file)->PRead(at, out).ok() ||
          !std::equal(out.begin(), out.end(), model.begin() + static_cast<ptrdiff_t>(at))) {
        ++*mismatches;
      }
    }
    out.assign(kBytes, 0);
    if (!(*file)->PRead(0, out).ok() || out != model) {
      ++*mismatches;
    }
  };
  int bad_a = 0;
  int bad_b = 0;
  std::thread ta(writer, 61, &bad_a);
  std::thread tb(writer, 62, &bad_b);
  ta.join();
  tb.join();
  EXPECT_EQ(bad_a, 0);
  EXPECT_EQ(bad_b, 0);
}

}  // namespace
}  // namespace swift
