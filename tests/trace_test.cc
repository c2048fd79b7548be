// End-to-end distributed tracing: the wire-level trace-context extension
// (compatibility both ways), the SpanStore under concurrency, the span
// codec, packetized STATS/TRACE collection, and the acceptance scenario —
// a lossy striped read whose merged timeline attributes >= 95% of
// client-observed latency to named stages with one trace id spanning every
// retransmit.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "src/agent/backing_store.h"
#include "src/agent/storage_agent.h"
#include "src/agent/udp_agent_server.h"
#include "src/agent/udp_transport.h"
#include "src/core/object_directory.h"
#include "src/core/swift_file.h"
#include "src/core/trace_timeline.h"
#include "src/proto/message.h"
#include "src/util/metrics.h"
#include "src/util/rng.h"
#include "src/util/trace.h"
#include "src/util/units.h"

namespace swift {
namespace {

// Restores the process-global trace mode (tests share one registry).
class ScopedTraceMode {
 public:
  explicit ScopedTraceMode(TraceMode mode) : saved_(GetTraceMode()) {
    SetTraceMode(mode);
  }
  ~ScopedTraceMode() { SetTraceMode(saved_); }

 private:
  TraceMode saved_;
};

std::vector<uint8_t> Pattern(size_t n, uint64_t seed = 1) {
  std::vector<uint8_t> out(n);
  Rng rng(seed);
  for (auto& b : out) {
    b = static_cast<uint8_t>(rng.UniformInt(0, 255));
  }
  return out;
}

// --- wire-level trace context ---------------------------------------------

TEST(TraceWireTest, ContextRoundTripsThroughEncodeDecode) {
  Message m;
  m.type = MessageType::kReadReq;
  m.handle = 7;
  m.request_id = 42;
  m.read_length = 4096;
  m.window = 8;
  m.trace = TraceContext{0x1122334455667788ull, 0xabcd1234u, kTraceFlagSampled};

  auto decoded = Message::Decode(BufferSlice::CopyOf(m.Encode()));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->trace.trace_id, 0x1122334455667788ull);
  EXPECT_EQ(decoded->trace.parent_span_id, 0xabcd1234u);
  EXPECT_TRUE(decoded->trace.sampled());
  EXPECT_EQ(decoded->request_id, 42u);
  EXPECT_EQ(decoded->read_length, 4096u);
}

TEST(TraceWireTest, UntracedMessageHasNoExtensionAndOldFormatDecodes) {
  Message m;
  m.type = MessageType::kStats;
  m.handle = 3;
  m.request_id = 9;

  const std::vector<uint8_t> untraced = m.Encode();
  // Bit 7 of the version byte flags the extension; an untraced message must
  // stay byte-identical to the pre-trace wire format.
  EXPECT_EQ(untraced[2] & 0x80, 0);

  auto decoded = Message::Decode(BufferSlice::CopyOf(untraced));
  ASSERT_TRUE(decoded.ok());
  EXPECT_FALSE(decoded->trace.present());

  m.trace = TraceContext{1, 2, 0};
  const std::vector<uint8_t> traced = m.Encode();
  EXPECT_EQ(traced[2] & 0x80, 0x80);
  EXPECT_EQ(traced.size(), untraced.size() + 18);  // u16 length + 16 bytes
}

TEST(TraceWireTest, LongerFutureExtensionIsSkipped) {
  Message m;
  m.type = MessageType::kStats;
  m.handle = 1;
  m.request_id = 5;
  m.trace = TraceContext{0xfeedfacecafebeefull, 77, kTraceFlagSampled};
  const std::vector<uint8_t> wire = m.Encode();

  // Rebuild the datagram as a newer sender would: same 32-byte fixed header,
  // extension length 20 instead of 16, four trailing bytes we don't know.
  constexpr size_t kFixedHeader = 32;
  std::vector<uint8_t> future(wire.begin(), wire.begin() + kFixedHeader);
  future.push_back(0x00);
  future.push_back(0x14);  // ext_len = 20, big-endian
  future.insert(future.end(), wire.begin() + kFixedHeader + 2,
                wire.begin() + kFixedHeader + 2 + 16);
  future.insert(future.end(), {0xde, 0xad, 0xbe, 0xef});
  future.insert(future.end(), wire.begin() + kFixedHeader + 2 + 16, wire.end());

  auto decoded = Message::Decode(BufferSlice::CopyOf(future));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->trace.trace_id, 0xfeedfacecafebeefull);
  EXPECT_EQ(decoded->trace.parent_span_id, 77u);
  EXPECT_EQ(decoded->request_id, 5u);  // fields after the extension survive
}

// --- span store and codec -------------------------------------------------

Span MakeSpan(uint64_t trace_id, uint32_t span_id, uint32_t parent) {
  Span span;
  span.trace_id = trace_id;
  span.span_id = span_id;
  span.parent_span_id = parent;
  span.node = 4751;
  span.shard = 2;
  span.request_id = 11;
  span.op = static_cast<uint8_t>(MessageType::kReadReq);
  span.sampled = true;
  span.start_ns = 1000;
  span.end_ns = 9000;
  span.label = "pread";
  span.events.push_back(SpanEvent{SpanStage::kService, 2000, 500, 0});
  span.events.push_back(SpanEvent{SpanStage::kStore, 2500, 4000, 3});
  return span;
}

TEST(TraceSpanStoreTest, SerializeParseRoundTrip) {
  std::vector<Span> spans;
  spans.push_back(MakeSpan(0xaaabbb, 1, 0));
  spans.push_back(MakeSpan(0xaaabbb, 2, 1));
  spans[1].label.clear();
  spans[1].sampled = false;

  auto parsed = ParseSpans(SerializeSpans(spans));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->size(), 2u);
  const Span& a = (*parsed)[0];
  EXPECT_EQ(a.trace_id, 0xaaabbbull);
  EXPECT_EQ(a.span_id, 1u);
  EXPECT_EQ(a.node, 4751u);
  EXPECT_EQ(a.shard, 2u);
  EXPECT_EQ(a.label, "pread");
  EXPECT_TRUE(a.sampled);
  ASSERT_EQ(a.events.size(), 2u);
  EXPECT_EQ(a.events[1].stage, SpanStage::kStore);
  EXPECT_EQ(a.events[1].dur_ns, 4000u);
  EXPECT_EQ(a.events[1].arg, 3u);
  EXPECT_FALSE((*parsed)[1].sampled);
}

TEST(TraceSpanStoreTest, ParseRejectsTruncatedStream) {
  std::vector<Span> spans{MakeSpan(1, 1, 0)};
  std::vector<uint8_t> bytes = SerializeSpans(spans);
  bytes.resize(bytes.size() - 3);
  EXPECT_FALSE(ParseSpans(bytes).ok());
}

TEST(TraceSpanStoreTest, SnapshotFiltersByTraceId) {
  ScopedTraceMode mode(TraceMode::kAll);
  SpanStore::Global().Reset();
  SpanStore::Global().Submit(MakeSpan(100, 1, 0));
  SpanStore::Global().Submit(MakeSpan(200, 2, 0));
  SpanStore::Global().Submit(MakeSpan(100, 3, 1));

  EXPECT_EQ(SpanStore::Global().Snapshot().size(), 3u);
  const std::vector<Span> filtered = SpanStore::Global().Snapshot(100);
  ASSERT_EQ(filtered.size(), 2u);
  for (const Span& span : filtered) {
    EXPECT_EQ(span.trace_id, 100u);
  }
  SpanStore::Global().Reset();
}

TEST(TraceSpanStoreTest, SampledModeDropsUnsampledSpansButMeasuresThem) {
  ScopedTraceMode mode(TraceMode::kSampled);
  SpanStore::Global().Reset();
  Counter* submitted = MetricRegistry::Global().GetCounter("swift_trace_spans_total");
  const uint64_t before = submitted->Value();

  Span unsampled = MakeSpan(300, 9, 0);
  unsampled.sampled = false;
  // Keep the root fast so the moving-p99 tail sampler cannot promote it —
  // this test is about the head-sampling drop path.
  unsampled.end_ns = unsampled.start_ns + 10;
  SpanStore::Global().Submit(unsampled);
  Span sampled = MakeSpan(301, 10, 0);
  SpanStore::Global().Submit(sampled);

  EXPECT_EQ(submitted->Value(), before + 2);  // both measured
  const std::vector<Span> kept = SpanStore::Global().Snapshot();
  ASSERT_EQ(kept.size(), 1u);  // only the sampled one retained
  EXPECT_EQ(kept[0].trace_id, 301u);
  SpanStore::Global().Reset();
}

TEST(TraceSpanStoreTest, TailPromotionRetainsSlowUnsampledRoots) {
  // Deterministic tail-sampling check, no timing involved: the spans' start
  // and end stamps are fabricated, so the moving-p99 threshold and the
  // promotion decision depend only on the values below. The threshold
  // refreshes every 64 root submissions; Reset() zeroes the counter, so
  // submitting 65 fast roots guarantees at least one refresh from a
  // histogram that has seen only sub-millisecond durations (plus whatever
  // earlier tests recorded — all far below the slow root used here).
  ScopedTraceMode mode(TraceMode::kSampled);
  SpanStore::Global().Reset();

  for (uint32_t i = 0; i < 65; ++i) {
    Span fast = MakeSpan(5000 + i, i + 1, 0);
    fast.sampled = false;
    fast.end_ns = fast.start_ns + 1000;  // 1 us: never above any p99
    SpanStore::Global().Submit(fast);
  }
  ASSERT_NE(SpanStore::Global().TailThresholdNs(), 0u)
      << "65 roots must have refreshed the tail threshold";

  // Unsampled but absurdly slow (a full minute — no suite records roots
  // anywhere near that): must be tail-promoted into the ring.
  Span slow = MakeSpan(9999, 77, 0);
  slow.sampled = false;
  slow.end_ns = slow.start_ns + 60'000'000'000ULL;
  SpanStore::Global().Submit(slow);

  const std::vector<Span> kept = SpanStore::Global().Snapshot(9999);
  ASSERT_EQ(kept.size(), 1u) << "the slow root must survive sampled mode";
  EXPECT_TRUE(kept[0].sampled) << "promotion must mark the span sampled";

  // An equally-unsampled, near-instant root submitted after the refresh
  // still drops (10 ns — far under any bucketed p99 of 1 us samples).
  Span fast = MakeSpan(10000, 78, 0);
  fast.sampled = false;
  fast.end_ns = fast.start_ns + 10;
  SpanStore::Global().Submit(fast);
  EXPECT_TRUE(SpanStore::Global().Snapshot(10000).empty());
  SpanStore::Global().Reset();
}

TEST(TraceSpanStoreTest, ConcurrentSubmitAndSnapshotAreClean) {
  // Writers on four threads racing a snapshotting reader: tsan-clean, every
  // snapshot internally consistent (this suite runs under ThreadSanitizer in
  // ci.sh). Counts are bounded by the ring, so assert on integrity not totals.
  ScopedTraceMode mode(TraceMode::kAll);
  SpanStore::Global().Reset();
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 2000;
  std::atomic<bool> stop{false};

  std::thread reader([&stop] {
    while (!stop.load(std::memory_order_acquire)) {
      for (const Span& span : SpanStore::Global().Snapshot()) {
        ASSERT_NE(span.trace_id, 0u);
        ASSERT_NE(span.span_id, 0u);
      }
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([w] {
      for (int i = 0; i < kPerWriter; ++i) {
        SpanStore::Global().Submit(
            MakeSpan(1000 + w, static_cast<uint32_t>(w * kPerWriter + i + 1), 0));
      }
    });
  }
  for (auto& t : writers) {
    t.join();
  }
  stop.store(true, std::memory_order_release);
  reader.join();

  const std::vector<Span> final_snapshot = SpanStore::Global().Snapshot();
  EXPECT_GT(final_snapshot.size(), 0u);
  SpanStore::Global().Reset();
}

// --- flight recorder tags -------------------------------------------------

TEST(TraceFlightRecorderTest, DumpCarriesNodeAndShardTags) {
  SetTraceNodeId(4951);
  SetThreadTraceShard(3);
  FlightRecorder::Global().Record(TraceEventKind::kOpStart, 777);
  SetThreadTraceShard(0);
  SetTraceNodeId(0);

  const std::string dump = FlightRecorder::Global().Dump();
  bool found = false;
  for (size_t at = dump.find("req=777"); at != std::string::npos;
       at = dump.find("req=777", at + 1)) {
    const size_t eol = dump.find('\n', at);
    const std::string line = dump.substr(at, eol - at);
    if (line.find("node=4951") != std::string::npos &&
        line.find("shard=3") != std::string::npos) {
      found = true;
      break;
    }
  }
  EXPECT_TRUE(found) << "no line tagged node=4951 shard=3 in:\n" << dump;
}

// --- client-side stage bookkeeping ----------------------------------------

TEST(TraceContextTest, ScopedContextCarriesAndRestoresQueueTime) {
  const TraceContext outer{11, 1, kTraceFlagSampled};
  ScopedTraceContext outer_scope(outer);
  EXPECT_EQ(CurrentOpQueuedNs(), 0u);
  {
    ScopedTraceContext inner({22, 2, kTraceFlagSampled}, 12345);
    EXPECT_EQ(CurrentTraceContext().trace_id, 22u);
    EXPECT_EQ(CurrentOpQueuedNs(), 12345u);
  }
  EXPECT_EQ(CurrentTraceContext().trace_id, 11u);
  EXPECT_EQ(CurrentOpQueuedNs(), 0u);
}

TEST(TraceContextTest, RootStagesAreTakenOnceAndBounded) {
  TakeRootStages();
  NoteRootStage(SpanStage::kClientQueue, 100, 100);  // empty: dropped
  NoteRootStage(SpanStage::kClientQueue, 100, 250);
  std::vector<SpanEvent> taken = TakeRootStages();
  ASSERT_EQ(taken.size(), 1u);
  EXPECT_EQ(taken[0].stage, SpanStage::kClientQueue);
  EXPECT_EQ(taken[0].at_ns, 100u);
  EXPECT_EQ(taken[0].dur_ns, 150u);
  EXPECT_TRUE(TakeRootStages().empty());

  // A thread that never closes a root span must not grow without bound.
  for (uint64_t i = 0; i < 10000; ++i) {
    NoteRootStage(SpanStage::kClientQueue, i, i + 1);
  }
  EXPECT_LE(TakeRootStages().size(), 64u);
}

// --- remote collection and full STATS -------------------------------------

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

TEST(TraceCollectionTest, FullStatsSnapshotArrivesUntruncated) {
  // Inflate the registry well past one 8 KiB datagram: the packetized
  // STATS_REPLY must deliver the whole snapshot (the pre-packetization
  // server clipped it to the first datagram).
  MetricRegistry& registry = MetricRegistry::Global();
  for (int i = 0; i < 300; ++i) {
    registry.GetCounter("swift_test_stats_padding_counter_" + std::to_string(i))
        ->Increment();
  }
  ASSERT_GT(registry.RenderText().size(), static_cast<size_t>(kMaxPacketPayload));

  AgentUnderTest agent(UdpAgentServer::Options{.port = 0, .shards = 2});
  UdpTransport transport(agent.server.port(), UdpTransport::Options{});
  auto opened = transport.Open("stats-full", kOpenCreate);
  ASSERT_TRUE(opened.ok());

  auto stats = transport.FetchStats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GT(stats->size(), static_cast<size_t>(kMaxPacketPayload));
  EXPECT_EQ(stats->find("# truncated"), std::string::npos);
  EXPECT_NE(stats->find("swift_test_stats_padding_counter_299"), std::string::npos);
  EXPECT_NE(stats->find("swift_test_stats_padding_counter_0"), std::string::npos);
}

TEST(TraceCollectionTest, TraceOpPullsSpansFiltered) {
  ScopedTraceMode mode(TraceMode::kAll);
  SpanStore::Global().Reset();
  SpanStore::Global().Submit(MakeSpan(0x501, 21, 0));
  SpanStore::Global().Submit(MakeSpan(0x502, 22, 0));

  AgentUnderTest agent;
  UdpTransport transport(agent.server.port(), UdpTransport::Options{});
  auto opened = transport.Open("trace-pull", kOpenCreate);
  ASSERT_TRUE(opened.ok());

  // In-process agent shares the store, so the pull sees the seeded spans —
  // and must not add spans of its own (introspection is untraced).
  auto all = transport.FetchSpans();
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  size_t seeded = 0;
  for (const Span& span : *all) {
    ASSERT_NE(span.trace_id, 0u);
    seeded += span.trace_id == 0x501 || span.trace_id == 0x502 ? 1 : 0;
  }
  EXPECT_EQ(seeded, 2u);

  auto filtered = transport.FetchSpans(0x501);
  ASSERT_TRUE(filtered.ok());
  ASSERT_EQ(filtered->size(), 1u);
  EXPECT_EQ((*filtered)[0].span_id, 21u);
  SpanStore::Global().Reset();
}

// --- the acceptance scenario ----------------------------------------------

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

TEST(TraceE2eTest, LossyStripedReadYieldsOneAttributedTimeline) {
  // Four lossy sharded agents under a striped read, tracing everything: one
  // trace id must span every retransmit, every server span must parent onto
  // a client span, and the merged timeline must attribute >= 95% of the
  // client-observed latency to named stages.
  ScopedTraceMode mode(TraceMode::kAll);
  SpanStore::Global().Reset();

  std::vector<std::unique_ptr<AgentUnderTest>> agents;
  std::vector<std::unique_ptr<UdpTransport>> transports;
  for (int i = 0; i < 4; ++i) {
    agents.push_back(std::make_unique<AgentUnderTest>(UdpAgentServer::Options{
        .port = 0, .loss_probability = 0.15,
        .loss_seed = static_cast<uint64_t>(i + 1), .shards = 2}));
    UdpTransport::Options options;
    options.loss_probability = 0.15;
    options.loss_seed = 900 + static_cast<uint64_t>(i);
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
  auto file = SwiftFile::Create(PlanFor("traced-lossy", 4), raw, &directory);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  const std::vector<uint8_t> data = Pattern(KiB(256), 77);
  ASSERT_TRUE((*file)->Write(data).ok());

  SpanStore::Global().Reset();  // isolate the read's spans
  std::vector<uint8_t> read_back(KiB(256));
  ASSERT_TRUE((*file)->PRead(0, read_back).ok());
  EXPECT_EQ(read_back, data);
  const uint64_t trace_id = (*file)->last_trace_id();
  ASSERT_NE(trace_id, 0u);

  uint64_t retransmissions = 0;
  for (auto& t : transports) {
    retransmissions += t->retransmissions();
  }
  EXPECT_GT(retransmissions, 0u) << "loss injection produced no retransmits";

  // Server session loops aggregate one span per request and ship it on the
  // next idle poll (200 ms); wait for that flush before merging.
  std::vector<Span> spans;
  for (int waited_ms = 0; waited_ms < 5000; waited_ms += 50) {
    spans = SpanStore::Global().Snapshot(trace_id);
    bool have_server_span = false;
    for (const Span& span : spans) {
      have_server_span = have_server_span || span.shard != 0;
    }
    if (have_server_span) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  ASSERT_GT(spans.size(), 1u);

  size_t roots = 0;
  size_t server_spans = 0;
  size_t retransmit_events = 0;
  for (const Span& span : spans) {
    roots += span.parent_span_id == 0 ? 1 : 0;
    for (const SpanEvent& event : span.events) {
      retransmit_events += event.stage == SpanStage::kRetransmit ? 1 : 0;
    }
    if (span.shard != 0) {
      // A server-side span: its parent must be a client-side (shard-untagged)
      // span of the same trace — remote work is never orphaned.
      ++server_spans;
      bool parent_is_client = false;
      for (const Span& candidate : spans) {
        if (candidate.span_id == span.parent_span_id && candidate.shard == 0) {
          parent_is_client = true;
          break;
        }
      }
      EXPECT_TRUE(parent_is_client)
          << "server span " << span.span_id << " has no local parent";
    }
  }
  EXPECT_EQ(roots, 1u) << "retransmits must not start new traces";
  EXPECT_GT(server_spans, 0u);
  EXPECT_GT(retransmit_events, 0u)
      << "retransmits happened but no span recorded them";

  auto timeline = BuildTraceTimeline(spans, trace_id);
  ASSERT_TRUE(timeline.ok()) << timeline.status().ToString();
  EXPECT_EQ(timeline->trace_id, trace_id);
  EXPECT_GE(timeline->attributed_pct, 95.0) << timeline->text;
  EXPECT_NE(timeline->text.find("per-hop latency breakdown"), std::string::npos);
  SpanStore::Global().Reset();
}

TEST(TraceE2eTest, TimelineWithoutRootReportsActionableError) {
  Span orphan = MakeSpan(0x700, 50, 49);  // parent never collected
  auto timeline = BuildTraceTimeline({orphan}, 0x700);
  ASSERT_FALSE(timeline.ok());
  EXPECT_EQ(timeline.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(timeline.status().ToString().find("trace-out"), std::string::npos);
}

}  // namespace
}  // namespace swift
