#include "src/util/trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <random>
#include <utility>

#include "src/util/metrics.h"
#include "src/util/wire_buffer.h"

namespace swift {

namespace {

uint64_t TraceEpochNs() {
  static const uint64_t epoch = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
  return epoch;
}

constexpr uint64_t kTimestampMask = (uint64_t{1} << 56) - 1;

std::atomic<uint32_t> g_trace_node{0};
thread_local uint32_t t_trace_shard = 0;
thread_local TraceContext t_trace_context;
thread_local uint64_t t_op_queued_ns = 0;
thread_local std::vector<SpanEvent> t_root_stages;
constexpr size_t kMaxRootStages = 64;
std::atomic<uint8_t> g_trace_mode{static_cast<uint8_t>(TraceMode::kSampled)};

// SplitMix64: turns a counter into well-mixed ids without a lock.
uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

uint64_t ProcessTraceSeed() {
  static const uint64_t seed = [] {
    std::random_device rd;
    return (static_cast<uint64_t>(rd()) << 32) ^ rd() ^ TraceEpochNs();
  }();
  return seed;
}

}  // namespace

const char* TraceEventKindName(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kOpStart:
      return "OP_START";
    case TraceEventKind::kOpRetry:
      return "OP_RETRY";
    case TraceEventKind::kOpTimeout:
      return "OP_TIMEOUT";
    case TraceEventKind::kOpComplete:
      return "OP_COMPLETE";
    case TraceEventKind::kOpFail:
      return "OP_FAIL";
  }
  return "OP_UNKNOWN";
}

// Single-writer ring. Each slot is published seqlock-style: the owner stores
// seq=0 (invalid), the payload words, then seq=index+1 with release ordering;
// readers load seq (acquire), the payload, then re-check seq and drop the
// slot if it changed underneath them. All slot fields are atomics, so
// concurrent read/overwrite is a data-race-free torn-read drop, not UB.
class FlightRecorder::Ring {
 public:
  void Push(TraceEventKind kind, uint32_t request_id, uint32_t arg, uint32_t node,
            uint32_t shard) {
    const uint64_t index = next_++;  // owner thread only
    Slot& slot = slots_[index & (kRingCapacity - 1)];
    slot.seq.store(0, std::memory_order_release);
    const uint64_t now = FlightRecorder::NowNs();
    slot.time_kind.store((static_cast<uint64_t>(kind) << 56) | (now & kTimestampMask),
                         std::memory_order_relaxed);
    slot.ids.store((static_cast<uint64_t>(request_id) << 32) | arg,
                   std::memory_order_relaxed);
    slot.tag.store((static_cast<uint64_t>(node) << 32) | shard,
                   std::memory_order_relaxed);
    slot.seq.store(index + 1, std::memory_order_release);
  }

  void Collect(std::vector<TraceEvent>& out) const {
    for (const Slot& slot : slots_) {
      const uint64_t seq = slot.seq.load(std::memory_order_acquire);
      if (seq == 0) {
        continue;  // never written, or mid-write
      }
      const uint64_t time_kind = slot.time_kind.load(std::memory_order_acquire);
      const uint64_t ids = slot.ids.load(std::memory_order_acquire);
      const uint64_t tag = slot.tag.load(std::memory_order_acquire);
      if (slot.seq.load(std::memory_order_acquire) != seq) {
        continue;  // overwritten while we were reading
      }
      TraceEvent event;
      event.timestamp_ns = time_kind & kTimestampMask;
      event.kind = static_cast<TraceEventKind>(time_kind >> 56);
      event.request_id = static_cast<uint32_t>(ids >> 32);
      event.arg = static_cast<uint32_t>(ids);
      event.node = static_cast<uint32_t>(tag >> 32);
      event.shard = static_cast<uint32_t>(tag);
      out.push_back(event);
    }
  }

 private:
  struct Slot {
    std::atomic<uint64_t> seq{0};
    std::atomic<uint64_t> time_kind{0};
    std::atomic<uint64_t> ids{0};
    std::atomic<uint64_t> tag{0};  // node << 32 | shard
  };
  Slot slots_[kRingCapacity];
  uint64_t next_ = 0;
};

FlightRecorder& FlightRecorder::Global() {
  static FlightRecorder* recorder = new FlightRecorder();  // never destroyed
  return *recorder;
}

uint64_t FlightRecorder::NowNs() {
  // Fix the epoch before sampling the clock: on the very first call the
  // epoch initializes to a reading taken after `now` would be, and the
  // unsigned subtraction would wrap.
  const uint64_t epoch = TraceEpochNs();
  const uint64_t now = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
  return now - epoch;
}

FlightRecorder::Ring* FlightRecorder::RingForThisThread() {
  // The shared_ptr in rings_ keeps the ring alive past thread exit, so a
  // dump after a worker finished still sees its events.
  thread_local Ring* ring = [this] {
    auto owned = std::make_shared<Ring>();
    Ring* raw = owned.get();
    std::lock_guard<std::mutex> lock(mutex_);
    rings_.push_back(std::move(owned));
    return raw;
  }();
  return ring;
}

void FlightRecorder::Record(TraceEventKind kind, uint32_t request_id, uint32_t arg) {
  RingForThisThread()->Push(kind, request_id, arg, TraceNodeId(), ThreadTraceShard());
}

std::vector<TraceEvent> FlightRecorder::Snapshot() const {
  std::vector<std::shared_ptr<Ring>> rings;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    rings = rings_;
  }
  std::vector<TraceEvent> events;
  for (const auto& ring : rings) {
    ring->Collect(events);
  }
  std::sort(events.begin(), events.end(), [](const TraceEvent& a, const TraceEvent& b) {
    return a.timestamp_ns < b.timestamp_ns;
  });
  return events;
}

std::string FlightRecorder::Dump() const {
  const std::vector<TraceEvent> events = Snapshot();
  std::string out = "flight-recorder: " + std::to_string(events.size()) + " events\n";
  char line[160];
  for (const TraceEvent& event : events) {
    int n = std::snprintf(line, sizeof(line), "  +%.6fs %s req=%" PRIu32 " arg=%" PRIu32,
                          static_cast<double>(event.timestamp_ns) / 1e9,
                          TraceEventKindName(event.kind), event.request_id, event.arg);
    if (event.node != 0 && n > 0 && static_cast<size_t>(n) < sizeof(line)) {
      n += std::snprintf(line + n, sizeof(line) - n, " node=%" PRIu32, event.node);
    }
    if (event.shard != 0 && n > 0 && static_cast<size_t>(n) < sizeof(line)) {
      n += std::snprintf(line + n, sizeof(line) - n, " shard=%" PRIu32, event.shard);
    }
    out += line;
    out += '\n';
  }
  return out;
}

// --- trace identity -------------------------------------------------------

void SetTraceNodeId(uint32_t node) { g_trace_node.store(node, std::memory_order_relaxed); }

uint32_t TraceNodeId() { return g_trace_node.load(std::memory_order_relaxed); }

void SetThreadTraceShard(uint32_t shard) { t_trace_shard = shard; }

uint32_t ThreadTraceShard() { return t_trace_shard; }

// --- trace context --------------------------------------------------------

TraceContext CurrentTraceContext() { return t_trace_context; }

void SetCurrentTraceContext(const TraceContext& context) { t_trace_context = context; }

uint64_t CurrentOpQueuedNs() { return t_op_queued_ns; }

void SetCurrentOpQueuedNs(uint64_t queued_ns) { t_op_queued_ns = queued_ns; }

void NoteRootStage(SpanStage stage, uint64_t start_ns, uint64_t end_ns) {
  if (end_ns > start_ns && t_root_stages.size() < kMaxRootStages) {
    t_root_stages.push_back(SpanEvent{stage, start_ns, end_ns - start_ns, 0});
  }
}

std::vector<SpanEvent> TakeRootStages() { return std::exchange(t_root_stages, {}); }

// --- sampling policy ------------------------------------------------------

void SetTraceMode(TraceMode mode) {
  g_trace_mode.store(static_cast<uint8_t>(mode), std::memory_order_relaxed);
}

TraceMode GetTraceMode() {
  return static_cast<TraceMode>(g_trace_mode.load(std::memory_order_relaxed));
}

uint64_t NewTraceId() {
  static std::atomic<uint64_t> counter{1};
  const uint64_t id = Mix64(ProcessTraceSeed() + counter.fetch_add(1, std::memory_order_relaxed));
  return id == 0 ? 1 : id;
}

uint32_t NextSpanId() {
  // Seeded per process: parent references cross process boundaries (a server
  // span's parent is a client-side span id), so every node of a trace must
  // draw from a distinct region of the id space or lookups would collide.
  static std::atomic<uint32_t> counter{
      static_cast<uint32_t>(Mix64(ProcessTraceSeed() ^ 0x5350414e)) | 1u};
  uint32_t id = counter.fetch_add(1, std::memory_order_relaxed);
  return id == 0 ? counter.fetch_add(1, std::memory_order_relaxed) : id;
}

TraceContext NewRootContext() {
  const TraceMode mode = GetTraceMode();
  if (mode == TraceMode::kOff) {
    return TraceContext{};
  }
  TraceContext context;
  context.trace_id = NewTraceId();
  context.parent_span_id = 0;
  if (mode == TraceMode::kAll) {
    context.flags = kTraceFlagSampled;
  } else {
    static std::atomic<uint32_t> head_counter{0};
    if (head_counter.fetch_add(1, std::memory_order_relaxed) % kTraceHeadSampleEvery == 0) {
      context.flags = kTraceFlagSampled;
    }
  }
  return context;
}

// --- span model -----------------------------------------------------------

const char* SpanStageName(SpanStage stage) {
  switch (stage) {
    case SpanStage::kClientQueue:
      return "client_queue";
    case SpanStage::kSendFlush:
      return "send_flush";
    case SpanStage::kWire:
      return "wire";
    case SpanStage::kRecvBatch:
      return "recv_batch";
    case SpanStage::kService:
      return "service";
    case SpanStage::kStore:
      return "store";
    case SpanStage::kParity:
      return "parity";
    case SpanStage::kReply:
      return "reply";
    case SpanStage::kRetransmit:
      return "retransmit";
    case SpanStage::kCcGate:
      return "cc_gate";
  }
  return "unknown";
}

namespace {

// Stage histograms, resolved once; index = SpanStage value.
HistogramMetric* StageHistogram(SpanStage stage) {
  static HistogramMetric* histograms[16] = {};
  static std::once_flag once;
  std::call_once(once, [] {
    auto& registry = MetricRegistry::Global();
    for (uint8_t s = 1; s <= static_cast<uint8_t>(SpanStage::kCcGate); ++s) {
      const std::string name =
          std::string("swift_trace_stage_") + SpanStageName(static_cast<SpanStage>(s)) + "_us";
      histograms[s] = registry.GetHistogram(name);
    }
  });
  const uint8_t index = static_cast<uint8_t>(stage);
  return index <= static_cast<uint8_t>(SpanStage::kCcGate) ? histograms[index] : nullptr;
}

}  // namespace

SpanStore& SpanStore::Global() {
  static SpanStore* store = new SpanStore();  // never destroyed
  return *store;
}

void SpanStore::Submit(Span span) {
  if (GetTraceMode() == TraceMode::kOff || span.trace_id == 0) {
    return;
  }
  static Counter* submitted = MetricRegistry::Global().GetCounter("swift_trace_spans_total");
  static Counter* head_retained =
      MetricRegistry::Global().GetCounter("swift_trace_retained_head_total");
  static Counter* tail_retained =
      MetricRegistry::Global().GetCounter("swift_trace_retained_tail_total");
  static HistogramMetric* root_latency =
      MetricRegistry::Global().GetHistogram("swift_trace_root_us");
  submitted->Increment();

  for (const SpanEvent& event : span.events) {
    if (HistogramMetric* h = StageHistogram(event.stage)) {
      h->Record(static_cast<double>(event.dur_ns) / 1e3);
    }
  }

  if (span.parent_span_id == 0) {
    const uint64_t duration = span.duration_ns();
    root_latency->Record(static_cast<double>(duration) / 1e3);
    // Tail policy: promote roots slower than the moving p99. The threshold
    // is refreshed every 64 roots from the histogram, so promotion costs one
    // relaxed load on the common path.
    const size_t n = submit_counter_.fetch_add(1, std::memory_order_relaxed);
    if (n % 64 == 0) {
      const double p99_us = root_latency->Snap().P99();
      tail_threshold_ns_.store(static_cast<uint64_t>(p99_us * 1e3),
                               std::memory_order_relaxed);
    }
    const uint64_t threshold = tail_threshold_ns_.load(std::memory_order_relaxed);
    if (span.sampled) {
      head_retained->Increment();
    } else if (threshold != 0 && duration > threshold) {
      span.sampled = true;  // tail promotion: slower than the moving p99
      tail_retained->Increment();
    }
  }

  // Sampled mode retains only sampled spans in the ring: head-sampled traces
  // in full, plus tail-promoted slow roots (recorded alone — their children
  // were never materialized). Everything above (histograms, counters, tail
  // threshold) already saw the span, so measurement stays always-on.
  if (!span.sampled && GetTraceMode() == TraceMode::kSampled) {
    return;
  }

  const size_t shard_index =
      (Mix64(span.trace_id ^ (static_cast<uint64_t>(span.span_id) << 1))) % kShards;
  Shard& shard = shards_[shard_index];
  std::lock_guard<std::mutex> lock(shard.mutex);
  if (shard.ring.size() < kRingCapacity) {
    shard.ring.push_back(std::move(span));
  } else {
    shard.ring[shard.next % kRingCapacity] = std::move(span);
  }
  ++shard.next;
}

std::vector<Span> SpanStore::Snapshot(uint64_t trace_filter) const {
  std::vector<Span> out;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    for (const Span& span : shard.ring) {
      if (trace_filter == 0 || span.trace_id == trace_filter) {
        out.push_back(span);
      }
    }
  }
  std::sort(out.begin(), out.end(), [](const Span& a, const Span& b) {
    return a.start_ns < b.start_ns;
  });
  return out;
}

void SpanStore::Reset() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    shard.ring.clear();
    shard.next = 0;
  }
  submit_counter_.store(0, std::memory_order_relaxed);
  tail_threshold_ns_.store(0, std::memory_order_relaxed);
}

uint64_t SpanStore::TailThresholdNs() const {
  return tail_threshold_ns_.load(std::memory_order_relaxed);
}

// --- span wire codec ------------------------------------------------------

namespace {
constexpr uint8_t kSpanStreamVersion = 1;
}  // namespace

std::vector<uint8_t> SerializeSpans(const std::vector<Span>& spans) {
  WireWriter w;
  w.PutU8(kSpanStreamVersion);
  w.PutU32(static_cast<uint32_t>(spans.size()));
  for (const Span& span : spans) {
    w.PutU64(span.trace_id);
    w.PutU32(span.span_id);
    w.PutU32(span.parent_span_id);
    w.PutU32(span.node);
    w.PutU32(span.shard);
    w.PutU32(span.request_id);
    w.PutU8(span.op);
    w.PutU8(span.sampled ? 1 : 0);
    w.PutU32(span.status);
    w.PutU64(span.start_ns);
    w.PutU64(span.end_ns);
    w.PutString(span.label);
    w.PutU16(static_cast<uint16_t>(std::min<size_t>(span.events.size(), 0xFFFF)));
    size_t emitted = 0;
    for (const SpanEvent& event : span.events) {
      if (emitted++ == 0xFFFF) {
        break;
      }
      w.PutU8(static_cast<uint8_t>(event.stage));
      w.PutU64(event.at_ns);
      w.PutU64(event.dur_ns);
      w.PutU32(event.arg);
    }
  }
  return w.Take();
}

Result<std::vector<Span>> ParseSpans(std::span<const uint8_t> bytes) {
  WireReader r(bytes);
  if (r.GetU8() != kSpanStreamVersion) {
    return InvalidArgumentError("unsupported span stream version");
  }
  const uint32_t count = r.GetU32();
  std::vector<Span> spans;
  for (uint32_t i = 0; i < count && r.ok(); ++i) {
    Span span;
    span.trace_id = r.GetU64();
    span.span_id = r.GetU32();
    span.parent_span_id = r.GetU32();
    span.node = r.GetU32();
    span.shard = r.GetU32();
    span.request_id = r.GetU32();
    span.op = r.GetU8();
    span.sampled = r.GetU8() != 0;
    span.status = r.GetU32();
    span.start_ns = r.GetU64();
    span.end_ns = r.GetU64();
    span.label = r.GetString();
    const uint16_t events = r.GetU16();
    span.events.reserve(events);
    for (uint16_t e = 0; e < events && r.ok(); ++e) {
      SpanEvent event;
      event.stage = static_cast<SpanStage>(r.GetU8());
      event.at_ns = r.GetU64();
      event.dur_ns = r.GetU64();
      event.arg = r.GetU32();
      span.events.push_back(event);
    }
    spans.push_back(std::move(span));
  }
  if (!r.ok()) {
    return InvalidArgumentError("truncated span stream");
  }
  return spans;
}

}  // namespace swift
