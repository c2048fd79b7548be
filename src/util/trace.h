// Tracing: the per-thread flight recorder (PR 2) plus the distributed span
// layer built on top of it.
//
// Flight recorder: per-thread lock-free ring buffers of trace events, merged
// chronologically on read. Each event is (steady timestamp, kind, request id,
// small argument) — keyed by the UDP transport's request id so a dump after a
// fault reconstructs which ops started, retried, timed out, completed, or
// failed, in order, across every thread. Events additionally carry the
// process's trace node id and the recording thread's shard tag, so a merged
// dump from a 4-shard agent attributes each event even when two shards reuse
// the same request id.
//
// Recording is wait-free for the owning thread: a thread writes only its own
// ring, publishing each slot with a seqlock-style sequence word. Readers
// (Snapshot/Dump) take the registration mutex to walk the rings but read the
// slots lock-free, dropping any slot the owner overwrote mid-read. Rings are
// bounded (kRingCapacity events per thread); old events are overwritten.
//
// Span layer: a request that fans out across shards and nodes is stitched
// together by a TraceContext — (trace_id, parent_span_id, sampled) — carried
// in the protocol header. Each hop records a Span (bounded per-stage timeline
// namespaced by node/shard/request id) into the process-wide SpanStore, whose
// retention rings double as the tail-sampling buffer: every traced request is
// recorded, and spans slower than the moving p99 of root latency (or matching
// the 1-in-N head sample) are marked retained. TRACE protocol ops pull a
// node's recent spans so `swift_cli trace` can merge one causal timeline.

#ifndef SWIFT_SRC_UTIL_TRACE_H_
#define SWIFT_SRC_UTIL_TRACE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "src/util/status.h"

namespace swift {

enum class TraceEventKind : uint8_t {
  kOpStart = 1,    // op submitted; arg = op tag (transport-specific)
  kOpRetry = 2,    // a datagram for the op was retransmitted; arg = timeout round
  kOpTimeout = 3,  // retry budget exhausted; arg = timeout rounds used
  kOpComplete = 4, // op finished OK; arg = latency in microseconds (saturated)
  kOpFail = 5,     // op finished with an error; arg = status code
};

const char* TraceEventKindName(TraceEventKind kind);

struct TraceEvent {
  uint64_t timestamp_ns = 0;  // steady ns since process trace epoch
  uint32_t request_id = 0;
  uint32_t arg = 0;
  uint32_t node = 0;   // recording process's trace node id (0 = client)
  uint32_t shard = 0;  // recording thread's shard tag (0 = unsharded)
  TraceEventKind kind = TraceEventKind::kOpStart;
};

class FlightRecorder {
 public:
  static constexpr size_t kRingCapacity = 4096;  // per thread, power of two

  static FlightRecorder& Global();

  // Wait-free on the calling thread (after its first call, which registers
  // the thread's ring). Events are stamped with TraceNodeId() and the
  // calling thread's shard tag (SetThreadTraceShard).
  void Record(TraceEventKind kind, uint32_t request_id, uint32_t arg = 0);

  // All currently-readable events across every thread, merged in timestamp
  // order. Weakly consistent while writers are active.
  std::vector<TraceEvent> Snapshot() const;

  // Human-readable chronological dump, one event per line:
  //   "  +0.001234s OP_RETRY req=17 arg=2"
  // with " node=N"/" shard=S" appended when nonzero.
  std::string Dump() const;

  // Steady time on the same epoch as TraceEvent::timestamp_ns, so callers
  // can take a cut point and filter Snapshot() to events after it.
  static uint64_t NowNs();

 private:
  class Ring;

  FlightRecorder() = default;
  Ring* RingForThisThread();

  mutable std::mutex mutex_;
  std::vector<std::shared_ptr<Ring>> rings_;
};

// --- trace identity -------------------------------------------------------

// Process-wide trace node id, stamped into every span and flight-recorder
// event this process records. Daemons set it to their well-known port at
// startup; the default 0 denotes "client process".
void SetTraceNodeId(uint32_t node);
uint32_t TraceNodeId();

// Per-thread shard tag for flight-recorder events (and server spans). Each
// shard loop thread of a sharded agent sets it once at thread start.
void SetThreadTraceShard(uint32_t shard);
uint32_t ThreadTraceShard();

// --- trace context --------------------------------------------------------

// Sampling flag carried in TraceContext::flags.
inline constexpr uint32_t kTraceFlagSampled = 1u << 0;

// The 16 bytes of causal identity a message carries across the wire.
// trace_id == 0 means "no trace" — untraced messages are encoded without the
// header extension and are byte-identical to the pre-trace wire format.
struct TraceContext {
  uint64_t trace_id = 0;
  uint32_t parent_span_id = 0;
  uint32_t flags = 0;

  bool present() const { return trace_id != 0; }
  bool sampled() const { return (flags & kTraceFlagSampled) != 0; }
};

// Ambient context for the calling thread. Ops capture it at submission so a
// fan-out (worker pools, reactor threads) inherits the submitting request's
// identity.
TraceContext CurrentTraceContext();
void SetCurrentTraceContext(const TraceContext& context);

// When an op queued by one thread is started later (on a worker pool, or on
// the thread that frees its window slot): the time it was queued
// (FlightRecorder::NowNs), else 0. A transport op's span starts there, so
// the wait counts as client_queue time instead of an unattributed gap
// before the first op.
uint64_t CurrentOpQueuedNs();
void SetCurrentOpQueuedNs(uint64_t queued_ns);

// RAII: installs `context` (and the op's queue time, if any) for the current
// scope, restoring the previous ambient values on exit.
class ScopedTraceContext {
 public:
  explicit ScopedTraceContext(const TraceContext& context, uint64_t queued_ns = 0)
      : saved_(CurrentTraceContext()), saved_queued_ns_(CurrentOpQueuedNs()) {
    SetCurrentTraceContext(context);
    SetCurrentOpQueuedNs(queued_ns);
  }
  ~ScopedTraceContext() {
    SetCurrentTraceContext(saved_);
    SetCurrentOpQueuedNs(saved_queued_ns_);
  }
  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

 private:
  TraceContext saved_;
  uint64_t saved_queued_ns_;
};

// --- sampling policy ------------------------------------------------------

enum class TraceMode : uint8_t {
  kOff = 0,      // no contexts created, no spans recorded (bench baseline)
  kSampled = 1,  // default: every root measured (root histogram feeds the
                 // moving-p99 tail threshold; slow roots are tail-promoted
                 // into the ring, alone), but only 1-in-N head-sampled
                 // traces materialize per-op spans and ride the wire
  kAll = 2,      // every root sampled: full per-op detail, 100% retention
};

void SetTraceMode(TraceMode mode);
TraceMode GetTraceMode();

// Head-sampling period under TraceMode::kSampled.
inline constexpr uint32_t kTraceHeadSampleEvery = 16;

// Fresh identifiers. NewTraceId is unique per process run (process-random
// base + counter); NextSpanId is process-unique. Neither returns 0.
uint64_t NewTraceId();
uint32_t NextSpanId();

// New root context per the current mode: kOff → empty (not present);
// kSampled → fresh trace, head-sampled 1-in-N; kAll → fresh trace, sampled.
TraceContext NewRootContext();

// --- span model -----------------------------------------------------------

// The per-hop stage taxonomy (DESIGN.md §14). Stage durations are what the
// timeline attributes client-observed latency to.
enum class SpanStage : uint8_t {
  kClientQueue = 1,  // submit → reactor pickup (client window wait + inbox)
  kSendFlush = 2,    // reactor pickup → send batch flushed to the kernel
  kWire = 3,         // flush → completion (network + remote, from the client)
  kRecvBatch = 4,    // datagram kernel receive → server processing start
  kService = 5,      // server-side request handling (excl. store)
  kStore = 6,        // backing-store read/write
  kParity = 7,       // client-side parity compute/fold
  kReply = 8,        // server handling done → replies flushed
  kRetransmit = 9,   // one retransmitted datagram (arg = timeout round)
  kCcGate = 10,      // congestion gate: send pacing / window admission delay
                     // (arg = paced bytes)
  kReadAhead = 11,   // a read waiting on, and copying out, ops a previous
                     // read started (sequential read-ahead)
};

const char* SpanStageName(SpanStage stage);

struct SpanEvent {
  SpanStage stage = SpanStage::kService;
  uint64_t at_ns = 0;   // stage start, recording node's trace epoch
  uint64_t dur_ns = 0;
  uint32_t arg = 0;     // stage-specific: retry round, byte count, ...
};

struct Span {
  uint64_t trace_id = 0;
  uint32_t span_id = 0;
  uint32_t parent_span_id = 0;  // 0 = root
  uint32_t node = 0;            // recording process (0 = client)
  uint32_t shard = 0;
  uint32_t request_id = 0;      // transport/request id on that node, 0 = n/a
  uint8_t op = 0;               // MessageType of the request, 0 for roots
  uint32_t status = 0;          // StatusCode at completion (0 = OK)
  bool sampled = false;         // head-sampled, mode=all, or tail-promoted
  uint64_t start_ns = 0;        // recording node's trace epoch
  uint64_t end_ns = 0;
  std::string label;            // human tag for roots ("pread", "put", ...)
  std::vector<SpanEvent> events;

  uint64_t duration_ns() const { return end_ns >= start_ns ? end_ns - start_ns : 0; }
};

// Stage time a client call spends on its own thread outside any op span —
// e.g. waking up after its batch's last op completed on a reactor thread.
// Noted on the calling thread; the call's root span takes the events when it
// ends. Capped per thread, so a thread with no root span above never grows.
void NoteRootStage(SpanStage stage, uint64_t start_ns, uint64_t end_ns);
std::vector<SpanEvent> TakeRootStages();

// Process-wide span retention: sharded bounded rings (the rings ARE the
// tail-sampling buffer — every traced request is recorded; "sampling" marks
// which spans a collector should prefer to keep). Submit also feeds the
// per-stage duration histograms (swift_trace_stage_<stage>_us) and, for
// roots, the moving-p99 tail threshold.
class SpanStore {
 public:
  static constexpr size_t kShards = 8;
  static constexpr size_t kRingCapacity = 512;  // spans per shard

  static SpanStore& Global();

  // Records the span (no-op when GetTraceMode() == kOff). Thread-safe.
  void Submit(Span span);

  // Recent spans, every shard, submission order not guaranteed. With a
  // nonzero `trace_filter` only spans of that trace are returned.
  std::vector<Span> Snapshot(uint64_t trace_filter = 0) const;

  // Drops every retained span and resets the tail threshold (tests/bench).
  void Reset();

  // Current tail-promotion threshold (ns); 0 until enough roots were seen.
  uint64_t TailThresholdNs() const;

 private:
  SpanStore() = default;

  struct Shard {
    mutable std::mutex mutex;
    std::vector<Span> ring;  // grows to kRingCapacity, then overwrites
    size_t next = 0;
  };

  Shard shards_[kShards];
  std::atomic<size_t> submit_counter_{0};
  std::atomic<uint64_t> tail_threshold_ns_{0};
};

// Wire codec for TRACE_REPLY payloads (and `swift_cli --trace-out` files):
// a self-contained big-endian stream of spans. ParseSpans expects the whole
// stream (reassemble packetized replies first).
std::vector<uint8_t> SerializeSpans(const std::vector<Span>& spans);
Result<std::vector<Span>> ParseSpans(std::span<const uint8_t> bytes);

}  // namespace swift

#endif  // SWIFT_SRC_UTIL_TRACE_H_
