#include "src/agent/udp_transport.h"

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/proto/packetizer.h"
#include "src/util/logging.h"
#include "src/util/metrics.h"
#include "src/util/trace.h"
#include "src/util/wire_buffer.h"

namespace swift {

namespace {

using Clock = std::chrono::steady_clock;

Status StatusFromWire(uint32_t code, const std::string& context) {
  if (code == 0) {
    return OkStatus();
  }
  return Status(static_cast<StatusCode>(code), "agent error during " + context);
}

// Registry metrics shared by every UdpTransport in the process (pointers are
// stable, so they are resolved once and cached).
struct ClientMetrics {
  Counter* datagrams_sent;
  Counter* retransmissions;
  Counter* backoff_resets;
  Counter* reactor_wakeups;
  Counter* wake_writes;
  Counter* overloaded_replies;
  Counter* deadline_failures;
  Counter* cancelled_reads;
  HistogramMetric* rpc_us;
  HistogramMetric* read_us;
  HistogramMetric* write_us;
};

const ClientMetrics& Metrics() {
  static const ClientMetrics metrics = [] {
    MetricRegistry& registry = MetricRegistry::Global();
    return ClientMetrics{
        registry.GetCounter("swift_udp_client_datagrams_sent_total"),
        registry.GetCounter("swift_udp_client_retransmissions_total"),
        registry.GetCounter("swift_udp_client_backoff_resets_total"),
        registry.GetCounter("swift_udp_client_reactor_wakeups_total"),
        registry.GetCounter("swift_udp_client_wake_writes_total"),
        registry.GetCounter("swift_udp_client_overloaded_replies_total"),
        registry.GetCounter("swift_udp_client_deadline_failures_total"),
        registry.GetCounter("swift_udp_client_cancelled_reads_total"),
        registry.GetHistogram("swift_udp_client_rpc_latency_us"),
        registry.GetHistogram("swift_udp_client_read_latency_us"),
        registry.GetHistogram("swift_udp_client_write_latency_us"),
    };
  }();
  return metrics;
}

uint32_t SaturateU32(double value) {
  if (value <= 0) {
    return 0;
  }
  if (value >= static_cast<double>(UINT32_MAX)) {
    return UINT32_MAX;
  }
  return static_cast<uint32_t>(value);
}

// Congestion-control metrics, shared by every transport in the process
// (per-channel visibility comes from the _port_<agent> gauges resolved per
// reactor; with several transports on one port the gauge is last-writer-wins,
// which is fine for a live dashboard).
struct CcProcessMetrics {
  Gauge* cwnd;
  Gauge* srtt_us;
  HistogramMetric* cwnd_samples;
  HistogramMetric* srtt_samples_us;
  HistogramMetric* pacing_delay_us;
  Counter* rtt_samples;
  Counter* rtt_samples_karn_dropped;
  Counter* cwnd_decreases;
  Counter* late_datagrams;
  Counter* duplicate_datagrams;
  Counter* paced_datagrams;
};

const CcProcessMetrics& CcMetrics() {
  static const CcProcessMetrics metrics = [] {
    MetricRegistry& registry = MetricRegistry::Global();
    return CcProcessMetrics{
        registry.GetGauge("swift_cc_cwnd"),
        registry.GetGauge("swift_cc_srtt_us"),
        registry.GetHistogram("swift_cc_cwnd_samples"),
        registry.GetHistogram("swift_cc_srtt_samples_us"),
        registry.GetHistogram("swift_cc_pacing_delay_us"),
        registry.GetCounter("swift_cc_rtt_samples_total"),
        registry.GetCounter("swift_cc_rtt_samples_karn_dropped_total"),
        registry.GetCounter("swift_cc_cwnd_decreases_total"),
        registry.GetCounter("swift_cc_late_datagrams_total"),
        registry.GetCounter("swift_cc_duplicate_datagrams_total"),
        registry.GetCounter("swift_cc_paced_datagrams_total"),
    };
  }();
  return metrics;
}

// Microseconds on the flight-recorder's steady epoch — the clock behind
// every wire timestamp this process emits. Never 0, so a stamped field is
// distinguishable from an absent one.
uint64_t NowUs() { return std::max<uint64_t>(1, FlightRecorder::NowNs() / 1000); }

// Overwrites the 8 tx-timestamp bytes (big-endian, kTxTimestampHeaderOffset)
// of an encoded header. Encode reserved them via the placeholder stamp; the
// flush loop patches the real send instant here so paced or re-queued
// datagrams carry honest times.
void PatchTxTimestamp(std::vector<uint8_t>& head, uint64_t ts_us) {
  for (size_t i = 0; i < 8; ++i) {
    head[kTxTimestampHeaderOffset + i] =
        static_cast<uint8_t>(ts_us >> (56 - 8 * i));
  }
}

// Same trick for the deadline budget (big-endian, kDeadlineHeaderOffset):
// the budget remaining is a function of the send instant, so a datagram
// held by the pacer or re-queued must be re-stamped at flush.
void PatchDeadline(std::vector<uint8_t>& head, uint64_t budget_us) {
  for (size_t i = 0; i < 8; ++i) {
    head[kDeadlineHeaderOffset + i] =
        static_cast<uint8_t>(budget_us >> (56 - 8 * i));
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Reactor: one thread multiplexing every session socket of this transport.
//
// Ownership and threading rules:
//  * Sessions are shared_ptr so a socket outlives concurrent removal — the
//    loop snapshots the session list each iteration and polls the snapshot.
//  * `active_` (request_id → op) is touched only by the reactor thread.
//    Callers hand ops over through `inbox_` under `mutex_`.
//  * Every datagram is SENT from the reactor thread (the loss-injection RNG
//    inside UdpSocket is not thread-safe), except the pre-registration
//    socket setup done in Open/Remove before the session is visible.
//  * Sends are coalesced: an op's Send() queues the encoded datagram on the
//    reactor's pending list, and everything queued in one dispatch round —
//    opening bursts, NACK resends, timeout retransmits, across all ops of a
//    session — leaves in one sendmmsg(2) flush right before the next poll.
//    A datagram the kernel refuses mid-batch is treated as lost on the wire
//    (the retry machinery recovers, identical failure semantics); only a
//    closed socket fails Send() synchronously.
//  * An op's completion runs exactly once, on the reactor thread with
//    `mutex_` released, after which the op is destroyed. Completions may
//    start new ops, on this transport too (the distribution agent starts a
//    column's next queued op from the completion that frees its slot; such
//    ops wait in the inbox for the next loop turn, with no pipe wake), but
//    must not block on it (sync wrappers wait on their own condition
//    variable, which the completion signals — that is fine).
// ---------------------------------------------------------------------------

namespace {
// The reactor whose loop runs on this thread, if any.
thread_local const void* t_running_reactor = nullptr;
}  // namespace

class UdpTransport::Reactor {
 public:
  struct Session {
    UdpSocket socket;
    UdpEndpoint agent;
  };
  using SessionPtr = std::shared_ptr<Session>;

  // One outstanding protocol exchange: a state machine advanced by incoming
  // datagrams and timeout expirations.
  class PendingOp {
   public:
    // The constructor runs on the submitting thread: it captures the caller's
    // ambient trace context (becoming a child span), or — when the submit is
    // untraced and tracing is on — starts a fresh root trace for this op.
    // Introspection ops (stats/trace pulls) pass traced=false so observing
    // the system does not add spans to it.
    PendingOp(Reactor* reactor, SessionPtr session, uint32_t request_id, bool traced = true)
        : reactor_(reactor),
          session_(std::move(session)),
          request_id_(request_id),
          timeout_ms_(reactor_->InitialTimeoutMs()) {
      FlightRecorder::Global().Record(TraceEventKind::kOpStart, request_id_);
      // Introspection ops (traced=false) are exempt from op deadlines:
      // observing the system should never be shed or deadline-failed.
      if (traced && reactor_->OpDeadlineMs() > 0) {
        has_op_deadline_ = true;
        op_deadline_ = started_ + std::chrono::milliseconds(reactor_->OpDeadlineMs());
      }
      if (traced && GetTraceMode() != TraceMode::kOff) {
        TraceContext parent = CurrentTraceContext();
        if (!parent.present()) {
          parent = NewRootContext();
        }
        // Only sampled traces materialize per-op spans and ride the wire.
        // Unsampled roots still got measured by their creator (root latency
        // histogram, tail threshold), but skip per-op detail — that skip is
        // what keeps sampled mode within the ≤5% overhead budget.
        if (parent.sampled()) {
          span_.trace_id = parent.trace_id;
          span_.parent_span_id = parent.parent_span_id;
          span_.span_id = NextSpanId();
          span_.node = TraceNodeId();
          span_.request_id = request_id_;
          span_.sampled = parent.sampled();
          const uint64_t queued_ns = CurrentOpQueuedNs();
          span_.start_ns = queued_ns != 0 ? queued_ns : FlightRecorder::NowNs();
          trace_flags_ = parent.flags;
        }
      }
    }
    virtual ~PendingOp() = default;

    uint32_t request_id() const { return request_id_; }
    const Session* session() const { return session_.get(); }
    Clock::time_point deadline() const { return deadline_; }

    // Data ops (reads/writes) count against the congestion window and queue
    // at the reactor's window gate under delay mode; control RPCs and
    // introspection pulls bypass it.
    virtual bool is_data_op() const { return false; }
    // Payload bytes this op moves (0 for control RPCs) — feeds the channel's
    // bytes-per-op estimate, which the pacer's delivery-rate model uses.
    virtual uint64_t data_bytes() const { return 0; }
    // Karn's rule: once any datagram of this op was retransmitted, its
    // replies are ambiguous and never feed the RTT estimator.
    bool retransmitted() const { return retransmitted_; }
    bool counted_in_window() const { return counted_in_window_; }
    void set_counted_in_window() { counted_in_window_ = true; }

    // Window gate entered (reactor picked the op up but cwnd was full).
    void NoteGateEntered() { gate_enter_ns_ = FlightRecorder::NowNs(); }
    // Window gate cleared: attribute the wait to the cc_gate stage and move
    // the send-flush baseline forward so stages stay non-overlapping.
    void NoteGateExit() {
      if (gate_enter_ns_ == 0) {
        return;
      }
      const uint64_t now_ns = FlightRecorder::NowNs();
      if (span_.trace_id != 0 && now_ns > gate_enter_ns_) {
        span_.events.push_back(
            SpanEvent{SpanStage::kCcGate, gate_enter_ns_, now_ns - gate_enter_ns_, 0});
      }
      pickup_ns_ = now_ns;
      gate_enter_ns_ = 0;
    }
    // A datagram of this op was held by the pacer: attribute the hold.
    void NotePaced(uint64_t start_ns, uint64_t dur_ns, uint32_t bytes) {
      if (span_.trace_id != 0 && dur_ns > 0) {
        span_.events.push_back(SpanEvent{SpanStage::kCcGate, start_ns, dur_ns, bytes});
      }
    }

    // Reactor thread, just before Start(): closes the client-queue stage
    // (submit → reactor pickup).
    void NotePickup() {
      if (span_.trace_id == 0) {
        return;
      }
      pickup_ns_ = FlightRecorder::NowNs();
      span_.events.push_back(
          SpanEvent{SpanStage::kClientQueue, span_.start_ns, pickup_ns_ - span_.start_ns, 0});
    }

    // Reactor thread, right after the flush that carried this op's opening
    // burst to the kernel: closes the send-flush stage. The wire stage opens
    // here and is closed by RecordDone.
    void NoteFlushed(uint64_t flushed_ns) {
      if (span_.trace_id == 0) {
        return;
      }
      flush_ns_ = flushed_ns;
      span_.events.push_back(
          SpanEvent{SpanStage::kSendFlush, pickup_ns_, flushed_ns - pickup_ns_, 0});
    }

    // Sends the op's opening datagram burst. Returns true when the op
    // finished immediately (send failure → completion already invoked).
    virtual bool Start() = 0;
    // A datagram carrying this op's request id arrived. True when finished.
    virtual bool OnMessage(const Message& m) = 0;
    // The retransmission deadline expired. True when finished.
    virtual bool OnTimeout() = 0;
    // Force-completes with `status` (shutdown, session teardown).
    virtual void Abort(Status status) = 0;

   protected:
    UdpTransport* transport() const { return reactor_->transport_; }

    // Context stamped into this op's outgoing messages: the op's own span is
    // the remote side's parent.
    TraceContext message_context() const {
      return TraceContext{span_.trace_id, span_.span_id, trace_flags_};
    }
    void Stamp(Message& m) const { m.trace = message_context(); }
    // Marks the message for timestamp-echo sampling (when the channel runs
    // with CC enabled): a nonzero placeholder makes Encode reserve the
    // extension bytes; the flush loop patches the real send instant.
    void StampTs(Message& m) const {
      if (reactor_->timestamps_enabled()) {
        m.tx_ts_us = 1;
      }
    }
    // Marks the message as deadline-bearing: a nonzero placeholder makes
    // Encode reserve the extension bytes; the flush loop patches the budget
    // remaining at the true send instant.
    void StampDeadline(Message& m) const {
      if (has_op_deadline_) {
        m.deadline_us = 1;
      }
    }

    // True once this op's wall-clock budget is spent — checked before every
    // retransmission decision so the retry schedule never rides past it.
    bool PastDeadline() const {
      return has_op_deadline_ && Clock::now() >= op_deadline_;
    }
    // The op's terminal status at the deadline. kTimedOut, like an exhausted
    // retry budget: callers above (parity reconstruction, SwiftFile) already
    // treat it as a per-op failure, not a poisoned channel.
    Status DeadlineFailure(const char* what) {
      transport()->ops_deadline_failed_.fetch_add(1, std::memory_order_relaxed);
      Metrics().deadline_failures->Increment();
      return TimedOutError(std::string(what) + ": op deadline of " +
                           std::to_string(reactor_->OpDeadlineMs()) + "ms exceeded");
    }

    // A kOverloaded reply arrived: the server shed this request (its queue
    // outlived the budget, or it is load-shedding). Backpressure, not wire
    // loss — re-arm with decorrelated jitter and let the timeout path
    // retransmit, with the loss signal for that retransmit suppressed so the
    // congestion window never charges a shed to the network. Returns false
    // when the op must fail instead (deadline passed, or the shed would
    // outlive the retry budget).
    bool NoteOverloaded() {
      transport()->ops_overloaded_.fetch_add(1, std::memory_order_relaxed);
      Metrics().overloaded_replies->Increment();
      if (PastDeadline() || reactor_->policy_.Exhausted(timeouts_ + 1)) {
        return false;
      }
      overload_deferred_ = true;
      Backoff();
      ArmDeadline();
      return true;
    }
    // Terminal status when NoteOverloaded says stop.
    Status OverloadFailure(const char* what) {
      if (PastDeadline()) {
        return DeadlineFailure(what);
      }
      return OverloadedError(std::string(what) +
                             ": agent still shedding load after the retry budget");
    }

    Status Send(const Message& m) {
      if (!session_->socket.valid()) {
        return UnavailableError("socket closed");
      }
      transport()->datagrams_sent_.fetch_add(1, std::memory_order_relaxed);
      Metrics().datagrams_sent->Increment();
      // Header and payload stay a two-part datagram: the payload slice is
      // queued where it sits and handed to sendmmsg(2) as its own iovec at
      // flush time — retransmissions re-serialize only the fixed header,
      // never the data bytes.
      Message::Encoded parts = m.EncodeParts();
      reactor_->QueueSend(session_,
                          OutgoingDatagram{session_->agent, std::move(parts.header),
                                           std::move(parts.payload)},
                          request_id_, m.has_timestamps(), m.has_deadline(), op_deadline_);
      return OkStatus();
    }
    Status Resend(const Message& m) {
      retransmitted_ = true;  // Karn: this op's replies are now ambiguous
      transport()->retransmissions_.fetch_add(1, std::memory_order_relaxed);
      Metrics().retransmissions->Increment();
      FlightRecorder::Global().Record(TraceEventKind::kOpRetry, request_id_,
                                      static_cast<uint32_t>(timeouts_));
      // A retransmit is a child event of the op's span — the same trace id
      // rides the re-sent datagram; no new trace begins.
      if (span_.trace_id != 0) {
        span_.events.push_back(SpanEvent{SpanStage::kRetransmit, FlightRecorder::NowNs(), 0,
                                         static_cast<uint32_t>(timeouts_)});
      }
      return Send(m);
    }
    // Arms the retransmission timer, clamped to the op deadline so the poll
    // loop wakes AT the deadline — an expired budget surfaces as a prompt
    // OnTimeout → PastDeadline failure, not at the next scheduled retry.
    void ArmDeadline() {
      deadline_ = Clock::now() + std::chrono::milliseconds(timeout_ms_);
      if (has_op_deadline_ && op_deadline_ < deadline_) {
        deadline_ = op_deadline_;
      }
    }
    void Backoff() { timeout_ms_ = reactor_->NextTimeoutMs(timeout_ms_, data_bytes()); }
    // Counts one more consecutive timeout against the shared budget.
    bool BudgetExhausted() {
      if (reactor_->policy_.Exhausted(++timeouts_)) {
        FlightRecorder::Global().Record(TraceEventKind::kOpTimeout, request_id_,
                                        static_cast<uint32_t>(timeouts_));
        return true;
      }
      return false;
    }
    // Progress: forget consecutive timeouts; optionally restart the backoff
    // schedule too (reads do, writes keep the current timeout on a NACK).
    void NoteProgress(bool reset_backoff) {
      timeouts_ = 0;
      if (reset_backoff) {
        const int fresh = reactor_->InitialTimeoutMs(data_bytes());
        if (timeout_ms_ != fresh) {
          Metrics().backoff_resets->Increment();
        }
        timeout_ms_ = fresh;
      }
    }
    // One more timeout-triggered retry: op accounting plus the channel's
    // loss signal (a retry timeout is the delay controller's loss event) —
    // unless the retransmit was scheduled by an overload shed, which is
    // server backpressure, not congestion.
    void CountRetry() {
      transport()->ops_retried_.fetch_add(1, std::memory_order_relaxed);
      if (overload_deferred_) {
        overload_deferred_ = false;
      } else {
        reactor_->NoteLoss();
      }
    }

    // Registry + flight-recorder bookkeeping shared by every op's Finish:
    // records the op latency and a completion (arg = latency µs) or failure
    // (arg = status code) trace event, then closes and submits the op's span
    // (the wire stage spans flush → completion, so from the client's side it
    // covers the network plus everything the remote did).
    void RecordDone(HistogramMetric* latency_us, bool ok, StatusCode code, MessageType op) {
      const double us = std::chrono::duration_cast<std::chrono::duration<double, std::micro>>(
                            Clock::now() - started_)
                            .count();
      latency_us->Record(us);
      if (ok) {
        FlightRecorder::Global().Record(TraceEventKind::kOpComplete, request_id_, SaturateU32(us));
      } else {
        FlightRecorder::Global().Record(TraceEventKind::kOpFail, request_id_,
                                        static_cast<uint32_t>(code));
      }
      if (span_.trace_id != 0) {
        span_.end_ns = FlightRecorder::NowNs();
        span_.op = static_cast<uint8_t>(op);
        span_.status = static_cast<uint32_t>(code);
        if (flush_ns_ != 0 && span_.end_ns > flush_ns_) {
          span_.events.push_back(
              SpanEvent{SpanStage::kWire, flush_ns_, span_.end_ns - flush_ns_, 0});
        }
        SpanStore::Global().Submit(std::move(span_));
        span_ = Span{};  // RecordDone runs once, but keep reuse harmless
      }
    }

    Reactor* reactor_;
    SessionPtr session_;
    uint32_t request_id_;
    int timeout_ms_;
    int timeouts_ = 0;  // consecutive timeouts since last progress
    bool retransmitted_ = false;     // any datagram of this op re-sent (Karn)
    bool counted_in_window_ = false; // holds one congestion-window slot
    bool has_op_deadline_ = false;   // wall-clock budget armed (op_deadline_ms)
    bool overload_deferred_ = false; // next retransmit is backpressure, not loss
    uint64_t gate_enter_ns_ = 0;     // nonzero while parked at the window gate
    Clock::time_point deadline_{};
    Clock::time_point op_deadline_{};  // absolute end of the op's budget
    Clock::time_point started_ = Clock::now();

    // Span state. trace_id == 0 ⇒ this op is untraced and every hook above
    // is a no-op. Mutated on the submitting thread (constructor) and the
    // reactor thread afterwards; the inbox mutex orders the handoff.
    Span span_;
    uint32_t trace_flags_ = 0;
    uint64_t pickup_ns_ = 0;
    uint64_t flush_ns_ = 0;
  };

  // Control RPC (OPEN/STAT/TRUNCATE/CLOSE/REMOVE): one request datagram,
  // retransmitted whole on timeout, completed by the first wanted reply.
  class RpcOp : public PendingOp {
   public:
    using Completion = std::function<void(Result<Message>)>;

    RpcOp(Reactor* reactor, SessionPtr session, Message request,
          std::vector<MessageType> want_types, Completion done)
        : PendingOp(reactor, std::move(session), request.request_id),
          request_(std::move(request)),
          want_types_(std::move(want_types)),
          done_(std::move(done)) {
      Stamp(request_);
      StampTs(request_);
      StampDeadline(request_);
    }

    bool Start() override {
      Status sent = Send(request_);
      if (!sent.ok()) {
        return Finish(std::move(sent));
      }
      ArmDeadline();
      return false;
    }

    bool OnMessage(const Message& m) override {
      if (m.type == MessageType::kError) {
        if (static_cast<StatusCode>(m.status_code) == StatusCode::kOverloaded) {
          if (NoteOverloaded()) {
            return false;  // backed off; the timeout path retransmits
          }
          return Finish(OverloadFailure(MessageTypeName(request_.type)));
        }
        return Finish(StatusFromWire(m.status_code, MessageTypeName(request_.type)));
      }
      for (MessageType want : want_types_) {
        if (m.type == want) {
          return Finish(m);
        }
      }
      return false;  // unexpected type: keep waiting
    }

    bool OnTimeout() override {
      if (PastDeadline()) {
        return Finish(DeadlineFailure(MessageTypeName(request_.type)));
      }
      if (BudgetExhausted()) {
        return Finish(UnavailableError("storage agent unreachable (no reply to " +
                                       std::string(MessageTypeName(request_.type)) + ")"));
      }
      CountRetry();
      Backoff();
      Status sent = Resend(request_);
      if (!sent.ok()) {
        return Finish(std::move(sent));
      }
      ArmDeadline();
      return false;
    }

    void Abort(Status status) override { Finish(std::move(status)); }

   private:
    bool Finish(Result<Message> result) {
      transport()->AccountOpDone(result.ok());
      RecordDone(Metrics().rpc_us, result.ok(), result.status().code(), request_.type);
      done_(std::move(result));
      return true;
    }

    Message request_;
    std::vector<MessageType> want_types_;
    Completion done_;
  };

  // Client-driven windowed read (§3.1): request packets one at a time, keep
  // up to `read_window` requests outstanding, re-request whatever is still
  // missing on timeout. No acknowledgements.
  //
  // Two completion modes share the state machine. Slice mode owns a fresh
  // arena and hands it off as an immutable BufferSlice; into mode places
  // packets straight into a caller-provided span (the striping layer points
  // this at the user's destination, so the datagram payload's one placement
  // copy is the only user-space copy on the whole read path).
  class ReadOp : public PendingOp {
   public:
    // Slice mode.
    ReadOp(Reactor* reactor, SessionPtr session, uint32_t request_id, uint32_t handle,
           uint64_t offset, uint64_t length, uint32_t total, ReadCompletion done)
        : PendingOp(reactor, std::move(session), request_id),
          handle_(handle),
          offset_(offset),
          length_(length),
          total_(total),
          reassembler_(request_id, offset, length, total),
          slice_done_(std::move(done)) {}

    // Into mode. `dst` must stay valid until the completion runs.
    ReadOp(Reactor* reactor, SessionPtr session, uint32_t request_id, uint32_t handle,
           uint64_t offset, std::span<uint8_t> dst, uint32_t total, WriteCompletion done)
        : PendingOp(reactor, std::move(session), request_id),
          handle_(handle),
          offset_(offset),
          length_(dst.size()),
          total_(total),
          reassembler_(request_id, offset, dst, total),
          into_done_(std::move(done)) {
      // The base ctor sized the timeout for a zero-byte RPC (data_bytes() is
      // not virtual-dispatchable there); re-size it for this op's payload.
      timeout_ms_ = reactor->InitialTimeoutMs(length_);
    }

    bool is_data_op() const override { return true; }
    uint64_t data_bytes() const override { return length_; }

    bool Start() override {
      if (!TopUp()) {
        return true;  // send failure: already finished
      }
      ArmDeadline();
      return false;
    }

    bool OnMessage(const Message& m) override {
      if (m.type == MessageType::kError) {
        if (static_cast<StatusCode>(m.status_code) == StatusCode::kOverloaded) {
          if (NoteOverloaded()) {
            return false;
          }
          return Finish(OverloadFailure("READ"));
        }
        return Finish(StatusFromWire(m.status_code, "READ"));
      }
      if (m.type != MessageType::kData) {
        return false;
      }
      if (outstanding_.find(m.seq) == outstanding_.end()) {
        // A packet we already placed: the original and a re-requested copy
        // both arrived (reordering/duplication), not fresh progress and not
        // loss — count it and move on.
        reactor_->NoteDuplicate();
        return false;
      }
      NoteProgress(/*reset_backoff=*/true);
      if (reassembler_.Accept(m).ok()) {
        outstanding_.erase(m.seq);
      }
      if (reassembler_.complete()) {
        transport()->bytes_read_.fetch_add(length_, std::memory_order_relaxed);
        return Finish(OkStatus());
      }
      if (!TopUp()) {
        return true;
      }
      ArmDeadline();
      return false;
    }

    bool OnTimeout() override {
      if (PastDeadline()) {
        return Finish(DeadlineFailure("READ"));
      }
      if (BudgetExhausted()) {
        return Finish(UnavailableError("storage agent unreachable during read"));
      }
      CountRetry();
      // Resubmit every outstanding packet request.
      for (uint32_t seq : outstanding_) {
        Status sent = Resend(RequestFor(seq));
        if (!sent.ok()) {
          return Finish(std::move(sent));
        }
      }
      Backoff();
      ArmDeadline();
      return false;
    }

    void Abort(Status status) override { Finish(std::move(status)); }

   private:
    Message RequestFor(uint32_t seq) const {
      Message m;
      m.type = MessageType::kReadReq;
      m.handle = handle_;
      m.request_id = request_id_;
      m.seq = static_cast<uint16_t>(seq);
      m.total = static_cast<uint16_t>(total_);
      m.offset = offset_ + static_cast<uint64_t>(seq) * kMaxPacketPayload;
      m.read_length = static_cast<uint32_t>(std::min<uint64_t>(
          kMaxPacketPayload, length_ - static_cast<uint64_t>(seq) * kMaxPacketPayload));
      m.window = static_cast<uint16_t>(reactor_->read_window_);
      Stamp(m);
      StampTs(m);
      StampDeadline(m);
      return m;
    }

    // Keeps the request window full. False when a send failed (finished).
    bool TopUp() {
      while (outstanding_.size() < reactor_->read_window_ && next_seq_ < total_) {
        Status sent = Send(RequestFor(next_seq_));
        if (!sent.ok()) {
          Finish(std::move(sent));
          return false;
        }
        outstanding_.insert(next_seq_);
        ++next_seq_;
      }
      return true;
    }

    // An OK status means the reassembler completed; anything else is the
    // op's failure. Dispatches to whichever completion mode was armed.
    bool Finish(Status status) {
      transport()->AccountOpDone(status.ok());
      RecordDone(Metrics().read_us, status.ok(), status.code(), MessageType::kReadReq);
      if (slice_done_) {
        if (status.ok()) {
          slice_done_(reassembler_.TakeSlice());
        } else {
          slice_done_(std::move(status));
        }
      } else {
        into_done_(std::move(status));
      }
      return true;
    }

    uint32_t handle_;
    uint64_t offset_;
    uint64_t length_;
    uint32_t total_;
    Reassembler reassembler_;
    std::set<uint32_t> outstanding_;
    uint32_t next_seq_ = 0;
    ReadCompletion slice_done_;    // slice mode
    WriteCompletion into_done_;    // into mode
  };

  // Announce + stream + query write (§3.1): blast every packet, then let the
  // agent ACK a complete request or NACK the missing seqs.
  class WriteOp : public PendingOp {
   public:
    WriteOp(Reactor* reactor, SessionPtr session, uint32_t request_id, uint32_t handle,
            uint64_t offset, std::span<const uint8_t> data, WriteCompletion done)
        : PendingOp(reactor, std::move(session), request_id),
          bytes_(data.size()),
          packets_(SplitIntoPackets(MessageType::kWriteData, handle, request_id, offset, data)),
          done_(std::move(done)) {
      // Re-size the base ctor's zero-byte timeout for this op's payload.
      timeout_ms_ = reactor->InitialTimeoutMs(bytes_);
      announce_.type = MessageType::kWriteReq;
      announce_.handle = handle;
      announce_.request_id = request_id;
      announce_.offset = offset;
      announce_.read_length = static_cast<uint32_t>(data.size());
      announce_.total = static_cast<uint16_t>(packets_.size());
      announce_.window = 0;
      Stamp(announce_);
      StampTs(announce_);
      query_ = announce_;
      query_.window = 1;
      StampDeadline(announce_);
      StampDeadline(query_);
      for (Message& packet : packets_) {
        Stamp(packet);
        StampTs(packet);
        StampDeadline(packet);
      }
    }

    bool is_data_op() const override { return true; }
    uint64_t data_bytes() const override { return bytes_; }

    bool Start() override {
      // "The client sends out the data to be written as fast as it can."
      Status sent = Send(announce_);
      for (size_t i = 0; sent.ok() && i < packets_.size(); ++i) {
        sent = Send(packets_[i]);
      }
      if (!sent.ok()) {
        return Finish(std::move(sent));
      }
      ArmDeadline();
      return false;
    }

    bool OnMessage(const Message& m) override {
      switch (m.type) {
        case MessageType::kWriteAck:
          transport()->bytes_written_.fetch_add(bytes_, std::memory_order_relaxed);
          return Finish(OkStatus());
        case MessageType::kWriteNack: {
          // The agent heard us: the retry counter restarts, but the backoff
          // level is kept — the network is demonstrably lossy right now.
          NoteProgress(/*reset_backoff=*/false);
          Status sent = OkStatus();
          for (uint16_t seq : m.missing_seqs) {
            if (seq < packets_.size()) {
              sent = Resend(packets_[seq]);
              if (!sent.ok()) {
                return Finish(std::move(sent));
              }
            }
          }
          // Query again so a complete request gets acknowledged promptly.
          sent = Send(query_);
          if (!sent.ok()) {
            return Finish(std::move(sent));
          }
          ArmDeadline();
          return false;
        }
        case MessageType::kError:
          if (static_cast<StatusCode>(m.status_code) == StatusCode::kOverloaded) {
            if (NoteOverloaded()) {
              return false;
            }
            return Finish(OverloadFailure("WRITE"));
          }
          return Finish(StatusFromWire(m.status_code, "WRITE"));
        default:
          return false;
      }
    }

    bool OnTimeout() override {
      if (PastDeadline()) {
        return Finish(DeadlineFailure("WRITE"));
      }
      if (BudgetExhausted()) {
        return Finish(UnavailableError("storage agent unreachable during write"));
      }
      CountRetry();
      Backoff();
      // Ask where we stand; the agent answers ACK or NACK(missing).
      Status sent = Resend(query_);
      if (!sent.ok()) {
        return Finish(std::move(sent));
      }
      ArmDeadline();
      return false;
    }

    void Abort(Status status) override { Finish(std::move(status)); }

   private:
    bool Finish(Status status) {
      transport()->AccountOpDone(status.ok());
      RecordDone(Metrics().write_us, status.ok(), status.code(), MessageType::kWriteData);
      done_(std::move(status));
      return true;
    }

    uint64_t bytes_;
    Message announce_;
    Message query_;
    std::vector<Message> packets_;
    WriteCompletion done_;
  };

  // Multi-packet reply collector for the bulk introspection pulls (STATS,
  // TRACE): one request datagram, answered by a packetized reply whose
  // payload is reassembled by (seq, total). A timeout re-sends the request;
  // the server regenerates its snapshot, so if `total` changes the partial
  // collection is discarded and restarted — mixing two renderings would
  // corrupt the stream. Untraced by design (observing must not add spans).
  class CollectOp : public PendingOp {
   public:
    using Completion = std::function<void(Result<std::vector<uint8_t>>)>;

    CollectOp(Reactor* reactor, SessionPtr session, Message request, MessageType reply_type,
              Completion done)
        : PendingOp(reactor, std::move(session), request.request_id, /*traced=*/false),
          request_(std::move(request)),
          reply_type_(reply_type),
          done_(std::move(done)) {}

    bool Start() override {
      Status sent = Send(request_);
      if (!sent.ok()) {
        return Finish(std::move(sent));
      }
      ArmDeadline();
      return false;
    }

    bool OnMessage(const Message& m) override {
      if (m.type == MessageType::kError) {
        return Finish(StatusFromWire(m.status_code, MessageTypeName(request_.type)));
      }
      if (m.type != reply_type_) {
        return false;
      }
      if (m.status_code != 0) {
        return Finish(StatusFromWire(m.status_code, MessageTypeName(request_.type)));
      }
      NoteProgress(/*reset_backoff=*/true);
      if (m.total != total_) {
        parts_.clear();  // a re-request produced a fresh snapshot
        total_ = m.total;
      }
      if (m.seq < total_) {
        parts_.emplace(m.seq, std::vector<uint8_t>(m.payload.begin(), m.payload.end()));
      }
      if (total_ != 0 && parts_.size() == total_) {
        std::vector<uint8_t> bytes;
        for (auto& [seq, part] : parts_) {
          bytes.insert(bytes.end(), part.begin(), part.end());
        }
        return Finish(std::move(bytes));
      }
      ArmDeadline();
      return false;
    }

    bool OnTimeout() override {
      if (BudgetExhausted()) {
        return Finish(UnavailableError("node unreachable (no reply to " +
                                       std::string(MessageTypeName(request_.type)) + ")"));
      }
      CountRetry();
      Backoff();
      Status sent = Resend(request_);
      if (!sent.ok()) {
        return Finish(std::move(sent));
      }
      ArmDeadline();
      return false;
    }

    void Abort(Status status) override { Finish(std::move(status)); }

   private:
    bool Finish(Result<std::vector<uint8_t>> result) {
      transport()->AccountOpDone(result.ok());
      RecordDone(Metrics().rpc_us, result.ok(), result.status().code(), request_.type);
      done_(std::move(result));
      return true;
    }

    Message request_;
    MessageType reply_type_;
    uint16_t total_ = 0;  // 0 until the first reply packet arrives
    std::map<uint16_t, std::vector<uint8_t>> parts_;
    Completion done_;
  };

  // Per-destination congestion state: this transport speaks to exactly one
  // agent, so the reactor IS the channel. All members are reactor-thread
  // private; the transport's atomics publish snapshots outward.
  struct ChannelState {
    RttEstimator rtt;
    OwdBaseTracker owd;
    DelayController cc;
    TokenBucket pacer;
    DecorrelatedJitter jitter;
    // EWMA of payload bytes per retired data op: the cwnd counts ops, so
    // the pacer's delivery-rate model needs bytes-per-op to convert it into
    // a byte rate. Starts at one packet (the smallest a data op can be).
    double avg_op_bytes = static_cast<double>(kMaxPacketPayload);

    ChannelState(const DelayControllerOptions& options, uint64_t jitter_seed)
        : cc(options), jitter(jitter_seed) {}
  };

  Reactor(UdpTransport* transport, RetryPolicy policy, uint32_t read_window,
          uint32_t socket_batch)
      : transport_(transport),
        policy_(policy),
        read_window_(std::max<uint32_t>(1, read_window)),
        socket_batch_(std::max<uint32_t>(1, socket_batch)),
        cc_mode_(transport->cc_mode()),
        channel_(ControllerOptions(transport), transport->options_.loss_seed ^
                                                   (uint64_t(transport->agent_port_) << 32) ^
                                                   NowUs()) {
    MetricRegistry& registry = MetricRegistry::Global();
    const std::string port = std::to_string(transport->agent_port_);
    channel_cwnd_gauge_ = registry.GetGauge("swift_cc_cwnd_port_" + port);
    channel_srtt_gauge_ = registry.GetGauge("swift_cc_srtt_us_port_" + port);
    channel_pace_gauge_ = registry.GetGauge("swift_cc_pace_rate_bps_port_" + port);
    PublishCc();
    SWIFT_CHECK(pipe(wake_fds_) == 0) << "reactor wake pipe";
    fcntl(wake_fds_[0], F_SETFL, O_NONBLOCK);
    fcntl(wake_fds_[1], F_SETFL, O_NONBLOCK);
    thread_ = std::thread([this] { Run(); });
  }

  // The delay controller's knobs derive from the transport's options: the
  // static max_in_flight_ops becomes the hard ceiling, and a mediator rate
  // cap seeds the initial window (admission composing with CC). Without a
  // cap the window starts at the ceiling — the pre-CC static behavior —
  // and adapts DOWN under queuing delay or loss.
  static DelayControllerOptions ControllerOptions(UdpTransport* transport) {
    const Options& o = transport->options_;
    DelayControllerOptions cc;
    cc.target_delay_us = std::max(1000.0, o.cc_target_delay_us);
    cc.max_cwnd = std::max<uint32_t>(1, o.max_in_flight_ops);
    if (o.rate_cap_bytes_per_sec > 0) {
      // Window worth one RTT-guess of the granted rate (the retry schedule's
      // initial timeout quarters as the guess, 10ms at defaults).
      const double rtt_guess_s = std::max(1, o.initial_timeout_ms) / 4 * 1e-3;
      cc.initial_cwnd = std::clamp(
          o.rate_cap_bytes_per_sec * rtt_guess_s / kMaxPacketPayload, 2.0, cc.max_cwnd);
    } else {
      cc.initial_cwnd = cc.max_cwnd;
    }
    return cc;
  }

  ~Reactor() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    Wake();
    thread_.join();
    close(wake_fds_[0]);
    close(wake_fds_[1]);
  }

  // --- caller-side API (any thread) ----------------------------------------

  void AddSession(SessionPtr session) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      sessions_.push_back(std::move(session));
    }
    Wake();
  }

  // By contract the caller removes a session only once its ops have
  // completed; any straggler is aborted kUnavailable on the reactor thread.
  void RemoveSession(const SessionPtr& session) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      sessions_.erase(std::remove(sessions_.begin(), sessions_.end(), session), sessions_.end());
      removals_.push_back(session);
    }
    Wake();
  }

  void RegisterHandle(uint32_t handle, SessionPtr session) {
    std::lock_guard<std::mutex> lock(mutex_);
    handles_[handle] = std::move(session);
  }

  SessionPtr SessionForHandle(uint32_t handle) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = handles_.find(handle);
    return it == handles_.end() ? nullptr : it->second;
  }

  SessionPtr TakeHandle(uint32_t handle) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = handles_.find(handle);
    if (it == handles_.end()) {
      return nullptr;
    }
    SessionPtr session = std::move(it->second);
    handles_.erase(it);
    return session;
  }

  void SubmitOp(std::unique_ptr<PendingOp> op) {
    bool wake;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      SWIFT_CHECK(!stop_) << "op submitted to a stopped transport";
      ++live_ops_;
      wake = NeedsWake();
      inbox_.push_back(std::move(op));
    }
    if (wake) {
      Wake();
    }
  }

  // Requests cancellation of a pending op (any thread). Processed on the
  // reactor thread after the inbox drain, so an op cancelled right after
  // submit is found either way; an op that already completed is a no-op.
  // Because SubmitOp and Cancel go through the same mutex, the op can never
  // arrive in a LATER inbox swap than its cancel.
  void Cancel(uint32_t request_id) {
    bool wake;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (stop_) {
        return;  // shutdown aborts everything anyway
      }
      wake = NeedsWake();
      cancels_.push_back(request_id);
    }
    if (wake) {
      Wake();
    }
  }

  // Blocks until every submitted op has completed.
  void Drain() {
    std::unique_lock<std::mutex> lock(mutex_);
    drain_cv_.wait(lock, [this] { return live_ops_ == 0; });
  }

  // Binds a fresh loopback socket aimed at the agent's well-known port, with
  // loss injection configured before the session becomes visible to the
  // reactor thread.
  Result<SessionPtr> NewSession() {
    auto session = std::make_shared<Session>();
    SWIFT_RETURN_IF_ERROR(session->socket.BindLoopback(0));
    if (transport_->options_.loss_probability > 0) {
      session->socket.SetLossProbability(
          transport_->options_.loss_probability,
          transport_->next_loss_seed_.fetch_add(1, std::memory_order_relaxed));
    }
    session->socket.SetChaos(transport_->options_.chaos);
    // Speak to the well-known port first; an OPEN reply retargets the
    // session to the data_port it names.
    session->agent = UdpEndpoint::Loopback(transport_->agent_port_);
    return session;
  }

  // Submits a control RPC and waits for its reply (sync wrapper building
  // block). Safe from any thread except the reactor thread itself.
  Result<Message> Call(SessionPtr session, Message request, std::vector<MessageType> want_types) {
    transport_->ops_submitted_.fetch_add(1, std::memory_order_relaxed);
    std::mutex m;
    std::condition_variable cv;
    std::optional<Result<Message>> slot;
    SubmitOp(std::make_unique<RpcOp>(this, std::move(session), std::move(request),
                                     std::move(want_types), [&](Result<Message> reply) {
                                       // Signal under the lock: the waiter's
                                       // stack frame dies right after wait()
                                       // returns.
                                       std::lock_guard<std::mutex> lock(m);
                                       slot.emplace(std::move(reply));
                                       cv.notify_all();
                                     }));
    std::unique_lock<std::mutex> lock(m);
    cv.wait(lock, [&] { return slot.has_value(); });
    return std::move(*slot);
  }

  // Submits a bulk-collection request (STATS/TRACE) and waits for the fully
  // reassembled reply payload. Same threading rules as Call.
  Result<std::vector<uint8_t>> CallCollect(SessionPtr session, Message request,
                                           MessageType reply_type) {
    transport_->ops_submitted_.fetch_add(1, std::memory_order_relaxed);
    std::mutex m;
    std::condition_variable cv;
    std::optional<Result<std::vector<uint8_t>>> slot;
    SubmitOp(std::make_unique<CollectOp>(this, std::move(session), std::move(request), reply_type,
                                         [&](Result<std::vector<uint8_t>> reply) {
                                           std::lock_guard<std::mutex> lock(m);
                                           slot.emplace(std::move(reply));
                                           cv.notify_all();
                                         }));
    std::unique_lock<std::mutex> lock(m);
    cv.wait(lock, [&] { return slot.has_value(); });
    return std::move(*slot);
  }

  // Reactor-thread only: appends one encoded datagram to the pending flush
  // list (PendingOp::Send is always invoked on the reactor thread).
  // `timestamped` marks a header whose tx-timestamp bytes must be patched
  // with the true send instant at flush.
  void QueueSend(const SessionPtr& session, OutgoingDatagram dgram, uint32_t request_id,
                 bool timestamped, bool deadlined, Clock::time_point op_deadline) {
    pending_sends_.push_back(PendingSend{session, std::move(dgram), request_id, timestamped,
                                         deadlined, op_deadline, NowUs()});
  }

  // Per-op wall-clock budget from the transport's options (0 = off).
  int OpDeadlineMs() const { return transport_->options_.op_deadline_ms; }

  // --- congestion-control hooks (reactor thread) ---------------------------

  bool timestamps_enabled() const { return cc_mode_ != CcMode::kOff; }

  // Retry timeout for a fresh transmission: the estimator's RTO once the
  // channel has samples (floor initial/8 so a measured fast link retries
  // much sooner than the static schedule), the static table otherwise.
  // `op_bytes` adds a serialization allowance on top of the RTO: a
  // multi-megabyte op must drain hundreds of datagrams before any reply can
  // exist, and the RTT of a one-packet RPC says nothing about that — without
  // the allowance the adaptive floor times the whole op out mid-transmission
  // and the retry budget burns on spurious full resends. 32 bytes/µs
  // (≈32 MB/s) is a drain-rate floor slow enough for sanitizer builds.
  int InitialTimeoutMs(uint64_t op_bytes = 0) const {
    if (timestamps_enabled() && channel_.rtt.has_samples()) {
      const double floor_us = std::max(1, policy_.initial_timeout_ms / 8) * 1000.0;
      const double ceil_us = std::max(1, policy_.max_timeout_ms) * 1000.0;
      const double serialize_us = static_cast<double>(op_bytes) / 32.0;
      return std::max(
          1, static_cast<int>(std::ceil(
                 (channel_.rtt.RtoUs(floor_us, ceil_us) + serialize_us) / 1000.0)));
    }
    return policy_.FirstTimeout();
  }

  // Backoff with decorrelated jitter (every cc mode — the doubling table
  // self-synchronized retry storms across channels sharing a lossy link).
  int NextTimeoutMs(int current_ms, uint64_t op_bytes = 0) {
    // The cap must never sit below the serialization-adjusted base, or the
    // jitter range inverts for ops larger than max_timeout_ms' worth of wire.
    const uint32_t base = static_cast<uint32_t>(std::max(1, InitialTimeoutMs(op_bytes)));
    return static_cast<int>(channel_.jitter.NextTimeoutMs(
        base, static_cast<uint32_t>(std::max(1, current_ms)),
        std::max(base, static_cast<uint32_t>(std::max(1, policy_.max_timeout_ms)))));
  }

  // A retry timeout fired somewhere on this channel: the delay controller's
  // loss signal (gated to one decrease per RTT inside the controller).
  void NoteLoss() {
    if (cc_mode_ != CcMode::kDelay) {
      return;
    }
    const uint64_t before = channel_.cc.decreases();
    channel_.cc.OnLoss(NowUs(), channel_.rtt.has_samples() ? channel_.rtt.srtt_us() : 0.0);
    if (channel_.cc.decreases() != before) {
      CcMetrics().cwnd_decreases->Increment();
      transport_->cc_decreases_.fetch_add(1, std::memory_order_relaxed);
    }
    PublishCc();
  }

  // A reply carrying a timestamp echo arrived for a live op: RTT on our own
  // clock (now - echoed tx), one-way delay against the server's clock (its
  // tx stamp; the offset is absorbed by the base tracker), both feeding the
  // delay controller. Karn's rule: retransmitted ops never feed samples.
  void NoteEcho(const Message& m, const PendingOp& op) {
    if (!timestamps_enabled() || m.echo_ts_us == 0) {
      return;
    }
    if (op.retransmitted()) {
      CcMetrics().rtt_samples_karn_dropped->Increment();
      return;
    }
    const uint64_t now_us = NowUs();
    if (now_us <= m.echo_ts_us) {
      return;  // clock went sideways; drop the sample
    }
    const double rtt_us = static_cast<double>(now_us - m.echo_ts_us);
    channel_.rtt.AddSample(rtt_us);
    CcMetrics().rtt_samples->Increment();
    CcMetrics().srtt_samples_us->Record(channel_.rtt.srtt_us());
    transport_->cc_rtt_samples_.fetch_add(1, std::memory_order_relaxed);
    double queuing_delay_us = 0;
    if (m.tx_ts_us != 0) {
      const double owd_us =
          static_cast<double>(now_us) - static_cast<double>(m.tx_ts_us);
      queuing_delay_us = channel_.owd.Update(owd_us, now_us);
    }
    if (cc_mode_ == CcMode::kDelay) {
      channel_.cc.OnAck(queuing_delay_us);
      CcMetrics().cwnd_samples->Record(channel_.cc.cwnd());
    }
    PublishCc();
  }

  void NoteDuplicate() {
    CcMetrics().duplicate_datagrams->Increment();
    transport_->cc_dup_datagrams_.fetch_add(1, std::memory_order_relaxed);
  }

  // Ring of recently-completed request ids: a reply that matches one is a
  // late/reordered datagram for a finished op — counted, never treated as a
  // stray (and never mistaken for loss).
  void NoteDone(uint32_t request_id) {
    if (recent_done_.insert(request_id).second) {
      recent_done_fifo_.push_back(request_id);
      if (recent_done_fifo_.size() > kRecentDoneCap) {
        recent_done_.erase(recent_done_fifo_.front());
        recent_done_fifo_.pop_front();
      }
    }
  }
  bool WasRecentlyDone(uint32_t request_id) const {
    return recent_done_.find(request_id) != recent_done_.end();
  }

  // Publishes the channel's live state to the transport's atomics and the
  // process/per-port gauges.
  void PublishCc() {
    const uint32_t window =
        cc_mode_ == CcMode::kDelay ? channel_.cc.window() : transport_->max_in_flight();
    transport_->cc_window_.store(window, std::memory_order_relaxed);
    transport_->cc_cwnd_milli_.store(
        static_cast<uint64_t>(channel_.cc.cwnd() * 1000.0), std::memory_order_relaxed);
    transport_->cc_srtt_us_.store(static_cast<uint64_t>(channel_.rtt.srtt_us()),
                                  std::memory_order_relaxed);
    transport_->cc_rttvar_us_.store(static_cast<uint64_t>(channel_.rtt.rttvar_us()),
                                    std::memory_order_relaxed);
    CcMetrics().cwnd->Set(static_cast<int64_t>(window));
    CcMetrics().srtt_us->Set(static_cast<int64_t>(channel_.rtt.srtt_us()));
    channel_cwnd_gauge_->Set(static_cast<int64_t>(window));
    channel_srtt_gauge_->Set(static_cast<int64_t>(channel_.rtt.srtt_us()));
  }

 private:
  void Wake() {
    Metrics().wake_writes->Increment();
    const uint8_t byte = 1;
    [[maybe_unused]] ssize_t n = write(wake_fds_[1], &byte, 1);
  }

  // Under mutex_, before adding to the inbox or the cancels: whether the
  // pipe must be written. The loop swaps both lists before it polls, so only
  // the first addition to empty lists writes it; later ones ride that
  // wake-up. The reactor thread itself (an op started from a completion)
  // never writes it: an addition made after this turn's swap makes the
  // coming poll return at once instead.
  bool NeedsWake() {
    if (t_running_reactor == this) {
      requeued_ = true;
      return false;
    }
    return inbox_.empty() && cancels_.empty();
  }

  // Re-derives the pace from the channel's live state: twice the measured
  // delivery rate (2 * cwnd * bytes-per-op / srtt — pacing smooths bursts
  // without capping steady-state throughput; cwnd counts ops, so the
  // channel's bytes-per-op EWMA converts it into a byte rate), upper-bounded
  // by the mediator's admission cap. Unlimited until the first RTT sample
  // unless capped.
  void ReconfigurePacer(uint64_t now_us) {
    const double cap = transport_->options_.rate_cap_bytes_per_sec;
    double rate = cap > 0 ? cap : 0.0;
    if (channel_.rtt.has_samples()) {
      const double op_bytes =
          std::max<double>(kMaxPacketPayload, channel_.avg_op_bytes);
      const double dynamic = 2.0 * channel_.cc.cwnd() * op_bytes * 1e6 /
                             std::max(100.0, channel_.rtt.srtt_us());
      rate = cap > 0 ? std::min(cap, dynamic) : dynamic;
    }
    if (rate <= 0) {
      return;  // no signal yet and no cap: leave the bucket unlimited
    }
    // Burst of one full flush chunk so sendmmsg batches still coalesce,
    // floored at two max-size datagrams (payload + header + extension) so a
    // batch=1 transport can still pass its largest datagram through the
    // bucket.
    const double burst =
        std::max<double>(static_cast<double>(socket_batch_), 2.0) *
        (kMaxPacketPayload + 128);
    channel_.pacer.SetRate(rate, burst, now_us);
    channel_pace_gauge_->Set(static_cast<int64_t>(rate));
  }

  // Flushes the queued datagrams the pacer admits, grouped per session so
  // each group leaves in one sendmmsg call. Per-session order is preserved
  // (announce before data packets, data before query); under pacing the
  // admitted set is always a prefix, so ordering survives a split flush.
  // Runs on the reactor thread.
  void FlushSends() {
    next_pace_deadline_us_ = 0;
    if (pending_sends_.empty()) {
      return;
    }
    const uint64_t now_us = NowUs();
    if (cc_mode_ == CcMode::kDelay) {
      ReconfigurePacer(now_us);
    }
    size_t admit = pending_sends_.size();
    if (cc_mode_ == CcMode::kDelay && !channel_.pacer.unlimited()) {
      admit = 0;
      while (admit < pending_sends_.size()) {
        const PendingSend& p = pending_sends_[admit];
        const double bytes =
            static_cast<double>(p.dgram.head.size() + p.dgram.payload.size());
        if (!channel_.pacer.TryConsume(bytes, now_us)) {
          // Re-arm the poll for the refill instant; the held tail is marked
          // paced once so the counter and span attribution fire per datagram.
          next_pace_deadline_us_ =
              now_us + std::max<uint64_t>(1, channel_.pacer.MicrosUntil(bytes, now_us));
          break;
        }
        ++admit;
      }
      for (size_t i = admit; i < pending_sends_.size(); ++i) {
        if (!pending_sends_[i].paced) {
          pending_sends_[i].paced = true;
          CcMetrics().paced_datagrams->Increment();
        }
      }
      if (admit == 0) {
        return;
      }
    }
    // Bucket by owning session; the linear scan is fine because one flush
    // rarely spans more than a handful of sessions.
    for (size_t i = 0; i < admit; ++i) {
      PendingSend& pending = pending_sends_[i];
      if (pending.timestamped) {
        // The true send instant, stamped as late as possible: queue time in
        // the reactor must read as pacing delay, not as network RTT.
        PatchTxTimestamp(pending.dgram.head, NowUs());
      }
      if (pending.deadlined) {
        // Budget remaining at the send instant. An already-expired budget
        // still ships as the 1µs floor: the server sheds it on arrival,
        // which is the honest outcome (and what the shed counters measure).
        const auto wall_now = Clock::now();
        uint64_t budget_us = 1;
        if (pending.op_deadline > wall_now) {
          budget_us = std::max<uint64_t>(
              1, static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::microseconds>(
                                           pending.op_deadline - wall_now)
                                           .count()));
        }
        PatchDeadline(pending.dgram.head, budget_us);
      }
      const uint64_t waited_us = now_us > pending.queued_us ? now_us - pending.queued_us : 0;
      CcMetrics().pacing_delay_us->Record(static_cast<double>(waited_us));
      if (pending.paced && waited_us > 0) {
        if (auto it = active_.find(pending.request_id); it != active_.end()) {
          const uint64_t dur_ns = waited_us * 1000;
          it->second->NotePaced(FlightRecorder::NowNs() - dur_ns, dur_ns,
                                static_cast<uint32_t>(pending.dgram.head.size() +
                                                      pending.dgram.payload.size()));
        }
      }
      Session* key = pending.session.get();
      auto it = std::find_if(flush_buckets_.begin(), flush_buckets_.end(),
                             [key](const FlushBucket& b) { return b.session.get() == key; });
      if (it == flush_buckets_.end()) {
        flush_buckets_.push_back(FlushBucket{pending.session, {}});
        it = std::prev(flush_buckets_.end());
      }
      it->datagrams.push_back(std::move(pending.dgram));
    }
    pending_sends_.erase(pending_sends_.begin(),
                         pending_sends_.begin() + static_cast<ptrdiff_t>(admit));
    for (FlushBucket& bucket : flush_buckets_) {
      // Send failures inside the batch are absorbed as wire loss (counted in
      // the socket layer); a dead socket only means its ops will time out,
      // which is already their UNAVAILABLE path. Chunking by socket_batch_
      // keeps batch=1 an honest per-datagram baseline (one syscall per
      // datagram), not just a receive-side setting.
      const std::span<const OutgoingDatagram> all(bucket.datagrams);
      for (size_t off = 0; off < all.size(); off += socket_batch_) {
        (void)bucket.session->socket.SendBatch(
            all.subspan(off, std::min<size_t>(socket_batch_, all.size() - off)));
      }
    }
    flush_buckets_.clear();
  }

  // Starts gated data ops while the congestion window has room. Ops enter
  // in submit order; each started op holds one window slot until it leaves
  // active_. window() is never below 1, so waiting_ can only be non-empty
  // while at least one op is in flight to wake the poll loop.
  void DispatchWindow() {
    while (!waiting_.empty() && data_in_flight_ < channel_.cc.window()) {
      std::unique_ptr<PendingOp> op = std::move(waiting_.front());
      waiting_.pop_front();
      op->NoteGateExit();
      if (op->Start()) {
        MarkFinished();
        continue;
      }
      op->set_counted_in_window();
      ++data_in_flight_;
      started_scratch_.push_back(op.get());
      active_[op->request_id()] = std::move(op);
    }
  }

  // Reactor-thread only: bookkeeping for an op leaving active_ — frees its
  // window slot and remembers its id so late replies count as reordering.
  void RetireOp(const PendingOp& op) {
    NoteDone(op.request_id());
    if (op.is_data_op() && op.data_bytes() > 0) {
      channel_.avg_op_bytes =
          0.875 * channel_.avg_op_bytes + 0.125 * static_cast<double>(op.data_bytes());
    }
    if (op.counted_in_window()) {
      SWIFT_CHECK(data_in_flight_ > 0);
      --data_in_flight_;
    }
  }

  // Reactor-thread only: completes and forgets one op.
  void MarkFinished() {
    std::lock_guard<std::mutex> lock(mutex_);
    SWIFT_CHECK(live_ops_ > 0);
    --live_ops_;
    if (live_ops_ == 0) {
      drain_cv_.notify_all();
    }
  }

  void AbortOpsOn(const Session* session, const char* why) {
    for (auto it = waiting_.begin(); it != waiting_.end();) {
      if ((*it)->session() == session) {
        (*it)->Abort(UnavailableError(why));
        it = waiting_.erase(it);
        MarkFinished();
      } else {
        ++it;
      }
    }
    for (auto it = active_.begin(); it != active_.end();) {
      if (it->second->session() == session) {
        it->second->Abort(UnavailableError(why));
        RetireOp(*it->second);
        it = active_.erase(it);
        MarkFinished();
      } else {
        ++it;
      }
    }
  }

  void Run() {
    t_running_reactor = this;
    std::vector<pollfd> pfds;
    for (;;) {
      std::vector<std::unique_ptr<PendingOp>> fresh;
      std::vector<uint32_t> cancels;
      std::vector<SessionPtr> gone;
      std::vector<SessionPtr> snapshot;
      bool stopping;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping = stop_;
        fresh.swap(inbox_);
        cancels.swap(cancels_);
        gone.swap(removals_);
        snapshot = sessions_;
        requeued_ = false;
      }

      if (stopping) {
        for (auto& op : fresh) {
          op->Abort(UnavailableError("transport shutting down"));
          MarkFinished();
        }
        for (auto& op : waiting_) {
          op->Abort(UnavailableError("transport shutting down"));
          MarkFinished();
        }
        waiting_.clear();
        for (auto& [id, op] : active_) {
          op->Abort(UnavailableError("transport shutting down"));
          MarkFinished();
        }
        active_.clear();
        return;
      }

      for (const SessionPtr& session : gone) {
        AbortOpsOn(session.get(), "session closed with ops in flight");
      }
      started_scratch_.clear();
      for (auto& op : fresh) {
        op->NotePickup();
        // Data ops under delay mode queue at the window gate; control RPCs
        // (and every op in off/fixed mode, where the submit path's
        // max_in_flight cap is the only limit) start immediately.
        if (cc_mode_ == CcMode::kDelay && op->is_data_op()) {
          op->NoteGateEntered();
          waiting_.push_back(std::move(op));
          continue;
        }
        if (op->Start()) {
          MarkFinished();
        } else {
          started_scratch_.push_back(op.get());
          active_[op->request_id()] = std::move(op);
        }
      }

      // Cancellations, after the inbox drain (the target may have arrived in
      // this very swap) and before the window dispatch (a gated op leaves
      // without ever sending). A cancelled op completes kCancelled here and
      // leaves active_, so nothing can write its destination buffer again —
      // any reply that arrives later matches the recent-done ring and is
      // counted as a late datagram, never placed.
      for (uint32_t id : cancels) {
        if (auto it = active_.find(id); it != active_.end()) {
          Metrics().cancelled_reads->Increment();
          it->second->Abort(CancelledError("read cancelled by submitter"));
          RetireOp(*it->second);
          active_.erase(it);
          MarkFinished();
          continue;
        }
        for (auto it = waiting_.begin(); it != waiting_.end(); ++it) {
          if ((*it)->request_id() == id) {
            Metrics().cancelled_reads->Increment();
            (*it)->Abort(CancelledError("read cancelled by submitter"));
            waiting_.erase(it);
            MarkFinished();
            break;
          }
        }
      }
      DispatchWindow();

      // Everything queued since the last poll — fresh ops' opening bursts
      // plus whatever the previous dispatch round's OnMessage/OnTimeout
      // handlers produced — leaves now, batched per session.
      FlushSends();
      if (!started_scratch_.empty()) {
        // The opening bursts just hit the kernel: close the send-flush stage
        // of every op started this round (its wire stage opens here).
        const uint64_t flushed_ns = FlightRecorder::NowNs();
        for (PendingOp* op : started_scratch_) {
          op->NoteFlushed(flushed_ns);
        }
      }

      // Poll the wake pipe plus every live session socket, out to the
      // nearest retransmission deadline.
      pfds.clear();
      pfds.push_back({wake_fds_[0], POLLIN, 0});
      for (const SessionPtr& session : snapshot) {
        pfds.push_back({session->socket.fd(), POLLIN, 0});
      }
      int timeout_ms = -1;
      if (!active_.empty()) {
        Clock::time_point nearest = Clock::time_point::max();
        for (const auto& [id, op] : active_) {
          nearest = std::min(nearest, op->deadline());
        }
        const auto now = Clock::now();
        timeout_ms =
            nearest <= now
                ? 0
                : static_cast<int>(
                      std::chrono::duration_cast<std::chrono::milliseconds>(nearest - now).count() +
                      1);
      }
      if (next_pace_deadline_us_ != 0) {
        // Datagrams are parked in the pacer: wake at the refill instant even
        // if every retransmission deadline is further out.
        const uint64_t now_us = NowUs();
        const int pace_ms =
            next_pace_deadline_us_ <= now_us
                ? 0
                : static_cast<int>((next_pace_deadline_us_ - now_us + 999) / 1000);
        timeout_ms = timeout_ms < 0 ? pace_ms : std::min(timeout_ms, pace_ms);
      }
      for (const SessionPtr& session : snapshot) {
        // Chaos-held datagrams raise no POLLIN (they already left the
        // kernel): wake at the earliest scripted release or the delay
        // stretches to the next retransmission instead of the scripted spike.
        const int held_ms = session->socket.NextChaosReleaseMs();
        if (held_ms >= 0) {
          timeout_ms = timeout_ms < 0 ? held_ms : std::min(timeout_ms, held_ms);
        }
      }
      if (requeued_) {
        // A completion since the swap (a fresh op failing at start, a
        // cancellation, an abort, a window dispatch) added to the inbox.
        timeout_ms = 0;
      }
      ::poll(pfds.data(), pfds.size(), timeout_ms);
      Metrics().reactor_wakeups->Increment();

      if (pfds[0].revents & POLLIN) {
        uint8_t buf[64];
        while (read(wake_fds_[0], buf, sizeof(buf)) > 0) {
        }
      }

      // Drain every readable socket in recvmmsg batches and route datagrams
      // to their ops.
      for (size_t i = 0; i < snapshot.size(); ++i) {
        if ((pfds[i + 1].revents & POLLIN) == 0 &&
            snapshot[i]->socket.NextChaosReleaseMs() != 0) {
          continue;
        }
        for (;;) {
          auto batch = snapshot[i]->socket.RecvBatch(0, socket_batch_, recv_scratch_);
          if (!batch.ok()) {
            break;  // kTimedOut = socket drained
          }
          for (UdpSocket::ReceivedDatagram& received : recv_scratch_) {
            if (received.truncated) {
              continue;  // counted by the socket layer; treat as lost
            }
            auto decoded = Message::Decode(received.data);
            if (!decoded.ok()) {
              continue;  // corrupt: treat as lost
            }
            auto it = active_.find(decoded->request_id);
            if (it == active_.end() || it->second->session() != snapshot[i].get()) {
              // Stale reply from a finished request. A recently-completed id
              // is a reordered/late datagram, not an anomaly — count it so
              // the reordering-tolerance invariant is observable.
              if (it == active_.end() && WasRecentlyDone(decoded->request_id)) {
                CcMetrics().late_datagrams->Increment();
                transport_->cc_late_datagrams_.fetch_add(1, std::memory_order_relaxed);
              }
              continue;
            }
            NoteEcho(*decoded, *it->second);
            if (it->second->OnMessage(*decoded)) {
              RetireOp(*it->second);
              active_.erase(it);
              MarkFinished();
            }
          }
          if (*batch < socket_batch_) {
            break;  // short batch = socket drained
          }
        }
      }

      const auto now = Clock::now();
      for (auto it = active_.begin(); it != active_.end();) {
        if (it->second->deadline() <= now && it->second->OnTimeout()) {
          RetireOp(*it->second);
          it = active_.erase(it);
          MarkFinished();
        } else {
          ++it;
        }
      }
    }
  }

  UdpTransport* transport_;
  RetryPolicy policy_;
  uint32_t read_window_;
  uint32_t socket_batch_;
  int wake_fds_[2] = {-1, -1};

  std::mutex mutex_;
  std::condition_variable drain_cv_;
  bool stop_ = false;
  std::vector<SessionPtr> sessions_;
  std::vector<SessionPtr> removals_;
  std::vector<std::unique_ptr<PendingOp>> inbox_;
  std::vector<uint32_t> cancels_;  // request ids to cancel next iteration
  std::map<uint32_t, SessionPtr> handles_;
  uint64_t live_ops_ = 0;  // inbox + active, for Drain()
  // Reactor-thread only: the reactor added to the inbox or the cancels
  // since its last swap.
  bool requeued_ = false;

  // Congestion state (reactor-thread private; cc_mode_ is const). Declared
  // before thread_ so the reactor loop never races construction.
  const CcMode cc_mode_;
  ChannelState channel_;
  Gauge* channel_cwnd_gauge_ = nullptr;  // swift_cc_cwnd_port_<p>
  Gauge* channel_srtt_gauge_ = nullptr;  // swift_cc_srtt_us_port_<p>
  Gauge* channel_pace_gauge_ = nullptr;  // swift_cc_pace_rate_bps_port_<p>

  // Reactor-thread private.
  std::map<uint32_t, std::unique_ptr<PendingOp>> active_;
  // Data ops parked at the congestion-window gate (delay mode only), FIFO.
  std::deque<std::unique_ptr<PendingOp>> waiting_;
  size_t data_in_flight_ = 0;  // active_ ops holding a window slot
  // Recently-completed request ids, for late-datagram classification.
  static constexpr size_t kRecentDoneCap = 512;
  std::unordered_set<uint32_t> recent_done_;
  std::deque<uint32_t> recent_done_fifo_;
  // Absolute instant (NowUs clock) the pacer can next release bytes; 0 when
  // nothing is parked in the pacer.
  uint64_t next_pace_deadline_us_ = 0;

  struct PendingSend {
    SessionPtr session;
    OutgoingDatagram dgram;
    uint32_t request_id = 0;
    bool timestamped = false;  // header carries tx-timestamp bytes to patch
    bool deadlined = false;    // header carries deadline bytes to patch
    Clock::time_point op_deadline{};  // absolute end of the op's budget
    uint64_t queued_us = 0;    // QueueSend instant, for pacing-delay metrics
    bool paced = false;        // held at least one flush by the token bucket
  };
  struct FlushBucket {
    SessionPtr session;
    std::vector<OutgoingDatagram> datagrams;
  };
  std::vector<PendingSend> pending_sends_;
  std::vector<FlushBucket> flush_buckets_;            // scratch, reused per flush
  std::vector<UdpSocket::ReceivedDatagram> recv_scratch_;  // scratch, reused per drain
  std::vector<PendingOp*> started_scratch_;           // ops started this round

  std::thread thread_;
};

// ------------------------------------------------------------- UdpTransport

UdpTransport::UdpTransport(uint16_t agent_port, Options options)
    : agent_port_(agent_port),
      options_(options),
      cc_mode_(options.cc_mode >= 0 && options.cc_mode <= 2
                   ? static_cast<CcMode>(options.cc_mode)
                   : GetCcMode()),
      next_loss_seed_(options.loss_seed),
      reactor_(std::make_unique<Reactor>(this, options.retry_policy(), options.read_window,
                                         options.socket_batch)) {}

uint32_t UdpTransport::current_window() const {
  if (cc_mode_ != CcMode::kDelay) {
    return max_in_flight();
  }
  return std::clamp<uint32_t>(cc_window_.load(std::memory_order_relaxed), 1, max_in_flight());
}

UdpTransport::CcSnapshot UdpTransport::cc_snapshot() const {
  CcSnapshot snap;
  snap.cwnd = static_cast<double>(cc_cwnd_milli_.load(std::memory_order_relaxed)) / 1000.0;
  snap.window = current_window();
  snap.srtt_us = static_cast<double>(cc_srtt_us_.load(std::memory_order_relaxed));
  snap.rttvar_us = static_cast<double>(cc_rttvar_us_.load(std::memory_order_relaxed));
  snap.rtt_samples = cc_rtt_samples_.load(std::memory_order_relaxed);
  snap.cwnd_decreases = cc_decreases_.load(std::memory_order_relaxed);
  snap.late_datagrams = cc_late_datagrams_.load(std::memory_order_relaxed);
  snap.duplicate_datagrams = cc_dup_datagrams_.load(std::memory_order_relaxed);
  return snap;
}

UdpTransport::~UdpTransport() {
  // Reactor teardown aborts anything still in flight (kUnavailable) before
  // the thread joins, so no completion can land after this destructor.
  reactor_.reset();
}

void UdpTransport::AccountOpDone(bool ok) {
  ops_completed_.fetch_add(1, std::memory_order_relaxed);
  if (!ok) {
    ops_failed_.fetch_add(1, std::memory_order_relaxed);
  }
}

TransportStats UdpTransport::stats() const {
  TransportStats stats;
  stats.ops_submitted = ops_submitted_.load(std::memory_order_relaxed);
  stats.ops_completed = ops_completed_.load(std::memory_order_relaxed);
  stats.ops_retried = ops_retried_.load(std::memory_order_relaxed);
  stats.ops_failed = ops_failed_.load(std::memory_order_relaxed);
  stats.bytes_read = bytes_read_.load(std::memory_order_relaxed);
  stats.bytes_written = bytes_written_.load(std::memory_order_relaxed);
  return stats;
}

Result<AgentOpenResult> UdpTransport::Open(const std::string& object_name, uint32_t flags) {
  SWIFT_ASSIGN_OR_RETURN(auto session, reactor_->NewSession());
  reactor_->AddSession(session);

  Message open;
  open.type = MessageType::kOpen;
  open.request_id = NextRequestId();
  open.object_name = object_name;
  open.open_flags = flags;

  auto reply = reactor_->Call(session, std::move(open), {MessageType::kOpenReply});
  Status status = reply.ok() ? StatusFromWire(reply->status_code, "OPEN") : reply.status();
  if (!status.ok()) {
    reactor_->RemoveSession(session);
    return status;
  }

  AgentOpenResult result;
  result.handle = reply->handle;
  result.size = reply->size;
  // Safe to retarget without a lock: the open RPC has completed and no other
  // op references this session yet.
  session->agent = UdpEndpoint::Loopback(reply->data_port);
  reactor_->RegisterHandle(result.handle, std::move(session));
  return result;
}

void UdpTransport::StartRead(uint32_t handle, uint64_t offset, uint64_t length,
                             ReadCompletion done) {
  ops_submitted_.fetch_add(1, std::memory_order_relaxed);
  auto session = reactor_->SessionForHandle(handle);
  if (!session) {
    AccountOpDone(false);
    done(NotFoundError("no open session for handle " + std::to_string(handle)));
    return;
  }
  if (length == 0) {
    AccountOpDone(true);
    done(BufferSlice());
    return;
  }
  const uint32_t total = PacketCountFor(length);
  if (total > UINT16_MAX) {
    AccountOpDone(false);
    done(InvalidArgumentError("read too large for one request"));
    return;
  }
  reactor_->SubmitOp(std::make_unique<Reactor::ReadOp>(reactor_.get(), std::move(session),
                                                       NextRequestId(), handle, offset, length,
                                                       total, std::move(done)));
}

uint32_t UdpTransport::SubmitReadInto(uint32_t handle, uint64_t offset, std::span<uint8_t> out,
                                      WriteCompletion done) {
  ops_submitted_.fetch_add(1, std::memory_order_relaxed);
  auto session = reactor_->SessionForHandle(handle);
  if (!session) {
    AccountOpDone(false);
    done(NotFoundError("no open session for handle " + std::to_string(handle)));
    return 0;
  }
  if (out.empty()) {
    AccountOpDone(true);
    done(OkStatus());
    return 0;
  }
  const uint32_t total = PacketCountFor(out.size());
  if (total > UINT16_MAX) {
    AccountOpDone(false);
    done(InvalidArgumentError("read too large for one request"));
    return 0;
  }
  const uint32_t request_id = NextRequestId();
  reactor_->SubmitOp(std::make_unique<Reactor::ReadOp>(reactor_.get(), std::move(session),
                                                       request_id, handle, offset, out, total,
                                                       std::move(done)));
  return request_id;
}

void UdpTransport::StartReadInto(uint32_t handle, uint64_t offset, std::span<uint8_t> out,
                                 WriteCompletion done) {
  SubmitReadInto(handle, offset, out, std::move(done));
}

uint64_t UdpTransport::StartCancellableReadInto(uint32_t handle, uint64_t offset,
                                                std::span<uint8_t> out, WriteCompletion done) {
  return SubmitReadInto(handle, offset, out, std::move(done));
}

void UdpTransport::CancelRead(uint64_t token) {
  if (token == 0) {
    return;
  }
  reactor_->Cancel(static_cast<uint32_t>(token));
}

bool UdpTransport::RttEstimate(double* srtt_us, double* rttvar_us) const {
  if (cc_rtt_samples_.load(std::memory_order_relaxed) == 0) {
    return false;
  }
  *srtt_us = static_cast<double>(cc_srtt_us_.load(std::memory_order_relaxed));
  *rttvar_us = static_cast<double>(cc_rttvar_us_.load(std::memory_order_relaxed));
  return true;
}

void UdpTransport::StartWrite(uint32_t handle, uint64_t offset, std::span<const uint8_t> data,
                              WriteCompletion done) {
  ops_submitted_.fetch_add(1, std::memory_order_relaxed);
  auto session = reactor_->SessionForHandle(handle);
  if (!session) {
    AccountOpDone(false);
    done(NotFoundError("no open session for handle " + std::to_string(handle)));
    return;
  }
  if (data.empty()) {
    AccountOpDone(true);
    done(OkStatus());
    return;
  }
  // SplitIntoPackets copies the payload, so `data` need only live until we
  // return — same lifetime contract as the synchronous Write.
  reactor_->SubmitOp(std::make_unique<Reactor::WriteOp>(reactor_.get(), std::move(session),
                                                        NextRequestId(), handle, offset, data,
                                                        std::move(done)));
}

Result<BufferSlice> UdpTransport::Read(uint32_t handle, uint64_t offset, uint64_t length) {
  std::mutex m;
  std::condition_variable cv;
  std::optional<Result<BufferSlice>> slot;
  StartRead(handle, offset, length, [&](Result<BufferSlice> result) {
    std::lock_guard<std::mutex> lock(m);
    slot.emplace(std::move(result));
    cv.notify_all();
  });
  std::unique_lock<std::mutex> lock(m);
  cv.wait(lock, [&] { return slot.has_value(); });
  return std::move(*slot);
}

Status UdpTransport::Write(uint32_t handle, uint64_t offset, std::span<const uint8_t> data) {
  std::mutex m;
  std::condition_variable cv;
  std::optional<Status> slot;
  StartWrite(handle, offset, data, [&](Status status) {
    std::lock_guard<std::mutex> lock(m);
    slot.emplace(std::move(status));
    cv.notify_all();
  });
  std::unique_lock<std::mutex> lock(m);
  cv.wait(lock, [&] { return slot.has_value(); });
  return std::move(*slot);
}

Result<uint64_t> UdpTransport::Stat(uint32_t handle) {
  auto session = reactor_->SessionForHandle(handle);
  if (!session) {
    return NotFoundError("no open session for handle " + std::to_string(handle));
  }
  Message request;
  request.type = MessageType::kStat;
  request.handle = handle;
  request.request_id = NextRequestId();
  auto reply = reactor_->Call(std::move(session), std::move(request), {MessageType::kStatReply});
  if (!reply.ok()) {
    return reply.status();
  }
  return reply->size;
}

Status UdpTransport::Truncate(uint32_t handle, uint64_t size) {
  auto session = reactor_->SessionForHandle(handle);
  if (!session) {
    return NotFoundError("no open session for handle " + std::to_string(handle));
  }
  Message request;
  request.type = MessageType::kTruncate;
  request.handle = handle;
  request.request_id = NextRequestId();
  request.size = size;
  return reactor_->Call(std::move(session), std::move(request), {MessageType::kTruncateAck})
      .status();
}

Status UdpTransport::Close(uint32_t handle) {
  auto session = reactor_->TakeHandle(handle);
  if (!session) {
    return NotFoundError("no open session for handle " + std::to_string(handle));
  }
  Message request;
  request.type = MessageType::kClose;
  request.handle = handle;
  request.request_id = NextRequestId();
  // The session is released whether or not the agent acknowledged — matching
  // Unix close(2), which invalidates the descriptor even on error.
  Status status = reactor_->Call(session, std::move(request), {MessageType::kCloseAck}).status();
  reactor_->RemoveSession(session);
  return status;
}

Status UdpTransport::Remove(const std::string& object_name) {
  // Object-scoped like Open: a transient session speaking to the well-known
  // port.
  SWIFT_ASSIGN_OR_RETURN(auto session, reactor_->NewSession());
  reactor_->AddSession(session);
  Message request;
  request.type = MessageType::kRemove;
  request.request_id = NextRequestId();
  request.object_name = object_name;
  Status status = reactor_->Call(session, std::move(request), {MessageType::kRemoveAck}).status();
  reactor_->RemoveSession(session);
  return status;
}

Result<ScrubReport> UdpTransport::Scrub(const std::string& object_name) {
  // Object-scoped like Remove: a transient session speaking to the well-known
  // port.
  SWIFT_ASSIGN_OR_RETURN(auto session, reactor_->NewSession());
  reactor_->AddSession(session);
  Message request;
  request.type = MessageType::kScrub;
  request.request_id = NextRequestId();
  request.object_name = object_name;
  auto reply = reactor_->Call(session, std::move(request), {MessageType::kScrubReply});
  reactor_->RemoveSession(session);
  if (!reply.ok()) {
    return reply.status();
  }
  SWIFT_RETURN_IF_ERROR(StatusFromWire(reply->status_code, "SCRUB of '" + object_name + "'"));
  ScrubReport report;
  report.blocks_checked = reply->size;
  WireReader r(reply->payload.span());
  while (r.remaining() > 16) {
    const uint64_t offset = r.GetU64();
    const uint64_t length = r.GetU64();
    report.corrupt_ranges.push_back(CorruptRange{offset, length});
  }
  report.truncated = r.remaining() == 1 && r.GetU8() != 0;
  if (!r.ok()) {
    return InternalError("malformed SCRUB_REPLY payload from agent");
  }
  return report;
}

Result<std::string> UdpTransport::FetchStats() {
  // Agent-scoped like Remove: a transient session speaking to the well-known
  // port. The rendered registry no longer fits one datagram (per-shard and
  // per-stage metrics overflowed the old 8 KiB single-reply), so the reply is
  // packetized and reassembled here — never truncated.
  SWIFT_ASSIGN_OR_RETURN(auto session, reactor_->NewSession());
  reactor_->AddSession(session);
  Message request;
  request.type = MessageType::kStats;
  request.request_id = NextRequestId();
  auto bytes = reactor_->CallCollect(session, std::move(request), MessageType::kStatsReply);
  reactor_->RemoveSession(session);
  if (!bytes.ok()) {
    return bytes.status();
  }
  return std::string(bytes->begin(), bytes->end());
}

Result<std::vector<Span>> UdpTransport::FetchSpans(uint64_t trace_filter) {
  // Node-scoped like FetchStats: pull the agent's recent spans (optionally
  // one trace's) over TRACE/TRACE_REPLY.
  SWIFT_ASSIGN_OR_RETURN(auto session, reactor_->NewSession());
  reactor_->AddSession(session);
  Message request;
  request.type = MessageType::kTrace;
  request.request_id = NextRequestId();
  request.size = trace_filter;
  auto bytes = reactor_->CallCollect(session, std::move(request), MessageType::kTraceReply);
  reactor_->RemoveSession(session);
  if (!bytes.ok()) {
    return bytes.status();
  }
  return ParseSpans(*bytes);
}

void UdpTransport::Drain() { reactor_->Drain(); }

}  // namespace swift
