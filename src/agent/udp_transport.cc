#include "src/agent/udp_transport.h"

#include <fcntl.h>
#include <poll.h>
#include <pthread.h>
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

// Client reactor threads in the process: one per core, at most four;
// channels are dealt over them round-robin. Completions run on the driving
// thread (degraded reads fold survivors there), so too small a pool
// serializes them. On 4 vCPUs, interleaved perfbench pairs against one
// thread per transport: stream_1m lost 15% mbps with one thread, and
// degraded_rs42 9% with two; four matched both.
size_t ClientReactorCount() {
  return std::clamp<size_t>(std::thread::hardware_concurrency(), 1, 4);
}

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
  Counter* reactor_kicks;
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
        registry.GetCounter("swift_udp_client_reactor_kicks_total"),
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
// channel; with several transports on one port the gauge is last-writer-wins,
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

struct UdpTransport::Session {
  UdpSocket socket;
  UdpEndpoint agent;
  Channel* channel = nullptr;
};

// One transport's column on its reactor: the congestion state, window gate
// and send queue of one agent. Those belong to whichever thread drives the
// reactor; `live_ops`, `handles` and the attach flags are guarded by the
// reactor's mutex. The transport's atomics publish snapshots outward.
struct UdpTransport::Channel {
  // One encoded datagram waiting for the next flush.
  struct PendingSend {
    SessionPtr session;
    OutgoingDatagram dgram;
    uint32_t request_id = 0;
    bool timestamped = false;  // header carries tx-timestamp bytes to patch
    bool deadlined = false;    // header carries deadline bytes to patch
    Clock::time_point op_deadline{};  // absolute end of the op's budget
    uint64_t queued_us = 0;    // Send() instant, for pacing-delay metrics
    bool paced = false;        // held at least one flush by the token bucket
  };

  explicit Channel(UdpTransport* owner);

  // The delay controller's knobs derive from the transport's options: the
  // static max_in_flight_ops becomes the hard ceiling, and a mediator rate
  // cap seeds the initial window (admission composing with CC). Without a
  // cap the window starts at the ceiling — the pre-CC static behavior —
  // and adapts DOWN under queuing delay or loss.
  static DelayControllerOptions ControllerOptions(const Options& o) {
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

  bool timestamps_enabled() const { return cc_mode != CcMode::kOff; }

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
    if (timestamps_enabled() && rtt.has_samples()) {
      const double floor_us = std::max(1, policy.initial_timeout_ms / 8) * 1000.0;
      const double ceil_us = std::max(1, policy.max_timeout_ms) * 1000.0;
      const double serialize_us = static_cast<double>(op_bytes) / 32.0;
      return std::max(
          1, static_cast<int>(std::ceil((rtt.RtoUs(floor_us, ceil_us) + serialize_us) / 1000.0)));
    }
    return policy.FirstTimeout();
  }

  // Backoff with decorrelated jitter (every cc mode — the doubling table
  // self-synchronized retry storms across channels sharing a lossy link).
  int NextTimeoutMs(int current_ms, uint64_t op_bytes = 0) {
    // The cap must never sit below the serialization-adjusted base, or the
    // jitter range inverts for ops larger than max_timeout_ms' worth of wire.
    const uint32_t base = static_cast<uint32_t>(std::max(1, InitialTimeoutMs(op_bytes)));
    return static_cast<int>(jitter.NextTimeoutMs(
        base, static_cast<uint32_t>(std::max(1, current_ms)),
        std::max(base, static_cast<uint32_t>(std::max(1, policy.max_timeout_ms)))));
  }

  // A retry timeout fired somewhere on this channel: the delay controller's
  // loss signal (gated to one decrease per RTT inside the controller).
  void NoteLoss() {
    if (cc_mode != CcMode::kDelay) {
      return;
    }
    const uint64_t before = cc.decreases();
    cc.OnLoss(NowUs(), rtt.has_samples() ? rtt.srtt_us() : 0.0);
    if (cc.decreases() != before) {
      CcMetrics().cwnd_decreases->Increment();
      transport->cc_decreases_.fetch_add(1, std::memory_order_relaxed);
    }
    PublishCc();
  }

  // A reply carrying a timestamp echo arrived for a live op: RTT on our own
  // clock (now - echoed tx), one-way delay against the server's clock (its
  // tx stamp; the offset is absorbed by the base tracker), both feeding the
  // delay controller. Karn's rule: retransmitted ops never feed samples.
  void NoteEcho(const Message& m, bool retransmitted) {
    if (!timestamps_enabled() || m.echo_ts_us == 0) {
      return;
    }
    if (retransmitted) {
      CcMetrics().rtt_samples_karn_dropped->Increment();
      return;
    }
    const uint64_t now_us = NowUs();
    if (now_us <= m.echo_ts_us) {
      return;  // clock went sideways; drop the sample
    }
    rtt.AddSample(static_cast<double>(now_us - m.echo_ts_us));
    CcMetrics().rtt_samples->Increment();
    CcMetrics().srtt_samples_us->Record(rtt.srtt_us());
    transport->cc_rtt_samples_.fetch_add(1, std::memory_order_relaxed);
    double queuing_delay_us = 0;
    if (m.tx_ts_us != 0) {
      const double owd_us = static_cast<double>(now_us) - static_cast<double>(m.tx_ts_us);
      queuing_delay_us = owd.Update(owd_us, now_us);
    }
    if (cc_mode == CcMode::kDelay) {
      cc.OnAck(queuing_delay_us);
      CcMetrics().cwnd_samples->Record(cc.cwnd());
    }
    PublishCc();
  }

  void NoteDuplicate() {
    CcMetrics().duplicate_datagrams->Increment();
    transport->cc_dup_datagrams_.fetch_add(1, std::memory_order_relaxed);
  }

  // Publishes the channel's live state to the transport's atomics and the
  // process/per-port gauges.
  void PublishCc() {
    const uint32_t window = cc_mode == CcMode::kDelay ? cc.window() : transport->max_in_flight();
    transport->cc_window_.store(window, std::memory_order_relaxed);
    transport->cc_cwnd_milli_.store(static_cast<uint64_t>(cc.cwnd() * 1000.0),
                                    std::memory_order_relaxed);
    transport->cc_srtt_us_.store(static_cast<uint64_t>(rtt.srtt_us()), std::memory_order_relaxed);
    transport->cc_rttvar_us_.store(static_cast<uint64_t>(rtt.rttvar_us()),
                                   std::memory_order_relaxed);
    CcMetrics().cwnd->Set(static_cast<int64_t>(window));
    CcMetrics().srtt_us->Set(static_cast<int64_t>(rtt.srtt_us()));
    cwnd_gauge->Set(static_cast<int64_t>(window));
    srtt_gauge->Set(static_cast<int64_t>(rtt.srtt_us()));
  }

  // Re-derives the pace from the channel's live state: twice the measured
  // delivery rate (2 * cwnd * bytes-per-op / srtt — pacing smooths bursts
  // without capping steady-state throughput; cwnd counts ops, so the
  // bytes-per-op EWMA converts it into a byte rate), upper-bounded by the
  // mediator's admission cap. Unlimited until the first RTT sample unless
  // capped.
  void ReconfigurePacer(uint64_t now_us) {
    const double cap = options.rate_cap_bytes_per_sec;
    double rate = cap > 0 ? cap : 0.0;
    if (rtt.has_samples()) {
      const double op_bytes = std::max<double>(kMaxPacketPayload, avg_op_bytes);
      const double dynamic = 2.0 * cc.cwnd() * op_bytes * 1e6 / std::max(100.0, rtt.srtt_us());
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
        std::max<double>(static_cast<double>(socket_batch), 2.0) * (kMaxPacketPayload + 128);
    pacer.SetRate(rate, burst, now_us);
    pace_gauge->Set(static_cast<int64_t>(rate));
  }

  UdpTransport* const transport;
  const Options& options;
  const RetryPolicy policy;
  const uint32_t read_window;
  const uint32_t socket_batch;
  const CcMode cc_mode;
  RttEstimator rtt;
  OwdBaseTracker owd;
  DelayController cc;
  TokenBucket pacer;
  DecorrelatedJitter jitter;
  // EWMA of payload bytes per retired data op: the cwnd counts ops, so the
  // pacer's delivery-rate model needs bytes-per-op to convert it into a byte
  // rate. Starts at one packet (the smallest a data op can be).
  double avg_op_bytes = static_cast<double>(kMaxPacketPayload);
  Gauge* cwnd_gauge = nullptr;  // swift_cc_cwnd_port_<p>
  Gauge* srtt_gauge = nullptr;  // swift_cc_srtt_us_port_<p>
  Gauge* pace_gauge = nullptr;  // swift_cc_pace_rate_bps_port_<p>

  // Driver only.
  std::deque<std::unique_ptr<PendingOp>> waiting;  // data ops at the window gate, FIFO
  size_t data_in_flight = 0;                       // active ops holding a window slot
  std::vector<PendingSend> sends;                  // queued for the next flush
  // Absolute instant (NowUs clock) the pacer can next release bytes; 0 when
  // nothing is parked in the pacer.
  uint64_t next_pace_deadline_us = 0;

  // Under the reactor's mutex.
  uint64_t live_ops = 0;  // submitted, completion not yet run
  std::map<uint32_t, SessionPtr> handles;
  bool attached = true;   // false once the transport is being destroyed
  bool detached = false;  // the reactor holds no reference to it any more
};

// One outstanding protocol exchange: a state machine advanced by incoming
// datagrams and timeout expirations, always on the driving thread.
class UdpTransport::PendingOp {
 public:
  // The constructor runs on the submitting thread: it captures the caller's
  // ambient trace context (becoming a child span), or — when the submit is
  // untraced and tracing is on — starts a fresh root trace for this op.
  // Introspection ops (stats/trace pulls) pass traced=false so observing the
  // system does not add spans to it.
  PendingOp(SessionPtr session, uint32_t request_id, bool traced = true)
      : session_(std::move(session)),
        channel_(session_->channel),
        request_id_(request_id),
        timeout_ms_(channel_->InitialTimeoutMs()) {
    FlightRecorder::Global().Record(TraceEventKind::kOpStart, request_id_);
    // Introspection ops (traced=false) are exempt from op deadlines:
    // observing the system should never be shed or deadline-failed.
    if (traced && channel_->options.op_deadline_ms > 0) {
      has_op_deadline_ = true;
      op_deadline_ = started_ + std::chrono::milliseconds(channel_->options.op_deadline_ms);
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
  Channel* channel() const { return channel_; }
  Clock::time_point deadline() const { return deadline_; }

  // Data ops (reads/writes) count against the congestion window and queue
  // at the channel's window gate under delay mode; control RPCs and
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

  // Window gate entered (the driver picked the op up but cwnd was full).
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

  // Driver, just before Start(): closes the client-queue stage (submit →
  // pickup).
  void NotePickup() {
    if (span_.trace_id == 0) {
      return;
    }
    pickup_ns_ = FlightRecorder::NowNs();
    span_.events.push_back(
        SpanEvent{SpanStage::kClientQueue, span_.start_ns, pickup_ns_ - span_.start_ns, 0});
  }

  // Driver, right after the flush that carried this op's opening burst to
  // the kernel: closes the send-flush stage. The wire stage opens here and
  // is closed by RecordDone.
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
  // The retransmission deadline expired with the retry budget spent, but the
  // agent last answered less than the policy's silence span ago: re-arms the
  // deadline for the end of that span, with no resend, and returns true.
  bool WaitOutSilence() {
    if (!channel_->policy.Exhausted(timeouts_ + 1) || PastDeadline()) {
      return false;
    }
    const Clock::time_point end = heard_ + std::chrono::milliseconds(channel_->policy.SilenceMs());
    if (Clock::now() >= end) {
      return false;
    }
    deadline_ = has_op_deadline_ ? std::min(end, op_deadline_) : end;
    return true;
  }
  // Force-completes with `status` (cancellation, session or channel teardown).
  virtual void Abort(Status status) = 0;

 protected:
  UdpTransport* transport() const { return channel_->transport; }

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
    if (channel_->timestamps_enabled()) {
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
  bool PastDeadline() const { return has_op_deadline_ && Clock::now() >= op_deadline_; }
  // The op's terminal status at the deadline. kTimedOut, like an exhausted
  // retry budget: callers above (parity reconstruction, SwiftFile) already
  // treat it as a per-op failure, not a poisoned channel.
  Status DeadlineFailure(const char* what) {
    transport()->ops_deadline_failed_.fetch_add(1, std::memory_order_relaxed);
    Metrics().deadline_failures->Increment();
    return TimedOutError(std::string(what) + ": op deadline of " +
                         std::to_string(channel_->options.op_deadline_ms) + "ms exceeded");
  }

  // An ERROR reply: the op's failure — unless it is kOverloaded, the server
  // shedding this request (its queue outlived the budget, or it is load-
  // shedding). That is backpressure, not wire loss: the op re-arms with
  // decorrelated jitter and the timeout path retransmits, with the loss
  // signal for that retransmit suppressed so the congestion window never
  // charges a shed to the network (OK). A shed fails the op once past its
  // deadline, or when it would outlive the retry budget.
  Status ErrorVerdict(const Message& m, const char* what) {
    if (static_cast<StatusCode>(m.status_code) != StatusCode::kOverloaded) {
      return StatusFromWire(m.status_code, what);
    }
    transport()->ops_overloaded_.fetch_add(1, std::memory_order_relaxed);
    Metrics().overloaded_replies->Increment();
    if (PastDeadline()) {
      return DeadlineFailure(what);
    }
    if (channel_->policy.Exhausted(timeouts_ + 1)) {
      return OverloadedError(std::string(what) +
                             ": agent still shedding load after the retry budget");
    }
    overload_deferred_ = true;
    Backoff();
    ArmDeadline();
    return OkStatus();
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
    channel_->sends.push_back(Channel::PendingSend{
        session_,
        OutgoingDatagram{session_->agent, std::move(parts.header), std::move(parts.payload)},
        request_id_, m.has_timestamps(), m.has_deadline(), op_deadline_, NowUs()});
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
    const Clock::time_point now = Clock::now();
    if (std::exchange(progressed_, false)) {
      heard_ = now;
    }
    deadline_ = now + std::chrono::milliseconds(timeout_ms_);
    if (has_op_deadline_ && op_deadline_ < deadline_) {
      deadline_ = op_deadline_;
    }
  }
  void Backoff() { timeout_ms_ = channel_->NextTimeoutMs(timeout_ms_, data_bytes()); }
  // The retransmission deadline expired: the op's failure once past its
  // deadline or retry budget; otherwise OK — the retry is counted, the
  // timeout backed off, and the caller resends.
  Status RetryVerdict(const char* what, const std::string& unreachable) {
    if (PastDeadline()) {
      return DeadlineFailure(what);
    }
    if (channel_->policy.Exhausted(++timeouts_)) {
      FlightRecorder::Global().Record(TraceEventKind::kOpTimeout, request_id_,
                                      static_cast<uint32_t>(timeouts_));
      return UnavailableError(unreachable);
    }
    CountRetry();
    Backoff();
    return OkStatus();
  }
  // Progress: forget consecutive timeouts; optionally restart the backoff
  // schedule too (reads do, writes keep the current timeout on a NACK).
  void NoteProgress(bool reset_backoff) {
    timeouts_ = 0;
    progressed_ = true;
    if (reset_backoff) {
      const int fresh = channel_->InitialTimeoutMs(data_bytes());
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
      channel_->NoteLoss();
    }
  }

  // Registry + flight-recorder bookkeeping shared by every op's Finish:
  // records the op latency and a completion (arg = latency µs) or failure
  // (arg = status code) trace event, then closes and submits the op's span
  // (the wire stage spans flush → completion, so from the client's side it
  // covers the network plus everything the remote did).
  void RecordDone(HistogramMetric* latency_us, bool ok, StatusCode code, MessageType op) {
    const double us =
        std::chrono::duration_cast<std::chrono::duration<double, std::micro>>(Clock::now() -
                                                                              started_)
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

  SessionPtr session_;
  Channel* channel_;
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
  // The op's start or the agent's last progress reply: set by the
  // ArmDeadline that follows either, which reads the clock anyway.
  Clock::time_point heard_ = started_;
  bool progressed_ = true;

  // Span state. trace_id == 0 ⇒ this op is untraced and every hook above
  // is a no-op. Mutated on the submitting thread (constructor) and the
  // driving thread afterwards; the inbox mutex orders the handoff.
  Span span_;
  uint32_t trace_flags_ = 0;
  uint64_t pickup_ns_ = 0;
  uint64_t flush_ns_ = 0;
};

UdpTransport::Channel::Channel(UdpTransport* owner)
    : transport(owner),
      options(owner->options_),
      policy(options.retry_policy()),
      read_window(std::max<uint32_t>(1, options.read_window)),
      socket_batch(std::max<uint32_t>(1, options.socket_batch)),
      cc_mode(owner->cc_mode_),
      cc(ControllerOptions(options)),
      jitter(options.loss_seed ^ (uint64_t(owner->agent_port_) << 32) ^ NowUs()) {
  MetricRegistry& registry = MetricRegistry::Global();
  const std::string port = std::to_string(owner->agent_port_);
  cwnd_gauge = registry.GetGauge("swift_cc_cwnd_port_" + port);
  srtt_gauge = registry.GetGauge("swift_cc_srtt_us_port_" + port);
  pace_gauge = registry.GetGauge("swift_cc_pace_rate_bps_port_" + port);
  PublishCc();
}

// ---------------------------------------------------------------------------
// Reactor: one poll loop over the session sockets of many channels.
//
// Threading rules:
//  * One thread at a time holds the driver role (`driving_`, under mutex_);
//    only it touches `active_` and the channels' congestion and send state.
//    The reactor's own thread takes the role when kicked and keeps it while
//    work is left. A waiter takes it in Poll() when nobody holds it — on this
//    reactor and on every other one it holds an op on, all or none — runs
//    turns over all of them in one poll(2) until a completion ran, and gives
//    each back: an idle one freed, one whose only live op is left held for
//    its next Poll(), any other handed to the reactor thread — so no waiter
//    is stranded at a hand-off.
//  * Other threads hand ops, cancels and detaches over through mutex_. While
//    a driver may block in poll, the first addition to empty lists writes
//    the wake pipe; the driver itself never does (an addition after its swap
//    makes the coming poll return at once). With no driver, a submit kicks
//    the reactor thread, unless it is the reactor's only live op, submitted
//    in a PollScope: then it is held for its submitter's Poll().
//  * Request ids are unique per reactor, and a datagram reaches an op only
//    if it arrived on that op's own session: channels never cross-deliver.
//    Sessions are shared_ptr, so a socket outlives concurrent removal; each
//    turn polls a snapshot of the session list.
//  * Sends are coalesced: Send() queues the encoded datagram on its channel,
//    and everything queued in a turn leaves in sendmmsg(2) batches per
//    session before the next poll. A datagram the kernel refuses mid-batch
//    counts as lost on the wire (the retry machinery recovers); only a
//    closed socket fails Send() synchronously.
//  * An op's completion runs exactly once, on the driver with mutex_
//    released; then the op is destroyed. Completions may start ops on any
//    channel (the distribution agent starts a column's next queued op from
//    the completion that frees its slot) but must never block.
//  * Reactors are never destroyed. A transport's destructor detaches its
//    channel: its ops complete kUnavailable and the driver drops every
//    reference to it before the destructor returns.
// ---------------------------------------------------------------------------
class UdpTransport::Reactor final : public PollScope::Holder {
 public:
  // Control RPC (OPEN/STAT/TRUNCATE/CLOSE/REMOVE/SCRUB): one request
  // datagram, retransmitted whole on timeout, completed by the first wanted
  // reply. A `collect` RPC (the STATS and TRACE pulls) is answered by a
  // packetized reply whose payload is reassembled by (seq, total); a re-sent
  // request makes the server render a fresh snapshot, so a changed `total`
  // restarts the collection — mixing two renderings would corrupt the
  // stream. Collect RPCs are untraced: observing must not add spans.
  class RpcOp : public PendingOp {
   public:
    using Completion = std::function<void(Result<Message>)>;

    RpcOp(SessionPtr session, Message request, MessageType want, bool collect, Completion done)
        : PendingOp(std::move(session), request.request_id, /*traced=*/!collect),
          request_(std::move(request)),
          want_(want),
          collect_(collect),
          done_(std::move(done)) {
      if (!collect) {
        Stamp(request_);
        StampTs(request_);
        StampDeadline(request_);
      }
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
        Status status = ErrorVerdict(m, MessageTypeName(request_.type));
        return !status.ok() && Finish(std::move(status));
      }
      if (m.type != want_) {
        return false;  // unexpected type: keep waiting
      }
      if (!collect_) {
        return Finish(m);
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
      if (total_ == 0 || parts_.size() < total_) {
        ArmDeadline();
        return false;
      }
      std::vector<uint8_t> bytes;
      for (const auto& [seq, part] : parts_) {
        bytes.insert(bytes.end(), part.begin(), part.end());
      }
      Message reply = m;
      reply.payload = BufferSlice::FromVector(std::move(bytes));
      return Finish(std::move(reply));
    }

    bool OnTimeout() override {
      const char* what = MessageTypeName(request_.type);
      Status status =
          RetryVerdict(what, "storage agent unreachable (no reply to " + std::string(what) + ")");
      if (status.ok()) {
        status = Resend(request_);
      }
      if (!status.ok()) {
        return Finish(std::move(status));
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
    MessageType want_;
    bool collect_;
    uint16_t total_ = 0;  // collect: 0 until the first reply packet arrives
    std::map<uint16_t, std::vector<uint8_t>> parts_;
    Completion done_;
  };

  // Client-driven windowed read (§3.1): request packets one at a time, keep
  // up to `read_window` requests outstanding, re-request whatever is still
  // missing on timeout. No acknowledgements. Packets are placed straight
  // into `dst` (the striping layer points it at the user's destination, so
  // the datagram payload's one placement copy is the only user-space copy on
  // the whole read path), which must stay valid until the completion runs.
  class ReadOp : public PendingOp {
   public:
    ReadOp(SessionPtr session, uint32_t request_id, uint32_t handle, uint64_t offset,
           std::span<uint8_t> dst, WriteCompletion done)
        : PendingOp(std::move(session), request_id),
          handle_(handle),
          offset_(offset),
          length_(dst.size()),
          total_(PacketCountFor(dst.size())),
          reassembler_(request_id, offset, dst, total_),
          done_(std::move(done)) {
      // The base ctor sized the timeout for a zero-byte RPC (data_bytes() is
      // not virtual-dispatchable there); re-size it for this op's payload.
      timeout_ms_ = channel_->InitialTimeoutMs(length_);
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
        Status status = ErrorVerdict(m, "READ");
        return !status.ok() && Finish(std::move(status));
      }
      if (m.type != MessageType::kData) {
        return false;
      }
      if (outstanding_.find(m.seq) == outstanding_.end()) {
        // A packet we already placed: the original and a re-requested copy
        // both arrived (reordering/duplication), not fresh progress and not
        // loss — count it and move on.
        channel_->NoteDuplicate();
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
      Status status = RetryVerdict("READ", "storage agent unreachable during read");
      // Resubmit every outstanding packet request.
      for (auto seq = outstanding_.begin(); status.ok() && seq != outstanding_.end(); ++seq) {
        status = Resend(RequestFor(*seq));
      }
      if (!status.ok()) {
        return Finish(std::move(status));
      }
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
      m.window = static_cast<uint16_t>(channel_->read_window);
      Stamp(m);
      StampTs(m);
      StampDeadline(m);
      return m;
    }

    // Keeps the request window full. False when a send failed (finished).
    bool TopUp() {
      while (outstanding_.size() < channel_->read_window && next_seq_ < total_) {
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
    // op's failure.
    bool Finish(Status status) {
      transport()->AccountOpDone(status.ok());
      RecordDone(Metrics().read_us, status.ok(), status.code(), MessageType::kReadReq);
      done_(std::move(status));
      return true;
    }

    uint32_t handle_;
    uint64_t offset_;
    uint64_t length_;
    uint32_t total_;
    Reassembler reassembler_;
    std::set<uint32_t> outstanding_;
    uint32_t next_seq_ = 0;
    WriteCompletion done_;
  };

  // Announce + stream + query write (§3.1): blast every packet, then let the
  // agent ACK a complete request or NACK the missing seqs.
  class WriteOp : public PendingOp {
   public:
    WriteOp(SessionPtr session, uint32_t request_id, uint32_t handle, uint64_t offset,
            std::span<const uint8_t> data, WriteCompletion done)
        : PendingOp(std::move(session), request_id),
          bytes_(data.size()),
          packets_(SplitIntoPackets(MessageType::kWriteData, handle, request_id, offset, data)),
          done_(std::move(done)) {
      // Re-size the base ctor's zero-byte timeout for this op's payload.
      timeout_ms_ = channel_->InitialTimeoutMs(bytes_);
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
        case MessageType::kError: {
          Status status = ErrorVerdict(m, "WRITE");
          return !status.ok() && Finish(std::move(status));
        }
        default:
          return false;
      }
    }

    bool OnTimeout() override {
      Status status = RetryVerdict("WRITE", "storage agent unreachable during write");
      if (status.ok()) {
        // Ask where we stand; the agent answers ACK or NACK(missing).
        status = Resend(query_);
      }
      if (!status.ok()) {
        return Finish(std::move(status));
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

  // The reactor for a new channel: a fixed pool, dealt round-robin.
  static Reactor* ForNewChannel() {
    static const std::vector<Reactor*> pool = [] {
      std::vector<Reactor*> reactors(ClientReactorCount());
      for (Reactor*& reactor : reactors) {
        reactor = new Reactor();  // never destroyed
      }
      return reactors;
    }();
    static std::atomic<size_t> next{0};
    return pool[next.fetch_add(1, std::memory_order_relaxed) % pool.size()];
  }

  Reactor() {
    SWIFT_CHECK(pipe(wake_fds_) == 0) << "reactor wake pipe";
    fcntl(wake_fds_[0], F_SETFL, O_NONBLOCK);
    fcntl(wake_fds_[1], F_SETFL, O_NONBLOCK);
    std::thread thread([this] { Run(); });
    pthread_setname_np(thread.native_handle(), "swift-reactor");
    thread.detach();
  }

  // --- caller-side API (any thread) ----------------------------------------

  uint32_t NextRequestId() { return next_request_id_.fetch_add(1, std::memory_order_relaxed); }

  void Attach(Channel* channel) {
    std::lock_guard<std::mutex> lock(mutex_);
    channels_.push_back(channel);
  }

  // Completes the channel's ops kUnavailable and waits until the reactor
  // holds no reference to it.
  void Detach(Channel* channel) {
    SWIFT_CHECK(!DrivenHere()) << "transport destroyed from a completion on its reactor";
    std::unique_lock<std::mutex> lock(mutex_);
    channel->attached = false;
    const bool wake = NeedsWake();
    detaching_.push_back(channel);
    if (!driving_) {
      Claim();
      lock.unlock();
      DriveOnce();
      lock.lock();
    } else if (wake) {
      Wake();
    }
    settled_cv_.wait(lock, [channel] { return channel->detached; });
  }

  // Binds a fresh loopback socket aimed at the agent's well-known port (an
  // OPEN reply retargets it to the data port it names), with loss injection
  // configured before the session becomes visible to the driver.
  Result<SessionPtr> NewSession(Channel& channel) {
    auto session = std::make_shared<Session>();
    SWIFT_RETURN_IF_ERROR(session->socket.BindLoopback(0));
    UdpTransport* transport = channel.transport;
    if (transport->options_.loss_probability > 0) {
      session->socket.SetLossProbability(
          transport->options_.loss_probability,
          transport->next_loss_seed_.fetch_add(1, std::memory_order_relaxed));
    }
    session->socket.SetChaos(transport->options_.chaos);
    session->agent = UdpEndpoint::Loopback(transport->agent_port_);
    session->channel = &channel;
    std::lock_guard<std::mutex> lock(mutex_);
    sessions_.push_back(session);
    return session;
  }

  // By contract the caller removes a session only once its ops have
  // completed; any straggler is aborted kUnavailable by the next turn.
  void RemoveSession(const SessionPtr& session) {
    std::lock_guard<std::mutex> lock(mutex_);
    std::erase(sessions_, session);
    if (live_ops_ > 0) {
      removals_.push_back(session);
    }
  }

  void RegisterHandle(uint32_t handle, SessionPtr session) {
    std::lock_guard<std::mutex> lock(mutex_);
    session->channel->handles[handle] = std::move(session);
  }

  SessionPtr SessionForHandle(Channel& channel, uint32_t handle, bool take = false) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = channel.handles.find(handle);
    if (it == channel.handles.end()) {
      return nullptr;
    }
    SessionPtr session = it->second;
    if (take) {
      channel.handles.erase(it);
    }
    return session;
  }

  void SubmitOp(std::unique_ptr<PendingOp> op) {
    Channel* channel = op->channel();
    bool wake;
    bool hold = false;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      SWIFT_CHECK(channel->attached) << "op submitted to a transport being destroyed";
      ++live_ops_;
      ++channel->live_ops;
      wake = NeedsWake();
      inbox_.push_back(std::move(op));
      if (!driving_) {
        // Held only when it is the reactor's one op: any other work (and
        // any later submit) kicks the reactor thread, which starts it too.
        // A driving thread (an op started from a completion) holds nothing:
        // it may never poll again.
        hold = PollScope::active() && live_ops_ == 1 && t_driven_.empty();
        if (hold) {
          held_by_ = std::this_thread::get_id();
        } else {
          Kick();
        }
      }
    }
    if (hold) {
      PollScope::Hold(this);
    }
    if (wake) {
      Wake();
    }
  }

  // Requests cancellation of a pending op (any thread). The driver applies
  // it after the turn's receive pass, so a reply already waiting in the
  // socket still completes the op; an op that already completed is a no-op.
  // SubmitOp and Cancel share the mutex, so the op can never arrive in a
  // LATER turn than its cancel.
  void Cancel(uint32_t request_id) {
    bool wake;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      wake = NeedsWake();
      cancels_.push_back(request_id);
      if (!driving_) {
        Kick();
      }
    }
    if (wake) {
      Wake();
    }
  }

  // Caller-driven completion: claims this reactor and every other one this
  // thread holds an op on, when no other thread drives any of them, and
  // drives them together — one poll(2) over all their sockets per turn —
  // until a completion has run. Returns 0, with the thread's holds handed to
  // the reactor threads, when another thread drives one of them or nothing
  // is live.
  size_t Poll() {
    if (!t_driven_.empty()) {
      return 0;  // called from a completion: this thread already drives
    }
    bool taken = false;
    auto claim = [&taken](Reactor* reactor, bool held_only) {
      std::lock_guard<std::mutex> lock(reactor->mutex_);
      if (reactor->driving_) {
        taken = true;
      } else if (held_only ? reactor->held_by_ == std::this_thread::get_id()
                           : reactor->live_ops_ > 0) {
        reactor->Claim();
        t_driven_.push_back(reactor);
      }
    };
    claim(this, /*held_only=*/false);
    for (PollScope::Holder* holder : PollScope::holders()) {
      auto* reactor = dynamic_cast<Reactor*>(holder);
      if (!taken && reactor != nullptr && reactor != this) {
        claim(reactor, /*held_only=*/true);
      }
    }
    if (taken || t_driven_.empty()) {
      for (Reactor* reactor : t_driven_) {
        reactor->Release(/*hand_off=*/true);
      }
      t_driven_.clear();
      PollScope::ReleaseHeld();
      return 0;
    }
    PollScope::ForgetHeld();  // every live hold is now a claim

    size_t ran = 0;
    while (ran == 0 && !t_driven_.empty()) {
      t_pfds_.clear();
      int timeout_ms = -1;
      for (Reactor* reactor : t_driven_) {
        const int ms = reactor->Prepare(/*block=*/true, t_pfds_);
        timeout_ms = timeout_ms < 0 ? ms : ms < 0 ? timeout_ms : std::min(timeout_ms, ms);
      }
      if (std::ranges::any_of(t_driven_, [](const Reactor* r) { return r->requeued_; })) {
        timeout_ms = 0;  // a later reactor's completions gave an earlier one work
      }
      ::poll(t_pfds_.data(), t_pfds_.size(), timeout_ms);
      Metrics().reactor_wakeups->Increment();
      for (Reactor* reactor : t_driven_) {
        ran += reactor->Finish(t_pfds_);
      }
      std::erase_if(t_driven_, [](Reactor* reactor) { return reactor->Release(/*hand_off=*/false); });
    }
    for (Reactor* reactor : t_driven_) {
      reactor->HoldOrHandOff();
    }
    t_driven_.clear();
    return ran;
  }

  // Runs one non-blocking turn when no thread drives, so that datagrams that
  // arrived while the reactor sat idle are taken in.
  void CatchUp() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (driving_ || !t_driven_.empty()) {
        return;
      }
      Claim();
    }
    DriveOnce();
  }

  void Drain(Channel& channel) {
    auto drained = [this, &channel] {
      std::lock_guard<std::mutex> lock(mutex_);
      return channel.live_ops == 0;
    };
    while (!drained()) {
      if (Poll() == 0) {
        std::unique_lock<std::mutex> lock(mutex_);
        settled_cv_.wait(lock, [&channel] { return channel.live_ops == 0; });
      }
    }
    PollScope::ReleaseHeld();  // a reactor Poll() left held
  }

  // Runs `start(done)` and blocks until `done` ran, driving the reactor from
  // this thread whenever no other thread does (the sync wrappers' core).
  template <typename T, typename Start>
  T Await(Start start) {
    SWIFT_CHECK(!DrivenHere()) << "blocking transport call from a completion";
    std::mutex mutex;
    std::condition_variable cv;
    std::optional<T> slot;
    {
      PollScope scope;
      start([&](T result) {
        // Signal under the lock: the waiter's frame dies once it sees the slot.
        std::lock_guard<std::mutex> lock(mutex);
        slot.emplace(std::move(result));
        cv.notify_all();
      });
    }
    std::unique_lock<std::mutex> lock(mutex);
    while (!slot.has_value()) {
      lock.unlock();
      const size_t ran = Poll();
      lock.lock();
      if (ran == 0) {
        cv.wait(lock, [&] { return slot.has_value(); });
      }
    }
    // Ops held before this call, or a reactor Poll() left held, go to their
    // reactor threads: the caller may block next on something else.
    PollScope::ReleaseHeld();
    return std::move(*slot);
  }

  // Submits a control RPC and waits for its reply.
  Result<Message> Call(SessionPtr session, Message request, MessageType want,
                       bool collect = false) {
    session->channel->transport->ops_submitted_.fetch_add(1, std::memory_order_relaxed);
    request.request_id = NextRequestId();
    return Await<Result<Message>>([&](RpcOp::Completion done) {
      SubmitOp(std::make_unique<RpcOp>(std::move(session), std::move(request), want, collect,
                                       std::move(done)));
    });
  }

  // A held op's thread will not Poll() after all: the reactor thread runs it.
  void StartHeld() override {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!driving_ && held_by_ == std::this_thread::get_id()) {
      Kick();
    }
  }

 private:
  // --- driver role (under mutex_) ------------------------------------------

  void Claim() {
    driving_ = true;
    kicked_ = false;
    held_by_ = {};
  }

  // With no driver: has the reactor thread take the role.
  void Kick() {
    held_by_ = {};
    if (!kicked_) {
      Metrics().reactor_kicks->Increment();
      kicked_ = true;
      run_cv_.notify_one();
    }
  }

  // Before adding to the inbox, cancels or detaches: whether the pipe must
  // be written. The driver swaps those lists before it polls, so only the
  // first addition to empty lists writes it; later ones ride that wake-up.
  // The driving thread itself (an op started from a completion) never writes
  // it: an addition made after this turn's swap makes the coming poll return
  // at once instead.
  bool NeedsWake() {
    if (DrivenHere()) {
      requeued_ = true;
      return false;
    }
    return driving_ && inbox_.empty() && cancels_.empty() && detaching_.empty();
  }

  void Wake() {
    Metrics().wake_writes->Increment();
    const uint8_t byte = 1;
    [[maybe_unused]] ssize_t n = write(wake_fds_[1], &byte, 1);
  }

  // Driver, between turns: gives the role up when nothing is left to do
  // and returns true; otherwise keeps it and returns false — or, with
  // `hand_off`, passes it to the reactor thread and returns true.
  bool Release(bool hand_off) {
    std::lock_guard<std::mutex> lock(mutex_);
    const bool idle =
        inbox_.empty() && cancels_.empty() && removals_.empty() && detaching_.empty() &&
        active_.empty() &&
        std::ranges::all_of(channels_,
                            [](const Channel* c) { return c->waiting.empty() && c->sends.empty(); }) &&
        // Chaos-held datagrams are released by a later turn's receive pass.
        std::ranges::none_of(sessions_, [](const SessionPtr& s) {
          return s->socket.NextChaosReleaseMs() >= 0;
        });
    if (!idle && !hand_off) {
      return false;
    }
    driving_ = false;
    if (!idle) {
      Kick();
    }
    return true;
  }

  // A waiter's Poll() is done with this reactor, whose work is not: it stays
  // held for the waiter's next Poll() when the waiter's op is its only live
  // one, and goes to the reactor thread otherwise.
  void HoldOrHandOff() {
    bool hold = false;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      driving_ = false;
      hold = live_ops_ == 1;
      if (hold) {
        held_by_ = std::this_thread::get_id();
      } else {
        Kick();
      }
    }
    if (hold) {
      PollScope::Hold(this);
    }
  }

  bool DrivenHere() const { return std::ranges::find(t_driven_, this) != t_driven_.end(); }

  // One non-blocking turn by a thread that just claimed the role.
  void DriveOnce() {
    t_driven_.push_back(this);
    Turn(/*block=*/false);
    Release(/*hand_off=*/true);
    t_driven_.pop_back();
  }

  void Run() {
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mutex_);
        run_cv_.wait(lock, [this] { return kicked_ && !driving_; });
        Claim();
      }
      t_driven_.push_back(this);
      do {
        Turn(/*block=*/true);
      } while (!Release(/*hand_off=*/false));
      t_driven_.clear();
    }
  }

  // --- driver only -----------------------------------------------------------

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

  // Bookkeeping for an op leaving active_ — frees its window slot and
  // remembers its id so late replies count as reordering.
  void RetireOp(const PendingOp& op) {
    NoteDone(op.request_id());
    Channel& channel = *op.channel();
    if (op.is_data_op() && op.data_bytes() > 0) {
      channel.avg_op_bytes =
          0.875 * channel.avg_op_bytes + 0.125 * static_cast<double>(op.data_bytes());
    }
    if (op.counted_in_window()) {
      SWIFT_CHECK(channel.data_in_flight > 0);
      --channel.data_in_flight;
    }
  }

  // An op's completion ran: forget it.
  void MarkFinished(Channel* channel) {
    ++completions_;
    std::lock_guard<std::mutex> lock(mutex_);
    SWIFT_CHECK(live_ops_ > 0 && channel->live_ops > 0);
    --live_ops_;
    if (--channel->live_ops == 0) {
      settled_cv_.notify_all();
    }
  }

  using ActiveMap = std::map<uint32_t, std::unique_ptr<PendingOp>>;

  // Forgets an active op whose completion just ran.
  ActiveMap::iterator Erase(ActiveMap::iterator it) {
    RetireOp(*it->second);
    Channel* channel = it->second->channel();
    it = active_.erase(it);
    MarkFinished(channel);
    return it;
  }

  // Forgets every active op for which `finished(op)` ran its completion.
  template <typename Finished>
  void EraseIf(Finished finished) {
    for (auto it = active_.begin(); it != active_.end();) {
      it = finished(*it->second) ? Erase(it) : std::next(it);
    }
  }

  // Aborts every op, gated or active, that `match` selects; returns how many.
  template <typename Match>
  size_t AbortIf(Match match, const Status& why) {
    size_t aborted = 0;
    for (Channel* channel : channel_snapshot_) {
      aborted += std::erase_if(channel->waiting, [&](const std::unique_ptr<PendingOp>& op) {
        if (!match(*op)) {
          return false;
        }
        op->Abort(why);
        MarkFinished(channel);
        return true;
      });
    }
    EraseIf([&](PendingOp& op) {
      if (!match(op)) {
        return false;
      }
      op.Abort(why);
      ++aborted;
      return true;
    });
    return aborted;
  }

  // Drops every reference to a channel whose transport is going away.
  void DetachNow(Channel* channel) {
    const Status why = UnavailableError("transport shutting down");
    AbortIf([channel](const PendingOp& op) { return op.channel() == channel; }, why);
    channel->sends.clear();
    auto on_channel = [channel](const SessionPtr& s) { return s->channel == channel; };
    std::erase_if(snapshot_, on_channel);
    std::erase(channel_snapshot_, channel);
    std::lock_guard<std::mutex> lock(mutex_);
    std::erase_if(sessions_, on_channel);
    std::erase(channels_, channel);
    channel->detached = true;
    settled_cv_.notify_all();
  }

  // Starts gated data ops while the channel's congestion window has room.
  // Ops enter in submit order; each started op holds one window slot until
  // it leaves active_. window() is never below 1, so `waiting` can only be
  // non-empty while at least one op is in flight to wake the poll loop.
  void DispatchWindow(Channel& channel) {
    while (!channel.waiting.empty() && channel.data_in_flight < channel.cc.window()) {
      std::unique_ptr<PendingOp> op = std::move(channel.waiting.front());
      channel.waiting.pop_front();
      op->NoteGateExit();
      if (op->Start()) {
        MarkFinished(&channel);
        continue;
      }
      op->set_counted_in_window();
      ++channel.data_in_flight;
      started_scratch_.push_back(op.get());
      active_[op->request_id()] = std::move(op);
    }
  }

  // Flushes the channel's queued datagrams that its pacer admits, in queue
  // order, so per-session order is preserved (announce before data packets,
  // data before query); under pacing the admitted set is always a prefix, so
  // ordering survives a split flush.
  void FlushSends(Channel& channel) {
    channel.next_pace_deadline_us = 0;
    std::vector<Channel::PendingSend>& sends = channel.sends;
    if (sends.empty()) {
      return;
    }
    const uint64_t now_us = NowUs();
    const bool pacing = channel.cc_mode == CcMode::kDelay;
    if (pacing) {
      channel.ReconfigurePacer(now_us);
    }
    size_t admit = sends.size();
    if (pacing && !channel.pacer.unlimited()) {
      admit = 0;
      while (admit < sends.size()) {
        const Channel::PendingSend& p = sends[admit];
        const double bytes = static_cast<double>(p.dgram.head.size() + p.dgram.payload.size());
        if (!channel.pacer.TryConsume(bytes, now_us)) {
          // Re-arm the poll for the refill instant; the held tail is marked
          // paced once so the counter and span attribution fire per datagram.
          channel.next_pace_deadline_us =
              now_us + std::max<uint64_t>(1, channel.pacer.MicrosUntil(bytes, now_us));
          break;
        }
        ++admit;
      }
      for (size_t i = admit; i < sends.size(); ++i) {
        if (!sends[i].paced) {
          sends[i].paced = true;
          CcMetrics().paced_datagrams->Increment();
        }
      }
      if (admit == 0) {
        return;
      }
    }
    for (size_t i = 0; i < admit; ++i) {
      Channel::PendingSend& pending = sends[i];
      if (pending.timestamped) {
        // The true send instant, stamped as late as possible: queue time in
        // the client must read as pacing delay, not as network RTT.
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
    }
    // A run of one session's datagrams leaves in sendmmsg calls chunked by
    // socket_batch, which keeps batch=1 an honest per-datagram baseline (one
    // syscall per datagram), not just a receive-side setting. Send failures
    // inside a batch are absorbed as wire loss (counted in the socket layer);
    // a dead socket only means its ops will time out, which is already their
    // UNAVAILABLE path.
    for (size_t i = 0; i < admit;) {
      Session* session = sends[i].session.get();
      batch_scratch_.clear();
      for (; i < admit && sends[i].session.get() == session &&
             batch_scratch_.size() < channel.socket_batch;
           ++i) {
        batch_scratch_.push_back(std::move(sends[i].dgram));
      }
      (void)session->socket.SendBatch(batch_scratch_);
    }
    sends.erase(sends.begin(), sends.begin() + static_cast<ptrdiff_t>(admit));
  }

  // Poll timeout for this turn: out to the nearest retransmission deadline,
  // pacer refill or chaos release; -1 when nothing is armed.
  int TimeoutMs() const {
    int timeout_ms = -1;
    auto tighten = [&timeout_ms](int ms) {
      timeout_ms = timeout_ms < 0 ? ms : std::min(timeout_ms, ms);
    };
    if (!active_.empty()) {
      Clock::time_point nearest = Clock::time_point::max();
      for (const auto& [id, op] : active_) {
        nearest = std::min(nearest, op->deadline());
      }
      const auto now = Clock::now();
      tighten(nearest <= now ? 0
                             : static_cast<int>(std::chrono::duration_cast<std::chrono::milliseconds>(
                                                    nearest - now)
                                                    .count() +
                                                1));
    }
    for (const Channel* channel : channel_snapshot_) {
      // Datagrams are parked in the pacer: wake at the refill instant even
      // if every retransmission deadline is further out.
      if (const uint64_t due = channel->next_pace_deadline_us; due != 0) {
        const uint64_t now_us = NowUs();
        tighten(due <= now_us ? 0 : static_cast<int>((due - now_us + 999) / 1000));
      }
    }
    for (const SessionPtr& session : snapshot_) {
      // Chaos-held datagrams raise no POLLIN (they already left the kernel):
      // wake at the earliest scripted release or the delay stretches to the
      // next retransmission instead of the scripted spike.
      if (const int held_ms = session->socket.NextChaosReleaseMs(); held_ms >= 0) {
        tighten(held_ms);
      }
    }
    return timeout_ms;
  }

  // Drains one readable socket in recvmmsg batches and routes datagrams to
  // the ops of its own session.
  void Receive(const SessionPtr& session) {
    for (;;) {
      auto batch = session->socket.RecvBatch(0, session->channel->socket_batch, recv_scratch_);
      if (!batch.ok()) {
        return;  // kTimedOut = socket drained
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
        if (it == active_.end() || it->second->session() != session.get()) {
          // Stale reply from a finished request. A recently-completed id is
          // a reordered/late datagram, not an anomaly — count it so the
          // reordering-tolerance invariant is observable.
          if (it == active_.end() && recent_done_.contains(decoded->request_id)) {
            CcMetrics().late_datagrams->Increment();
            session->channel->transport->cc_late_datagrams_.fetch_add(1,
                                                                      std::memory_order_relaxed);
          }
          continue;
        }
        PendingOp& op = *it->second;
        op.channel()->NoteEcho(*decoded, op.retransmitted());
        if (op.OnMessage(*decoded)) {
          Erase(it);
        }
      }
      if (*batch < session->channel->socket_batch) {
        return;  // short batch = socket drained
      }
    }
  }

  // One loop turn of this reactor alone: prepare, poll, finish. Returns the
  // completions it ran.
  size_t Turn(bool block) {
    pfds_.clear();
    const int timeout_ms = Prepare(block, pfds_);
    ::poll(pfds_.data(), pfds_.size(), timeout_ms);
    Metrics().reactor_wakeups->Increment();
    return Finish(pfds_);
  }

  // First half of a turn: takes the handed-over work, starts ops, flushes
  // sends, and appends the wake pipe and every session socket to `pfds`.
  // Returns the poll timeout: out to the nearest deadline, 0 when work is
  // already waiting or `block` is false.
  int Prepare(bool block, std::vector<pollfd>& pfds) {
    completions_ = 0;
    std::vector<std::unique_ptr<PendingOp>> fresh;
    std::vector<SessionPtr> gone;
    std::vector<Channel*> leaving;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      fresh.swap(inbox_);
      turn_cancels_.swap(cancels_);
      gone.swap(removals_);
      leaving.swap(detaching_);
      snapshot_ = sessions_;
      channel_snapshot_ = channels_;
      requeued_ = false;
    }

    for (const SessionPtr& session : gone) {
      const Status why = UnavailableError("session closed with ops in flight");
      AbortIf([&session](const PendingOp& op) { return op.session() == session.get(); }, why);
    }
    started_scratch_.clear();
    for (auto& op : fresh) {
      Channel* channel = op->channel();
      if (std::ranges::find(leaving, channel) != leaving.end()) {
        op->Abort(UnavailableError("transport shutting down"));
        MarkFinished(channel);
        continue;
      }
      op->NotePickup();
      // Data ops under delay mode queue at the window gate; control RPCs
      // (and every op in off/fixed mode, where the submit path's
      // max_in_flight cap is the only limit) start immediately.
      if (channel->cc_mode == CcMode::kDelay && op->is_data_op()) {
        op->NoteGateEntered();
        channel->waiting.push_back(std::move(op));
        continue;
      }
      if (op->Start()) {
        MarkFinished(channel);
      } else {
        started_scratch_.push_back(op.get());
        active_[op->request_id()] = std::move(op);
      }
    }
    for (Channel* channel : leaving) {
      DetachNow(channel);
    }

    // Everything queued since the last poll — fresh ops' opening bursts plus
    // whatever the previous turn's handlers produced — leaves now.
    for (Channel* channel : channel_snapshot_) {
      DispatchWindow(*channel);
      FlushSends(*channel);
    }
    if (!started_scratch_.empty()) {
      // The opening bursts just hit the kernel: close the send-flush stage
      // of every op started this turn (its wire stage opens here).
      const uint64_t flushed_ns = FlightRecorder::NowNs();
      for (PendingOp* op : started_scratch_) {
        op->NoteFlushed(flushed_ns);
      }
    }

    // Poll the wake pipe plus every live session socket. Pending cancels, or
    // work a completion added since the swap, must not wait for a datagram.
    pfd_begin_ = pfds.size();
    pfds.push_back({wake_fds_[0], POLLIN, 0});
    for (const SessionPtr& session : snapshot_) {
      pfds.push_back({session->socket.fd(), POLLIN, 0});
    }
    return block && !requeued_ && turn_cancels_.empty() ? TimeoutMs() : 0;
  }

  // Second half: drains the wake pipe, receives on the sockets `pfds` found
  // readable, then applies cancellations and timeouts. Returns the
  // completions the turn ran, both halves together.
  size_t Finish(std::span<const pollfd> pfds) {
    const pollfd* mine = pfds.data() + pfd_begin_;
    if (mine[0].revents & POLLIN) {
      uint8_t buf[64];
      while (read(wake_fds_[0], buf, sizeof(buf)) > 0) {
      }
    }
    for (size_t i = 0; i < snapshot_.size(); ++i) {
      if ((mine[i + 1].revents & POLLIN) != 0 || snapshot_[i]->socket.NextChaosReleaseMs() == 0) {
        Receive(snapshot_[i]);
      }
    }

    // Cancellations come after the receive pass: a reply already in the
    // socket wins over a cancel, so a client-side stall (the reply waited
    // for a descheduled driver) never looks like a straggler. A cancelled op
    // completes kCancelled here and leaves active_, so nothing can write its
    // destination buffer again — any reply that arrives later matches the
    // recent-done ring and is counted as a late datagram, never placed.
    for (uint32_t id : turn_cancels_) {
      if (AbortIf([id](const PendingOp& op) { return op.request_id() == id; },
                  CancelledError("read cancelled by submitter")) > 0) {
        Metrics().cancelled_reads->Increment();
      }
    }

    turn_cancels_.clear();

    const auto now = Clock::now();
    EraseIf([now](PendingOp& op) {
      return op.deadline() <= now && !op.WaitOutSilence() && op.OnTimeout();
    });
    return completions_;
  }

  int wake_fds_[2] = {-1, -1};
  std::atomic<uint32_t> next_request_id_{1};

  std::mutex mutex_;
  std::condition_variable run_cv_;      // the reactor thread: kicked
  std::condition_variable settled_cv_;  // a channel drained or detached
  bool driving_ = false;                // some thread holds the driver role
  bool kicked_ = false;                 // the reactor thread should take it
  std::thread::id held_by_;             // a thread holding the one live op
  uint64_t live_ops_ = 0;               // submitted, completion not yet run
  std::vector<std::unique_ptr<PendingOp>> inbox_;
  std::vector<uint32_t> cancels_;  // request ids to cancel next turn
  std::vector<SessionPtr> removals_;
  std::vector<Channel*> detaching_;
  std::vector<SessionPtr> sessions_;
  std::vector<Channel*> channels_;

  // The reactors this thread drives: its own, or every one a waiter's
  // Poll() claimed; and that Poll()'s pollfd scratch, reused per turn.
  static inline thread_local std::vector<Reactor*> t_driven_;
  static inline thread_local std::vector<pollfd> t_pfds_;

  // Driver only (the mutex hand-off of the role orders access).
  bool requeued_ = false;  // the driver added work since its last swap
  size_t completions_ = 0;  // run by the current turn
  std::vector<uint32_t> turn_cancels_;  // this turn's cancels, applied in Finish
  size_t pfd_begin_ = 0;                // this reactor's first entry in the turn's pollfds
  ActiveMap active_;
  static constexpr size_t kRecentDoneCap = 512;
  std::unordered_set<uint32_t> recent_done_;
  std::deque<uint32_t> recent_done_fifo_;
  std::vector<SessionPtr> snapshot_;                     // this turn's poll set
  std::vector<Channel*> channel_snapshot_;               // this turn's channels
  std::vector<pollfd> pfds_;                             // scratch, reused per turn
  std::vector<OutgoingDatagram> batch_scratch_;          // scratch, reused per sendmmsg
  std::vector<UdpSocket::ReceivedDatagram> recv_scratch_;  // scratch, reused per drain
  std::vector<PendingOp*> started_scratch_;              // ops started this turn
};

// ------------------------------------------------------------- UdpTransport

UdpTransport::UdpTransport(uint16_t agent_port, Options options)
    : agent_port_(agent_port),
      options_(options),
      cc_mode_(options.cc_mode >= 0 && options.cc_mode <= 2
                   ? static_cast<CcMode>(options.cc_mode)
                   : GetCcMode()),
      next_loss_seed_(options.loss_seed),
      reactor_(Reactor::ForNewChannel()),
      channel_(std::make_unique<Channel>(this)) {
  reactor_->Attach(channel_.get());
}

// Ops still in flight complete kUnavailable before the channel goes away, so
// no completion can land after this destructor.
UdpTransport::~UdpTransport() { reactor_->Detach(channel_.get()); }

uint32_t UdpTransport::current_window() const {
  if (cc_mode_ != CcMode::kDelay) {
    return max_in_flight();
  }
  return std::clamp<uint32_t>(cc_window_.load(std::memory_order_relaxed), 1, max_in_flight());
}

UdpTransport::CcSnapshot UdpTransport::cc_snapshot() const {
  reactor_->CatchUp();
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
  SWIFT_ASSIGN_OR_RETURN(auto session, reactor_->NewSession(*channel_));
  Message open;
  open.type = MessageType::kOpen;
  open.object_name = object_name;
  open.open_flags = flags;
  auto reply = reactor_->Call(session, std::move(open), MessageType::kOpenReply);
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

UdpTransport::SessionPtr UdpTransport::SessionForDataOp(uint32_t handle, uint64_t bytes,
                                                        const std::function<void(Status)>& fail) {
  ops_submitted_.fetch_add(1, std::memory_order_relaxed);
  auto session = reactor_->SessionForHandle(*channel_, handle);
  Status status = OkStatus();
  if (!session) {
    status = NotFoundError("no open session for handle " + std::to_string(handle));
  } else if (PacketCountFor(bytes) > UINT16_MAX) {
    status = InvalidArgumentError("op too large for one request");
  } else if (bytes > 0) {
    return session;
  }
  AccountOpDone(status.ok());
  fail(std::move(status));
  return nullptr;
}

void UdpTransport::StartRead(uint32_t handle, uint64_t offset, uint64_t length,
                             ReadCompletion done) {
  // Reassembles into a fresh block and hands it off as a slice, no copy.
  Buffer block = Buffer::AllocateZeroed(length);
  StartReadInto(handle, offset, block.span(), [block, done = std::move(done)](Status status) {
    if (status.ok()) {
      done(block.SliceAll());
    } else {
      done(std::move(status));
    }
  });
}

uint64_t UdpTransport::StartCancellableReadInto(uint32_t handle, uint64_t offset,
                                                std::span<uint8_t> out, WriteCompletion done) {
  auto session = SessionForDataOp(handle, out.size(), done);
  if (!session) {
    return 0;
  }
  const uint32_t request_id = reactor_->NextRequestId();
  reactor_->SubmitOp(std::make_unique<Reactor::ReadOp>(std::move(session), request_id, handle,
                                                       offset, out, std::move(done)));
  return request_id;
}

void UdpTransport::StartReadInto(uint32_t handle, uint64_t offset, std::span<uint8_t> out,
                                 WriteCompletion done) {
  StartCancellableReadInto(handle, offset, out, std::move(done));
}

void UdpTransport::CancelRead(uint64_t token) {
  if (token != 0) {
    reactor_->Cancel(static_cast<uint32_t>(token));
  }
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
  auto session = SessionForDataOp(handle, data.size(), done);
  if (session) {
    // SplitIntoPackets copies the payload, so `data` need only live until we
    // return — same lifetime contract as the synchronous Write.
    reactor_->SubmitOp(std::make_unique<Reactor::WriteOp>(std::move(session),
                                                          reactor_->NextRequestId(), handle,
                                                          offset, data, std::move(done)));
  }
}

Result<BufferSlice> UdpTransport::Read(uint32_t handle, uint64_t offset, uint64_t length) {
  return reactor_->Await<Result<BufferSlice>>(
      [&](ReadCompletion done) { StartRead(handle, offset, length, std::move(done)); });
}

Status UdpTransport::Write(uint32_t handle, uint64_t offset, std::span<const uint8_t> data) {
  return reactor_->Await<Status>(
      [&](WriteCompletion done) { StartWrite(handle, offset, data, std::move(done)); });
}

// One control RPC on the handle's session; CLOSE also releases the session,
// whether or not the agent acknowledged — matching Unix close(2), which
// invalidates the descriptor even on error.
Result<Message> UdpTransport::CallOnHandle(uint32_t handle, Message request, MessageType want) {
  const bool close = request.type == MessageType::kClose;
  auto session = reactor_->SessionForHandle(*channel_, handle, /*take=*/close);
  if (!session) {
    return NotFoundError("no open session for handle " + std::to_string(handle));
  }
  request.handle = handle;
  auto reply = reactor_->Call(session, std::move(request), want);
  if (close) {
    reactor_->RemoveSession(session);
  }
  return reply;
}

Result<uint64_t> UdpTransport::Stat(uint32_t handle) {
  Message request;
  request.type = MessageType::kStat;
  SWIFT_ASSIGN_OR_RETURN(Message reply,
                         CallOnHandle(handle, std::move(request), MessageType::kStatReply));
  return reply.size;
}

Status UdpTransport::Truncate(uint32_t handle, uint64_t size) {
  Message request;
  request.type = MessageType::kTruncate;
  request.size = size;
  return CallOnHandle(handle, std::move(request), MessageType::kTruncateAck).status();
}

Status UdpTransport::Close(uint32_t handle) {
  Message request;
  request.type = MessageType::kClose;
  return CallOnHandle(handle, std::move(request), MessageType::kCloseAck).status();
}

// Object- or agent-scoped requests (REMOVE, SCRUB, STATS, TRACE) speak to the
// well-known port over a transient session.
Result<Message> UdpTransport::CallWellKnown(Message request, MessageType want, bool collect) {
  SWIFT_ASSIGN_OR_RETURN(auto session, reactor_->NewSession(*channel_));
  auto reply = reactor_->Call(session, std::move(request), want, collect);
  reactor_->RemoveSession(session);
  return reply;
}

Status UdpTransport::Remove(const std::string& object_name) {
  Message request;
  request.type = MessageType::kRemove;
  request.object_name = object_name;
  return CallWellKnown(std::move(request), MessageType::kRemoveAck).status();
}

Result<ScrubReport> UdpTransport::Scrub(const std::string& object_name) {
  Message request;
  request.type = MessageType::kScrub;
  request.object_name = object_name;
  SWIFT_ASSIGN_OR_RETURN(Message reply,
                         CallWellKnown(std::move(request), MessageType::kScrubReply));
  SWIFT_RETURN_IF_ERROR(StatusFromWire(reply.status_code, "SCRUB of '" + object_name + "'"));
  ScrubReport report;
  report.blocks_checked = reply.size;
  WireReader r(reply.payload.span());
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
  // The rendered registry no longer fits one datagram (per-shard and
  // per-stage metrics overflowed the old 8 KiB single-reply), so the reply is
  // packetized and reassembled here — never truncated.
  Message request;
  request.type = MessageType::kStats;
  SWIFT_ASSIGN_OR_RETURN(Message reply,
                         CallWellKnown(std::move(request), MessageType::kStatsReply, true));
  return std::string(reply.payload.begin(), reply.payload.end());
}

Result<std::vector<Span>> UdpTransport::FetchSpans(uint64_t trace_filter) {
  // The agent's recent spans (optionally one trace's) over TRACE/TRACE_REPLY.
  Message request;
  request.type = MessageType::kTrace;
  request.size = trace_filter;
  SWIFT_ASSIGN_OR_RETURN(Message reply,
                         CallWellKnown(std::move(request), MessageType::kTraceReply, true));
  return ParseSpans(reply.payload.span());
}

size_t UdpTransport::Poll() { return reactor_->Poll(); }

void UdpTransport::Drain() { reactor_->Drain(*channel_); }

}  // namespace swift
