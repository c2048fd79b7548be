// Client-side UDP transport: the distribution agent's connection to one
// real storage agent over the paper's light-weight protocol.
//
// Threading: every UdpTransport is one channel on a shared client reactor —
// like the paper's distribution agent, one engine driving many storage
// agents at once (§2–3). A reactor polls its channels' session sockets in
// one set, with one wake pipe and one inbox, and runs every op as a small
// state machine; a channel keeps its column's own state (sessions, handles,
// RTT estimator, congestion window, pacer, counters, options). The process
// runs a fixed pool of reactor threads, so its thread count does not grow
// with stripe width. Submitting never blocks; up to max_in_flight_ops stay
// outstanding per channel, so the striping layer can pipeline stripe units.
// One thread at a time drives a reactor: its own thread, or — when no thread
// does — a caller waiting in Poll() for its only op. Then that op's request
// leaves from, and its reply is completed on, the caller's thread: no pipe
// write, no condition-variable hop. The synchronous calls wait that way.
//
// Read strategy (§3.1): the client requests data one packet at a time and
// keeps "sufficient state to determine what packets have been received and
// thus can resubmit requests when packets are lost" — no acknowledgements.
// `read_window` controls how many packet requests are outstanding per read
// op; the 1991 prototype was forced to 1 by SunOS buffer-space limits, and
// the ablation bench measures what that cost them.
//
// Write strategy: announce with WRITE_REQ, stream every WRITE_DATA packet,
// then query; the agent ACKs a complete request or NACKs the missing seqs,
// which are resent. Retries use exponential backoff (RetryPolicy below); a
// dead agent surfaces as kUnavailable after the retry budget, which is what
// lets SwiftFile's parity machinery take over — identical failure semantics
// to the in-proc transport.
//
// Congestion control (DESIGN.md §15): under the default --cc-mode=delay each
// channel runs a LEDBAT-style controller. Every stamped datagram carries a
// tx timestamp (patched at flush time) that the server echoes back; the
// reactor feeds the echo into an RFC 6298 SRTT/RTTVAR estimator (Karn's
// rule: samples from retransmitted ops are dropped) and a one-way-delay base
// tracker. The resulting congestion window — not max_in_flight_ops — is the
// real data-op in-flight limit (ops queue at the window gate, attributed to
// the cc_gate span stage), sends are paced by a per-channel token bucket
// inside the flush loop, and the retry timeout comes from the estimator
// (decorrelated-jitter backoff replaces the doubling table in every mode).
// max_in_flight_ops remains the hard cwnd ceiling, and current_window()
// advertises the live window to schedulers. A mediator session grant's
// per-channel rate cap seeds the initial window and bounds the pacer —
// coarse admission composing with fine-grained CC.

#ifndef SWIFT_SRC_AGENT_UDP_TRANSPORT_H_
#define SWIFT_SRC_AGENT_UDP_TRANSPORT_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "src/agent/congestion.h"
#include "src/agent/udp_socket.h"
#include "src/core/agent_transport.h"
#include "src/proto/message.h"

namespace swift {

// Shared timeout/retry schedule for every op kind (read, write, control
// RPC), so the retry budget is counted identically on all paths: an op sends
// its initial burst, and each timeout either retransmits with the next
// backed-off timeout or — after `max_retries` retries, i.e. max_retries + 1
// transmissions — declares the agent unavailable.
struct RetryPolicy {
  int initial_timeout_ms = 40;
  int max_timeout_ms = 320;
  int max_retries = 6;

  // Timeout for the first transmission, clamped into [1, max_timeout_ms].
  int FirstTimeout() const {
    return std::clamp(initial_timeout_ms, 1, std::max(1, max_timeout_ms));
  }
  // Backoff step: doubles, saturating at max_timeout_ms.
  int NextTimeout(int current_ms) const {
    const int ceiling = std::max(1, max_timeout_ms);
    if (current_ms >= ceiling / 2) {
      return ceiling;  // doubling would overshoot (or overflow): saturate
    }
    return std::min(std::max(1, current_ms) * 2, ceiling);
  }
  // True once `timeouts_seen` consecutive timeouts exhaust the budget.
  bool Exhausted(int timeouts_seen) const { return timeouts_seen > max_retries; }
};

class UdpTransport : public AgentTransport {
 public:
  struct Options {
    // Packet requests outstanding per read op (1 = the paper's stop-and-wait).
    // 8 requests a 64 KiB stripe unit whole when the op starts, so the
    // datagrams an op sends are fixed when it starts, not by its progress —
    // as for a prefetch still in flight after its read returned.
    uint32_t read_window = 8;
    // Async ops outstanding per transport (advertised via max_in_flight()).
    uint32_t max_in_flight_ops = 8;
    // First retry timeout; doubles per retry up to max_timeout_ms.
    int initial_timeout_ms = 40;
    int max_timeout_ms = 320;
    // Timeout-triggered retries before declaring the agent unavailable
    // (max_retries + 1 transmissions in total).
    int max_retries = 6;
    // Datagrams moved per socket syscall: the reactor coalesces every send
    // queued in one dispatch round (initial bursts and retransmits alike)
    // into sendmmsg batches, and drains receives with recvmmsg. 1 = the
    // per-datagram baseline (one syscall per datagram, the pre-batching
    // behaviour), which the scale-out bench measures against.
    uint32_t socket_batch = 16;
    // Outgoing loss injection (testing).
    double loss_probability = 0;
    uint64_t loss_seed = 99;
    // Fault injection richer than loss: every client socket consults the
    // director (see src/agent/chaos.h) for partitions, delay spikes,
    // reordering and duplication. Nullptr = no chaos.
    std::shared_ptr<ChaosDirector> chaos;

    // Congestion-control mode override: -1 follows the process-wide
    // SetCcMode (the daemons' --cc-mode flag, default delay); 0/1/2 pin
    // CcMode::{kOff,kFixed,kDelay} for this transport (tests, benches).
    int cc_mode = -1;
    // Per-channel admission rate from the mediator's session grant
    // (bytes/s). Seeds the initial congestion window and upper-bounds the
    // pacer; 0 = no cap (the dynamic 2x-delivery-rate pace still applies
    // under delay mode).
    double rate_cap_bytes_per_sec = 0;
    // Queuing-delay target for the delay controller (LEDBAT TARGET).
    double cc_target_delay_us = 25'000.0;
    // Per-op wall-clock deadline budget, milliseconds (0 = none). When set,
    // every datagram of an op carries the remaining budget in its header
    // extension (patched at flush time), servers shed work whose budget
    // expired while queued (kOverloaded), and the op fails kTimedOut at the
    // deadline instead of riding the retry schedule past it.
    int op_deadline_ms = 0;

    RetryPolicy retry_policy() const {
      return RetryPolicy{initial_timeout_ms, max_timeout_ms, max_retries};
    }
  };

  // Introspection snapshot of the channel's congestion state (reactor
  // publishes, any thread reads).
  struct CcSnapshot {
    double cwnd = 0;            // fractional congestion window, ops
    uint32_t window = 0;        // floor(cwnd) clamped — the advertised limit
    double srtt_us = 0;
    double rttvar_us = 0;
    uint64_t rtt_samples = 0;
    uint64_t cwnd_decreases = 0;
    uint64_t late_datagrams = 0;       // replies after op completion
    uint64_t duplicate_datagrams = 0;  // duplicate DATA within a live op
  };

  // Connects to the agent's well-known port on loopback.
  UdpTransport(uint16_t agent_port, Options options);
  ~UdpTransport() override;

  Result<AgentOpenResult> Open(const std::string& object_name, uint32_t flags) override;
  Status Write(uint32_t handle, uint64_t offset, std::span<const uint8_t> data) override;
  Result<BufferSlice> Read(uint32_t handle, uint64_t offset, uint64_t length) override;
  Result<uint64_t> Stat(uint32_t handle) override;
  Status Truncate(uint32_t handle, uint64_t size) override;
  Status Close(uint32_t handle) override;
  Status Remove(const std::string& object_name) override;

  // Verifies the agent's file for `object_name` against its at-rest
  // checksums via the SCRUB op on the well-known port.
  Result<ScrubReport> Scrub(const std::string& object_name) override;

  // Pulls a metrics snapshot (Prometheus-style text) from the agent's
  // well-known port via the STATS op. The reply arrives packetized and is
  // reassembled here — the full registry, never truncated. Same
  // retry/backoff semantics as the other control RPCs.
  Result<std::string> FetchStats();

  // Pulls the agent's recent spans via the TRACE op (packetized like
  // FetchStats). A nonzero `trace_filter` restricts to that trace id.
  Result<std::vector<Span>> FetchSpans(uint64_t trace_filter = 0);

  void StartRead(uint32_t handle, uint64_t offset, uint64_t length,
                 ReadCompletion done) override;
  // Reassembles arriving packets directly into `out` — no intermediate
  // buffer, no copy on completion. `out` must stay valid until `done` runs.
  void StartReadInto(uint32_t handle, uint64_t offset, std::span<uint8_t> out,
                     WriteCompletion done) override;
  // Cancellable variant: the token is the op's request id. CancelRead posts
  // a cancel command to the reactor. A reply already waiting in the socket
  // still completes the op; otherwise it completes kCancelled on the driving
  // thread and leaves the active set (so `out` is never written again), and
  // any datagram that arrives afterwards is classified as late by the
  // recent-done ring instead of being placed.
  uint64_t StartCancellableReadInto(uint32_t handle, uint64_t offset, std::span<uint8_t> out,
                                    WriteCompletion done) override;
  void CancelRead(uint64_t token) override;
  // Channel SRTT/RTTVAR from the delay controller's estimator (false until
  // the first echo sample lands).
  bool RttEstimate(double* srtt_us, double* rttvar_us) const override;
  void StartWrite(uint32_t handle, uint64_t offset, std::span<const uint8_t> data,
                  WriteCompletion done) override;
  uint32_t max_in_flight() const override { return std::max<uint32_t>(1, options_.max_in_flight_ops); }
  // Live window advertisement: the delay controller's cwnd under
  // --cc-mode=delay (clamped to [1, max_in_flight_ops]), the static cap
  // otherwise. Schedulers re-poll this per batch.
  uint32_t current_window() const override;
  // Drives the reactor from the calling thread when no other thread does,
  // until at least one completion has run; 0 when another thread drives.
  size_t Poll() override;
  void Drain() override;
  TransportStats stats() const override;

  // --- statistics -----------------------------------------------------------
  uint64_t datagrams_sent() const { return datagrams_sent_.load(std::memory_order_relaxed); }
  uint64_t retransmissions() const { return retransmissions_.load(std::memory_order_relaxed); }
  // kOverloaded replies absorbed as backpressure (jittered re-arm, no cwnd
  // decrease) and ops failed at their deadline budget.
  uint64_t overloaded_replies() const {
    return ops_overloaded_.load(std::memory_order_relaxed);
  }
  uint64_t deadline_failures() const {
    return ops_deadline_failed_.load(std::memory_order_relaxed);
  }

  // --- congestion control ---------------------------------------------------
  CcMode cc_mode() const { return cc_mode_; }
  // Takes in replies that arrived while no thread drove the reactor first,
  // so late datagrams are counted.
  CcSnapshot cc_snapshot() const;

 private:
  struct Session;
  using SessionPtr = std::shared_ptr<Session>;
  struct Channel;
  class PendingOp;
  class Reactor;

  void AccountOpDone(bool ok);
  // Counts a new data op and returns its handle's session; or completes it
  // inline through `fail` (bad handle, oversized op; OK when empty) and
  // returns nullptr.
  SessionPtr SessionForDataOp(uint32_t handle, uint64_t bytes,
                              const std::function<void(Status)>& fail);
  Result<Message> CallOnHandle(uint32_t handle, Message request, MessageType want);
  // One RPC (`collect`: a packetized bulk pull) on a transient session to
  // the well-known port.
  Result<Message> CallWellKnown(Message request, MessageType want, bool collect = false);

  uint16_t agent_port_;
  Options options_;
  CcMode cc_mode_;  // resolved once at construction (option or global)
  std::atomic<uint64_t> next_loss_seed_;

  // Congestion state published by the reactor thread, read anywhere
  // (current_window(), cc_snapshot(), swift_cli stats).
  std::atomic<uint32_t> cc_window_{1};
  std::atomic<uint64_t> cc_cwnd_milli_{1000};  // cwnd * 1000
  std::atomic<uint64_t> cc_srtt_us_{0};
  std::atomic<uint64_t> cc_rttvar_us_{0};
  std::atomic<uint64_t> cc_rtt_samples_{0};
  std::atomic<uint64_t> cc_decreases_{0};
  std::atomic<uint64_t> cc_late_datagrams_{0};
  std::atomic<uint64_t> cc_dup_datagrams_{0};

  Reactor* const reactor_;  // shared by many channels, never destroyed
  std::unique_ptr<Channel> channel_;

  std::atomic<uint64_t> datagrams_sent_{0};
  std::atomic<uint64_t> retransmissions_{0};
  std::atomic<uint64_t> ops_submitted_{0};
  std::atomic<uint64_t> ops_completed_{0};
  std::atomic<uint64_t> ops_retried_{0};
  std::atomic<uint64_t> ops_failed_{0};
  std::atomic<uint64_t> ops_overloaded_{0};
  std::atomic<uint64_t> ops_deadline_failed_{0};
  std::atomic<uint64_t> bytes_read_{0};
  std::atomic<uint64_t> bytes_written_{0};
};

}  // namespace swift

#endif  // SWIFT_SRC_AGENT_UDP_TRANSPORT_H_
