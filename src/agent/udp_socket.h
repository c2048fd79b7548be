// Thin RAII wrapper over a POSIX UDP socket, plus optional deterministic
// packet-loss injection and batched syscall I/O.
//
// The prototype's protocol rides UDP ("the current prototype was built using
// a light-weight data transfer protocol on top of the udp network
// protocol", §3); every loss-recovery path in the transport exists because
// datagrams may vanish. `loss_probability` drops outgoing datagrams with a
// seeded RNG so the recovery machinery is testable without a flaky network.
//
// Batched I/O: RecvBatch/SendBatch move many datagrams per syscall via
// recvmmsg(2)/sendmmsg(2) (Linux), falling back to one recvmsg/sendmsg per
// datagram elsewhere — and when the caller asks for a batch of 1, which is
// how the bench measures the per-datagram baseline. Batch sizes observed on
// the wire feed the swift_socket_recv_batch_size / swift_socket_send_batch_size
// histograms so "how full were our batches" is measured, not guessed.
//
// Segmentation offload: on kernels that support it, SendBatch coalesces a run
// of equal-size datagrams to one destination into a single sendmsg(2) carrying
// a UDP_SEGMENT cmsg (UDP GSO: the kernel splits the run into real datagrams
// below the socket layer), and batched receivers enable UDP_GRO so one
// recvmsg(2) returns a kernel-coalesced train of equal-size datagrams from one
// sender. Both offloads change only how many times the UDP stack is traversed
// per datagram — the datagrams on the wire are identical, so either end may
// lack the offload without interop impact. Where the offloads are unavailable
// the plain recvmmsg/sendmmsg (or per-datagram) paths are used.

#ifndef SWIFT_SRC_AGENT_UDP_SOCKET_H_
#define SWIFT_SRC_AGENT_UDP_SOCKET_H_

#include <netinet/in.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "src/util/buffer.h"
#include "src/util/rng.h"
#include "src/util/status.h"

namespace swift {

class ChaosDirector;

struct UdpEndpoint {
  uint32_t ipv4_host = 0;  // host byte order; loopback = 0x7F000001
  uint16_t port = 0;       // host byte order

  sockaddr_in ToSockaddr() const;
  static UdpEndpoint FromSockaddr(const sockaddr_in& addr);
  static UdpEndpoint Loopback(uint16_t port);

  friend bool operator==(const UdpEndpoint&, const UdpEndpoint&) = default;
};

// One queued outgoing datagram: an owned header followed by a shared payload
// slice, exactly the two-iovec shape EncodeParts produces. Queue many, flush
// once with SendBatch — the payload bytes never move in user space.
struct OutgoingDatagram {
  UdpEndpoint dst;
  std::vector<uint8_t> head;  // owned header bytes (may carry a whole message)
  BufferSlice payload;        // optional; aliases the producer's block
};

class UdpSocket {
 public:
  // Most datagrams one RecvBatch/SendBatch call hands the kernel.
  static constexpr size_t kMaxBatch = 32;

  UdpSocket() = default;
  ~UdpSocket();
  UdpSocket(const UdpSocket&) = delete;
  UdpSocket& operator=(const UdpSocket&) = delete;
  UdpSocket(UdpSocket&& other) noexcept;
  UdpSocket& operator=(UdpSocket&& other) noexcept;

  // Creates and binds to 127.0.0.1:`port` (0 = kernel-assigned). On success
  // local_port() reports the actual port. With `reuseport`, SO_REUSEPORT is
  // set before bind so several sockets (one per shard) can share one port and
  // let the kernel spread datagrams across them by flow hash.
  Status BindLoopback(uint16_t port = 0, bool reuseport = false);

  bool valid() const { return fd_ >= 0; }
  uint16_t local_port() const { return local_port_; }
  // Raw descriptor for callers multiplexing several sockets in one poll(2)
  // set (the client-side reactor). -1 when closed.
  int fd() const { return fd_; }

  // Sends one datagram (dropped silently with loss_probability).
  Status SendTo(const UdpEndpoint& dst, std::span<const uint8_t> data);

  // Scatter-gather send: one datagram made of `head` followed by `payload`,
  // handed to the kernel as a two-entry iovec via sendmsg(2) — the payload
  // is never flattened into a contiguous user-space buffer.
  Status SendTo(const UdpEndpoint& dst, std::span<const uint8_t> head,
                std::span<const uint8_t> payload);

  // Sends every datagram in `batch` with as few sendmmsg(2) syscalls as
  // possible (one sendmsg per datagram on the fallback path or when the
  // batch has one entry). Loss injection applies per datagram. A datagram
  // the kernel rejects (EMSGSIZE, transient ENOBUFS — the SunOS "ran out of
  // buffer space" failure of §3.1) is counted in
  // swift_socket_send_errors_total and treated as lost on the wire: the
  // protocol's retransmission machinery recovers, identically to real loss.
  // Only a dead socket fails the call.
  Status SendBatch(std::span<const OutgoingDatagram> batch);

  struct ReceivedDatagram {
    BufferSlice data;  // keeps the arena block alive; alias freely
    UdpEndpoint from;
    // When the datagram left the kernel (FlightRecorder::NowNs epoch) — the
    // earliest user-space timestamp available, so server spans can charge
    // recv-batch queueing (kernel → processing) honestly. One batch shares
    // one stamp: its datagrams left the kernel in the same syscall.
    uint64_t recv_ns = 0;
    // The sender's datagram exceeded kMaxDatagram and the kernel cut it
    // (MSG_TRUNC): `data` holds only the leading bytes. Callers must treat
    // the datagram as garbage, never as a short payload.
    bool truncated = false;
  };
  // Waits up to `timeout_ms` (<0 = forever) for a datagram. Returns
  // kTimedOut on timeout, kUnavailable when the socket was shut down, and
  // kMessageTooLarge when the datagram was truncated by the kernel
  // (delivering a silently-short payload would corrupt reassembly).
  //
  // The datagram is received into a shared arena block and returned as a
  // slice; decoded payloads may alias it indefinitely (the block lives until
  // the last slice drops). Single consumer: RecvFrom must not be called
  // concurrently from two threads (it never is — one reactor or shard loop
  // thread owns each socket's receive side).
  //
  // With a ChaosDirector installed the datagram is first classified: dropped
  // datagrams are consumed silently, delayed ones are held inside the socket
  // and delivered once their release time passes (their recv_ns is re-stamped
  // at release — chaos models network delay, not queue delay), duplicated
  // ones are delivered twice. The poll timeout is clamped so held datagrams
  // deliver on time.
  Result<ReceivedDatagram> RecvFrom(int timeout_ms);

  // Waits up to `timeout_ms` for at least one datagram, then drains up to
  // min(max_batch, kMaxBatch) of them into `out` (cleared first; capacity is
  // reused across calls) — one kernel-coalesced UDP_GRO train per recvmsg(2)
  // where the kernel supports it (enabled on the first call with
  // max_batch > 1), one recvmmsg(2) call otherwise. Returns the number
  // received. A GRO train longer than max_batch is delivered across calls:
  // the overflow queues inside the socket and the next RecvBatch/RecvFrom
  // drains it before touching the kernel. Truncated datagrams — kernel
  // MSG_TRUNC, or any datagram over the protocol's per-datagram limit — are
  // delivered with `truncated` set (and counted) rather than failing the
  // whole batch. Same arena/aliasing and single-consumer rules as RecvFrom.
  Result<size_t> RecvBatch(int timeout_ms, size_t max_batch,
                           std::vector<ReceivedDatagram>& out);

  // Unblocks any RecvFrom and poisons the socket (thread-safe; used to stop
  // server threads).
  void Shutdown();

  // Fraction of outgoing datagrams to drop (testing).
  void SetLossProbability(double p, uint64_t seed);

  // Installs (or clears, with nullptr) a fault-injection director consulted
  // for every datagram sent and received. Several sockets may share one
  // director (its verdicts are thread-safe); the held-datagram queue is per
  // socket and touched only by the receiving thread. Install before the
  // receive loop starts.
  void SetChaos(std::shared_ptr<ChaosDirector> chaos);

  // Milliseconds until the earliest chaos-held datagram is due for release
  // (0 = due now), or -1 when nothing is held. Held datagrams were already
  // consumed from the kernel, so they raise no POLLIN: an event loop that
  // multiplexes this socket must fold this into its poll deadline and drain
  // the socket when a release comes due. Same thread as the receive calls.
  int NextChaosReleaseMs() const;

 private:
  void CloseFd();
  // Kernel-facing receive paths (chaos-free); the public RecvFrom/RecvBatch
  // wrap these with fault classification when a director is installed.
  Result<ReceivedDatagram> RecvFromKernel(int timeout_ms);
  Result<size_t> RecvBatchKernel(int timeout_ms, size_t max_batch,
                                 std::vector<ReceivedDatagram>& out);
  // True when chaos says to drop this outgoing datagram (counted as dropped).
  bool ChaosDropOutgoing(const UdpEndpoint& dst);
  // Moves one due held datagram into `out` (re-stamping recv_ns); false when
  // none is due yet.
  bool TakeDueHeld(ReceivedDatagram* out);
  // Poll budget for the next kernel wait: the caller's remaining budget
  // (negative `timeout_ms` = forever) clamped to the earliest held-datagram
  // release. Returns false when the caller's budget is spent (→ kTimedOut).
  bool NextChaosWaitMs(std::chrono::steady_clock::time_point start, int timeout_ms,
                       int* wait_ms) const;
  // True when the datagram should be dropped by loss injection (counted).
  bool LoseOutgoing();
  // Ensures the receive arena has at least one free slot (kMaxDatagram, or a
  // whole-train slot once GRO is on) and returns how many slots are free
  // (allocating a fresh block for `wanted` slots when none are).
  size_t EnsureArenaSlots(size_t wanted);
  // Receives one datagram train via recvmsg(2) on a GRO-enabled socket and
  // appends every segment to pending_rx_. Returns the segment count.
  Result<size_t> RecvGroTrain(int timeout_ms);
  // Moves up to `max_batch` queued datagrams into `out`; returns how many.
  size_t TakePending(size_t max_batch, std::vector<ReceivedDatagram>& out);

  int fd_ = -1;
  uint16_t local_port_ = 0;
  std::atomic<bool> shutdown_{false};
  double loss_probability_ = 0;
  std::optional<Rng> loss_rng_;
  uint64_t datagrams_sent_ = 0;
  uint64_t datagrams_dropped_ = 0;

  // Receive arena: datagrams land in a shared block carved into slices, so
  // a payload can outlive the next RecvFrom without a copy. Batch receives
  // carve one fixed kMaxDatagram slot per datagram up front (recvmmsg needs
  // the iovecs before lengths are known); the tail after the last datagram
  // is reclaimed. Refilled when no whole slot remains. Touched only by the
  // single receiving thread.
  Buffer recv_arena_;
  size_t recv_arena_used_ = 0;

  // UDP generic receive offload: attempted once, on the first batched
  // receive, so per-datagram consumers (and the measured per-datagram bench
  // baseline) keep the plain kernel path. Segments of a train beyond what
  // the caller asked for wait in pending_rx_ (drained front-first via
  // pending_rx_next_ before any syscall).
  bool gro_attempted_ = false;
  bool gro_enabled_ = false;
  // Flipped when the kernel rejects a UDP_SEGMENT send (pre-GSO kernels);
  // later batches use plain sendmmsg.
  bool gso_send_disabled_ = false;
  std::vector<ReceivedDatagram> pending_rx_;
  size_t pending_rx_next_ = 0;

  // Fault injection. `chaos_held_` is the delayed-datagram hold queue
  // (unordered; scanned for the earliest release), owned by the receiving
  // thread like the arena.
  std::shared_ptr<ChaosDirector> chaos_;
  struct HeldDatagram {
    ReceivedDatagram datagram;
    std::chrono::steady_clock::time_point release;
  };
  std::vector<HeldDatagram> chaos_held_;
};

}  // namespace swift

#endif  // SWIFT_SRC_AGENT_UDP_SOCKET_H_
