// The distribution agent's view of one storage agent.
//
// `AgentTransport` is the seam between the striping core and the transports
// it can run over: the in-process transport (deterministic tests, fault
// injection), the real UDP transport implementing the paper's light-weight
// protocol (src/agent/udp_transport.h), or anything else. One transport
// instance corresponds to one storage agent; the distribution agent holds a
// vector of them in stripe-column order.
//
// The core contract is the asynchronous submit/complete model: StartRead and
// StartWrite submit one operation each and deliver the result through a
// completion callback. Transports with a native event loop (the UDP
// transport's reactor) keep many operations in flight at once — this is what
// lets the layers above pipeline multiple stripe units per agent instead of
// blocking one thread per call. The synchronous Read/Write/... entry points
// remain so callers can migrate incrementally; for transports without native
// asynchrony the base class adapts Start* onto them.
//
// Semantics:
//   * StartRead/StartWrite submit an op and return. The completion is
//     invoked exactly once — either inline before Start* returns (transports
//     that complete synchronously; `max_in_flight() == 1`) or later, from a
//     transport-internal service thread or a caller driving the transport in
//     Poll(). Completions must therefore be safe to run on any thread. They
//     may call Start* on any transport, the one they came from included (the
//     distribution agent starts a column's next queued op from the
//     completion that frees its window slot), but must never block.
//   * At most max_in_flight() ops may be outstanding per instance. A
//     transport advertising 1 keeps the old synchronous contract: one call
//     at a time per instance (calls to *different* instances may be
//     concurrent).
//   * The bytes passed to StartWrite are consumed (copied or sent) before it
//     returns; the span need only stay valid for the duration of the call —
//     the same lifetime contract as the synchronous Write.
//   * Poll() lets a waiting caller drive the transport itself: a transport
//     with a service thread (the UDP reactor) may run its loop on the
//     calling thread while no other thread does — together with every other
//     reactor the caller holds an op on (PollScope below) — so the caller's
//     own ops are started, answered and completed there with no thread
//     hand-off. It returns the completions it ran; 0 means another thread
//     delivers them, and the caller waits as usual. Drain() blocks until
//     nothing is outstanding. Both are no-ops for synchronous transports.
//   * Read returns exactly `length` bytes, zero-filling past the stored end
//     of the agent file. Stripe units are conceptually zero-extended — this
//     keeps parity arithmetic uniform; true object size lives in the object
//     directory.
//   * A storage-agent crash surfaces as kUnavailable; the striping layer
//     then reconstructs through parity.

#ifndef SWIFT_SRC_CORE_AGENT_TRANSPORT_H_
#define SWIFT_SRC_CORE_AGENT_TRANSPORT_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/core/scrub_report.h"
#include "src/util/buffer.h"
#include "src/util/status.h"

namespace swift {

struct AgentOpenResult {
  // Agent-local handle quoted on every subsequent call.
  uint32_t handle = 0;
  // Current size of the agent's backing file for this object.
  uint64_t size = 0;
};

// Lifetime op counters every transport keeps (see stats() below). Counters
// are cumulative; callers diff snapshots to rate a phase.
struct TransportStats {
  uint64_t ops_submitted = 0;   // Start*/sync calls accepted
  uint64_t ops_completed = 0;   // completions delivered, including failures
  uint64_t ops_retried = 0;     // timeout-triggered retry rounds
  uint64_t ops_failed = 0;      // completions with a non-OK status
  uint64_t bytes_read = 0;      // payload bytes successfully read
  uint64_t bytes_written = 0;   // payload bytes successfully written
};

// Held starts, for callers that wait through Poll(). An op submitted inside a
// PollScope, on a transport with no other work, may be held: left unstarted
// until the submitting thread's Poll() starts it on that thread, so neither
// the request nor the reply crosses a thread. A thread holds at most one op
// per holder (a UDP client reactor) and any number of holders, so the ops of
// one submit round stay held together and one Poll() drives them all.
// ReleaseHeld() hands every held op to its holder's own thread: a caller that
// will not Poll() calls it before it blocks.
class PollScope {
 public:
  // What a transport registers for its held ops.
  class Holder {
   public:
    virtual void StartHeld() = 0;

   protected:
    ~Holder() = default;
  };

  PollScope() : outer_(current_) { current_ = this; }
  ~PollScope() { current_ = outer_; }
  PollScope(const PollScope&) = delete;
  PollScope& operator=(const PollScope&) = delete;

  // Whether an op submitted inside this scope was held.
  bool held() const { return held_; }

  // Transport side: whether the op being submitted may be held, and
  // recording that it was. `holder` must outlive the thread's hold.
  static bool active() { return current_ != nullptr; }
  static void Hold(Holder* holder) {
    if (current_ != nullptr) {
      current_->held_ = true;
    }
    if (std::find(holders_.begin(), holders_.end(), holder) == holders_.end()) {
      holders_.push_back(holder);
    }
  }
  // The holders this thread holds ops on; a driving Poll() takes them over
  // with ForgetHeld().
  static std::span<Holder* const> holders() { return holders_; }
  static void ForgetHeld() { holders_.clear(); }
  static void ReleaseHeld() {
    while (!holders_.empty()) {
      Holder* holder = holders_.back();
      holders_.pop_back();
      holder->StartHeld();
    }
  }

 private:
  static inline thread_local PollScope* current_ = nullptr;
  static inline thread_local std::vector<Holder*> holders_;
  PollScope* outer_;
  bool held_ = false;
};

class AgentTransport {
 public:
  // Completion signatures for the async core. Reads deliver a shared
  // BufferSlice — a view over whatever block the transport received or
  // served from — so results cross the seam without a copy.
  using ReadCompletion = std::function<void(Result<BufferSlice>)>;
  using WriteCompletion = std::function<void(Status)>;

  virtual ~AgentTransport() = default;

  // Opens (optionally creating/truncating) this agent's backing file for
  // `object_name`. Flags are kOpenCreate / kOpenTruncate from proto.
  virtual Result<AgentOpenResult> Open(const std::string& object_name, uint32_t flags) = 0;

  // Writes `data` at `offset` in the agent file, extending it as needed.
  virtual Status Write(uint32_t handle, uint64_t offset, std::span<const uint8_t> data) = 0;

  // Reads exactly `length` bytes at `offset`, zero-filled past EOF. The
  // result is a shared slice (possibly aliasing a transport or store block).
  virtual Result<BufferSlice> Read(uint32_t handle, uint64_t offset, uint64_t length) = 0;

  // Stored size of the agent file.
  virtual Result<uint64_t> Stat(uint32_t handle) = 0;

  // Sets the agent file's size.
  virtual Status Truncate(uint32_t handle, uint64_t size) = 0;

  // Releases the handle (and, on the wire, its agent-side session entry).
  virtual Status Close(uint32_t handle) = 0;

  // Deletes this agent's backing file for `object_name` (no handle: removal
  // is object-scoped, like Open).
  virtual Status Remove(const std::string& object_name) = 0;

  // Verifies this agent's backing file for `object_name` against its at-rest
  // checksums and reports the corrupt byte ranges (object-scoped, like
  // Remove). Agents without an integrity layer return kUnimplemented.
  virtual Result<ScrubReport> Scrub(const std::string& object_name) {
    (void)object_name;
    return UnimplementedError("this transport's agent keeps no at-rest checksums");
  }

  // --- asynchronous submit/complete core -----------------------------------

  // Submits an asynchronous read of exactly `length` bytes at `offset`
  // (zero-filled past EOF, like Read). The default adapter executes the
  // synchronous Read inline and invokes `done` before returning.
  virtual void StartRead(uint32_t handle, uint64_t offset, uint64_t length,
                         ReadCompletion done) {
    done(Read(handle, offset, length));
  }

  // Submits an asynchronous read of exactly `out.size()` bytes at `offset`,
  // delivered directly into caller memory — the variant SwiftFile uses to
  // assemble stripe units straight into the user's destination buffer.
  // `out` must stay valid until `done` runs. The default adapter reads a
  // slice and places it with one counted copy; transports that own packet
  // placement (the UDP reactor) override this to land datagram payloads in
  // `out` with no intermediate block at all.
  virtual void StartReadInto(uint32_t handle, uint64_t offset, std::span<uint8_t> out,
                             WriteCompletion done) {
    StartRead(handle, offset, out.size(),
              [out, done = std::move(done)](Result<BufferSlice> data) {
                if (!data.ok()) {
                  done(data.status());
                  return;
                }
                data->CopyTo(out);
                done(OkStatus());
              });
  }

  // StartReadInto variant that can be abandoned mid-flight: returns an
  // opaque nonzero cancellation token when the transport supports in-flight
  // cancellation, 0 when the op was submitted uncancellably (synchronous
  // transports complete before returning, so there is never anything to
  // cancel — hedging layers skip such ops). The completion still runs
  // exactly once either way.
  virtual uint64_t StartCancellableReadInto(uint32_t handle, uint64_t offset,
                                            std::span<uint8_t> out, WriteCompletion done) {
    StartReadInto(handle, offset, out, std::move(done));
    return 0;
  }

  // Requests cancellation of a read submitted via StartCancellableReadInto.
  // Best-effort and idempotent: if the op is still in flight its completion
  // runs promptly with kCancelled and the transport guarantees `out` is
  // never touched again afterwards (late datagrams are absorbed, not
  // placed); if it already completed, nothing happens.
  virtual void CancelRead(uint64_t token) { (void)token; }

  // Live smoothed-RTT estimate of this transport's channel, for hedge-timer
  // arming. False when the transport keeps no estimator or has no samples
  // yet (callers fall back to a fixed hedge delay).
  virtual bool RttEstimate(double* srtt_us, double* rttvar_us) const {
    (void)srtt_us;
    (void)rttvar_us;
    return false;
  }

  // Submits an asynchronous write. `data` is consumed before StartWrite
  // returns. The default adapter executes the synchronous Write inline.
  virtual void StartWrite(uint32_t handle, uint64_t offset, std::span<const uint8_t> data,
                          WriteCompletion done) {
    done(Write(handle, offset, data));
  }

  // Number of ops that may be outstanding on this instance at once. 1 means
  // the transport completes synchronously (the legacy contract); pipelining
  // callers cap their per-agent window at this value.
  virtual uint32_t max_in_flight() const { return 1; }

  // The window the transport currently advertises. Static transports return
  // max_in_flight(); congestion-controlled ones (the UDP reactor under
  // --cc-mode=delay) return the live cwnd, so schedulers that re-poll per
  // batch breathe with the network instead of pinning the compile-time cap.
  virtual uint32_t current_window() const { return max_in_flight(); }

  // Called by a thread about to wait for ops it submitted, this instance's
  // among them. Runs completions on the calling thread — this transport's and
  // those of every other transport the thread holds an op on (PollScope) —
  // when no other thread is running any of them, at least one, and returns
  // how many ran (the caller re-checks its ops and may call again). Returns 0
  // at once when another thread delivers any of them or nothing is
  // outstanding: the caller then releases its held ops
  // (PollScope::ReleaseHeld) and blocks as usual. Transports that complete
  // inline have nothing to run.
  virtual size_t Poll() { return 0; }

  // Blocks until every outstanding op on this instance has completed,
  // running completions on the calling thread as Poll() does.
  virtual void Drain() {}

  // Snapshot of this transport's lifetime op counters.
  virtual TransportStats stats() const { return {}; }
};

}  // namespace swift

#endif  // SWIFT_SRC_CORE_AGENT_TRANSPORT_H_
