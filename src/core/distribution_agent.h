// The distribution agent: pipelined fan-out over storage agents.
//
// §2: "the distribution agent stores or retrieves the data at the storage
// agents following the transfer plan with no further intervention by the
// storage mediator." This class owns the per-agent transports for one plan
// and keeps per-agent work flowing concurrently — the source of Swift's
// speed is exactly this simultaneity ("the client communicates with each of
// the storage agents involved in the request so that they can simultaneously
// perform the I/O operation on the striped file", §3).
//
// Execution model: each column keeps a queue of ops behind a window of at
// most window(column) = min(options.ops_in_flight, transport->current_window())
// ops in flight, and ops on one column start in submission order. Where an
// op starts depends on what its column's transport does with it:
//   * Asynchronous transports (max_in_flight() > 1, the UDP reactor) only
//     hand the op on, so it starts on the thread that frees its window slot:
//     the submitter when the window has room, otherwise the thread that
//     delivers the completion of an earlier op on the column (a transport
//     reactor). No thread hand-off sits in front of the transport's own.
//   * Synchronous transports (max_in_flight() == 1) block for the whole
//     round trip, so their ops run on a small fixed worker pool, which keeps
//     the columns overlapping without a fresh thread per call.
// The pool also runs RunPerAgent's blocking control-plane fan-out.

#ifndef SWIFT_SRC_CORE_DISTRIBUTION_AGENT_H_
#define SWIFT_SRC_CORE_DISTRIBUTION_AGENT_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/core/agent_transport.h"
#include "src/util/status.h"

namespace swift {

class DistributionAgent {
 public:
  struct Options {
    // Pool threads. 0 = one per column, capped at 16. Columns over
    // synchronous transports need one worker each for full cross-column
    // overlap, as does RunPerAgent; asynchronous columns never use the pool
    // for their ops.
    uint32_t workers = 0;
    // Target stripe-unit ops in flight per column, capped per column by the
    // transport's own max_in_flight().
    uint32_t ops_in_flight = 4;
    // Tail-tolerant reads: when a read batch has made no progress for one
    // hedge delay (srtt + hedge_k·rttvar, clamped to [hedge_floor_us,
    // hedge_cap_us]) and every outstanding op sits on a single column, that
    // straggler's ops are cancelled and their ranges rebuilt from the row's
    // parity survivors. Off by default: a hedge spends survivor-column reads
    // to cut tail latency, and is only safe with parity on and no column
    // already failed. Hedges are capped globally at ≤5% of reads.
    bool hedged_reads = false;
    double hedge_k = 3.0;
    uint32_t hedge_floor_us = 500;
    // Also the arm delay while the transport has no RTT estimate yet.
    uint32_t hedge_cap_us = 100000;
  };

  using Completion = std::function<void(Status)>;
  // One column operation: runs against the column's transport and must
  // arrange for done(status) to be invoked exactly once (inline or later,
  // from any thread). On an asynchronous column it runs on the submitter or
  // on a completing transport thread, so it must not block.
  using AsyncOp = std::function<void(AgentTransport*, Completion done)>;

  // `transports` in stripe-column order; pointers must outlive this object.
  explicit DistributionAgent(std::vector<AgentTransport*> transports);
  DistributionAgent(std::vector<AgentTransport*> transports, Options options);
  ~DistributionAgent();

  size_t agent_count() const { return transports_.size(); }
  AgentTransport* transport(uint32_t column) const { return transports_[column]; }
  const Options& options() const { return options_; }
  // Ops this column may keep in flight at once.
  uint32_t window(uint32_t column) const;

  // Starts `op` on `column` when its window has room, else queues it. Ops on
  // one column start in submission order. May be called from a completion.
  void Submit(uint32_t column, AsyncOp op);

  // Blocks until every op submitted so far (on any column) has completed.
  void Flush();

  // Runs jobs[c] for every column c with a non-empty job, all concurrently,
  // and returns the per-column statuses (OK for empty slots). `jobs` must
  // have exactly agent_count() entries. Synchronous fan-out for control-plane
  // calls (open/close/truncate): the caller runs one job, the pool the rest.
  std::vector<Status> RunPerAgent(std::vector<std::function<Status()>> jobs);

 private:
  struct Column {
    std::deque<AsyncOp> queue;  // waiting for a window slot
    uint32_t in_flight = 0;     // started, completion not yet delivered
    bool on_pool = false;       // synchronous transport: ops run on the pool
  };

  // Under mutex_: hands the column's queued ops the window's free slots, in
  // order — to the pool for a synchronous column, else to this thread's
  // start list, which the caller runs with StartGranted() once unlocked.
  void GrantSlots(uint32_t column);
  // Starts the ops granted on this thread. Touches no member of any agent:
  // each granted op keeps its agent alive until its completion.
  static void StartGranted();
  void WorkerLoop();
  void OnOpDone(uint32_t column);

  std::vector<AgentTransport*> transports_;
  Options options_;

  std::mutex mutex_;
  std::condition_variable work_cv_;  // workers: a task was posted
  std::condition_variable idle_cv_;  // Flush: pending_ hit zero
  std::vector<Column> columns_;
  std::deque<std::function<void()>> tasks_;  // pool work, FIFO
  std::vector<std::thread> workers_;
  uint64_t pending_ = 0;  // submitted - completed
  bool stopping_ = false;
};

// Aggregates completions for a group of ops submitted across columns.
// Per-column statuses combine as: OK unless some op failed; kUnavailable
// wins over other errors (it is the signal that triggers parity takeover —
// collateral failures of ops already in flight on a dying column must not
// mask it); otherwise the first failure sticks.
class OpBatch {
 public:
  explicit OpBatch(DistributionAgent* agent);
  OpBatch(const OpBatch&) = delete;
  OpBatch& operator=(const OpBatch&) = delete;
  // Waits for stragglers so completions never outlive the batch.
  ~OpBatch();

  // Submits `op` on `column`, wrapping its completion to record the status.
  void Submit(uint32_t column, DistributionAgent::AsyncOp op);

  // Blocks until every op submitted to this batch has completed; returns the
  // per-column aggregate statuses. May be called repeatedly (submit → wait →
  // submit more → wait). When every op of the round was held for this thread
  // (PollScope), the wait drives their transports from this thread
  // (AgentTransport::Poll()) instead of sleeping.
  std::vector<Status> Wait();

  // Hands the round's held ops to their transports' own threads, for a
  // batch nobody waits on soon (a prefetch left in flight between calls);
  // its wait then sleeps instead of driving.
  void ReleaseHeld();

  // Waits until the batch drains or `timeout` elapses; true when it drained.
  // Leaves the statuses and batch timing alone — follow with Wait(). The
  // hedged-read loop polls this to spot a straggler column mid-batch.
  bool WaitFor(std::chrono::microseconds timeout);

  // Ops submitted whose completion has not yet been delivered. Advisory (the
  // count can move the instant the lock drops); used for progress detection
  // between WaitFor rounds.
  uint64_t Outstanding();

 private:
  // Completion callbacks share ownership of this state: the last completer
  // is still inside its mutex unlock when the waiter's predicate flips, so
  // the state must outlive the OpBatch frame or the unlock touches a
  // destroyed mutex (stack reuse — caught by TSan on the striped read path).
  struct State {
    std::mutex mutex;
    std::condition_variable cv;
    uint64_t outstanding = 0;
    std::vector<uint32_t> column_outstanding;
    std::vector<Status> column_status;
    // For the batch-completion latency histogram: set by the first Submit of
    // a wait round, consumed (and re-armed) by Wait.
    std::chrono::steady_clock::time_point batch_start{};
    bool batch_timing_armed = false;
    // When the last outstanding op completed (trace clock), for attributing
    // the waiter's wake-up; consumed by Wait.
    uint64_t drained_ns = 0;
  };

  // Under the state lock: waits until nothing is outstanding.
  void Await(std::unique_lock<std::mutex>& lock);

  DistributionAgent* agent_;
  std::shared_ptr<State> state_;
  // Owner thread only: an op of this wait round was not held for the waiter,
  // or its holds were released, so the wait sleeps instead of driving.
  bool unheld_ = false;
};

}  // namespace swift

#endif  // SWIFT_SRC_CORE_DISTRIBUTION_AGENT_H_
