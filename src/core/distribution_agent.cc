#include "src/core/distribution_agent.h"

#include <algorithm>
#include <chrono>
#include <optional>

#include "src/util/logging.h"
#include "src/util/metrics.h"
#include "src/util/trace.h"

namespace swift {

namespace {

constexpr uint32_t kMaxWorkers = 16;

// Registry metrics shared by every distribution agent in the process.
struct DistMetrics {
  Gauge* queue_depth;
  Gauge* ops_in_flight;
  HistogramMetric* batch_us;
};

const DistMetrics& Metrics() {
  static const DistMetrics metrics = [] {
    MetricRegistry& registry = MetricRegistry::Global();
    return DistMetrics{
        registry.GetGauge("swift_dist_queue_depth"),
        registry.GetGauge("swift_dist_ops_in_flight"),
        registry.GetHistogram("swift_dist_batch_latency_us"),
    };
  }();
  return metrics;
}

// An op granted a window slot on this thread, not yet started.
struct GrantedOp {
  AgentTransport* transport;
  DistributionAgent::AsyncOp op;
  DistributionAgent::Completion done;
};

// This thread's granted ops. An op whose start completes inline frees its
// slot, and the next op is granted, from inside the first op's start; it
// waits here for the outermost start to return, so a column of inline
// completions runs as a loop rather than a recursion.
struct ThreadStarts {
  std::vector<GrantedOp> ops;
  bool running = false;
};
thread_local ThreadStarts t_starts;

// Wraps `op` so it runs in the submitter's trace context on whichever thread
// starts it; the op's span counts the wait from now as client_queue time.
DistributionAgent::AsyncOp CarryTraceContext(DistributionAgent::AsyncOp op) {
  TraceContext context = CurrentTraceContext();
  if (!context.present()) {
    return op;
  }
  return [context, queued_ns = FlightRecorder::NowNs(), inner = std::move(op)](
             AgentTransport* transport, DistributionAgent::Completion done) {
    ScopedTraceContext scope(context, queued_ns);
    inner(transport, std::move(done));
  };
}

}  // namespace

DistributionAgent::DistributionAgent(std::vector<AgentTransport*> transports)
    : DistributionAgent(std::move(transports), Options()) {}

DistributionAgent::DistributionAgent(std::vector<AgentTransport*> transports, Options options)
    : transports_(std::move(transports)), options_(options), columns_(transports_.size()) {
  SWIFT_CHECK(!transports_.empty()) << "a distribution agent needs at least one storage agent";
  for (size_t c = 0; c < columns_.size(); ++c) {
    columns_[c].on_pool = transports_[c]->max_in_flight() <= 1;
  }
  uint32_t workers = options_.workers;
  if (workers == 0) {
    workers = std::min<uint32_t>(static_cast<uint32_t>(transports_.size()), kMaxWorkers);
  }
  workers_.reserve(workers);
  for (uint32_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

DistributionAgent::~DistributionAgent() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    // Completions capture this object; never let one land after free.
    idle_cv_.wait(lock, [this] { return pending_ == 0; });
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

uint32_t DistributionAgent::window(uint32_t column) const {
  // Re-polled on every grant: a congestion-controlled transport's
  // advertisement moves between batches, and the column queue must breathe
  // with it rather than pin the static max_in_flight cap.
  const uint32_t transport_cap =
      std::max<uint32_t>(1, transports_[column]->current_window());
  return std::min(std::max<uint32_t>(1, options_.ops_in_flight), transport_cap);
}

void DistributionAgent::GrantSlots(uint32_t column) {
  Column& col = columns_[column];
  const uint32_t limit = window(column);
  while (!col.queue.empty() && col.in_flight < limit) {
    GrantedOp granted{transports_[column], std::move(col.queue.front()),
                      [this, column](Status) { OnOpDone(column); }};
    col.queue.pop_front();
    ++col.in_flight;
    Metrics().queue_depth->Add(-1);
    Metrics().ops_in_flight->Add(1);
    if (col.on_pool) {
      tasks_.push_back([granted = std::move(granted)]() mutable {
        granted.op(granted.transport, std::move(granted.done));
      });
      work_cv_.notify_one();
    } else {
      t_starts.ops.push_back(std::move(granted));
    }
  }
}

void DistributionAgent::StartGranted() {
  if (t_starts.running) {
    return;  // an op start further up this thread's stack runs them
  }
  t_starts.running = true;
  for (size_t i = 0; i < t_starts.ops.size(); ++i) {
    GrantedOp granted = std::move(t_starts.ops[i]);
    granted.op(granted.transport, std::move(granted.done));
  }
  t_starts.ops.clear();
  t_starts.running = false;
}

void DistributionAgent::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
      if (stopping_) {
        return;
      }
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    task();
  }
}

void DistributionAgent::OnOpDone(uint32_t column) {
  Metrics().ops_in_flight->Add(-1);
  {
    // Notify while holding the lock: the destructor waits on idle_cv_ under
    // mutex_ and frees this object as soon as pending_ hits zero, so touching
    // the condition variables after unlocking would race with destruction.
    std::lock_guard<std::mutex> lock(mutex_);
    SWIFT_CHECK(columns_[column].in_flight > 0) << "completion without a started op";
    --columns_[column].in_flight;
    --pending_;
    GrantSlots(column);
    if (pending_ == 0) {
      idle_cv_.notify_all();
    }
  }
  StartGranted();
}

void DistributionAgent::Submit(uint32_t column, AsyncOp op) {
  SWIFT_CHECK(column < columns_.size()) << "column " << column << " out of range";
  {
    std::lock_guard<std::mutex> lock(mutex_);
    SWIFT_CHECK(!stopping_);
    ++pending_;
    Column& col = columns_[column];
    // An op that starts right away on this thread runs in the submitter's
    // trace context as it is. Any other op waits — for a window slot, a pool
    // worker or an op start further up this thread's stack — and carries the
    // context along.
    if (col.on_pool || !col.queue.empty() || col.in_flight >= window(column) ||
        t_starts.running) {
      op = CarryTraceContext(std::move(op));
    }
    col.queue.push_back(std::move(op));
    Metrics().queue_depth->Add(1);
    GrantSlots(column);
  }
  StartGranted();
}

void DistributionAgent::Flush() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_cv_.wait(lock, [this] { return pending_ == 0; });
}

std::vector<Status> DistributionAgent::RunPerAgent(std::vector<std::function<Status()>> jobs) {
  SWIFT_CHECK(jobs.size() == transports_.size())
      << "job vector must match the agent set (" << jobs.size() << " vs " << transports_.size()
      << ")";
  std::vector<Status> statuses(jobs.size());
  size_t last_job = jobs.size();
  for (size_t c = 0; c < jobs.size(); ++c) {
    if (jobs[c]) {
      last_job = c;
    }
  }
  if (last_job == jobs.size()) {
    return statuses;
  }

  // Every job but the last goes to the pool; the caller runs the last one
  // itself. The pool's tasks share ownership of the count: the last one is
  // still unlocking when the caller's wait returns.
  struct Fanout {
    std::mutex mutex;
    std::condition_variable cv;
    size_t running = 0;
  };
  auto fanout = std::make_shared<Fanout>();
  for (size_t c = 0; c < last_job; ++c) {
    fanout->running += jobs[c] ? 1 : 0;
  }
  if (fanout->running > 0) {
    const TraceContext context = CurrentTraceContext();
    const uint64_t queued_ns = FlightRecorder::NowNs();
    std::lock_guard<std::mutex> lock(mutex_);
    for (size_t c = 0; c < last_job; ++c) {
      if (!jobs[c]) {
        continue;
      }
      tasks_.push_back([fanout, context, queued_ns, status = &statuses[c],
                        job = std::move(jobs[c])] {
        {
          ScopedTraceContext scope(context, context.present() ? queued_ns : 0);
          *status = job();
        }
        std::lock_guard<std::mutex> lock(fanout->mutex);
        if (--fanout->running == 0) {
          fanout->cv.notify_all();
        }
      });
    }
    work_cv_.notify_all();
  }
  statuses[last_job] = jobs[last_job]();
  std::unique_lock<std::mutex> lock(fanout->mutex);
  fanout->cv.wait(lock, [&fanout] { return fanout->running == 0; });
  return statuses;
}

// -------------------------------------------------------------------- OpBatch

OpBatch::OpBatch(DistributionAgent* agent)
    : agent_(agent), state_(std::make_shared<State>()) {
  state_->column_status.resize(agent->agent_count());
  state_->column_outstanding.resize(agent->agent_count());
}

OpBatch::~OpBatch() {
  std::unique_lock<std::mutex> lock(state_->mutex);
  Await(lock);
}

void OpBatch::Submit(uint32_t column, DistributionAgent::AsyncOp op) {
  {
    std::lock_guard<std::mutex> lock(state_->mutex);
    ++state_->outstanding;
    ++state_->column_outstanding[column];
    if (!state_->batch_timing_armed) {
      state_->batch_timing_armed = true;
      state_->batch_start = std::chrono::steady_clock::now();
    }
  }
  // Wait() drives the round through Poll() if every op of it was held for
  // this thread, so the transport may hold this one — unless an op already
  // was not: the round then goes to the transports' own threads at once.
  std::optional<PollScope> scope;
  if (!unheld_) {
    scope.emplace();
  }
  // The completion captures shared ownership of the batch state, never the
  // batch itself: the waiter may destroy the OpBatch frame the instant
  // outstanding hits zero, while the completer is still unlocking.
  agent_->Submit(column, [state = state_, column, op = std::move(op)](
                             AgentTransport* transport, DistributionAgent::Completion done) {
    op(transport, [state, column, done = std::move(done)](Status status) {
      {
        std::lock_guard<std::mutex> lock(state->mutex);
        Status& slot = state->column_status[column];
        if (!status.ok() &&
            (slot.ok() || (status.code() == StatusCode::kUnavailable &&
                           slot.code() != StatusCode::kUnavailable))) {
          slot = status;
        }
        --state->column_outstanding[column];
        --state->outstanding;
        if (state->outstanding == 0) {
          state->drained_ns = FlightRecorder::NowNs();
          state->cv.notify_all();
        }
      }
      done(status);
    });
  });
  if (scope.has_value() && !scope->held()) {
    ReleaseHeld();
  }
}

void OpBatch::ReleaseHeld() {
  PollScope::ReleaseHeld();
  unheld_ = true;
}

bool OpBatch::WaitFor(std::chrono::microseconds timeout) {
  // A driving waiter could not keep the timeout: the transports' own
  // threads run the batch.
  ReleaseHeld();
  std::unique_lock<std::mutex> lock(state_->mutex);
  return state_->cv.wait_for(lock, timeout, [this] { return state_->outstanding == 0; });
}

void OpBatch::Await(std::unique_lock<std::mutex>& lock) {
  // Every op of the round held for this thread: drive their transports from
  // here, all of them in one Poll() (no hand-off to a reactor and back).
  // Otherwise, or once another thread drives one of them, sleep until done.
  while (state_->outstanding > 0 && !unheld_) {
    const auto column = static_cast<uint32_t>(
        std::ranges::find_if(state_->column_outstanding, [](uint32_t n) { return n > 0; }) -
        state_->column_outstanding.begin());
    lock.unlock();
    const size_t ran = agent_->transport(column)->Poll();
    lock.lock();
    if (ran == 0) {
      break;
    }
  }
  PollScope::ReleaseHeld();
  state_->cv.wait(lock, [this] { return state_->outstanding == 0; });
  unheld_ = false;
}

uint64_t OpBatch::Outstanding() {
  std::lock_guard<std::mutex> lock(state_->mutex);
  return state_->outstanding;
}

std::vector<Status> OpBatch::Wait() {
  std::unique_lock<std::mutex> lock(state_->mutex);
  Await(lock);
  if (state_->drained_ns != 0) {
    // The waiter resumes a scheduler wake-up after the last op completed on
    // a reactor thread: client-side queueing, the mirror of the window wait
    // a queued op's span starts with.
    if (CurrentTraceContext().present()) {
      NoteRootStage(SpanStage::kClientQueue, state_->drained_ns, FlightRecorder::NowNs());
    }
    state_->drained_ns = 0;
  }
  if (state_->batch_timing_armed) {
    state_->batch_timing_armed = false;
    Metrics().batch_us->Record(
        std::chrono::duration_cast<std::chrono::duration<double, std::micro>>(
            std::chrono::steady_clock::now() - state_->batch_start)
            .count());
  }
  return state_->column_status;
}

}  // namespace swift
