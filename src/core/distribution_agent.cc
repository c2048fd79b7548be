#include "src/core/distribution_agent.h"

#include <algorithm>
#include <chrono>

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

}  // namespace

DistributionAgent::DistributionAgent(std::vector<AgentTransport*> transports)
    : DistributionAgent(std::move(transports), Options()) {}

DistributionAgent::DistributionAgent(std::vector<AgentTransport*> transports, Options options)
    : transports_(std::move(transports)), options_(options), columns_(transports_.size()) {
  SWIFT_CHECK(!transports_.empty()) << "a distribution agent needs at least one storage agent";
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
  // Re-polled on every PickColumn scan: a congestion-controlled transport's
  // advertisement moves between batches, and the column queue must breathe
  // with it rather than pin the static max_in_flight cap.
  const uint32_t transport_cap =
      std::max<uint32_t>(1, transports_[column]->current_window());
  return std::min(std::max<uint32_t>(1, options_.ops_in_flight), transport_cap);
}

size_t DistributionAgent::PickColumn() {
  const size_t n = columns_.size();
  for (size_t i = 0; i < n; ++i) {
    const size_t c = (scan_start_ + i) % n;
    if (!columns_[c].queue.empty() && columns_[c].in_flight < window(static_cast<uint32_t>(c))) {
      scan_start_ = (c + 1) % n;
      return c;
    }
  }
  return n;
}

void DistributionAgent::WorkerLoop() {
  for (;;) {
    AsyncOp op;
    size_t column;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [this, &column] {
        return stopping_ || (column = PickColumn()) < columns_.size();
      });
      if (stopping_) {
        return;
      }
      op = std::move(columns_[column].queue.front());
      columns_[column].queue.pop_front();
      ++columns_[column].in_flight;
    }
    Metrics().queue_depth->Add(-1);
    Metrics().ops_in_flight->Add(1);
    const uint32_t c = static_cast<uint32_t>(column);
    op(transports_[c], [this, c](Status) { OnOpDone(c); });
  }
}

void DistributionAgent::OnOpDone(uint32_t column) {
  Metrics().ops_in_flight->Add(-1);
  // Notify while holding the lock: the destructor waits on idle_cv_ under
  // mutex_ and frees this object as soon as pending_ hits zero, so touching
  // the condition variables after unlocking would race with destruction.
  std::lock_guard<std::mutex> lock(mutex_);
  SWIFT_CHECK(columns_[column].in_flight > 0) << "completion without a started op";
  --columns_[column].in_flight;
  --pending_;
  if (!columns_[column].queue.empty()) {
    work_cv_.notify_one();
  }
  if (pending_ == 0) {
    idle_cv_.notify_all();
  }
}

void DistributionAgent::Submit(uint32_t column, AsyncOp op) {
  SWIFT_CHECK(column < columns_.size()) << "column " << column << " out of range";
  // The op runs on a pool worker; carry the submitter's trace context across
  // so the transport op it starts joins the submitting request's trace, and
  // its span counts the wait for a worker as client_queue time.
  if (TraceContext context = CurrentTraceContext(); context.present()) {
    op = [context, queued_ns = FlightRecorder::NowNs(), inner = std::move(op)](
             AgentTransport* transport, Completion done) {
      ScopedTraceContext scope(context, queued_ns);
      inner(transport, std::move(done));
    };
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    SWIFT_CHECK(!stopping_);
    columns_[column].queue.push_back(std::move(op));
    ++pending_;
  }
  Metrics().queue_depth->Add(1);
  work_cv_.notify_one();
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

  // Count real jobs; if there is only one, run it inline (common for small
  // unaligned accesses) and skip the pool round-trip.
  size_t job_count = 0;
  size_t last_job = 0;
  for (size_t c = 0; c < jobs.size(); ++c) {
    if (jobs[c]) {
      ++job_count;
      last_job = c;
    }
  }
  if (job_count == 0) {
    return statuses;
  }
  if (job_count == 1) {
    statuses[last_job] = jobs[last_job]();
    return statuses;
  }

  OpBatch batch(this);
  for (size_t c = 0; c < jobs.size(); ++c) {
    if (!jobs[c]) {
      continue;
    }
    batch.Submit(static_cast<uint32_t>(c),
                 [job = std::move(jobs[c])](AgentTransport*, Completion done) { done(job()); });
  }
  return batch.Wait();
}

// -------------------------------------------------------------------- OpBatch

OpBatch::OpBatch(DistributionAgent* agent)
    : agent_(agent), state_(std::make_shared<State>()) {
  state_->column_status.resize(agent->agent_count());
}

OpBatch::~OpBatch() {
  std::unique_lock<std::mutex> lock(state_->mutex);
  state_->cv.wait(lock, [this] { return state_->outstanding == 0; });
}

void OpBatch::Submit(uint32_t column, DistributionAgent::AsyncOp op) {
  {
    std::lock_guard<std::mutex> lock(state_->mutex);
    ++state_->outstanding;
    if (!state_->batch_timing_armed) {
      state_->batch_timing_armed = true;
      state_->batch_start = std::chrono::steady_clock::now();
    }
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
        --state->outstanding;
        if (state->outstanding == 0) {
          state->drained_ns = FlightRecorder::NowNs();
          state->cv.notify_all();
        }
      }
      done(status);
    });
  });
}

bool OpBatch::WaitFor(std::chrono::microseconds timeout) {
  std::unique_lock<std::mutex> lock(state_->mutex);
  return state_->cv.wait_for(lock, timeout, [this] { return state_->outstanding == 0; });
}

uint64_t OpBatch::Outstanding() {
  std::lock_guard<std::mutex> lock(state_->mutex);
  return state_->outstanding;
}

std::vector<Status> OpBatch::Wait() {
  std::unique_lock<std::mutex> lock(state_->mutex);
  state_->cv.wait(lock, [this] { return state_->outstanding == 0; });
  if (state_->drained_ns != 0) {
    // The waiter resumes a scheduler wake-up after the last op completed on
    // a reactor thread: client-side queueing, the mirror of the pool wait
    // each op's span starts with.
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
