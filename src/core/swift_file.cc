#include "src/core/swift_file.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <mutex>
#include <optional>

#include "src/core/erasure.h"
#include "src/proto/message.h"
#include "src/util/buffer.h"
#include "src/util/logging.h"
#include "src/util/metrics.h"
#include "src/util/trace.h"

namespace swift {

namespace {

// Registry metrics shared by every SwiftFile in the process.
struct FileMetrics {
  HistogramMetric* read_us;
  HistogramMetric* write_us;
  HistogramMetric* degraded_read_us;
  Counter* parity_reconstructions;
  Counter* read_repairs;
  Counter* hedge_attempts;
  Counter* hedge_wins;
  Counter* hedge_suppressed;
  Counter* multi_failure_repairs;
  Counter* readahead_bytes;
  Counter* readahead_discarded_bytes;
};

const FileMetrics& Metrics() {
  static const FileMetrics metrics = [] {
    MetricRegistry& registry = MetricRegistry::Global();
    return FileMetrics{
        registry.GetHistogram("swift_file_read_latency_us"),
        registry.GetHistogram("swift_file_write_latency_us"),
        registry.GetHistogram("swift_file_degraded_read_latency_us"),
        registry.GetCounter("swift_file_parity_reconstructions_total"),
        registry.GetCounter("swift_file_read_repairs_total"),
        registry.GetCounter("swift_hedge_attempts_total"),
        registry.GetCounter("swift_hedge_wins_total"),
        registry.GetCounter("swift_hedge_suppressed_total"),
        registry.GetCounter("swift_erasure_multi_failure_repairs_total"),
        registry.GetCounter("swift_file_readahead_bytes_total"),
        registry.GetCounter("swift_file_readahead_discarded_bytes_total"),
    };
  }();
  return metrics;
}

// Process-global hedge budget: a hedge is admitted only while the hedge count
// stays at or under 5% of hedge-eligible reads. The first 19 reads can never
// hedge — the warm-up doubles as protection against hedging on a cold RTT
// estimate.
struct HedgeGovernor {
  std::atomic<uint64_t> reads{0};
  std::atomic<uint64_t> hedges{0};
  bool Admit() {
    const uint64_t r = reads.load(std::memory_order_relaxed);
    uint64_t h = hedges.load(std::memory_order_relaxed);
    for (;;) {
      if ((h + 1) * 20 > r) {
        return false;
      }
      if (hedges.compare_exchange_weak(h, h + 1, std::memory_order_relaxed)) {
        return true;
      }
    }
  }
};

HedgeGovernor& Governor() {
  static HedgeGovernor governor;
  return governor;
}

double ElapsedUs(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration_cast<std::chrono::duration<double, std::micro>>(
             std::chrono::steady_clock::now() - since)
      .count();
}

// Combines a batch's per-column statuses into one. kUnavailable wins — it is
// the signal the retry loops react to (re-plan degraded) — otherwise the
// first failure sticks.
Status Aggregate(const std::vector<Status>& statuses) {
  Status first = OkStatus();
  for (const Status& status : statuses) {
    if (status.ok()) {
      continue;
    }
    if (status.code() == StatusCode::kUnavailable) {
      return status;
    }
    if (first.ok()) {
      first = status;
    }
  }
  return first;
}

// Parity time accumulated on this thread for the enclosing root span.
// Reconstruction and parity-maintenance run synchronously on the PRead/PWrite
// caller thread (the XOR folds inside them land on completion threads, but
// the caller blocks in batch.Wait()), so a thread-local covers the call tree.
thread_local uint64_t t_parity_ns = 0;
thread_local uint64_t t_parity_first_ns = 0;
thread_local uint32_t t_parity_depth = 0;

// Charges the enclosing scope for one parity section. Only the outermost
// timer records (WriteRowParity may call ReconstructRanges — counting both
// would double-charge the stage).
class ParityTimer {
 public:
  ParityTimer() : active_(CurrentTraceContext().present()) {
    if (active_ && t_parity_depth++ == 0) {
      begin_ns_ = FlightRecorder::NowNs();
    }
  }
  ~ParityTimer() {
    if (!active_) {
      return;
    }
    --t_parity_depth;
    if (begin_ns_ != 0) {
      if (t_parity_first_ns == 0) {
        t_parity_first_ns = begin_ns_;
      }
      t_parity_ns += FlightRecorder::NowNs() - begin_ns_;
    }
  }
  ParityTimer(const ParityTimer&) = delete;
  ParityTimer& operator=(const ParityTimer&) = delete;

 private:
  bool active_;
  uint64_t begin_ns_ = 0;
};

// Root span for one client-visible file operation (label "pread"/"pwrite").
// Installs the ambient context every transport op spawned below inherits; on
// destruction folds in the thread's parity time and root stages (batch
// wake-ups) and submits the span. A
// no-op when an outer trace context already covers this call (nested ops,
// scrub-triggered repairs) or tracing is off. A read served by a prefetch
// `adopt`s the root the prefetch's ops were started under (their parent), so
// its trace holds the ops it consumed.
class RootSpanScope {
 public:
  RootSpanScope(const char* label, std::atomic<uint64_t>& last_trace_id,
                const TraceContext* adopt = nullptr) {
    if (CurrentTraceContext().present()) {
      return;  // part of an enclosing traced operation
    }
    TraceContext context = adopt != nullptr ? *adopt : NewRootContext();
    if (!context.present()) {
      return;
    }
    span_.trace_id = context.trace_id;
    span_.span_id = adopt != nullptr ? adopt->parent_span_id : NextSpanId();
    span_.parent_span_id = 0;
    span_.node = TraceNodeId();
    span_.sampled = context.sampled();
    span_.start_ns = FlightRecorder::NowNs();
    span_.label = label;
    context.parent_span_id = span_.span_id;
    t_parity_ns = 0;
    t_parity_first_ns = 0;
    TakeRootStages();  // drop leftovers noted with no root span above
    scope_.emplace(context);
    last_trace_id.store(context.trace_id, std::memory_order_relaxed);
  }
  ~RootSpanScope() {
    if (!scope_.has_value()) {
      return;
    }
    scope_.reset();  // restore the ambient context before submitting
    span_.end_ns = FlightRecorder::NowNs();
    if (t_parity_ns != 0) {
      span_.events.push_back({SpanStage::kParity, t_parity_first_ns, t_parity_ns, 0});
      t_parity_ns = 0;
      t_parity_first_ns = 0;
    }
    for (const SpanEvent& event : TakeRootStages()) {
      span_.events.push_back(event);
    }
    SpanStore::Global().Submit(std::move(span_));
  }
  RootSpanScope(const RootSpanScope&) = delete;
  RootSpanScope& operator=(const RootSpanScope&) = delete;

  // Whether this call opened a root span (tracing on, not nested).
  bool open() const { return scope_.has_value(); }

 private:
  Span span_;
  std::optional<ScopedTraceContext> scope_;
};

// Appends [agent_offset, +length) of `column`, at `data`, to `out` cut at
// stripe-unit boundaries: one range per row it touches.
void AppendUnitRanges(uint64_t unit, uint32_t column, uint64_t agent_offset, uint64_t length,
                      uint8_t* data, std::vector<UnitRange>& out) {
  for (uint64_t done = 0; done < length;) {
    const uint64_t position = agent_offset + done;
    const uint64_t chunk = std::min(unit - position % unit, length - done);
    out.push_back({position / unit, column, position % unit, chunk, data + done});
    done += chunk;
  }
}

}  // namespace

SwiftFile::SwiftFile(std::string name, StripeConfig stripe,
                     std::vector<AgentTransport*> transports, ObjectDirectory* directory,
                     DistributionAgent::Options io_options)
    : name_(std::move(name)),
      layout_(stripe),
      distribution_(std::move(transports), io_options),
      directory_(directory),
      handles_(stripe.num_agents, 0),
      decoder_(layout_, distribution_, handles_),
      open_(stripe.num_agents),
      failed_(stripe.num_agents) {}

SwiftFile::~SwiftFile() {
  if (!closed_) {
    (void)Close();
  }
}

Result<std::unique_ptr<SwiftFile>> SwiftFile::Create(const TransferPlan& plan,
                                                     std::vector<AgentTransport*> transports,
                                                     ObjectDirectory* directory,
                                                     DistributionAgent::Options io_options) {
  SWIFT_RETURN_IF_ERROR(plan.stripe.Validate());
  if (transports.size() != plan.stripe.num_agents) {
    return InvalidArgumentError("transport count does not match the plan's stripe width");
  }
  ObjectMetadata metadata;
  metadata.name = plan.object_name;
  metadata.stripe = plan.stripe;
  metadata.agent_ids = plan.agent_ids;
  metadata.size = 0;
  SWIFT_RETURN_IF_ERROR(directory->Create(metadata));

  std::unique_ptr<SwiftFile> file(
      new SwiftFile(plan.object_name, plan.stripe, std::move(transports), directory, io_options));
  Status status = file->OpenAgentFiles(kOpenCreate | kOpenTruncate);
  if (!status.ok()) {
    (void)directory->Remove(plan.object_name);
    return status;
  }
  return file;
}

Result<std::unique_ptr<SwiftFile>> SwiftFile::Open(const std::string& name,
                                                   std::vector<AgentTransport*> transports,
                                                   ObjectDirectory* directory,
                                                   DistributionAgent::Options io_options) {
  SWIFT_ASSIGN_OR_RETURN(ObjectMetadata metadata, directory->Lookup(name));
  if (transports.size() != metadata.stripe.num_agents) {
    return InvalidArgumentError("transport count does not match the object's stripe width");
  }
  std::unique_ptr<SwiftFile> file(
      new SwiftFile(name, metadata.stripe, std::move(transports), directory, io_options));
  file->size_ = metadata.size;
  SWIFT_RETURN_IF_ERROR(file->OpenAgentFiles(kOpenCreate));
  return file;
}

Status SwiftFile::OpenAgentFiles(uint32_t flags) {
  const uint32_t agents = layout_.config().num_agents;
  std::vector<std::function<Status()>> jobs(agents);
  for (uint32_t c = 0; c < agents; ++c) {
    jobs[c] = [this, c, flags]() -> Status {
      auto result = distribution_.transport(c)->Open(name_, flags);
      if (!result.ok()) {
        return result.status();
      }
      handles_[c] = result->handle;
      open_[c].store(true);
      return OkStatus();
    };
  }
  const std::vector<Status> statuses = distribution_.RunPerAgent(std::move(jobs));
  const bool parity_on = layout_.config().parity != ParityMode::kNone;
  for (uint32_t c = 0; c < agents; ++c) {
    const Status& status = statuses[c];
    if (status.code() == StatusCode::kUnavailable && parity_on) {
      // Degraded open: a dead agent within the parity budget must not make
      // the object unavailable (§2). The column is marked failed; the data
      // path reconstructs through the codec.
      MarkColumnFailed(c);
      continue;
    }
    SWIFT_RETURN_IF_ERROR(status);
  }
  if (failed_count_.load() > ParityBudget()) {
    return DataLossError("more storage agents unavailable at open than parity units cover");
  }
  return OkStatus();
}

uint32_t SwiftFile::ParityBudget() const { return layout_.config().ParityUnitsPerRow(); }

Status SwiftFile::Close() {
  if (closed_) {
    return OkStatus();
  }
  closed_ = true;
  DropPrefetch();
  Status first_error = OkStatus();
  if (directory_ != nullptr) {
    Status status = directory_->UpdateSize(name_, size_);
    if (!status.ok()) {
      first_error = status;
    }
  }
  const uint32_t agents = layout_.config().num_agents;
  std::vector<std::function<Status()>> jobs(agents);
  for (uint32_t c = 0; c < agents; ++c) {
    if (!open_[c].load() || ColumnFailed(c)) {
      continue;
    }
    jobs[c] = [this, c]() -> Status { return distribution_.transport(c)->Close(handles_[c]); };
  }
  for (const Status& status : distribution_.RunPerAgent(std::move(jobs))) {
    if (!status.ok() && first_error.ok()) {
      first_error = status;
    }
  }
  return first_error;
}

Status SwiftFile::Truncate(uint64_t new_size) {
  if (closed_) {
    return InvalidArgumentError("file is closed");
  }
  DropPrefetch();
  if (failed_count_.load() > 0) {
    return UnavailableError("truncate is not supported while agents are failed");
  }
  if (new_size >= size_) {
    // Growing: just move the logical end; holes read back as zeros.
    size_ = new_size;
    return directory_ != nullptr ? directory_->UpdateSize(name_, size_) : OkStatus();
  }

  const bool parity_on = layout_.config().parity != ParityMode::kNone;
  // Zero the tail of the boundary row first (via the normal parity-
  // maintaining write path) so the parity unit matches the zero-extension
  // semantics of the shortened data units.
  if (parity_on && new_size > 0) {
    const uint64_t row_bytes = layout_.config().RowDataBytes();
    const uint64_t row_start = (new_size / row_bytes) * row_bytes;
    const uint64_t row_end = std::min(row_start + row_bytes, size_);
    if (new_size < row_end) {
      const std::vector<uint8_t> zeros(row_end - new_size, 0);
      SWIFT_RETURN_IF_ERROR(WriteRange(new_size, zeros));
    }
  }
  // Trim every agent file to the exact layout size.
  std::vector<std::function<Status()>> jobs(layout_.config().num_agents);
  for (uint32_t c = 0; c < layout_.config().num_agents; ++c) {
    const uint64_t agent_size = layout_.AgentFileSize(c, new_size);
    jobs[c] = [this, c, agent_size]() -> Status {
      return GuardedCall(c, [&]() -> Status {
        return distribution_.transport(c)->Truncate(handles_[c], agent_size);
      });
    };
  }
  for (const Status& status : distribution_.RunPerAgent(std::move(jobs))) {
    SWIFT_RETURN_IF_ERROR(status);
  }
  size_ = new_size;
  // POSIX ftruncate leaves the file offset alone; so do we.
  return directory_ != nullptr ? directory_->UpdateSize(name_, size_) : OkStatus();
}

Result<uint64_t> SwiftFile::Seek(int64_t offset, SeekWhence whence) {
  int64_t base = 0;
  switch (whence) {
    case SeekWhence::kSet:
      base = 0;
      break;
    case SeekWhence::kCurrent:
      base = static_cast<int64_t>(cursor_);
      break;
    case SeekWhence::kEnd:
      base = static_cast<int64_t>(size_);
      break;
  }
  const int64_t target = base + offset;
  if (target < 0) {
    return InvalidArgumentError("seek before start of object");
  }
  cursor_ = static_cast<uint64_t>(target);
  return cursor_;
}

Result<uint64_t> SwiftFile::Read(std::span<uint8_t> out) {
  SWIFT_ASSIGN_OR_RETURN(uint64_t n, PRead(cursor_, out));
  cursor_ += n;
  return n;
}

Result<uint64_t> SwiftFile::Write(std::span<const uint8_t> data) {
  SWIFT_ASSIGN_OR_RETURN(uint64_t n, PWrite(cursor_, data));
  cursor_ += n;
  return n;
}

Result<uint64_t> SwiftFile::PRead(uint64_t offset, std::span<uint8_t> out) {
  if (closed_) {
    return InvalidArgumentError("file is closed");
  }
  if (offset >= size_ || out.empty()) {
    return static_cast<uint64_t>(0);
  }
  const uint64_t length = std::min<uint64_t>(out.size(), size_ - offset);
  const bool takes_prefetch =
      prefetch_ != nullptr && prefetch_->parts.front().offset == offset;
  RootSpanScope trace_root("pread", last_trace_id_,
                           takes_prefetch && prefetch_->trace.present() ? &prefetch_->trace
                                                                        : nullptr);
  // A read that starts with failed columns exercises the reconstruction
  // path; bucket it separately so degraded-mode latency is visible.
  const bool degraded = failed_count_.load() > 0;
  const auto start = std::chrono::steady_clock::now();
  const std::span<uint8_t> range = out.subspan(0, length);
  const std::optional<std::span<const uint8_t>> ahead = ReadThroughPrefetch(offset, range);
  if (!ahead.has_value()) {
    SWIFT_RETURN_IF_ERROR(ReadRange(offset, range));
  }
  // The next prefetch goes out before the copy below, which it overlaps: it
  // lands in the other half of the buffer.
  MaybeReadAhead(offset, length, trace_root.open());
  if (ahead.has_value()) {
    const uint64_t copy_ns = FlightRecorder::NowNs();
    std::memcpy(range.data(), ahead->data(), ahead->size());
    CountBufferCopy(ahead->size());
    if (CurrentTraceContext().present()) {
      NoteRootStage(SpanStage::kReadAhead, copy_ns, FlightRecorder::NowNs());
    }
  }
  const double us = ElapsedUs(start);
  Metrics().read_us->Record(us);
  if (degraded) {
    Metrics().degraded_read_us->Record(us);
  }
  return length;
}

Result<uint64_t> SwiftFile::PWrite(uint64_t offset, std::span<const uint8_t> data) {
  if (closed_) {
    return InvalidArgumentError("file is closed");
  }
  if (data.empty()) {
    return static_cast<uint64_t>(0);
  }
  DropPrefetch();
  RootSpanScope trace_root("pwrite", last_trace_id_);
  const auto start = std::chrono::steady_clock::now();
  SWIFT_RETURN_IF_ERROR(WriteRange(offset, data));
  Metrics().write_us->Record(ElapsedUs(start));
  size_ = std::max(size_, offset + data.size());
  if (directory_ != nullptr) {
    SWIFT_RETURN_IF_ERROR(directory_->UpdateSize(name_, size_));
  }
  return static_cast<uint64_t>(data.size());
}

void SwiftFile::MarkColumnFailed(uint32_t column) {
  SWIFT_CHECK(column < failed_.size());
  if (!failed_[column].exchange(true)) {
    ++failed_count_;
  }
}

std::vector<uint32_t> SwiftFile::failed_columns() const {
  std::vector<uint32_t> columns;
  for (uint32_t c = 0; c < failed_.size(); ++c) {
    if (failed_[c].load()) {
      columns.push_back(c);
    }
  }
  return columns;
}

Status SwiftFile::GuardedCall(uint32_t column, const std::function<Status()>& fn) {
  Status status = fn();
  if (status.code() == StatusCode::kUnavailable) {
    MarkColumnFailed(column);
  }
  return status;
}

// ------------------------------------------------------------- op plumbing --

void SwiftFile::SubmitRead(OpBatch& batch, uint32_t column, uint64_t agent_offset,
                           uint64_t length, uint8_t* dst, CorruptSink* corrupt,
                           const std::shared_ptr<HedgeTracker>& hedge) {
  size_t slot = 0;
  if (hedge != nullptr) {
    std::lock_guard<std::mutex> lock(hedge->mutex);
    slot = hedge->ops.size();
    HedgeTracker::Op op;
    op.column = column;
    op.agent_offset = agent_offset;
    op.length = length;
    op.dst = dst;
    hedge->ops.push_back(op);
  }
  batch.Submit(column, [this, column, agent_offset, length, dst, corrupt, hedge, slot](
                           AgentTransport* transport, DistributionAgent::Completion done) {
    // Read-into: the transport assembles the stripe unit directly at `dst`
    // (the caller's destination), so no copy happens at this layer.
    // done() is never called under a tracker/sink lock: the final done()
    // releases the batch waiter, whose stack frame owns the sink — an unlock
    // after it could touch a dead mutex.
    auto completion = [this, column, agent_offset, length, dst, corrupt, hedge, slot,
                       done = std::move(done)](Status status) {
      if (hedge != nullptr) {
        bool parked = false;
        {
          std::lock_guard<std::mutex> lock(hedge->mutex);
          HedgeTracker::Op& op = hedge->ops[slot];
          op.done = true;
          parked = op.parked;
          op.landed = parked && status.ok();
        }
        if (parked) {
          // The hedge owns this range now: the batch sees OK whatever the
          // transport delivered. A reply that beat the cancel landed in
          // `dst` and stands; anything else (cancellation, an error) is
          // rebuilt from parity afterwards. A real agent death still flips
          // the column so reconstruction can see it.
          if (status.code() == StatusCode::kUnavailable) {
            MarkColumnFailed(column);
          }
          done(OkStatus());
          return;
        }
      }
      if (!status.ok()) {
        if (status.code() == StatusCode::kUnavailable) {
          MarkColumnFailed(column);
        }
        if (status.code() == StatusCode::kDataCorrupt && corrupt != nullptr) {
          // The agent is alive; only the stored unit failed its checksum.
          // Park the op for post-batch repair instead of failing the
          // batch — and leave the column's failure flag alone.
          {
            std::lock_guard<std::mutex> lock(corrupt->mutex);
            corrupt->ops.push_back({column, agent_offset, length, dst});
          }
          done(OkStatus());
          return;
        }
      }
      done(std::move(status));
    };
    if (hedge == nullptr) {
      transport->StartReadInto(handles_[column], agent_offset,
                               std::span<uint8_t>(dst, length), std::move(completion));
      return;
    }
    bool parked = false;
    {
      std::lock_guard<std::mutex> lock(hedge->mutex);
      HedgeTracker::Op& op = hedge->ops[slot];
      op.started = true;
      parked = op.parked;
    }
    if (parked) {
      // Hedged before this op ever reached the wire: resolve without
      // touching the transport — reconstruction already covers the range.
      completion(CancelledError("hedged before it started"));
      return;
    }
    const uint64_t token = transport->StartCancellableReadInto(
        handles_[column], agent_offset, std::span<uint8_t>(dst, length),
        std::move(completion));
    if (token != 0) {
      std::lock_guard<std::mutex> lock(hedge->mutex);
      hedge->ops[slot].token = token;
    }
  });
}

void SwiftFile::SubmitWrite(OpBatch& batch, uint32_t column, uint64_t agent_offset,
                            std::span<const uint8_t> bytes) {
  batch.Submit(column, [this, column, agent_offset, bytes](AgentTransport* transport,
                                                           DistributionAgent::Completion done) {
    transport->StartWrite(handles_[column], agent_offset, bytes,
                          [this, column, done = std::move(done)](Status status) {
                            if (status.code() == StatusCode::kUnavailable) {
                              MarkColumnFailed(column);
                            }
                            done(std::move(status));
                          });
  });
}

void SwiftFile::SubmitExtentRead(OpBatch& batch, const AgentExtent& extent, uint64_t base_offset,
                                 std::span<uint8_t> out, CorruptSink* corrupt,
                                 const std::shared_ptr<HedgeTracker>& hedge) {
  uint8_t* dst = out.data() + (extent.logical_offset - base_offset);
  const uint64_t unit = layout_.config().stripe_unit;
  // MapRange coalesces contiguous same-agent units into one extent; chop it
  // back to stripe-unit ops only when the column can overlap them.
  if (distribution_.window(extent.agent) <= 1 || extent.length <= unit) {
    SubmitRead(batch, extent.agent, extent.agent_offset, extent.length, dst, corrupt, hedge);
    return;
  }
  uint64_t done = 0;
  while (done < extent.length) {
    const uint64_t position = extent.agent_offset + done;
    const uint64_t chunk = std::min(unit - (position % unit), extent.length - done);
    SubmitRead(batch, extent.agent, position, chunk, dst + done, corrupt, hedge);
    done += chunk;
  }
}

void SwiftFile::SubmitExtentWrite(OpBatch& batch, const AgentExtent& extent, uint64_t base_offset,
                                  std::span<const uint8_t> data) {
  std::span<const uint8_t> bytes =
      data.subspan(extent.logical_offset - base_offset, extent.length);
  const uint64_t unit = layout_.config().stripe_unit;
  if (distribution_.window(extent.agent) <= 1 || extent.length <= unit) {
    SubmitWrite(batch, extent.agent, extent.agent_offset, bytes);
    return;
  }
  uint64_t done = 0;
  while (done < extent.length) {
    const uint64_t position = extent.agent_offset + done;
    const uint64_t chunk = std::min(unit - (position % unit), extent.length - done);
    SubmitWrite(batch, extent.agent, position, bytes.subspan(done, chunk));
    done += chunk;
  }
}

// ---------------------------------------------------------------- reading --

SwiftFile::ReadJob::ReadJob(SwiftFile& file)
    : failed(file.failed_columns()),
      parity_on(file.layout_.config().parity != ParityMode::kNone),
      batch(&file.distribution_) {
  // Hedging needs spare parity budget: reconstruction of a cancelled
  // straggler is only safe while failed columns + cancelled columns stay
  // within the codec's m erasures.
  hedging = file.distribution_.options().hedged_reads && parity_on &&
            failed.size() < file.ParityBudget() && file.layout_.config().num_agents > 1;
  if (hedging) {
    hedge = std::make_shared<HedgeTracker>();
  }
}

Status SwiftFile::ReadRange(uint64_t offset, std::span<uint8_t> out) {
  const bool parity_on = layout_.config().parity != ParityMode::kNone;
  // A failure discovered mid-read flips a column to failed and we retry;
  // each retry consumes at least one new failure, so attempts are bounded.
  for (uint32_t attempt = 0; attempt <= layout_.config().num_agents; ++attempt) {
    if (parity_on && failed_count_.load() > ParityBudget()) {
      return DataLossError("more failed agents than parity units in a stripe group");
    }
    if (!parity_on && failed_count_.load() > 0) {
      return UnavailableError("storage agent failed and object has no redundancy");
    }
    ReadJob job(*this);
    bool replan = false;
    Status status = StartRead(job, offset, out);
    if (status.ok()) {
      status = FinishRead(job, replan);
    }
    if (!replan) {
      return status;
    }
  }
  return InternalError("read retry budget exhausted");
}

Status SwiftFile::StartRead(ReadJob& job, uint64_t offset, std::span<uint8_t> out) {
  const uint64_t unit = layout_.config().stripe_unit;
  const std::vector<AgentExtent> extents = layout_.MapRange(offset, out.size());
  auto is_failed = [&job](uint32_t column) {
    return std::ranges::find(job.failed, column) != job.failed.end();
  };
  ReadJob::Part& part = job.parts.emplace_back();
  part.offset = offset;
  part.out = out;

  // Extents on failed columns are decoded in the live batch itself: the
  // decode job holds the live data units this batch lands in `out` and
  // submits only the survivors the read does not fetch, usually the rows'
  // live parity units. A healthy read builds none of this.
  std::vector<UnitRange> lost;
  std::vector<UnitRange> held;
  if (!job.failed.empty()) {
    for (const AgentExtent& extent : extents) {
      AppendUnitRanges(unit, extent.agent, extent.agent_offset, extent.length,
                       out.data() + (extent.logical_offset - offset),
                       is_failed(extent.agent) ? lost : held);
    }
  }
  if (!lost.empty()) {
    part.lost = lost.size();
    part.decode.emplace(decoder_, lost, job.failed, held);
    SWIFT_RETURN_IF_ERROR(part.decode->Start(job.batch));
  }

  // Live extents: stripe-unit ops across the whole range, so every column
  // pipelines up to its window. With parity on, checksum failures park in
  // the job's sink instead of failing the batch; without parity there is
  // nothing to rebuild from, so they surface as errors.
  for (const AgentExtent& extent : extents) {
    if (!is_failed(extent.agent)) {
      SubmitExtentRead(job.batch, extent, offset, out, job.parity_on ? &job.corrupt : nullptr,
                       job.hedge);
    }
  }
  return OkStatus();
}

Status SwiftFile::FinishRead(ReadJob& job, bool& replan) {
  const uint64_t unit = layout_.config().stripe_unit;
  std::vector<HedgeTracker::Op> hedged;
  const Status status =
      Aggregate(job.hedging ? WaitHedged(job.batch, *job.hedge, &hedged) : job.batch.Wait());
  if (status.code() == StatusCode::kUnavailable) {
    replan = true;  // re-plan with the updated failure set
    return OkStatus();
  }
  SWIFT_RETURN_IF_ERROR(status);

  // Finish a hedge: the stragglers' cancelled ranges come from erasure
  // reconstruction, which must avoid reading *any* hedged column (their
  // ops were cancelled). If reconstruction loses its bet (a survivor died
  // mid-hedge), the straggler columns themselves are still healthy —
  // re-read the ranges from them directly, so correctness never depends on
  // the hedge. Either way the ranges hold good bytes afterwards, so the
  // decode jobs below may fold them as held survivors.
  if (!hedged.empty()) {
    std::vector<uint32_t> avoid;  // may repeat a column; the decoder dedupes
    std::vector<RangeRead> ranges;
    for (const HedgeTracker::Op& op : hedged) {
      avoid.push_back(op.column);
      ranges.push_back({op.column, op.agent_offset, op.length, op.dst});
    }
    const Status rebuilt = ReconstructRanges(ranges, avoid);
    bool straggler_died = false;
    for (uint32_t column : avoid) {
      straggler_died = straggler_died || ColumnFailed(column);
    }
    if (rebuilt.ok()) {
      Metrics().hedge_wins->Increment();
    } else if (!straggler_died) {
      OpBatch retry(&distribution_);
      for (const HedgeTracker::Op& op : hedged) {
        SubmitRead(retry, op.column, op.agent_offset, op.length, op.dst,
                   job.parity_on ? &job.corrupt : nullptr);
      }
      const Status retried = Aggregate(retry.Wait());
      if (retried.code() == StatusCode::kUnavailable) {
        replan = true;  // a straggler died for real; re-plan degraded
        return OkStatus();
      }
      SWIFT_RETURN_IF_ERROR(retried);
    } else {
      // A cancelled column really died: the budget check at the top of the
      // retry loop decides whether the remaining parity covers it.
      replan = true;
      return OkStatus();
    }
  }

  // Finish the decodes. A held unit that came back corrupt is no survivor:
  // its row re-plans with that column erased.
  std::vector<UnitRef> unusable;
  for (const RangeRead& op : job.corrupt.ops) {
    for (uint64_t row = op.agent_offset / unit; row * unit < op.agent_offset + op.length; ++row) {
      unusable.push_back({row, op.column});
    }
  }
  for (ReadJob::Part& part : job.parts) {
    if (part.decode.has_value()) {
      ParityTimer parity_timer;
      SWIFT_RETURN_IF_ERROR(
          RecordDecode(part.decode->Finish(unusable), part.decode->report(), part.lost));
    }
  }

  // Heal checksum casualties: reconstruct each corrupt unit from its row's
  // survivors, hand the verified bytes to the caller, write the unit back.
  for (const RangeRead& op : job.corrupt.ops) {
    SWIFT_RETURN_IF_ERROR(RepairReadOp(op));
  }
  return OkStatus();
}

std::optional<std::span<const uint8_t>> SwiftFile::ReadThroughPrefetch(uint64_t offset,
                                                                      std::span<uint8_t> out) {
  if (prefetch_ == nullptr) {
    return std::nullopt;
  }
  const std::span<uint8_t> ahead = prefetch_->parts.front().out;
  if (prefetch_->parts.front().offset != offset || prefetch_->failed != failed_columns()) {
    DropPrefetch();
    return std::nullopt;
  }
  const uint64_t wait_ns = FlightRecorder::NowNs();
  const std::unique_ptr<ReadJob> job = std::move(prefetch_);
  const uint64_t covered = std::min<uint64_t>(ahead.size(), out.size());
  Status status = OkStatus();
  if (covered < out.size()) {
    // What the prefetch left out rides its batch, so one wait covers both.
    status = StartRead(*job, offset + covered, out.subspan(covered));
  }
  bool replan = false;
  if (status.ok()) {
    status = FinishRead(*job, replan);
  }
  const bool served = status.ok() && !replan;
  // Any error drops the whole job: the caller reads the range again through
  // the retry loop, so failures are handled in one place.
  Metrics().readahead_discarded_bytes->Increment(ahead.size() - (served ? covered : 0));
  if (CurrentTraceContext().present()) {
    // The prefetch's ops started before this call did; its wait on them is
    // read-ahead time.
    NoteRootStage(SpanStage::kReadAhead, wait_ns, FlightRecorder::NowNs());
  }
  if (!served) {
    return std::nullopt;
  }
  Metrics().readahead_bytes->Increment(covered);
  return ahead.first(covered);
}

void SwiftFile::MaybeReadAhead(uint64_t offset, uint64_t length, bool traced) {
  // Sequential: the read starts where the last one ended, or at 0 once the
  // last one reached the end (a new pass). A file's first read, or one
  // repeated at offset 0, is no stream yet: it may be a one-off header read.
  const bool sequential =
      read_end_ != 0 && offset == (read_end_ >= size_ ? 0 : read_end_);
  read_end_ = offset + length;
  if (!sequential || length < layout_.config().RowDataBytes()) {
    return;
  }
  if (readahead_buffer_.size() == 0) {
    // Allocated once, two halves, each for the most rows a prefetch can fit:
    // each row costs every live column at most one op, and at least k ops
    // in all. A prefetch lands in one half while the last one is copied out
    // of the other.
    const StripeConfig& config = layout_.config();
    uint32_t window = 1;
    for (uint32_t c = 0; c < config.num_agents; ++c) {
      window = std::max(window, std::min(distribution_.options().ops_in_flight,
                                         distribution_.transport(c)->max_in_flight()));
    }
    const uint64_t rows = uint64_t{config.num_agents} * window / config.DataAgentsPerRow();
    readahead_buffer_ = Buffer::Allocate(2 * rows * config.RowDataBytes());
  }
  const uint64_t half = readahead_buffer_.size() / 2;
  // The call's own ops have drained, so every column's window is free: the
  // prefetch's ops all reach their transports before this call returns.
  const uint64_t bytes = std::min(ReadAheadBytes(read_end_, length), half);
  if (bytes == 0) {
    return;
  }
  readahead_half_ ^= 1;
  auto job = std::make_unique<ReadJob>(*this);
  std::optional<ScopedTraceContext> scope;
  if (traced) {
    // The ops are started under the root of the read that will take them.
    job->trace = NewRootContext();
    if (job->trace.present()) {
      job->trace.parent_span_id = NextSpanId();
      scope.emplace(job->trace);
    }
  }
  const std::span<uint8_t> into = readahead_buffer_.span().subspan(readahead_half_ * half, bytes);
  if (!StartRead(*job, read_end_, into).ok()) {
    return;  // nothing was submitted: a decode fails before it submits
  }
  // Nobody waits on this batch before the next call: hand a held op to its
  // transport's own thread now.
  PollScope::ReleaseHeld();
  prefetch_ = std::move(job);
}

uint64_t SwiftFile::ReadAheadBytes(uint64_t offset, uint64_t length) const {
  const StripeConfig& config = layout_.config();
  const uint64_t row_bytes = config.RowDataBytes();
  const uint64_t end = std::min(offset + length, size_);
  const bool degraded = failed_count_.load() > 0;
  std::vector<uint32_t> ops(config.num_agents, 0);
  uint64_t fits = offset;
  while (fits < end) {
    const uint64_t row = fits / row_bytes;
    for (uint32_t c = 0; c < config.num_agents; ++c) {
      if (ColumnFailed(c) || (!degraded && layout_.IsParityAgent(row, c))) {
        continue;
      }
      if (++ops[c] > distribution_.window(c)) {
        return fits - offset;
      }
    }
    fits = std::min((row + 1) * row_bytes, end);
  }
  return fits - offset;
}

void SwiftFile::DropPrefetch() {
  if (prefetch_ == nullptr) {
    return;
  }
  Metrics().readahead_discarded_bytes->Increment(prefetch_->parts.front().out.size());
  prefetch_.reset();  // its batch drains before the job goes
}

uint64_t SwiftFile::HedgeDelayUs() const {
  const DistributionAgent::Options& io = distribution_.options();
  double max_us = 0;
  for (uint32_t c = 0; c < layout_.config().num_agents; ++c) {
    if (ColumnFailed(c)) {
      continue;
    }
    double srtt_us = 0;
    double rttvar_us = 0;
    if (distribution_.transport(c)->RttEstimate(&srtt_us, &rttvar_us)) {
      max_us = std::max(max_us, srtt_us + io.hedge_k * rttvar_us);
    }
  }
  if (max_us <= 0) {
    return io.hedge_cap_us;  // no samples yet: arm late, never early
  }
  return std::clamp<uint64_t>(static_cast<uint64_t>(max_us), io.hedge_floor_us,
                              io.hedge_cap_us);
}

std::vector<Status> SwiftFile::WaitHedged(OpBatch& batch, HedgeTracker& tracker,
                                          std::vector<HedgeTracker::Op>* parked) {
  Governor().reads.fetch_add(1, std::memory_order_relaxed);
  const auto delay = std::chrono::microseconds(HedgeDelayUs());
  bool armed = false;
  uint64_t last_outstanding = UINT64_MAX;
  for (;;) {
    const auto round_start = std::chrono::steady_clock::now();
    if (batch.WaitFor(delay)) {
      break;
    }
    if (armed) {
      continue;  // at most one hedge per batch; just drain
    }
    // A round that overran its timeout by a whole delay means this thread
    // was descheduled: the client stalled, so the round says nothing about
    // the columns. (A stalled reactor is caught at the cancel instead: a
    // reply already waiting in its socket beats the cancel and lands.)
    if (std::chrono::steady_clock::now() - round_start > 2 * delay) {
      last_outstanding = UINT64_MAX;
      continue;
    }
    // Only a batch that made NO progress over a whole delay window is a
    // hedge candidate: the delay is a per-op bound (srtt + k·rttvar), so a
    // deep multi-round batch that is still completing ops is healthy even
    // though it outlives one delay.
    const uint64_t outstanding = batch.Outstanding();
    if (outstanding != last_outstanding) {
      last_outstanding = outstanding;
      continue;
    }
    // Stalled: hedge iff every outstanding op sits on columns the parity
    // budget can spare (stragglers + already-failed columns ≤ m), each
    // started op is cancellable, and the global rate cap admits it.
    std::vector<uint32_t> stragglers;
    std::vector<std::pair<uint32_t, uint64_t>> cancels;  // (column, token)
    {
      std::lock_guard<std::mutex> lock(tracker.mutex);
      bool eligible = true;
      for (const HedgeTracker::Op& op : tracker.ops) {
        if (op.done) {
          continue;
        }
        if (std::find(stragglers.begin(), stragglers.end(), op.column) == stragglers.end()) {
          stragglers.push_back(op.column);
        }
        if (op.started && op.token == 0) {
          eligible = false;
          break;
        }
      }
      if (stragglers.empty() ||
          stragglers.size() + failed_count_.load() > ParityBudget()) {
        eligible = false;
      }
      if (eligible && !Governor().Admit()) {
        eligible = false;
        Metrics().hedge_suppressed->Increment();
      }
      if (!eligible) {
        stragglers.clear();
      } else {
        for (HedgeTracker::Op& op : tracker.ops) {
          if (op.done) {
            continue;
          }
          op.parked = true;
          if (op.token != 0) {
            cancels.emplace_back(op.column, op.token);
          }
        }
      }
    }
    if (!stragglers.empty()) {
      armed = true;
      for (const auto& [column, token] : cancels) {
        distribution_.transport(column)->CancelRead(token);
      }
    }
  }
  std::vector<Status> statuses = batch.Wait();
  // The hedge takes over only the parked ranges whose reply did not land
  // first; when every reply won its race it was no hedge at all.
  std::lock_guard<std::mutex> lock(tracker.mutex);
  for (const HedgeTracker::Op& op : tracker.ops) {
    if (op.parked && !op.landed) {
      parked->push_back(op);
    }
  }
  if (!parked->empty()) {
    Metrics().hedge_attempts->Increment();
  }
  return statuses;
}

Status SwiftFile::ReconstructRanges(std::span<const RangeRead> ranges,
                                    std::span<const uint32_t> avoid) {
  ParityTimer parity_timer;
  std::vector<UnitRange> targets;
  for (const RangeRead& range : ranges) {
    AppendUnitRanges(layout_.config().stripe_unit, range.column, range.agent_offset,
                     range.length, range.dst, targets);
  }
  std::vector<uint32_t> erased = failed_columns();
  erased.insert(erased.end(), avoid.begin(), avoid.end());
  RowDecodeReport report;
  const Status status = decoder_.Decode(targets, erased, report);
  return RecordDecode(status, report, targets.size());
}

Status SwiftFile::RecordDecode(const Status& status, const RowDecodeReport& report,
                               size_t units) {
  for (uint32_t column : report.unavailable) {
    MarkColumnFailed(column);
  }
  SWIFT_RETURN_IF_ERROR(status);
  Metrics().parity_reconstructions->Increment(units);
  Metrics().multi_failure_repairs->Increment(report.multi_erasure_rows);
  return OkStatus();
}

Status SwiftFile::RepairReadOp(const RangeRead& op) {
  const uint64_t unit = layout_.config().stripe_unit;
  const uint64_t cover_begin = (op.agent_offset / unit) * unit;
  const uint64_t cover_end = ((op.agent_offset + op.length + unit - 1) / unit) * unit;
  Buffer rebuilt = Buffer::Allocate(cover_end - cover_begin);
  const RangeRead cover[1] = {{op.column, cover_begin, rebuilt.size(), rebuilt.data()}};
  SWIFT_RETURN_IF_ERROR(ReconstructRanges(cover));
  // The caller gets the verified reconstruction, never the stored bytes.
  std::memcpy(op.dst, rebuilt.data() + (op.agent_offset - cover_begin), op.length);
  CountBufferCopy(op.length);
  // Read-repair: rewrite the whole units so the agent reseals them. Best
  // effort — the read already has good data, and the scrubber sweeps up
  // anything this misses.
  if (!ColumnFailed(op.column)) {
    const Status repaired = GuardedCall(op.column, [&]() -> Status {
      return distribution_.transport(op.column)
          ->Write(handles_[op.column], cover_begin, rebuilt.span());
    });
    if (repaired.ok()) {
      Metrics().read_repairs->Increment(rebuilt.size() / unit);
    } else {
      SWIFT_LOG(WARNING) << "read-repair of '" << name_ << "' column " << op.column << " ["
                         << cover_begin << ", " << cover_end << ") failed: "
                         << repaired.ToString();
    }
  }
  return OkStatus();
}

Status SwiftFile::RepairRow(uint64_t row) {
  const uint64_t unit = layout_.config().stripe_unit;
  const uint64_t row_offset = row * unit;
  const uint32_t agents = layout_.config().num_agents;
  // Every live unit of the row in one batch; the agents' stores verify them.
  std::vector<Status> stored;
  {
    OpBatch batch(&distribution_);
    for (uint32_t c = 0; c < agents; ++c) {
      if (ColumnFailed(c)) {
        continue;  // covered by parity; nothing stored to repair
      }
      batch.Submit(c, [this, c, row_offset, unit](AgentTransport* transport,
                                                  DistributionAgent::Completion done) {
        transport->StartRead(handles_[c], row_offset, unit,
                             [done = std::move(done)](Result<BufferSlice> data) {
                               done(data.status());
                             });
      });
    }
    stored = batch.Wait();
  }
  for (uint32_t c = 0; c < agents; ++c) {
    if (ColumnFailed(c) || stored[c].ok()) {
      continue;  // unit verified clean by the agent's store
    }
    if (stored[c].code() == StatusCode::kUnavailable) {
      MarkColumnFailed(c);
      return stored[c];  // caller's retry loop re-plans degraded
    }
    if (stored[c].code() != StatusCode::kDataCorrupt) {
      return stored[c];
    }
    Buffer rebuilt = Buffer::Allocate(unit);
    const RangeRead whole[1] = {{c, row_offset, unit, rebuilt.data()}};
    SWIFT_RETURN_IF_ERROR(ReconstructRanges(whole));
    SWIFT_RETURN_IF_ERROR(GuardedCall(c, [&]() -> Status {
      return distribution_.transport(c)->Write(handles_[c], row_offset, rebuilt.span());
    }));
    Metrics().read_repairs->Increment();
  }
  return OkStatus();
}

// ---------------------------------------------------------------- writing --

Status SwiftFile::WriteRange(uint64_t offset, std::span<const uint8_t> data) {
  const bool parity_on = layout_.config().parity != ParityMode::kNone;
  for (uint32_t attempt = 0; attempt <= layout_.config().num_agents; ++attempt) {
    if (parity_on && failed_count_.load() > ParityBudget()) {
      return DataLossError("more failed agents than parity units in a stripe group");
    }
    if (!parity_on && failed_count_.load() > 0) {
      return UnavailableError("storage agent failed and object has no redundancy");
    }
    const uint32_t failures_before = failed_count_.load();
    Status status;

    if (!parity_on) {
      // Straight striped write: the whole range as one batch of pipelined
      // stripe-unit ops.
      const std::vector<AgentExtent> extents = layout_.MapRange(offset, data.size());
      OpBatch batch(&distribution_);
      for (const AgentExtent& extent : extents) {
        SubmitExtentWrite(batch, extent, offset, data);
      }
      status = Aggregate(batch.Wait());
    } else {
      // Parity path. Boundary rows that are only partially overwritten need
      // a read-modify-write; fully overwritten rows compute parity in memory
      // and batch every unit write of every such row together.
      const auto [first_row, last_row] = layout_.RowRange(offset, data.size());
      const uint64_t row_bytes = layout_.config().RowDataBytes();
      std::vector<uint64_t> full_rows;
      status = OkStatus();
      for (uint64_t row = first_row; row <= last_row && status.ok(); ++row) {
        const uint64_t row_start = row * row_bytes;
        const uint64_t row_end = row_start + row_bytes;
        const uint64_t write_start = std::max(offset, row_start);
        const uint64_t write_end = std::min(offset + data.size(), row_end);
        if (write_start == row_start && write_end == row_end) {
          full_rows.push_back(row);
        } else {
          status = WriteRowParity(row, write_start, write_end, offset, data);
        }
      }
      if (status.ok() && !full_rows.empty()) {
        status = WriteFullRows(full_rows, offset, data);
      }
    }

    if (status.ok()) {
      return OkStatus();
    }
    if (status.code() == StatusCode::kUnavailable && failed_count_.load() != failures_before) {
      continue;  // a column just died; re-plan degraded
    }
    return status;
  }
  return InternalError("write retry budget exhausted");
}

Status SwiftFile::WriteFullRows(const std::vector<uint64_t>& rows, uint64_t base_offset,
                                std::span<const uint8_t> data) {
  const uint64_t unit = layout_.config().stripe_unit;
  const uint64_t row_bytes = layout_.config().RowDataBytes();

  // One batch carries every unit write of every full row — the whole stripe
  // group moves as a single pipelined burst. Parity units live in one arena
  // (rows × m × unit, a single allocation) so the spans handed to StartWrite
  // stay valid until the batch completes.
  const uint32_t k = layout_.config().DataAgentsPerRow();
  const uint32_t m = layout_.config().ParityUnitsPerRow();
  const ErasureCodec& codec = CodecFor(layout_.config());
  Buffer parity_arena = Buffer::Allocate(rows.size() * m * unit);
  OpBatch batch(&distribution_);
  for (size_t r = 0; r < rows.size(); ++r) {
    const uint64_t row = rows[r];
    const uint64_t row_start = row * row_bytes;
    std::span<const uint8_t> row_data = data.subspan(row_start - base_offset, row_bytes);
    std::vector<std::span<const uint8_t>> sources;
    sources.reserve(k);
    for (uint32_t c = 0; c < k; ++c) {
      sources.push_back(row_data.subspan(static_cast<size_t>(c) * unit, unit));
    }
    std::vector<std::span<uint8_t>> parity_units;
    parity_units.reserve(m);
    for (uint32_t j = 0; j < m; ++j) {
      parity_units.push_back(parity_arena.span().subspan((r * m + j) * unit, unit));
    }
    {
      ParityTimer parity_timer;
      codec.EncodeInto(sources, parity_units);
    }

    for (uint32_t c = 0; c < k; ++c) {
      const UnitLocation loc = layout_.Locate(row_start + static_cast<uint64_t>(c) * unit);
      if (ColumnFailed(loc.agent)) {
        continue;  // captured by parity; reconstructible
      }
      SubmitWrite(batch, loc.agent, loc.agent_offset, sources[c]);
    }
    for (uint32_t j = 0; j < m; ++j) {
      const UnitLocation parity_loc = layout_.ParityLocation(row, j);
      if (!ColumnFailed(parity_loc.agent)) {
        SubmitWrite(batch, parity_loc.agent, parity_loc.agent_offset, parity_units[j]);
      }
    }
  }
  return Aggregate(batch.Wait());
}

Status SwiftFile::WriteRowParity(uint64_t row, uint64_t row_write_start, uint64_t row_write_end,
                                 uint64_t base_offset, std::span<const uint8_t> data) {
  ParityTimer parity_timer;
  const uint64_t unit = layout_.config().stripe_unit;
  const uint32_t m = layout_.config().ParityUnitsPerRow();
  const ErasureCodec& codec = CodecFor(layout_.config());

  // Partial row: read-modify-write of the touched bytes only.
  //   parity_j' = parity_j ^ g[j][col] ⊗ (old_data ^ new_data)
  // One gather round trip (old data + the touched parity ranges), an
  // in-memory fold, then one write round trip carrying parity and data
  // together. See DESIGN.md §7 for why no parity-before-data barrier is
  // needed: every write is absolute and idempotent with bytes fixed by the
  // gather, a failed write on a live column is re-sent with the same bytes,
  // and a column that goes kUnavailable has its content defined by the code.

  struct Chunk {
    UnitLocation loc;
    uint32_t data_col = 0;  // codec data index of the target unit
    uint64_t offset_in_unit = 0;
    std::span<const uint8_t> new_data;
    std::span<uint8_t> old_data;  // arena slot: gathered, or rebuilt if lost
    bool lost = false;            // target unit is on a failed column
  };
  std::vector<Chunk> chunks;
  // The in-unit ranges parity must follow: the union of the chunks' ranges.
  // A row's chunks are [a, unit), whole units, [0, b), so the union is one
  // range, or two when a lone head and tail chunk leave a gap between them.
  struct Range {
    uint64_t lo = 0;
    uint64_t hi = 0;
  };
  std::vector<Range> ranges;
  for (uint64_t logical = row_write_start; logical < row_write_end;) {
    const uint64_t offset_in_unit = logical % unit;
    const uint64_t length = std::min(unit - offset_in_unit, row_write_end - logical);
    Chunk chunk;
    chunk.loc = layout_.Locate(logical);
    chunk.data_col = layout_.DataColumnOf(logical);
    chunk.offset_in_unit = offset_in_unit;
    chunk.new_data = data.subspan(logical - base_offset, length);
    chunk.lost = ColumnFailed(chunk.loc.agent);
    chunks.push_back(chunk);
    ranges.push_back({offset_in_unit, offset_in_unit + length});
    logical += length;
  }
  std::sort(ranges.begin(), ranges.end(),
            [](const Range& a, const Range& b) { return a.lo < b.lo; });
  std::vector<Range> merged;
  for (const Range& range : ranges) {
    if (!merged.empty() && range.lo <= merged.back().hi) {
      merged.back().hi = std::max(merged.back().hi, range.hi);
    } else {
      merged.push_back(range);
    }
  }
  uint64_t range_bytes = 0;
  for (const Range& range : merged) {
    range_bytes += range.hi - range.lo;
  }

  // One touched range of one live parity unit (failed parity columns are
  // skipped — their content is reconstructible like any other lost unit).
  struct ParityPiece {
    uint32_t index = 0;  // codec parity index j
    uint32_t column = 0;
    uint64_t agent_offset = 0;
    uint64_t lo = 0;  // in-unit offset of buf[0]
    std::span<uint8_t> buf;
  };
  std::vector<uint32_t> live_parity;
  for (uint32_t j = 0; j < m; ++j) {
    if (!ColumnFailed(layout_.ParityLocation(row, j).agent)) {
      live_parity.push_back(j);
    }
  }

  // One arena holds every parity range and every chunk's old bytes; the
  // spans handed to the transport stay valid until the write batch drains.
  Buffer arena =
      Buffer::Allocate(live_parity.size() * range_bytes + (row_write_end - row_write_start));
  size_t arena_used = 0;
  auto take = [&](uint64_t length) {
    std::span<uint8_t> slot = arena.span().subspan(arena_used, length);
    arena_used += length;
    return slot;
  };
  std::vector<ParityPiece> pieces;
  for (uint32_t j : live_parity) {
    const UnitLocation loc = layout_.ParityLocation(row, j);
    for (const Range& range : merged) {
      pieces.push_back({j, loc.agent, loc.agent_offset + range.lo, range.lo,
                        take(range.hi - range.lo)});
    }
  }
  for (Chunk& chunk : chunks) {
    chunk.old_data = take(chunk.new_data.size());
  }

  // Gather: every touched live parity range and every overwritten live data
  // range, all in one batch. A corrupt unit discovered here (old data or
  // parity) gets the whole row repaired from reconstruction, then one
  // re-gather — folding unverified old bytes into parity would launder the
  // corruption into the new parity ranges.
  if (!pieces.empty()) {
    for (int gather_attempt = 0;; ++gather_attempt) {
      OpBatch batch(&distribution_);
      for (const ParityPiece& p : pieces) {
        SubmitRead(batch, p.column, p.agent_offset, p.buf.size(), p.buf.data());
      }
      for (const Chunk& chunk : chunks) {
        if (!chunk.lost) {
          SubmitRead(batch, chunk.loc.agent, chunk.loc.agent_offset, chunk.old_data.size(),
                     chunk.old_data.data());
        }
      }
      const Status status = Aggregate(batch.Wait());
      if (status.ok()) {
        break;
      }
      if (status.code() == StatusCode::kDataCorrupt && gather_attempt == 0) {
        SWIFT_RETURN_IF_ERROR(RepairRow(row));
        continue;
      }
      return status;
    }
  }

  // Fold (in memory, deterministic order). A chunk whose data unit is lost
  // lands in the live parity only, so a reconstruction of that unit yields
  // the new contents; its old bytes come from the row's survivors, all lost
  // chunks in one row decode.
  std::vector<RangeRead> lost;
  for (const Chunk& chunk : chunks) {
    if (chunk.lost) {
      lost.push_back({chunk.loc.agent, chunk.loc.agent_offset, chunk.old_data.size(),
                      chunk.old_data.data()});
    }
  }
  if (!lost.empty() && pieces.empty()) {
    return DataLossError("write targets a failed agent and every parity unit is failed");
  }
  SWIFT_RETURN_IF_ERROR(ReconstructRanges(lost));
  for (const Chunk& chunk : chunks) {
    const uint64_t chunk_end = chunk.offset_in_unit + chunk.new_data.size();
    for (ParityPiece& p : pieces) {
      if (chunk.offset_in_unit >= p.lo && chunk_end <= p.lo + p.buf.size()) {
        codec.UpdateParity(p.index, chunk.data_col, p.buf, chunk.offset_in_unit - p.lo,
                           chunk.old_data, chunk.new_data);
      }
    }
  }

  // One write batch: parity ranges and data chunks together.
  std::vector<PendingWrite> writes;
  for (const ParityPiece& p : pieces) {
    writes.push_back({p.column, p.agent_offset, p.buf});
  }
  for (const Chunk& chunk : chunks) {
    if (!chunk.lost) {
      writes.push_back({chunk.loc.agent, chunk.loc.agent_offset, chunk.new_data});
    }
  }
  return WriteWithResend(std::move(writes));
}

Status SwiftFile::WriteWithResend(std::vector<PendingWrite> writes) {
  // Same-bytes re-sends after the first send. Bounded: a column that keeps
  // failing writes while staying reachable is surfaced to the caller.
  constexpr int kMaxResends = 3;
  Status unavailable = OkStatus();
  for (int resend = 0;; ++resend) {
    OpBatch batch(&distribution_);
    for (const PendingWrite& write : writes) {
      SubmitWrite(batch, write.column, write.agent_offset, write.bytes);
    }
    const std::vector<Status> statuses = batch.Wait();
    // Keep the writes whose column failed without going away. A column
    // holds one unit of the row, so its status covers all of its writes.
    std::erase_if(writes, [&](const PendingWrite& write) {
      const Status& status = statuses[write.column];
      if (status.code() == StatusCode::kUnavailable) {
        unavailable = status;  // SubmitWrite marked the column failed
      }
      return status.ok() || status.code() == StatusCode::kUnavailable;
    });
    if (writes.empty() || resend == kMaxResends) {
      // kUnavailable first: WriteRange re-plans around the failed column.
      if (!unavailable.ok()) {
        return unavailable;
      }
      return writes.empty() ? OkStatus() : statuses[writes.front().column];
    }
  }
}

}  // namespace swift
