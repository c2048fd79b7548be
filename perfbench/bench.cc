#include "perfbench/bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <memory>
#include <numeric>
#include <random>

#include "perfbench/stats.h"
#include "src/agent/backing_store.h"
#include "src/agent/integrity_store.h"
#include "src/agent/storage_agent.h"
#include "src/agent/udp_agent_server.h"
#include "src/agent/udp_transport.h"
#include "src/core/object_directory.h"
#include "src/core/rebuild.h"
#include "src/core/storage_mediator.h"
#include "src/core/swift_file.h"
#include "src/proto/message.h"
#include "src/util/metrics.h"
#include "src/util/units.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

constexpr double kMiBf = 1024.0 * 1024.0;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

uint64_t RowBytes(const WorkloadSpec& spec) {
  return spec.unit * (spec.agents - spec.parity_units);
}

// Prefill and read-back request: the whole rows nearest 1 MiB, so every
// prefill write is a full-row write.
uint64_t PrefillBytes(const WorkloadSpec& spec) {
  const uint64_t row = RowBytes(spec);
  return row * std::max<uint64_t>(1, swift::MiB(1) / row);
}

uint64_t SplitMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) { return tv.tv_sec + tv.tv_usec / 1e6; };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux
}

// Registry counters read as deltas over a timed loop.
constexpr const char* kCounterNames[] = {
    "swift_buffer_copy_bytes_total",
    "swift_udp_client_datagrams_sent_total",
    "swift_udp_client_retransmissions_total",
    "swift_udp_client_reactor_wakeups_total",
    "swift_agent_datagrams_in_total",
    "swift_agent_datagrams_out_total",
    "swift_agent_nacks_sent_total",
    "swift_integrity_blocks_verified_total",
    "swift_integrity_seals_total",
    "swift_erasure_encode_bytes_total",
    "swift_erasure_reconstruct_bytes_total",
    "swift_file_parity_reconstructions_total",
};

struct RegistrySnap {
  std::map<std::string, uint64_t> counters;
  swift::HistogramMetric::Snapshot read_service;
  swift::HistogramMetric::Snapshot write_service;
  double cpu_s = 0;
};

RegistrySnap SnapRegistry() {
  swift::MetricRegistry& registry = swift::MetricRegistry::Global();
  RegistrySnap snap;
  for (const char* name : kCounterNames) {
    snap.counters[name] = registry.GetCounter(name)->Value();
  }
  snap.read_service = registry.GetHistogram("swift_agent_read_service_us")->Snap();
  snap.write_service = registry.GetHistogram("swift_agent_write_service_us")->Snap();
  snap.cpu_s = CpuSeconds();
  return snap;
}

// Median of the samples a registry histogram gained between two snapshots,
// interpolated linearly inside its bucket (the buckets are 7% wide).
double DeltaP50(const swift::HistogramMetric::Snapshot& before,
                const swift::HistogramMetric::Snapshot& after) {
  uint64_t total = 0;
  for (size_t b = 0; b < after.buckets.size(); ++b) {
    total += after.buckets[b] - before.buckets[b];
  }
  const double rank = total / 2.0;
  double below = 0;
  for (size_t b = 0; b < after.buckets.size(); ++b) {
    const double count = static_cast<double>(after.buckets[b] - before.buckets[b]);
    if (count > 0 && below + count >= rank) {
      const double lower = b == 0 ? 0 : swift::HistogramMetric::BucketUpperBound(b - 1);
      const double upper = swift::HistogramMetric::BucketUpperBound(b);
      return lower + (upper - lower) * (rank - below) / count;
    }
    below += count;
  }
  return 0;
}

swift::TransportStats operator-(const swift::TransportStats& a, const swift::TransportStats& b) {
  return {a.ops_submitted - b.ops_submitted, a.ops_completed - b.ops_completed,
          a.ops_retried - b.ops_retried,     a.ops_failed - b.ops_failed,
          a.bytes_read - b.bytes_read,       a.bytes_written - b.bytes_written};
}

// The reference model: what every byte of the object should read. Each
// block holds the seeded pattern of the last generation written to it
// (0 = the prefill).
class Model {
 public:
  Model(uint64_t seed, uint64_t block, uint64_t object_bytes)
      : seed_(seed), block_(block), generations_(object_bytes / block) {}

  // `offset` is block-aligned, the write one block long.
  void Wrote(uint64_t offset, uint64_t generation) { generations_[offset / block_] = generation; }

  // `offset` and out.size() are whole blocks.
  void Expected(uint64_t offset, std::span<uint8_t> out) const {
    for (uint64_t at = 0; at < out.size(); at += block_) {
      FillPattern(out.subspan(at, block_), seed_, generations_[(offset + at) / block_],
                  offset + at);
    }
  }

 private:
  uint64_t seed_;
  uint64_t block_;
  std::vector<uint64_t> generations_;
};

// One storage agent: store stack, UDP server, and the client's transport
// to it. Members are declared in build order so they are torn down
// client-first.
struct AgentNode {
  swift::InMemoryBackingStore memory;
  std::unique_ptr<TappedStore> inner_tap;
  std::unique_ptr<swift::IntegrityBackingStore> integrity;
  std::unique_ptr<TappedStore> outer_tap;
  std::unique_ptr<swift::StorageAgentCore> core;
  std::unique_ptr<swift::UdpAgentServer> server;
  std::unique_ptr<swift::UdpTransport> transport;
  std::unique_ptr<TappedTransport> transport_tap;

  swift::AgentTransport* client() {
    return transport_tap != nullptr ? transport_tap.get()
                                    : static_cast<swift::AgentTransport*>(transport.get());
  }
};

class Cluster {
 public:
  Cluster(const WorkloadSpec& spec, uint64_t seed, SpanLog* log)
      : spec_(spec), seed_(seed), log_(log), mediator_(MediatorOptions(spec)) {}

  // Starts the agents, opens the session, creates and prefills the object,
  // and fails the workload's columns.
  swift::Status SetUp(double* open_session_us) {
    for (uint32_t i = 0; i < spec_.agents + spec_.failed_columns; ++i) {
      SWIFT_RETURN_IF_ERROR(StartAgent(i));
      mediator_.RegisterAgent(swift::AgentCapacity{.data_rate = 100.0 * kMiBf,
                                                   .storage_bytes = 16 * swift::kGiB});
    }
    const auto t0 = Clock::now();
    auto plan = mediator_.OpenSession({.object_name = spec_.name,
                                       .expected_size = spec_.object_bytes,
                                       .typical_request = swift::MiB(1),
                                       .redundancy = true,
                                       .parity_units = spec_.parity_units,
                                       .min_agents = spec_.agents,
                                       .max_agents = spec_.agents});
    *open_session_us = SecondsSince(t0) * 1e6;
    if (!plan.ok()) {
      return plan.status();
    }
    plan_ = *plan;
    const swift::StripeConfig& stripe = plan_.stripe;
    if (stripe.num_agents != spec_.agents || stripe.stripe_unit != spec_.unit ||
        stripe.ParityUnitsPerRow() != spec_.parity_units ||
        stripe.parity != swift::ParityMode::kRotating) {
      return swift::InternalError("mediator planned a different stripe than the workload's");
    }
    auto file = swift::SwiftFile::Create(plan_, StripeTransports(), &directory_);
    if (!file.ok()) {
      return file.status();
    }
    file_ = std::move(*file);

    const uint64_t request = PrefillBytes(spec_);
    std::vector<uint8_t> buffer(request);
    for (uint64_t offset = 0; offset < spec_.object_bytes; offset += request) {
      FillPattern(buffer, seed_, 0, offset);
      auto written = file_->PWrite(offset, buffer);
      if (!written.ok()) {
        return written.status();
      }
    }
    // The lost columns: the first of a seeded shuffle, in ascending order.
    // A degraded workload reads with them failed; the others lose them
    // only for the rebuild after the timed loop.
    std::vector<uint32_t> columns(spec_.agents);
    std::iota(columns.begin(), columns.end(), 0);
    std::shuffle(columns.begin(), columns.end(), std::mt19937_64(SplitMix64(seed_)));
    lost_.assign(columns.begin(), columns.begin() + spec_.failed_columns);
    std::sort(lost_.begin(), lost_.end());
    if (spec_.pattern == Pattern::kDegraded) {
      for (uint32_t column : lost_) {
        file_->MarkColumnFailed(column);
      }
    }
    return swift::OkStatus();
  }

  swift::SwiftFile& file() { return *file_; }

  swift::TransportStats StripeStats() {
    swift::TransportStats sum;
    for (swift::AgentTransport* transport : StripeTransports()) {
      const swift::TransportStats s = transport->stats();
      sum.ops_submitted += s.ops_submitted;
      sum.ops_completed += s.ops_completed;
      sum.ops_retried += s.ops_retried;
      sum.ops_failed += s.ops_failed;
      sum.bytes_read += s.bytes_read;
      sum.bytes_written += s.bytes_written;
    }
    return sum;
  }

  uint64_t StoredBytes() {
    uint64_t total = 0;
    for (uint32_t id : plan_.agent_ids) {
      total += nodes_[id]->memory.TotalBytes();
    }
    return total;
  }

  // Closes the file and rebuilds the lost columns onto the spare agents.
  void Rebuild(PhaseResult& result) {
    ++result.attempted;
    swift::Status closed = file_->Close();
    file_.reset();
    auto metadata = directory_.Lookup(spec_.name);
    if (!closed.ok() || !metadata.ok()) {
      Fail(result, !closed.ok() ? closed : metadata.status());
      return;
    }
    rebuilt_ = StripeTransports();
    for (size_t i = 0; i < lost_.size(); ++i) {
      rebuilt_[lost_[i]] = nodes_[spec_.agents + i]->client();
    }
    Span span = BeginCall(SpanKind::kCallRebuild, 0);
    const auto t0 = Clock::now();
    auto report = swift::RebuildColumns(*metadata, rebuilt_, lost_);
    result.rebuild_s = SecondsSince(t0);
    EndCall(span);
    if (!report.ok()) {
      Fail(result, report.status());
      return;
    }
    result.rebuild_bytes = report->bytes_written;
  }

  // Re-opens the rebuilt object, with no failed column, and checks every
  // byte of it against the model.
  void Verify(const Model& model, PhaseResult& result) {
    if (result.rebuild_bytes == 0) {
      return;  // the rebuild failed and was counted
    }
    auto reopened = swift::SwiftFile::Open(spec_.name, rebuilt_, &directory_);
    if (!reopened.ok()) {
      ++result.attempted;
      Fail(result, reopened.status());
      return;
    }
    const uint64_t request = PrefillBytes(spec_);
    std::vector<uint8_t> expected(request);
    std::vector<uint8_t> got(request);
    for (uint64_t offset = 0; offset < spec_.object_bytes; offset += request) {
      ++result.attempted;
      model.Expected(offset, expected);
      auto read = (*reopened)->PRead(offset, got);
      if (!read.ok() || *read != request || got != expected) {
        Fail(result, read.ok() ? swift::DataLossError("read-back after rebuild differs")
                               : read.status());
      }
    }
  }

  Span BeginCall(SpanKind kind, uint64_t bytes) {
    Span span;
    if (log_ != nullptr) {
      span.id = log_->NextId();
      span.call = span.id;
      span.kind = kind;
      span.bytes = bytes;
      log_->set_call(span.id);
      span.start_ns = SpanLog::NowNs();
    }
    return span;
  }

  void EndCall(Span span) {
    if (log_ != nullptr) {
      span.end_ns = SpanLog::NowNs();
      log_->set_call(0);
      log_->Add(span);
    }
  }

  static void Fail(PhaseResult& result, const swift::Status& status) {
    ++result.failed;
    if (result.first_error.empty()) {
      result.first_error = status.ToString();
    }
  }

 private:
  static swift::StorageMediator::Options MediatorOptions(const WorkloadSpec& spec) {
    swift::StorageMediator::Options options;
    options.min_stripe_unit = spec.unit;
    options.max_stripe_unit = spec.unit;
    return options;
  }

  swift::Status StartAgent(uint32_t index) {
    auto node = std::make_unique<AgentNode>();
    swift::BackingStore* below = &node->memory;
    if (log_ != nullptr) {
      node->inner_tap = std::make_unique<TappedStore>(below, log_, index, true);
      below = node->inner_tap.get();
    }
    node->integrity = std::make_unique<swift::IntegrityBackingStore>(below);
    swift::BackingStore* top = node->integrity.get();
    if (log_ != nullptr) {
      node->outer_tap = std::make_unique<TappedStore>(top, log_, index, false);
      top = node->outer_tap.get();
    }
    node->core = std::make_unique<swift::StorageAgentCore>(top);
    node->server = std::make_unique<swift::UdpAgentServer>(node->core.get(),
                                                           swift::UdpAgentServer::Options{});
    SWIFT_RETURN_IF_ERROR(node->server->Start());
    node->transport = std::make_unique<swift::UdpTransport>(node->server->port(),
                                                            swift::UdpTransport::Options{});
    if (log_ != nullptr) {
      node->transport_tap = std::make_unique<TappedTransport>(node->transport.get(), log_, index);
    }
    nodes_.push_back(std::move(node));
    return swift::OkStatus();
  }

  std::vector<swift::AgentTransport*> StripeTransports() {
    std::vector<swift::AgentTransport*> transports;
    for (uint32_t id : plan_.agent_ids) {
      transports.push_back(nodes_[id]->client());
    }
    return transports;
  }

  WorkloadSpec spec_;
  uint64_t seed_;
  SpanLog* log_;
  std::vector<std::unique_ptr<AgentNode>> nodes_;
  swift::StorageMediator mediator_;
  swift::ObjectDirectory directory_;
  swift::TransferPlan plan_;
  std::vector<uint32_t> lost_;
  std::vector<swift::AgentTransport*> rebuilt_;  // stripe with spares in the lost columns
  std::unique_ptr<swift::SwiftFile> file_;  // last: closed before the agents stop
};

// Times one user call and records it; `fn` returns the call's Result.
// True when the call moved all its bytes.
template <typename Fn>
bool TimedCall(Cluster& cluster, PhaseResult& result, bool is_read, uint64_t bytes, Fn&& fn) {
  Span span = cluster.BeginCall(is_read ? SpanKind::kCallRead : SpanKind::kCallWrite, bytes);
  const auto t0 = Clock::now();
  swift::Result<uint64_t> done = fn();
  const double seconds = SecondsSince(t0);
  cluster.EndCall(span);
  ++result.attempted;
  result.calls.push_back({seconds, bytes, is_read});
  if (!done.ok()) {
    Cluster::Fail(result, done.status());
    return false;
  }
  if (*done != bytes) {
    Cluster::Fail(result, swift::DataLossError("short transfer"));
    return false;
  }
  return true;
}

void CheckBytes(PhaseResult& result, std::span<const uint8_t> got,
                std::span<const uint8_t> expected) {
  if (!std::equal(got.begin(), got.end(), expected.begin(), expected.end())) {
    Cluster::Fail(result, swift::DataLossError("read returned bytes that differ from the model"));
  }
}

void RunTimedLoop(const WorkloadSpec& spec, const PhaseOptions& options, Cluster& cluster,
                  Model& model, PhaseResult& result) {
  const auto start = Clock::now();
  auto done = [&] {
    return options.op_limit != 0 ? result.ops() >= options.op_limit
                                 : SecondsSince(start) >= options.seconds;
  };
  swift::SwiftFile& file = cluster.file();
  const uint64_t io = spec.io_bytes;
  const uint64_t requests = spec.object_bytes / io;
  std::vector<uint8_t> data(io);
  std::vector<uint8_t> got(io);
  std::vector<uint8_t> expected(io);
  uint64_t generation = 0;
  auto write = [&](uint64_t offset) {
    FillPattern(data, options.seed, ++generation, offset);
    if (TimedCall(cluster, result, false, io, [&] { return file.PWrite(offset, data); })) {
      model.Wrote(offset, generation);
    }
  };
  auto read = [&](uint64_t offset) {
    TimedCall(cluster, result, true, io, [&] { return file.PRead(offset, got); });
    model.Expected(offset, expected);
    CheckBytes(result, got, expected);
  };

  switch (spec.pattern) {
    case Pattern::kStream: {
      // Whole-object passes: write every request in order, then read every
      // one in order, and again.
      for (uint64_t pass = 0; !done(); ++pass) {
        for (uint64_t i = 0; i < requests && !done(); ++i) {
          if (pass % 2 == 0) {
            write(i * io);
          } else {
            read(i * io);
          }
        }
      }
      break;
    }
    case Pattern::kRandom: {
      std::mt19937_64 rng(SplitMix64(options.seed ^ 0x5EED));
      while (!done()) {
        const bool is_read = static_cast<double>(rng() >> 11) * 0x1.0p-53 < spec.read_fraction;
        const uint64_t offset = rng() % requests * io;
        if (is_read) {
          read(offset);
        } else {
          write(offset);
        }
      }
      break;
    }
    case Pattern::kDegraded: {
      for (uint64_t next = 0; !done(); ++next) {
        read(next % requests * io);
      }
      break;
    }
  }
}

double Ratio(double numerator, double denominator) {
  return denominator > 0 ? numerator / denominator : 0;
}

bool IsUserCall(SpanKind kind) {
  return kind == SpanKind::kCallRead || kind == SpanKind::kCallWrite;
}

bool IsDataOp(SpanKind kind) {
  return kind == SpanKind::kTransportRead || kind == SpanKind::kTransportWrite;
}

}  // namespace

std::vector<double> CallSelfTimesUs(const std::vector<Span>& spans) {
  std::map<uint64_t, Interval> calls;
  for (const Span& span : spans) {
    if (IsUserCall(span.kind)) {
      calls[span.id] = {span.start_ns, span.end_ns};
    }
  }
  std::map<uint64_t, std::vector<Interval>> ops;
  for (const Span& span : spans) {
    auto call = calls.find(span.call);
    if (IsDataOp(span.kind) && call != calls.end()) {
      ops[span.call].push_back({std::max(span.start_ns, call->second.start),
                                std::min(span.end_ns, call->second.end)});
    }
  }
  std::vector<double> self_us;
  for (const auto& [id, call] : calls) {
    const int64_t covered = UnionLength(ops[id]);
    self_us.push_back(static_cast<double>(call.end - call.start - covered) / 1e3);
  }
  return self_us;
}

PhaseResult::Kind PhaseResult::Totals(bool is_read) const {
  Kind kind;
  for (const Call& call : calls) {
    if (call.is_read == is_read) {
      ++kind.ops;
      kind.bytes += call.bytes;
      kind.seconds += call.seconds;
      kind.us.push_back(call.seconds * 1e6);
    }
  }
  return kind;
}

double PhaseResult::mbps() const {
  const Kind reads = Totals(true);
  const Kind writes = Totals(false);
  const double seconds = reads.seconds + writes.seconds;
  return seconds > 0 ? (reads.bytes + writes.bytes) / seconds / 1e6 : 0;
}

std::vector<std::string> WorkloadNames() { return {"stream_1m", "small_rand_4k", "degraded_rs42"}; }

std::optional<WorkloadSpec> FindWorkload(const std::string& name, bool tiny) {
  WorkloadSpec spec;
  spec.name = name;
  uint64_t target = 0;
  if (name == "stream_1m") {
    spec.pattern = Pattern::kStream;
    spec.failed_columns = 1;
    spec.io_bytes = PrefillBytes(spec);
    spec.read_fraction = 0.5;  // each write pass is followed by a read pass
    target = tiny ? swift::MiB(8) : swift::MiB(256);
  } else if (name == "small_rand_4k") {
    spec.pattern = Pattern::kRandom;
    spec.failed_columns = 1;
    spec.io_bytes = swift::KiB(4);
    spec.read_fraction = 0.7;
    target = tiny ? swift::MiB(4) : swift::MiB(64);
  } else if (name == "degraded_rs42") {
    spec.pattern = Pattern::kDegraded;
    spec.agents = 6;
    spec.parity_units = 2;
    spec.failed_columns = 2;
    spec.io_bytes = swift::MiB(1);
    target = tiny ? swift::MiB(4) : swift::MiB(128);
  } else {
    return std::nullopt;
  }
  const uint64_t request = PrefillBytes(spec);
  spec.object_bytes = std::max<uint64_t>(1, target / request) * request;
  return spec;
}

void FillPattern(std::span<uint8_t> out, uint64_t seed, uint64_t generation, uint64_t offset) {
  const uint64_t key = SplitMix64(seed) ^ SplitMix64(generation + 0x9E37);
  for (size_t i = 0; i + 8 <= out.size(); i += 8) {
    const uint64_t word = SplitMix64(key ^ ((offset + i) / 8));
    std::memcpy(out.data() + i, &word, 8);
  }
}

PhaseResult RunPhase(const WorkloadSpec& spec, const PhaseOptions& options) {
  PhaseResult result;
  std::unique_ptr<Cluster> cluster;
  for (uint32_t i = 0; i < std::max<uint32_t>(1, options.setup_repeats); ++i) {
    cluster.reset();  // the previous set-up's agents stop before the next start
    cluster = std::make_unique<Cluster>(spec, options.seed, options.log);
    const auto t0 = Clock::now();
    swift::Status status = cluster->SetUp(&result.open_session_us);
    result.setup_s.push_back(SecondsSince(t0));
    if (!status.ok()) {
      ++result.attempted;
      Cluster::Fail(result, status);
      return result;
    }
  }

  Model model(options.seed, spec.io_bytes, spec.object_bytes);
  const RegistrySnap before = SnapRegistry();
  const swift::TransportStats transport_before = cluster->StripeStats();
  RunTimedLoop(spec, options, *cluster, model, result);
  const RegistrySnap after = SnapRegistry();
  result.transport = cluster->StripeStats() - transport_before;
  for (const auto& [name, value] : after.counters) {
    result.counters[name] = value - before.counters.at(name);
  }
  result.cpu_s = after.cpu_s - before.cpu_s;
  result.stored_bytes = cluster->StoredBytes();

  cluster->Rebuild(result);
  // Agent service times cover the loop and the rebuild, so every workload
  // has both reads and writes among them.
  const RegistrySnap rebuilt = SnapRegistry();
  result.agent_read_service_p50_us = DeltaP50(before.read_service, rebuilt.read_service);
  result.agent_write_service_p50_us = DeltaP50(before.write_service, rebuilt.write_service);
  cluster->Verify(model, result);
  return result;
}

SliceStats Slices(const PhaseResult& phase) {
  SliceStats slices;
  for (const bool is_read : {true, false}) {
    std::vector<const PhaseResult::Call*> kind;
    for (const PhaseResult::Call& call : phase.calls) {
      if (call.is_read == is_read) {
        kind.push_back(&call);
      }
    }
    for (size_t w = 0; w < kWindows; ++w) {
      const size_t begin = kind.size() * w / kWindows;
      const size_t end = kind.size() * (w + 1) / kWindows;
      if (begin == end) {
        continue;
      }
      double seconds = 0;
      double bytes = 0;
      std::vector<double> us;
      for (size_t i = begin; i < end; ++i) {
        seconds += kind[i]->seconds;
        bytes += static_cast<double>(kind[i]->bytes);
        us.push_back(kind[i]->seconds * 1e6);
      }
      if (is_read) {
        slices.read_mbps.push_back(bytes / seconds / 1e6);
        slices.read_p50_us.push_back(Percentile(us, 500));
      } else {
        slices.write_mbps.push_back(bytes / seconds / 1e6);
      }
    }
  }
  return slices;
}

double MixMbps(const WorkloadSpec& spec, const SliceStats& slices) {
  // Seconds per MB of the designed mix; a kind with no slices adds nothing.
  double s_per_mb = 0;
  if (!slices.read_mbps.empty()) {
    s_per_mb += spec.read_fraction / Median(slices.read_mbps);
  }
  if (!slices.write_mbps.empty()) {
    s_per_mb += (1 - spec.read_fraction) / Median(slices.write_mbps);
  }
  return Ratio(1, s_per_mb);
}

std::vector<Metric> EndToEndMetrics(const WorkloadSpec& spec, const PhaseResult& phase) {
  const SliceStats slices = Slices(phase);
  return {
      {"mbps", MixMbps(spec, slices), "MB/s"},
      {"read_p50_us", Median(slices.read_p50_us), "us"},
      {"setup_s", Median(phase.setup_s), "s"},
  };
}

std::vector<Metric> BreakdownMetrics(const WorkloadSpec& spec, const PhaseResult& phase) {
  const PhaseResult::Kind reads = phase.Totals(true);
  const PhaseResult::Kind writes = phase.Totals(false);
  std::vector<Metric> metrics;
  if (writes.ops > 0) {
    metrics.push_back({"write_mbps", writes.mbps(), "MB/s"});
  }
  metrics.push_back({"read_mbps", reads.mbps(), "MB/s"});
  metrics.push_back({"ops_per_s", Ratio(phase.ops(), reads.seconds + writes.seconds), "1/s"});
  metrics.push_back({"read_p50_us", Percentile(reads.us, 500), "us"});
  metrics.push_back({"read_p99_us", Percentile(reads.us, 990), "us"});
  if (writes.ops > 0) {
    metrics.push_back({"write_p50_us", Percentile(writes.us, 500), "us"});
    metrics.push_back({"write_p99_us", Percentile(writes.us, 990), "us"});
  }
  metrics.push_back({"rebuild_mbps", Ratio(phase.rebuild_bytes, phase.rebuild_s) / 1e6, "MB/s"});
  metrics.push_back({"failed_op_ratio", Ratio(phase.failed, phase.attempted), "ratio"});
  metrics.push_back({"setup_s", Median(phase.setup_s), "s"});
  metrics.push_back({"peak_rss_mib", PeakRssMib(), "MiB"});
  metrics.push_back({"stored_bytes_per_user_byte", Ratio(phase.stored_bytes, spec.object_bytes),
                     "ratio"});
  return metrics;
}

std::vector<Metric> LayerMetrics(const WorkloadSpec& spec, const PhaseResult& untraced,
                                 const PhaseResult& traced, const std::vector<Span>& spans) {
  // User calls of the timed loop, and the rebuild.
  std::map<uint64_t, Interval> calls;
  Interval rebuild;
  uint64_t rebuild_call = 0;
  for (const Span& span : spans) {
    if (IsUserCall(span.kind)) {
      calls[span.id] = {span.start_ns, span.end_ns};
    } else if (span.kind == SpanKind::kCallRebuild) {
      rebuild_call = span.id;
      rebuild = {span.start_ns, span.end_ns};
    }
  }

  double call_ns_total = 0;
  for (const auto& [id, call] : calls) {
    call_ns_total += static_cast<double>(call.end - call.start);
  }
  std::vector<double> op_us;
  std::vector<double> rebuild_op_us;
  double op_ns_total = 0;
  double rebuild_op_ns_total = 0;
  double outer_store_ns = 0;
  double inner_store_ns = 0;
  for (const Span& span : spans) {
    const bool store_op = span.kind == SpanKind::kStoreRead || span.kind == SpanKind::kStoreWrite;
    const double ns = static_cast<double>(span.end_ns - span.start_ns);
    if (IsDataOp(span.kind) && calls.count(span.call) != 0) {
      op_us.push_back(ns / 1e3);
      op_ns_total += ns;
    } else if (IsDataOp(span.kind) && span.call != 0 && span.call == rebuild_call) {
      rebuild_op_us.push_back(ns / 1e3);
      rebuild_op_ns_total += ns;
    } else if (store_op && calls.count(span.call) != 0) {
      (span.inner ? inner_store_ns : outer_store_ns) += ns;
    }
  }

  const std::map<std::string, uint64_t>& c = traced.counters;
  const double user_bytes = static_cast<double>(traced.user_bytes());
  const double user_mib = user_bytes / kMiBf;
  const double transport_ops = static_cast<double>(traced.transport.ops_submitted);
  const double wire_bytes =
      static_cast<double>(traced.transport.bytes_read + traced.transport.bytes_written);
  const double integrity_blocks =
      static_cast<double>(c.at("swift_integrity_blocks_verified_total") +
                          c.at("swift_integrity_seals_total"));
  const double first_sends =
      static_cast<double>(c.at("swift_udp_client_datagrams_sent_total") -
                          c.at("swift_udp_client_retransmissions_total"));
  const double rebuild_ns = static_cast<double>(rebuild.end - rebuild.start);
  const double columns = spec.agents;

  std::vector<Metric> metrics = {
      {"swift_file.self_us_p50", Percentile(CallSelfTimesUs(spans), 500), "us"},
      {"transport.ops_per_user_op", Ratio(transport_ops, traced.ops()), "count"},
      {"transport.bytes_per_user_byte", Ratio(wire_bytes, user_bytes), "ratio"},
      {"transport.op_p50_us", Percentile(op_us, 500), "us"},
      {"transport.op_p99_us", Percentile(op_us, 990), "us"},
      {"transport.inflight_mean", Ratio(op_ns_total, call_ns_total * columns), "ops"},
      {"udp.retransmits_per_kop",
       Ratio(1000.0 * c.at("swift_udp_client_retransmissions_total"), transport_ops), "count"},
      {"udp.datagrams_per_user_mib", Ratio(first_sends, user_mib), "count"},
      {"udp.reactor_wakeups_per_op",
       Ratio(c.at("swift_udp_client_reactor_wakeups_total"), transport_ops), "count"},
      {"agent.read_service_p50_us", traced.agent_read_service_p50_us, "us"},
      {"agent.write_service_p50_us", traced.agent_write_service_p50_us, "us"},
      {"agent.datagrams_per_user_mib",
       Ratio(c.at("swift_agent_datagrams_in_total") + c.at("swift_agent_datagrams_out_total"),
             user_mib),
       "count"},
      {"integrity.self_us_per_mib", Ratio((outer_store_ns - inner_store_ns) / 1e3, user_mib),
       "us/MiB"},
      {"integrity.blocks_per_user_mib", Ratio(integrity_blocks, user_mib), "count"},
      {"crc.passes_per_user_byte",
       Ratio(integrity_blocks * swift::kIntegrityBlockSize + 2 * wire_bytes, user_bytes),
       "ratio"},
      {"store.us_per_mib", Ratio(inner_store_ns / 1e3, user_mib), "us/MiB"},
      {"buffer.copies_per_user_byte", Ratio(c.at("swift_buffer_copy_bytes_total"), user_bytes),
       "ratio"},
      {"erasure.encode_bytes_per_user_byte",
       Ratio(c.at("swift_erasure_encode_bytes_total"), user_bytes), "ratio"},
      // Degraded reads rebuild one whole unit per counted reconstruction.
      {"erasure.reconstruct_bytes_per_user_byte",
       Ratio(c.at("swift_erasure_reconstruct_bytes_total") +
                 c.at("swift_file_parity_reconstructions_total") * spec.unit,
             user_bytes),
       "ratio"},
      {"rebuild.inflight_mean", Ratio(rebuild_op_ns_total, rebuild_ns * columns), "ops"},
      {"rebuild.op_p50_us", Percentile(rebuild_op_us, 500), "us"},
      {"mediator.open_session_us", untraced.open_session_us, "us"},
      {"process.cpu_s_per_user_gib",
       Ratio(untraced.cpu_s, static_cast<double>(untraced.user_bytes()) / swift::kGiB), "s/GiB"},
      {"trace.overhead_ratio", Ratio(traced.mbps(), untraced.mbps()), "ratio"},
  };
  // The untraced phase's breakdown numbers that every workload has ride
  // along, so the traced result carries them too.
  for (const Metric& m : BreakdownMetrics(spec, untraced)) {
    if (m.name == "read_mbps" || m.name == "read_p99_us" || m.name == "rebuild_mbps" ||
        m.name == "peak_rss_mib" || m.name == "stored_bytes_per_user_byte") {
      metrics.push_back(m);
    }
  }
  return metrics;
}

std::vector<std::string> CountMismatches(const PhaseResult& untraced, const PhaseResult& traced) {
  auto count = [](const PhaseResult& p, const char* name) { return p.counters.at(name); };
  auto first_sends = [&](const PhaseResult& p) {
    return count(p, "swift_udp_client_datagrams_sent_total") -
           count(p, "swift_udp_client_retransmissions_total");
  };
  // A retransmitted request can bring a duplicate payload that is copied
  // once more, so copy bytes may differ by one payload per retransmission.
  const uint64_t copy_slack =
      swift::kMaxPacketPayload * (count(untraced, "swift_udp_client_retransmissions_total") +
                                  count(traced, "swift_udp_client_retransmissions_total"));
  // A write packet lost on the way in draws a NACK, and the client answers
  // each NACK with one more first-send query, so first sends may differ by
  // one datagram per NACK.
  const uint64_t nack_slack = count(untraced, "swift_agent_nacks_sent_total") +
                              count(traced, "swift_agent_nacks_sent_total");
  struct Check {
    const char* name;
    uint64_t untraced;
    uint64_t traced;
    uint64_t slack;
  };
  const Check checks[] = {
      {"user_ops", untraced.ops(), traced.ops(), 0},
      {"user_bytes", untraced.user_bytes(), traced.user_bytes(), 0},
      {"transport_ops", untraced.transport.ops_submitted, traced.transport.ops_submitted, 0},
      {"udp_first_sends", first_sends(untraced), first_sends(traced), nack_slack},
      {"buffer_copy_bytes", count(untraced, "swift_buffer_copy_bytes_total"),
       count(traced, "swift_buffer_copy_bytes_total"), copy_slack},
  };
  std::vector<std::string> mismatches;
  for (const Check& check : checks) {
    const uint64_t gap = check.untraced > check.traced ? check.untraced - check.traced
                                                       : check.traced - check.untraced;
    if (gap > check.slack) {
      mismatches.push_back(std::string(check.name) + " " + std::to_string(check.untraced) +
                           " untraced vs " + std::to_string(check.traced) + " traced");
    }
  }
  return mismatches;
}

}  // namespace perfbench
