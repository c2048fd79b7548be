// Micro benchmarks (google-benchmark): the data-path kernels.
//
// Parity XOR throughput (the "cost of computing the parity code", §7), wire
// codec encode/decode, packetizer split/reassemble, CRC32, stripe mapping —
// the per-byte and per-packet costs everything else builds on — plus the
// async transport core: striped reads over real UDP sockets with the
// per-column op window at 1 (sync-equivalent) vs 4 (pipelined), on clean and
// lossy networks, and the bytes a partial-row write moves.

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "src/agent/backing_store.h"
#include "src/agent/storage_agent.h"
#include "src/agent/udp_agent_server.h"
#include "src/agent/udp_transport.h"
#include "src/core/object_directory.h"
#include "src/core/parity.h"
#include "src/core/stripe_layout.h"
#include "src/core/swift_file.h"
#include "src/proto/message.h"
#include "src/proto/packetizer.h"
#include "src/util/buffer.h"
#include "src/util/crc32.h"
#include "src/util/metrics.h"
#include "src/util/rng.h"
#include "src/util/units.h"

namespace swift {
namespace {

std::vector<uint8_t> RandomBytes(size_t n, uint64_t seed) {
  std::vector<uint8_t> out(n);
  Rng rng(seed);
  for (auto& b : out) {
    b = static_cast<uint8_t>(rng.UniformInt(0, 255));
  }
  return out;
}

void BM_ParityXor(benchmark::State& state) {
  const size_t unit = static_cast<size_t>(state.range(0));
  std::vector<uint8_t> dst = RandomBytes(unit, 1);
  std::vector<uint8_t> src = RandomBytes(unit, 2);
  for (auto _ : state) {
    XorInto(dst, src);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * unit);
}
BENCHMARK(BM_ParityXor)->Arg(4096)->Arg(65536)->Arg(1 << 20);

void BM_ComputeParityRow(benchmark::State& state) {
  const size_t unit = 65536;
  const int width = static_cast<int>(state.range(0));
  std::vector<std::vector<uint8_t>> units;
  for (int i = 0; i < width; ++i) {
    units.push_back(RandomBytes(unit, i + 1));
  }
  std::vector<std::span<const uint8_t>> spans(units.begin(), units.end());
  for (auto _ : state) {
    auto parity = ComputeParity(spans, unit);
    benchmark::DoNotOptimize(parity.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * unit * width);
}
BENCHMARK(BM_ComputeParityRow)->Arg(2)->Arg(4)->Arg(8);

void BM_Crc32(benchmark::State& state) {
  std::vector<uint8_t> data = RandomBytes(static_cast<size_t>(state.range(0)), 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
  state.SetLabel(Crc32KernelName());
}
BENCHMARK(BM_Crc32)->Arg(1472)->Arg(4096)->Arg(8192)->Arg(65536);

void BM_MessageEncode(benchmark::State& state) {
  Message m;
  m.type = MessageType::kData;
  m.handle = 7;
  m.request_id = 42;
  m.payload = BufferSlice::FromVector(RandomBytes(static_cast<size_t>(state.range(0)), 4));
  for (auto _ : state) {
    auto wire = m.Encode();
    benchmark::DoNotOptimize(wire.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_MessageEncode)->Arg(1472)->Arg(8192);

void BM_MessageDecode(benchmark::State& state) {
  Message m;
  m.type = MessageType::kData;
  m.payload = BufferSlice::FromVector(RandomBytes(static_cast<size_t>(state.range(0)), 5));
  const std::vector<uint8_t> wire = m.Encode();
  for (auto _ : state) {
    auto decoded = Message::Decode(wire);
    benchmark::DoNotOptimize(decoded.ok());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_MessageDecode)->Arg(1472)->Arg(8192);

void BM_PacketizeAndReassemble(benchmark::State& state) {
  std::vector<uint8_t> data = RandomBytes(static_cast<size_t>(state.range(0)), 6);
  for (auto _ : state) {
    auto packets = SplitIntoPackets(MessageType::kWriteData, 1, 2, 0, data);
    Reassembler reassembler(2, 0, data.size(), static_cast<uint32_t>(packets.size()));
    for (const Message& p : packets) {
      benchmark::DoNotOptimize(reassembler.Accept(p).ok());
    }
    benchmark::DoNotOptimize(reassembler.complete());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_PacketizeAndReassemble)->Arg(65536)->Arg(1 << 20);

void BM_StripeMapRange(benchmark::State& state) {
  StripeLayout layout({.num_agents = static_cast<uint32_t>(state.range(0)),
                       .stripe_unit = KiB(64),
                       .parity = ParityMode::kRotating});
  Rng rng(7);
  for (auto _ : state) {
    const uint64_t offset = static_cast<uint64_t>(rng.UniformInt(0, 1 << 28));
    auto extents = layout.MapRange(offset, MiB(1));
    benchmark::DoNotOptimize(extents.data());
  }
}
BENCHMARK(BM_StripeMapRange)->Arg(3)->Arg(9);

// Shared rig: real UDP loopback agents behind a striped SwiftFile, with one
// object of `bytes` random data already written.
struct UdpStripedRig {
  struct Agent {
    explicit Agent(UdpAgentServer::Options options) : core(&store), server(&core, options) {
      (void)server.Start();
    }
    InMemoryBackingStore store;
    StorageAgentCore core;
    UdpAgentServer server;
  };

  std::vector<std::unique_ptr<Agent>> agents;
  std::vector<std::unique_ptr<UdpTransport>> transports;
  std::vector<AgentTransport*> raw;
  ObjectDirectory directory;
  std::unique_ptr<SwiftFile> file;

  // Returns a non-OK status on any setup failure (caller SkipWithError's).
  Status Init(uint32_t num_agents, uint32_t window, double loss, size_t bytes) {
    for (uint32_t i = 0; i < num_agents; ++i) {
      agents.push_back(std::make_unique<Agent>(
          UdpAgentServer::Options{.port = 0, .loss_probability = loss, .loss_seed = 10 + i}));
      UdpTransport::Options options;
      options.loss_probability = loss;
      options.loss_seed = 50 + i;
      options.initial_timeout_ms = 5;
      options.max_timeout_ms = 40;
      options.max_retries = 20;
      options.max_in_flight_ops = window;
      transports.push_back(std::make_unique<UdpTransport>(agents.back()->server.port(), options));
      raw.push_back(transports.back().get());
    }

    TransferPlan plan;
    plan.object_name = "bench";
    plan.stripe.num_agents = num_agents;
    plan.stripe.stripe_unit = KiB(16);
    plan.stripe.parity = ParityMode::kNone;
    for (uint32_t i = 0; i < num_agents; ++i) {
      plan.agent_ids.push_back(i);
    }
    DistributionAgent::Options io_options;
    io_options.ops_in_flight = window;
    SWIFT_ASSIGN_OR_RETURN(file, SwiftFile::Create(plan, raw, &directory, io_options));
    std::vector<uint8_t> data = RandomBytes(bytes, 9);
    SWIFT_RETURN_IF_ERROR(file->PWrite(0, data).status());
    return OkStatus();
  }
};

// Striped 1 MiB reads through SwiftFile over real UDP loopback agents.
// Arg 0: stripe-unit ops in flight per column (1 = the synchronous
// baseline's behaviour, ≥4 = pipelined). Arg 1: simulated datagram loss in
// percent. Pipelining must never be slower than the window-1 baseline and
// should win clearly once retransmission stalls stop serializing the column.
void BM_PipelinedUdpRead(benchmark::State& state) {
  const uint32_t window = static_cast<uint32_t>(state.range(0));
  const double loss = static_cast<double>(state.range(1)) / 100.0;
  constexpr size_t kBytes = MiB(1);
  UdpStripedRig rig;
  if (Status init = rig.Init(3, window, loss, kBytes); !init.ok()) {
    state.SkipWithError(init.ToString().c_str());
    return;
  }

  std::vector<uint8_t> out(kBytes);
  for (auto _ : state) {
    auto n = rig.file->PRead(0, out);
    if (!n.ok()) {
      state.SkipWithError(n.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * kBytes);
}
BENCHMARK(BM_PipelinedUdpRead)
    ->Args({1, 0})
    ->Args({4, 0})
    ->Args({8, 0})
    ->Args({1, 2})
    ->Args({4, 2})
    ->UseRealTime()  // the client thread mostly waits on the reactors
    ->Unit(benchmark::kMillisecond);

// Copy-path probe: one 4 MiB striped read over clean UDP, reporting how many
// deliberate user-space payload copies it costs (swift_buffer_copies_total /
// swift_buffer_copy_bytes_total deltas around the timed loop).
//
// The zero-copy pipeline budget is 2 copy points per byte served from an
// in-memory agent: the store's snapshot copy into the served block, and the
// reassembler placing each datagram payload into the caller's destination.
// ci.sh fails the build if `bytes_copied_ratio` regresses above that budget
// (with headroom for bookkeeping, threshold 2.5) — a new hidden memcpy on
// the data path shows up here as ratio 3.0+.
void BM_CopyPer4MiBRead(benchmark::State& state) {
  constexpr size_t kBytes = MiB(4);
  UdpStripedRig rig;
  if (Status init = rig.Init(3, 4, /*loss=*/0, kBytes); !init.ok()) {
    state.SkipWithError(init.ToString().c_str());
    return;
  }

  Counter* copies = MetricRegistry::Global().GetCounter("swift_buffer_copies_total");
  Counter* copy_bytes = MetricRegistry::Global().GetCounter("swift_buffer_copy_bytes_total");
  const uint64_t copies_before = copies->Value();
  const uint64_t bytes_before = copy_bytes->Value();
  uint64_t reads = 0;

  std::vector<uint8_t> out(kBytes);
  for (auto _ : state) {
    auto n = rig.file->PRead(0, out);
    if (!n.ok()) {
      state.SkipWithError(n.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(out.data());
    ++reads;
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * kBytes);
  if (reads > 0) {
    const double copies_per_read =
        static_cast<double>(copies->Value() - copies_before) / static_cast<double>(reads);
    const double bytes_per_read =
        static_cast<double>(copy_bytes->Value() - bytes_before) / static_cast<double>(reads);
    state.counters["copies_per_read"] = copies_per_read;
    state.counters["bytes_copied_per_read"] = bytes_per_read;
    state.counters["bytes_copied_ratio"] = bytes_per_read / static_cast<double>(kBytes);
  }
}
BENCHMARK(BM_CopyPer4MiBRead)->Unit(benchmark::kMillisecond);

// Client-reactor probe: 4 KiB reads on an idle 3-column stripe over UDP
// loopback, each one stripe-unit op with nothing else in flight. Its waiter
// drives the shared client reactor itself, so a read should write the wake
// pipe 0 times and return from poll once. Reports, per read:
//   * wake_writes_per_read — swift_udp_client_wake_writes_total;
//   * reactor_wakeups_per_read — swift_udp_client_reactor_wakeups_total,
//     which counts the waiter's own poll returns too.
// ci.sh gates them at <= 0.05 and <= 1.05: handing each read to the reactor
// thread and back costs one wake write and one more poll return per read.
void BM_UdpRead4K(benchmark::State& state) {
  constexpr size_t kBytes = MiB(1);
  UdpStripedRig rig;
  if (Status init = rig.Init(3, 4, /*loss=*/0, kBytes); !init.ok()) {
    state.SkipWithError(init.ToString().c_str());
    return;
  }
  Counter* wake_writes = MetricRegistry::Global().GetCounter("swift_udp_client_wake_writes_total");
  Counter* wakeups = MetricRegistry::Global().GetCounter("swift_udp_client_reactor_wakeups_total");
  const uint64_t writes_before = wake_writes->Value();
  const uint64_t wakeups_before = wakeups->Value();
  uint64_t reads = 0;

  std::vector<uint8_t> out(KiB(4));
  for (auto _ : state) {
    auto n = rig.file->PRead((reads * KiB(4)) % kBytes, out);
    if (!n.ok()) {
      state.SkipWithError(n.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(out.data());
    ++reads;
  }
  if (reads > 0) {
    state.counters["wake_writes_per_read"] =
        static_cast<double>(wake_writes->Value() - writes_before) / static_cast<double>(reads);
    state.counters["reactor_wakeups_per_read"] =
        static_cast<double>(wakeups->Value() - wakeups_before) / static_cast<double>(reads);
  }
}
BENCHMARK(BM_UdpRead4K)->UseRealTime()->Unit(benchmark::kMicrosecond);

// Read-ahead probe: sequential 4-row reads (3 columns, 16 KiB units, no
// parity) passing over a 128-row object again and again on UDP loopback.
// Each read leaves the next rows in flight when it returns, and the next read
// takes them. Reports:
//   * readahead_hit_ratio — swift_file_readahead_bytes_total per byte read.
//     Of the 32 reads in a pass only the first is not prefetched (the first
//     two of the first pass), so the ratio sits just under 31/32;
//   * readahead_discarded_bytes — swift_file_readahead_discarded_bytes_total:
//     a stream that only moves forward wastes nothing;
//   * transport_ops_per_read — ops submitted per read: 12, one per unit.
// ci.sh gates hit ratio >= 0.95 and discarded bytes == 0.
void BM_SequentialRead(benchmark::State& state) {
  constexpr uint64_t kRowBytes = 3 * KiB(16);
  constexpr uint64_t kRead = 4 * kRowBytes;
  constexpr uint64_t kBytes = 128 * kRowBytes;
  UdpStripedRig rig;
  if (Status init = rig.Init(3, 4, /*loss=*/0, kBytes); !init.ok()) {
    state.SkipWithError(init.ToString().c_str());
    return;
  }
  Counter* hit = MetricRegistry::Global().GetCounter("swift_file_readahead_bytes_total");
  Counter* discarded =
      MetricRegistry::Global().GetCounter("swift_file_readahead_discarded_bytes_total");
  auto ops = [&rig] {
    uint64_t total = 0;
    for (const auto& transport : rig.transports) {
      total += transport->stats().ops_submitted;
    }
    return total;
  };
  const uint64_t hit_before = hit->Value();
  const uint64_t discarded_before = discarded->Value();
  const uint64_t ops_before = ops();
  uint64_t reads = 0;

  std::vector<uint8_t> out(kRead);
  for (auto _ : state) {
    auto n = rig.file->PRead((reads * kRead) % kBytes, out);
    if (!n.ok()) {
      state.SkipWithError(n.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(out.data());
    ++reads;
  }
  state.SetBytesProcessed(static_cast<int64_t>(reads * kRead));
  if (reads > 0) {
    state.counters["readahead_hit_ratio"] =
        static_cast<double>(hit->Value() - hit_before) / static_cast<double>(reads * kRead);
    state.counters["readahead_discarded_bytes"] =
        static_cast<double>(discarded->Value() - discarded_before);
    state.counters["transport_ops_per_read"] =
        static_cast<double>(ops() - ops_before) / static_cast<double>(reads);
  }
}
BENCHMARK(BM_SequentialRead)->UseRealTime()->Unit(benchmark::kMicrosecond);

// Partial-row write probe: 4 KiB read-modify-writes at random 4 KiB-aligned
// offsets of an XOR(3+1) object with 64 KiB stripe units, over in-process
// agents so every counter is exact. Reports, per write:
//   * wire_bytes_per_user_byte — transport payload bytes read plus written,
//     per user byte. The floor is 4.0: the 4 KiB gather and the 4 KiB write,
//     on the data column and on the parity column. Moving whole 64 KiB parity
//     units costs 34.
//   * round_trips_per_write — dependent batches (distribution-agent batch
//     waits): one gather, one parity+data write.
// ci.sh fails the build if wire_bytes_per_user_byte exceeds 4.5.
void BM_PartialRowWrite4K(benchmark::State& state) {
  constexpr uint32_t kAgents = 4;
  constexpr uint64_t kUnit = KiB(64);
  constexpr uint64_t kRows = 16;
  constexpr uint64_t kWrite = KiB(4);
  std::vector<std::unique_ptr<InMemoryBackingStore>> stores;
  std::vector<std::unique_ptr<StorageAgentCore>> cores;
  std::vector<std::unique_ptr<InProcTransport>> transports;
  std::vector<AgentTransport*> raw;
  TransferPlan plan;
  plan.object_name = "rmw";
  plan.stripe.num_agents = kAgents;
  plan.stripe.stripe_unit = kUnit;
  plan.stripe.parity = ParityMode::kRotating;
  for (uint32_t i = 0; i < kAgents; ++i) {
    stores.push_back(std::make_unique<InMemoryBackingStore>());
    cores.push_back(std::make_unique<StorageAgentCore>(stores.back().get()));
    transports.push_back(std::make_unique<InProcTransport>(cores.back().get()));
    raw.push_back(transports.back().get());
    plan.agent_ids.push_back(i);
  }
  ObjectDirectory directory;
  auto file = SwiftFile::Create(plan, raw, &directory);
  if (!file.ok()) {
    state.SkipWithError(file.status().ToString().c_str());
    return;
  }
  const uint64_t object_bytes = kRows * (kAgents - 1) * kUnit;
  if (auto filled = (*file)->PWrite(0, RandomBytes(object_bytes, 3)); !filled.ok()) {
    state.SkipWithError(filled.status().ToString().c_str());
    return;
  }

  auto wire_bytes = [&transports] {
    uint64_t bytes = 0;
    for (const auto& transport : transports) {
      const TransportStats stats = transport->stats();
      bytes += stats.bytes_read + stats.bytes_written;
    }
    return bytes;
  };
  HistogramMetric* batches = MetricRegistry::Global().GetHistogram("swift_dist_batch_latency_us");
  const uint64_t bytes_before = wire_bytes();
  const uint64_t batches_before = batches->Snap().count;
  const std::vector<uint8_t> payload = RandomBytes(kWrite, 4);
  Rng rng(5);
  uint64_t writes = 0;
  for (auto _ : state) {
    const uint64_t offset =
        kWrite * static_cast<uint64_t>(rng.UniformInt(0, object_bytes / kWrite - 1));
    auto n = (*file)->PWrite(offset, payload);
    if (!n.ok()) {
      state.SkipWithError(n.status().ToString().c_str());
      return;
    }
    ++writes;
  }
  state.SetBytesProcessed(static_cast<int64_t>(writes * kWrite));
  if (writes > 0) {
    state.counters["wire_bytes_per_user_byte"] =
        static_cast<double>(wire_bytes() - bytes_before) / static_cast<double>(writes * kWrite);
    state.counters["round_trips_per_write"] =
        static_cast<double>(batches->Snap().count - batches_before) / static_cast<double>(writes);
  }
}
BENCHMARK(BM_PartialRowWrite4K);

// Degraded-read probe: sequential 1 MiB reads of an RS(4,2) object with
// 64 KiB stripe units and two failed columns, over in-process agents so every
// counter is exact. A read covers four whole rows. Reports, per read:
//   * wire_bytes_per_user_byte — transport payload bytes read per user byte.
//     The floor is 1.0: each row's live data units are its survivors, and
//     only the live parity units standing in for its lost data units are
//     added. Re-reading the live data units to decode, a batch per row,
//     costs 1.66 bytes and five round trips.
//   * round_trips_per_read — dependent batches (distribution-agent batch
//     waits): the live extents and the survivor reads go in one.
// ci.sh fails the build above 1.05 bytes or 1 round trip per read.
void BM_DegradedRead1M(benchmark::State& state) {
  constexpr uint32_t kAgents = 6;
  constexpr uint64_t kUnit = KiB(64);
  constexpr uint64_t kRead = MiB(1);
  constexpr uint64_t kReads = 8;
  std::vector<std::unique_ptr<InMemoryBackingStore>> stores;
  std::vector<std::unique_ptr<StorageAgentCore>> cores;
  std::vector<std::unique_ptr<InProcTransport>> transports;
  std::vector<AgentTransport*> raw;
  TransferPlan plan;
  plan.object_name = "degraded";
  plan.stripe.num_agents = kAgents;
  plan.stripe.stripe_unit = kUnit;
  plan.stripe.parity = ParityMode::kRotating;
  plan.stripe.parity_units = 2;
  plan.stripe.codec = ErasureKind::kReedSolomon;
  for (uint32_t i = 0; i < kAgents; ++i) {
    stores.push_back(std::make_unique<InMemoryBackingStore>());
    cores.push_back(std::make_unique<StorageAgentCore>(stores.back().get()));
    transports.push_back(std::make_unique<InProcTransport>(cores.back().get()));
    raw.push_back(transports.back().get());
    plan.agent_ids.push_back(i);
  }
  ObjectDirectory directory;
  auto file = SwiftFile::Create(plan, raw, &directory);
  if (!file.ok()) {
    state.SkipWithError(file.status().ToString().c_str());
    return;
  }
  if (auto filled = (*file)->PWrite(0, RandomBytes(kReads * kRead, 7)); !filled.ok()) {
    state.SkipWithError(filled.status().ToString().c_str());
    return;
  }
  (*file)->MarkColumnFailed(1);
  (*file)->MarkColumnFailed(4);

  auto wire_bytes = [&transports] {
    uint64_t bytes = 0;
    for (const auto& transport : transports) {
      bytes += transport->stats().bytes_read;
    }
    return bytes;
  };
  HistogramMetric* batches = MetricRegistry::Global().GetHistogram("swift_dist_batch_latency_us");
  const uint64_t bytes_before = wire_bytes();
  const uint64_t batches_before = batches->Snap().count;
  std::vector<uint8_t> out(kRead);
  uint64_t reads = 0;
  for (auto _ : state) {
    auto n = (*file)->PRead((reads % kReads) * kRead, out);
    if (!n.ok()) {
      state.SkipWithError(n.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(out.data());
    ++reads;
  }
  state.SetBytesProcessed(static_cast<int64_t>(reads * kRead));
  if (reads > 0) {
    state.counters["wire_bytes_per_user_byte"] =
        static_cast<double>(wire_bytes() - bytes_before) / static_cast<double>(reads * kRead);
    state.counters["round_trips_per_read"] =
        static_cast<double>(batches->Snap().count - batches_before) / static_cast<double>(reads);
  }
}
BENCHMARK(BM_DegradedRead1M)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace swift

BENCHMARK_MAIN();
