// The benchmark's workloads over a live loopback Swift cluster.
//
// One process runs real UDP storage agents (UdpAgentServer over
// StorageAgentCore over IntegrityBackingStore over InMemoryBackingStore) and
// one closed-loop client: a SwiftFile over UdpTransport, its session opened
// through StorageMediator. Every user call is timed from outside the
// program; every read is checked against a seeded reference model outside
// the timed call.

#ifndef SWIFT_PERFBENCH_BENCH_H_
#define SWIFT_PERFBENCH_BENCH_H_

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "perfbench/taps.h"
#include "src/core/agent_transport.h"

namespace perfbench {

enum class Pattern {
  kStream,    // whole-object passes: sequential full-row writes, then reads
  kRandom,    // uniform random aligned reads and read-modify-writes
  kDegraded,  // sequential reads with the lost columns already failed
};

struct WorkloadSpec {
  std::string name;
  Pattern pattern = Pattern::kStream;
  uint32_t agents = 4;        // stripe width k + m
  uint32_t parity_units = 1;  // m; 1 is XOR, more is Reed-Solomon
  uint32_t failed_columns = 0;  // lost and rebuilt onto as many spare agents
  uint64_t unit = 64 * 1024;
  uint64_t object_bytes = 0;  // a whole number of prefill requests
  uint64_t io_bytes = 0;      // bytes per timed user call
  // Share of the user bytes that are read; kRandom draws each call with it,
  // and `mbps` weights the read and write rates by it.
  double read_fraction = 1.0;
};

// The named workload; `tiny` shrinks the object for smoke tests.
std::optional<WorkloadSpec> FindWorkload(const std::string& name, bool tiny);
std::vector<std::string> WorkloadNames();

// Seeded content of the object at `offset` for `generation` (0 = prefill).
// `offset` and out.size() must be multiples of 8.
void FillPattern(std::span<uint8_t> out, uint64_t seed, uint64_t generation, uint64_t offset);

struct PhaseOptions {
  uint64_t seed = 1;
  double seconds = 1;         // time bound of the timed loop
  uint64_t op_limit = 0;      // nonzero: run exactly this many timed calls instead
  uint32_t setup_repeats = 1; // set-ups timed; the last one is used
  SpanLog* log = nullptr;     // taps on both seams when set
};

// What one phase measured. Counter fields are deltas over the timed loop.
struct PhaseResult {
  std::vector<double> setup_s;
  double open_session_us = 0;

  struct Call {
    double seconds = 0;
    uint64_t bytes = 0;
    bool is_read = false;
  };
  std::vector<Call> calls;  // every timed call, in order

  double rebuild_s = 0;
  uint64_t rebuild_bytes = 0;  // lost-column bytes the rebuild restored

  // Every user-visible operation: timed calls, the rebuild, the read-back.
  uint64_t attempted = 0;
  uint64_t failed = 0;  // errors and byte mismatches
  std::string first_error;

  std::map<std::string, uint64_t> counters;  // registry counter deltas
  double agent_read_service_p50_us = 0;
  double agent_write_service_p50_us = 0;
  swift::TransportStats transport;  // summed over the stripe's transports
  double cpu_s = 0;
  uint64_t stored_bytes = 0;  // InMemoryBackingStore bytes over the stripe's agents

  // The timed calls of one kind (PRead or PWrite) added up.
  struct Kind {
    uint64_t ops = 0;
    uint64_t bytes = 0;
    double seconds = 0;
    std::vector<double> us;  // latencies in call order
    double mbps() const { return seconds > 0 ? bytes / seconds / 1e6 : 0; }
  };
  Kind Totals(bool is_read) const;

  uint64_t ops() const { return calls.size(); }
  uint64_t user_bytes() const { return Totals(true).bytes + Totals(false).bytes; }
  // User bytes over the summed wall time of every timed call.
  double mbps() const;
};

// Sets the cluster up `setup_repeats` times, runs the timed loop on the last
// one, then rebuilds the lost columns onto spare agents and reads the whole
// object back through them.
PhaseResult RunPhase(const WorkloadSpec& spec, const PhaseOptions& options);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// Slices of each kind's calls whose medians the end-to-end rate and p50
// report, so a burst of interference from outside moves few of them.
inline constexpr size_t kWindows = 10;

struct SliceStats {
  std::vector<double> read_mbps;
  std::vector<double> write_mbps;
  std::vector<double> read_p50_us;
};

// The PReads and the PWrites of the timed loop, each cut in call order into
// kWindows runs of equal call count (empty ones skipped).
SliceStats Slices(const PhaseResult& phase);

// The rate of the workload's designed mix: read_fraction of the bytes at the
// median read slice's rate, the rest at the median write slice's rate.
double MixMbps(const WorkloadSpec& spec, const SliceStats& slices);

// The end-to-end metrics of an untraced phase, in BENCHMARK.json order.
std::vector<Metric> EndToEndMetrics(const WorkloadSpec& spec, const PhaseResult& phase);

// The breakdown printed beside them: per-kind rates and latencies, rebuild
// rate, failure ratio, peak memory and storage overhead.
std::vector<Metric> BreakdownMetrics(const WorkloadSpec& spec, const PhaseResult& phase);

// Self time of each user call among `spans`, in µs: the call's duration
// minus the union of its transport ops' intervals (clipped to the call).
std::vector<double> CallSelfTimesUs(const std::vector<Span>& spans);

// Per-layer metrics from an untraced phase and a traced phase that ran the
// same calls, plus the traced phase's spans.
std::vector<Metric> LayerMetrics(const WorkloadSpec& spec, const PhaseResult& untraced,
                                 const PhaseResult& traced, const std::vector<Span>& spans);

// The counts that must read the same with and without taps, each with both
// values, for every one that differs. Copy bytes may differ by one datagram
// payload per retransmission, first sends by one query per NACK.
std::vector<std::string> CountMismatches(const PhaseResult& untraced, const PhaseResult& traced);

}  // namespace perfbench

#endif  // SWIFT_PERFBENCH_BENCH_H_
