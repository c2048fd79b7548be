// swift_perfbench: one workload of the outside-in benchmark.
//
//   swift_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   [--spans-out PATH] [--git-sha SHA]
//
// --trace 0 sets the cluster up three times (timing each), runs the timed
// loop for S seconds on the last set-up, rebuilds the lost columns, and
// prints the end-to-end metrics.
// --trace 1 sets up once and runs the loop untraced for S/2 seconds, then
// replays exactly the same calls on a fresh cluster with taps on both seams,
// and prints the per-layer metrics, the layer ceilings and the tracing overhead. The last
// line of standard output is the result as one JSON object. Exit status is
// nonzero if any call failed, any byte read differs from the reference
// model, or the traced and untraced counts differ.

#include <sys/utsname.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/bench.h"
#include "perfbench/ceilings.h"
#include "perfbench/stats.h"
#include "perfbench/taps.h"
#include "src/util/logging.h"

namespace {

using perfbench::Metric;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string spans_out;
  std::string git_sha = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      return false;
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = std::atoi(value.c_str());
    } else if (flag == "--spans-out") {
      args->spans_out = value;
    } else if (flag == "--git-sha") {
      args->git_sha = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0 && (args->trace == 0 || args->trace == 1);
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char ch : text) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
    }
    out += (static_cast<unsigned char>(ch) < 0x20) ? ' ' : ch;
  }
  return out + "\"";
}

std::string JsonNumber(double value) {
  char text[64];
  std::snprintf(text, sizeof(text), "%.10g", value);
  return text;
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

bool SanitizedBuild() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#else
  return std::string(PERFBENCH_CXX_FLAGS).find("-fsanitize") != std::string::npos;
#endif
}

// Optimized, unsanitized builds are the only ones whose numbers may serve
// as a baseline.
bool OptimizedBuild() {
  const std::string type = PERFBENCH_BUILD_TYPE;
#if defined(__OPTIMIZE__)
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
  return optimized && !SanitizedBuild() &&
         (type == "Release" || type == "RelWithDebInfo" || type == "MinSizeRel");
}

std::string Provenance(const Args& args) {
  utsname host{};
  uname(&host);
  return std::string("{\"git_sha\":") + JsonString(args.git_sha) +
         ",\"nproc\":" + std::to_string(std::thread::hardware_concurrency()) +
         ",\"kernel\":" + JsonString(std::string(host.sysname) + " " + host.release) +
         ",\"cpu\":" + JsonString(CpuModel()) +
         ",\"build_type\":" + JsonString(PERFBENCH_BUILD_TYPE) +
         ",\"sanitized\":" + (SanitizedBuild() ? "true" : "false") +
         ",\"baseline_ok\":" + (OptimizedBuild() ? "true" : "false") +
         ",\"workload\":" + JsonString(args.workload) + ",\"seed\":" + std::to_string(args.seed) +
         ",\"seconds\":" + JsonNumber(args.seconds) +
         ",\"trace\":" + std::to_string(args.trace) + "}";
}

void PrintMetrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& metric : metrics) {
    std::printf("  %-42s %14.4f %s\n", metric.name.c_str(), metric.value, metric.unit.c_str());
  }
}

void PrintLatency(const char* what, const std::vector<double>& samples) {
  if (samples.empty()) {
    return;
  }
  const perfbench::Summary s = perfbench::Summarize(samples);
  std::printf("  %s latency: n=%zu p50=%.1f us p99=%.1f us%s; tail p%.1f=%.1f us "
              "(highest percentile with >=10 samples beyond)\n",
              what, s.n, s.p50, s.p99, perfbench::SamplesBeyond(s.n, 990) >= 10 ? "" : " (n<1000)",
              s.tail_permille / 10.0, s.tail);
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string json = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    json += (i == 0 ? "" : ", ") + JsonString(metrics[i].name) + ": {\"value\": " +
            JsonNumber(metrics[i].value) + ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  std::printf("%s}}\n", json.c_str());
}

void PrintErrors(const char* phase, const perfbench::PhaseResult& result) {
  if (result.failed != 0) {
    std::printf("%s: %llu of %llu operations failed; first: %s\n", phase,
                static_cast<unsigned long long>(result.failed),
                static_cast<unsigned long long>(result.attempted), result.first_error.c_str());
  }
}

int RunUntraced(const Args& args, const perfbench::WorkloadSpec& spec) {
  const perfbench::PhaseResult phase = perfbench::RunPhase(
      spec, {.seed = args.seed, .seconds = args.seconds, .setup_repeats = 3});
  std::printf("setup_s samples:");
  for (double s : phase.setup_s) {
    std::printf(" %.4f", s);
  }
  std::printf("\n");
  PrintMetrics("breakdown (per operation kind):", perfbench::BreakdownMetrics(spec, phase));
  PrintLatency("PRead", phase.Totals(true).us);
  PrintLatency("PWrite", phase.Totals(false).us);
  const perfbench::SliceStats slices = perfbench::Slices(phase);
  for (const auto& [kind, rates] : {std::pair{"PRead", slices.read_mbps},
                                    std::pair{"PWrite", slices.write_mbps}}) {
    if (!rates.empty()) {
      std::printf("  %s MB/s by slice:", kind);
      for (double mbps : rates) {
        std::printf(" %.4g", mbps);
      }
      std::printf("\n");
    }
  }
  PrintErrors("untraced", phase);
  const std::vector<Metric> metrics = perfbench::EndToEndMetrics(spec, phase);
  PrintMetrics("end-to-end:", metrics);
  const bool correct = phase.failed == 0 && phase.ops() > 0;
  PrintResult(correct, phase.attempted, phase.failed, metrics);
  return correct ? 0 : 1;
}

int RunTraced(const Args& args, const perfbench::WorkloadSpec& spec) {
  const perfbench::PhaseResult untraced =
      perfbench::RunPhase(spec, {.seed = args.seed, .seconds = args.seconds / 2});
  perfbench::SpanLog log;
  const perfbench::PhaseResult traced = perfbench::RunPhase(
      spec, {.seed = args.seed, .op_limit = std::max<uint64_t>(1, untraced.ops()), .log = &log});
  const std::vector<perfbench::Span> spans = log.spans();

  bool ceilings_correct = true;
  const std::vector<Metric> ceilings =
      perfbench::MeasureCeilings(spec, args.seed, 0.2, &ceilings_correct);
  std::vector<Metric> metrics = perfbench::LayerMetrics(spec, untraced, traced, spans);
  metrics.insert(metrics.end(), ceilings.begin(), ceilings.end());

  PrintMetrics("per-layer (traced replay of the untraced calls):", metrics);
  std::printf("ladder: end-to-end %.1f MB/s untraced", untraced.mbps());
  for (const Metric& ceiling : ceilings) {
    std::printf(" | %s %.1f", ceiling.name.c_str() + sizeof("ceiling.") - 1, ceiling.value);
  }
  std::printf(" (MB/s)\n");

  const std::vector<std::string> mismatches = perfbench::CountMismatches(untraced, traced);
  for (const std::string& mismatch : mismatches) {
    std::printf("count mismatch: %s\n", mismatch.c_str());
  }
  if (!ceilings_correct) {
    std::printf("ceiling check failed: decoded or reconstructed bytes differ\n");
  }
  PrintErrors("untraced", untraced);
  PrintErrors("traced", traced);
  if (!args.spans_out.empty()) {
    const std::string header = "{\"provenance\":" + Provenance(args) +
                               ",\"spans\":" + std::to_string(spans.size()) + "}";
    if (!log.WriteJsonl(args.spans_out, header)) {
      std::printf("could not write spans to %s\n", args.spans_out.c_str());
    }
  }

  const uint64_t failed = untraced.failed + traced.failed;
  const bool correct = failed == 0 && mismatches.empty() && ceilings_correct &&
                       untraced.ops() > 0;
  PrintResult(correct, untraced.attempted + traced.attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: swift_perfbench --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--spans-out PATH] [--git-sha SHA]\n");
    return 2;
  }
  const auto spec = perfbench::FindWorkload(args.workload, false);
  if (!spec) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  if (!OptimizedBuild()) {
    std::fprintf(stderr, "refusing to measure: build type %s is not an optimized, "
                         "unsanitized build\n", PERFBENCH_BUILD_TYPE);
    return 3;
  }
  swift::SetMinLogLevel(swift::LogLevel::kWarning);
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace);
  std::printf("provenance %s\n", Provenance(args).c_str());
  std::fflush(stdout);
  return args.trace == 1 ? RunTraced(args, *spec) : RunUntraced(args, *spec);
}
