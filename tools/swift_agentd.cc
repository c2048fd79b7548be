// swift_agentd: a standalone Swift storage agent.
//
// Serves the Swift data-transfer protocol on a UDP port, persisting objects
// as files under a root directory — one process per storage agent, exactly
// the deployment §3 describes ("each of the servers was dedicated to run
// exclusively the Swift storage agent software").
//
//   swift_agentd --root=/var/swift/agent0 [--port=4751] [--seconds=N]
//               [--stats-interval=N] [--mediator=PORT] [--rate-mbps=N]
//               [--storage-mb=N] [--heartbeat-ms=N] [--durable]
//               [--no-integrity] [--fault-spec=SPEC]
//               [--loss=P] [--loss-seed=N] [--shards=N]
//               [--chaos-spec=SPEC] [--chaos-seed=N]
//               [--trace-mode=off|sampled|all] [--cc-mode=off|fixed|delay]
//
// --shards=N serves the well-known port with N SO_REUSEPORT listener
// sockets, one loop thread (and receive arena, session table, metric shard)
// per core; the default is min(4, hardware threads). The shards carry the
// data path too: every session is served by the shard that accepted its
// OPEN, so the agent runs N server threads however many files are open.
// Per-shard traffic, control and data datagrams alike, shows up as
// swift_agent_shard<i>_datagrams_total in STATS / --stats-interval dumps.
//
// Storage stack: files under --root, wrapped in CRC-32 at-rest checksums
// (IntegrityBackingStore) so reads detect silent disk corruption and the
// SCRUB op can audit the whole file; --no-integrity serves raw files.
// --durable fsyncs every write before acknowledging it. For recovery drills,
// --fault-spec injects deterministic disk faults *under* the checksum layer
// (syntax: "bitflip=0.01,torn=0.05,eio=0.002,stuck=8192+4096,seed=7") and
// --loss/--loss-seed drop outgoing datagrams with probability P using a
// reproducible seed. --chaos-spec scripts richer network faults — one-way
// blackholes, partitions, delay spikes, reordering, duplication — on every
// shard socket, so they hit control and data traffic alike (see src/agent/chaos.h for the grammar, e.g.
// "0-3000:partition:*;5000-8000:delay:*:50"); --chaos-seed fixes its RNG.
//
// Runs until SIGINT/SIGTERM (or for --seconds, for scripting). Pair it with
// swift_cli to store and fetch striped objects. With --stats-interval=N the
// agent dumps its metrics registry (Prometheus-style text) to stdout every N
// seconds; the same snapshot is served live via the protocol's STATS op.
//
// With --mediator=PORT the agent joins a swift_mediatord control plane: it
// registers its capacity (--rate-mbps, --storage-mb) and data port, then
// heartbeats every --heartbeat-ms reporting live load (the registry's
// datagram counters differenced per interval). If the mediator retires the
// agent (restart, missed beats) the heartbeat gets NOT_FOUND back and the
// agent simply re-registers under a fresh id.
// SWIFT_LOG_LEVEL=debug|info|warning|error controls log verbosity.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>

#include <sys/stat.h>
#include <unistd.h>

#include "src/agent/backing_store.h"
#include "src/agent/chaos.h"
#include "src/agent/congestion.h"
#include "src/agent/faulty_store.h"
#include "src/agent/integrity_store.h"
#include "src/agent/mediator_client.h"
#include "src/agent/storage_agent.h"
#include "src/agent/udp_agent_server.h"
#include "src/proto/message.h"
#include "src/util/metrics.h"
#include "src/util/trace.h"
#include "src/util/units.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void HandleSignal(int) { g_stop = 1; }

const char* FlagValue(int argc, char** argv, const char* name) {
  const size_t name_len = std::strlen(name);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], name, name_len) == 0 && argv[i][name_len] == '=') {
      return argv[i] + name_len + 1;
    }
  }
  return nullptr;
}

bool HasFlag(int argc, char** argv, const char* name) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) {
      return true;
    }
  }
  return false;
}

// Registers with the mediator and heartbeats until stopped. Load is the
// agent's datagram throughput (packets in+out per second, scaled to bytes by
// the max payload) over the last interval — a cheap monotone proxy the
// mediator's replanner uses to prefer idle replacements.
void HeartbeatLoop(uint16_t mediator_port, uint16_t data_port, swift::AgentCapacity capacity,
                   int interval_ms, const std::atomic<bool>* stop) {
  swift::MetricRegistry& registry = swift::MetricRegistry::Global();
  swift::Counter* in = registry.GetCounter("swift_agent_datagrams_in_total");
  swift::Counter* out = registry.GetCounter("swift_agent_datagrams_out_total");

  swift::MediatorClient client(mediator_port);
  uint32_t agent_id = 0;
  bool registered = false;
  uint64_t last_packets = in->Value() + out->Value();
  while (!stop->load(std::memory_order_acquire)) {
    if (!registered) {
      auto id = client.RegisterAgent(capacity, data_port);
      if (id.ok()) {
        agent_id = *id;
        registered = true;
        std::printf("swift_agentd: registered with mediator as agent %u\n", agent_id);
        std::fflush(stdout);
      }
    } else {
      const uint64_t packets = in->Value() + out->Value();
      const double load = static_cast<double>(packets - last_packets) *
                          static_cast<double>(swift::kMaxPacketPayload) * 1000.0 / interval_ms;
      last_packets = packets;
      swift::Status beat = client.Heartbeat(agent_id, load);
      if (beat.code() == swift::StatusCode::kNotFound) {
        registered = false;  // mediator restarted or retired us: re-register
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
  }
}

}  // namespace

int main(int argc, char** argv) {
  const char* root = FlagValue(argc, argv, "--root");
  const char* port_flag = FlagValue(argc, argv, "--port");
  const char* seconds_flag = FlagValue(argc, argv, "--seconds");
  const char* stats_flag = FlagValue(argc, argv, "--stats-interval");
  const char* mediator_flag = FlagValue(argc, argv, "--mediator");
  const char* rate_flag = FlagValue(argc, argv, "--rate-mbps");
  const char* storage_flag = FlagValue(argc, argv, "--storage-mb");
  const char* heartbeat_flag = FlagValue(argc, argv, "--heartbeat-ms");
  const char* fault_flag = FlagValue(argc, argv, "--fault-spec");
  const char* loss_flag = FlagValue(argc, argv, "--loss");
  const char* loss_seed_flag = FlagValue(argc, argv, "--loss-seed");
  const char* shards_flag = FlagValue(argc, argv, "--shards");
  const char* chaos_flag = FlagValue(argc, argv, "--chaos-spec");
  const char* chaos_seed_flag = FlagValue(argc, argv, "--chaos-seed");
  const bool durable = HasFlag(argc, argv, "--durable");
  const bool no_integrity = HasFlag(argc, argv, "--no-integrity");
  if (root == nullptr) {
    std::fprintf(stderr,
                 "usage: swift_agentd --root=DIR [--port=%u] [--seconds=N] [--stats-interval=N]\n"
                 "                    [--mediator=PORT] [--rate-mbps=N] [--storage-mb=N]\n"
                 "                    [--heartbeat-ms=N] [--durable] [--no-integrity]\n"
                 "                    [--fault-spec=SPEC] [--loss=P] [--loss-seed=N]\n"
                 "                    [--shards=N] [--chaos-spec=SPEC] [--chaos-seed=N]\n"
                 "serves Swift storage-agent protocol over UDP, storing objects in DIR\n",
                 swift::kDefaultAgentPort);
    return 2;
  }
  ::mkdir(root, 0755);  // best effort; the store reports real errors

  // Store stack, bottom up: real files → injected faults (drills) → CRC-32
  // verification, so injected corruption is caught exactly like real rot.
  swift::PosixBackingStore::Options posix_options;
  posix_options.fsync_on_write = durable;
  swift::PosixBackingStore posix_store(root, posix_options);
  swift::BackingStore* store = &posix_store;
  std::unique_ptr<swift::FaultyBackingStore> faulty;
  if (fault_flag != nullptr) {
    auto spec = swift::ParseFaultSpec(fault_flag);
    if (!spec.ok()) {
      std::fprintf(stderr, "bad --fault-spec: %s\n", spec.status().ToString().c_str());
      return 2;
    }
    faulty = std::make_unique<swift::FaultyBackingStore>(store, *spec);
    store = faulty.get();
  }
  std::unique_ptr<swift::IntegrityBackingStore> integrity;
  if (!no_integrity) {
    integrity = std::make_unique<swift::IntegrityBackingStore>(store);
    store = integrity.get();
  }
  swift::StorageAgentCore core(store);
  swift::UdpAgentServer::Options options;
  options.port = port_flag != nullptr ? static_cast<uint16_t>(std::atoi(port_flag))
                                      : swift::kDefaultAgentPort;
  if (loss_flag != nullptr) {
    options.loss_probability = std::atof(loss_flag);
  }
  if (loss_seed_flag != nullptr) {
    options.loss_seed = static_cast<uint64_t>(std::atoll(loss_seed_flag));
  }
  options.shards = shards_flag != nullptr
                       ? static_cast<uint32_t>(std::max(1, std::atoi(shards_flag)))
                       : std::min(4u, std::max(1u, std::thread::hardware_concurrency()));
  if (chaos_flag != nullptr) {
    const uint64_t chaos_seed =
        chaos_seed_flag != nullptr ? static_cast<uint64_t>(std::atoll(chaos_seed_flag)) : 1;
    auto chaos = swift::ChaosDirector::Parse(chaos_flag, chaos_seed);
    if (!chaos.ok()) {
      std::fprintf(stderr, "bad --chaos-spec: %s\n", chaos.status().ToString().c_str());
      return 2;
    }
    options.chaos = *std::move(chaos);
  }
  swift::UdpAgentServer server(&core, options);
  swift::Status status = server.Start();
  if (!status.ok()) {
    std::fprintf(stderr, "cannot start agent: %s\n", status.ToString().c_str());
    return 1;
  }
  // The bound port doubles as this node's identity in distributed traces:
  // unique per process on one host, stable for the life of the daemon.
  swift::SetTraceNodeId(server.port());
  if (const char* trace_mode = FlagValue(argc, argv, "--trace-mode")) {
    if (std::strcmp(trace_mode, "off") == 0) {
      swift::SetTraceMode(swift::TraceMode::kOff);
    } else if (std::strcmp(trace_mode, "sampled") == 0) {
      swift::SetTraceMode(swift::TraceMode::kSampled);
    } else if (std::strcmp(trace_mode, "all") == 0) {
      swift::SetTraceMode(swift::TraceMode::kAll);
    } else {
      std::fprintf(stderr, "bad --trace-mode (off|sampled|all): %s\n", trace_mode);
      return 2;
    }
  }
  if (const char* cc_mode = FlagValue(argc, argv, "--cc-mode")) {
    swift::CcMode mode;
    if (!swift::ParseCcMode(cc_mode, &mode)) {
      std::fprintf(stderr, "bad --cc-mode (off|fixed|delay): %s\n", cc_mode);
      return 2;
    }
    swift::SetCcMode(mode);
  }
  std::printf("swift_agentd: serving %s on udp port %u\n", root, server.port());
  std::fflush(stdout);

  std::atomic<bool> heartbeat_stop{false};
  std::thread heartbeat;
  if (mediator_flag != nullptr) {
    const uint16_t mediator_port = static_cast<uint16_t>(std::atoi(mediator_flag));
    swift::AgentCapacity capacity;
    capacity.data_rate =
        swift::MiBPerSecond(rate_flag != nullptr ? std::atof(rate_flag) : 100.0);
    capacity.storage_bytes =
        swift::MiB(storage_flag != nullptr ? std::atoll(storage_flag) : 1024);
    const int interval_ms = heartbeat_flag != nullptr ? std::atoi(heartbeat_flag) : 200;
    heartbeat = std::thread(HeartbeatLoop, mediator_port, server.port(), capacity,
                            std::max(10, interval_ms), &heartbeat_stop);
  }

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  const int limit_seconds = seconds_flag != nullptr ? std::atoi(seconds_flag) : -1;
  const int stats_interval = stats_flag != nullptr ? std::atoi(stats_flag) : 0;
  for (int elapsed = 0; g_stop == 0; ++elapsed) {
    if (limit_seconds >= 0 && elapsed >= limit_seconds) {
      break;
    }
    if (stats_interval > 0 && elapsed > 0 && elapsed % stats_interval == 0) {
      std::printf("# swift_agentd metrics (t=%ds)\n%s", elapsed,
                  swift::MetricRegistry::Global().RenderText().c_str());
      std::fflush(stdout);
    }
    ::sleep(1);
  }
  if (stats_interval > 0) {
    std::printf("# swift_agentd metrics (final)\n%s",
                swift::MetricRegistry::Global().RenderText().c_str());
    std::fflush(stdout);
  }
  if (heartbeat.joinable()) {
    heartbeat_stop.store(true, std::memory_order_release);
    heartbeat.join();
  }
  server.Stop();
  std::printf("swift_agentd: stopped\n");
  return 0;
}
