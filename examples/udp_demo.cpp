// Real sockets: the §3 prototype running in one process on loopback.
//
// Starts three storage-agent servers (each with its own well-known UDP port,
// whose shard loop serves every open file's session — the §3.1 protocol),
// then drives a striped SwiftFile through UdpTransport:
//
//   * bulk write + read-back with timing and protocol statistics;
//   * a run with 15% injected packet loss in both directions, showing the
//     retransmission machinery converging to byte-exact data;
//   * a mid-session agent kill with parity recovery over the wire.
//
//   ./examples/udp_demo

#include <chrono>
#include <cstdio>
#include <memory>
#include <vector>

#include "src/agent/backing_store.h"
#include "src/agent/storage_agent.h"
#include "src/agent/udp_agent_server.h"
#include "src/agent/udp_transport.h"
#include "src/core/object_directory.h"
#include "src/core/swift_file.h"
#include "src/util/logging.h"
#include "src/util/rng.h"
#include "src/util/units.h"

namespace {

using namespace swift;

struct Agent {
  explicit Agent(double loss, uint64_t seed) : core(&store), server(&core, {0, loss, seed}) {
    Status status = server.Start();
    if (!status.ok()) {
      std::fprintf(stderr, "agent failed to start: %s\n", status.ToString().c_str());
      std::exit(1);
    }
  }
  InMemoryBackingStore store;
  StorageAgentCore core;
  UdpAgentServer server;
};

double MBps(uint64_t bytes, std::chrono::steady_clock::duration d) {
  return static_cast<double>(bytes) / std::chrono::duration<double>(d).count() / 1e6;
}

bool RunScenario(const char* title, double loss) {
  std::printf("--- %s ---\n", title);
  std::vector<std::unique_ptr<Agent>> agents;
  std::vector<std::unique_ptr<UdpTransport>> transports;
  for (int i = 0; i < 3; ++i) {
    agents.push_back(std::make_unique<Agent>(loss, 100 + i));
    UdpTransport::Options options;
    options.loss_probability = loss;
    options.loss_seed = 200 + i;
    options.max_retries = loss > 0 ? 12 : 5;
    transports.push_back(std::make_unique<UdpTransport>(agents[i]->server.port(), options));
    std::printf("agent %d on udp port %u\n", i, agents[i]->server.port());
  }

  TransferPlan plan;
  plan.object_name = "wire-object";
  plan.stripe = {.num_agents = 3, .stripe_unit = KiB(64), .parity = ParityMode::kRotating};
  plan.agent_ids = {0, 1, 2};
  std::vector<AgentTransport*> raw;
  for (auto& t : transports) {
    raw.push_back(t.get());
  }
  ObjectDirectory directory;
  auto file = SwiftFile::Create(plan, raw, &directory);
  if (!file.ok()) {
    std::fprintf(stderr, "create failed: %s\n", file.status().ToString().c_str());
    return false;
  }

  std::vector<uint8_t> data(MiB(2));
  Rng rng(7);
  for (auto& b : data) {
    b = static_cast<uint8_t>(rng.UniformInt(0, 255));
  }

  auto t0 = std::chrono::steady_clock::now();
  if (!(*file)->PWrite(0, data).ok()) {
    std::fprintf(stderr, "write failed\n");
    return false;
  }
  auto t1 = std::chrono::steady_clock::now();
  std::vector<uint8_t> read_back(data.size());
  if (!(*file)->PRead(0, read_back).ok()) {
    std::fprintf(stderr, "read failed\n");
    return false;
  }
  auto t2 = std::chrono::steady_clock::now();

  uint64_t sent = 0;
  uint64_t retransmitted = 0;
  for (auto& t : transports) {
    sent += t->datagrams_sent();
    retransmitted += t->retransmissions();
  }
  std::printf("wrote %s at %.0f MB/s, read at %.0f MB/s — %s\n",
              FormatBytes(data.size()).c_str(), MBps(data.size(), t1 - t0),
              MBps(data.size(), t2 - t1), read_back == data ? "byte-exact" : "MISMATCH");
  std::printf("datagrams sent %llu, retransmissions %llu (%.1f%%)\n",
              static_cast<unsigned long long>(sent),
              static_cast<unsigned long long>(retransmitted),
              sent > 0 ? 100.0 * static_cast<double>(retransmitted) / static_cast<double>(sent)
                       : 0.0);
  bool ok = read_back == data;

  if (loss == 0) {
    // Kill agent 1 and read through parity, over real sockets.
    std::printf("killing agent 1 mid-session...\n");
    agents[1]->server.Stop();
    std::fill(read_back.begin(), read_back.end(), 0);
    auto survived = (*file)->PRead(0, read_back);
    std::printf("post-crash read: %s, %s (degraded=%s)\n",
                survived.ok() ? "OK" : survived.status().ToString().c_str(),
                read_back == data ? "byte-exact via parity" : "MISMATCH",
                (*file)->degraded() ? "yes" : "no");
    ok = ok && survived.ok() && read_back == data;
  }
  std::printf("\n");
  return ok;
}

}  // namespace

int main() {
  swift::SetMinLogLevel(swift::LogLevel::kWarning);  // quiet per-agent listen lines
  bool ok = RunScenario("clean loopback network", 0.0);
  ok = RunScenario("15% packet loss in both directions", 0.15) && ok;
  std::printf("%s\n", ok ? "all scenarios byte-exact." : "FAILURES above.");
  return ok ? 0 : 1;
}
