// The real-socket storage agent: the paper's §3.1 server, except that an
// open file gets an entry in a shard's session table instead of a private
// port and a thread of its own: the shards already split protocol work
// across cores by connection, so a thread per file adds only threads
// (DESIGN.md §13).
//
// The well-known port is served by `Options::shards` SO_REUSEPORT sockets,
// one loop thread each, and a shard's loop serves every datagram it gets.
// The shard that accepts an OPEN holds the session and names the well-known
// port as OPEN_REPLY's data_port. The client sends a session's datagrams
// from one socket, so the kernel's 4-tuple hash keeps them on that shard; a
// datagram naming a handle the shard does not hold is dropped as if lost.
// Loops move datagrams in recvmmsg/sendmmsg batches (Options::socket_batch;
// 1 = the per-datagram baseline). The session protocol is the paper's:
//
//   * READ_REQ → one DATA packet per request; "the storage agents fulfilled
//     the packet requests as soon as they were received". No agent-side read
//     state: the client re-requests lost packets.
//   * WRITE_REQ (announce) sets up reassembly for a burst of WRITE_DATA
//     packets; on completion the agent writes to its backing store and sends
//     WRITE_ACK. WRITE_REQ (query) answers WRITE_ACK if complete, else
//     WRITE_NACK listing the missing packets — "each storage agent checks
//     the packets it receives against the packets it was expecting and
//     either acknowledges receipt of all packets or sends requests for
//     packets lost."
//   * CLOSE → CLOSE_ACK; the handle and its table entry are released.

#ifndef SWIFT_SRC_AGENT_UDP_AGENT_SERVER_H_
#define SWIFT_SRC_AGENT_UDP_AGENT_SERVER_H_

#include <atomic>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "src/agent/storage_agent.h"
#include "src/agent/udp_socket.h"
#include "src/proto/message.h"

namespace swift {

class Counter;

class UdpAgentServer {
 public:
  struct Options {
    // 0 = kernel-assigned (tests); kDefaultAgentPort for a deployment.
    uint16_t port = 0;
    // Outgoing loss injection for recovery tests.
    double loss_probability = 0;
    uint64_t loss_seed = 1;
    // Fault-injection director installed on every shard socket, so it sees
    // control and data traffic alike (see src/agent/chaos.h). Nullptr = no
    // chaos.
    std::shared_ptr<ChaosDirector> chaos;
    // SO_REUSEPORT listener sockets on the well-known port, one loop thread
    // (and receive arena, session table, metric shard) each. 1 = a single
    // thread serves the whole agent. If the platform cannot deliver the full
    // count, the server degrades to however many sockets it could bind.
    uint32_t shards = 1;
    // Datagrams moved per socket syscall in the shard loops
    // (recvmmsg/sendmmsg). 1 = the per-datagram baseline.
    uint32_t socket_batch = 16;
  };

  // Serves `core` (not owned) until Stop()/destruction.
  UdpAgentServer(StorageAgentCore* core, Options options);
  ~UdpAgentServer();

  // Binds the well-known port (all shards) and starts the loop threads.
  Status Start();
  // Stops all threads and closes all ports. Idempotent.
  void Stop();

  uint16_t port() const { return port_; }
  // Open handles across all shards.
  size_t active_session_count() const;

  // Datagrams (control and data) handled per shard since Start() — the
  // SO_REUSEPORT distribution, for tests and tooling. Index = shard.
  std::vector<uint64_t> shard_datagram_counts() const;
  size_t shard_count() const { return shards_.size(); }

 private:
  // One open handle's write reassembly and span aggregation (defined in the
  // .cc). Lives in the session table of the shard that opened it.
  struct Session;
  using SessionTable = std::map<uint32_t, Session>;  // keyed by handle
  // (handle, request id) of each traced request a receive batch served.
  using TouchedList = std::vector<std::pair<uint32_t, uint32_t>>;

  // One SO_REUSEPORT listener: socket + loop thread + its slice of the
  // metrics. Its session table is a local of its loop, so no other thread
  // can reach it.
  struct Shard {
    uint32_t index = 0;
    UdpSocket socket;
    std::thread thread;
    std::atomic<uint64_t> datagrams{0};
    std::atomic<size_t> sessions{0};        // entries in the loop's session table
    Counter* registry_datagrams = nullptr;  // swift_agent_shard<i>_datagrams_total
  };

  void ShardLoop(Shard* shard);
  void HandleControl(Shard* shard, SessionTable& sessions, const Message& request,
                     const UdpEndpoint& client, std::vector<OutgoingDatagram>& replies);
  // Serves one data-path request on `session`; true once it was a CLOSE.
  bool HandleSessionRequest(Session& session, const Message& m,
                            const UdpSocket::ReceivedDatagram& datagram, uint32_t shard_tag,
                            std::vector<OutgoingDatagram>& replies, TouchedList& touched);

  StorageAgentCore* core_;
  Options options_;
  uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace swift

#endif  // SWIFT_SRC_AGENT_UDP_AGENT_SERVER_H_
