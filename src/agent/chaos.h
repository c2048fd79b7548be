// Deterministic network-fault injection for UDP sockets.
//
// A ChaosDirector turns a scriptable spec into per-datagram verdicts so
// tests and the tail bench can rehearse gray failures — one-way blackholes,
// asymmetric partitions, delay spikes, reordering, duplication — without a
// real broken network and with a seeded RNG, so every run sees the same
// fault schedule. Sockets consult the director via UdpSocket::SetChaos:
// outgoing datagrams can be dropped; incoming ones dropped, delayed (held in
// the socket and delivered when their release time passes, which also
// reorders them past later arrivals), or duplicated.
//
// Spec grammar: semicolon-separated rules of
//
//   <start_ms>-<end_ms>:<kind>:<peer_port|*>[:<param>]
//
// where the window is measured from the director's construction and `kind`
// is one of
//
//   blackhole-out  drop every datagram sent to the peer
//   blackhole-in   drop every datagram received from the peer
//   partition      both directions at once
//   delay          hold received datagrams for <param> ms (delay spike)
//   reorder        hold received datagrams for uniform [0, <param>] ms
//   dup            deliver received datagrams twice with probability <param>
//   loss           drop sent datagrams with probability <param>
//
// e.g. "0-3000:partition:7001;5000-8000:delay:7002:50;0-60000:loss:*:0.01".
// A rule's peer matches the remote endpoint's port; '*' matches any peer.
// Agents serve sessions on their well-known port, so on a client a rule that
// names an agent's port matches that agent's data traffic as well as its
// OPENs.
// Directions are as seen from the socket holding the director, so the same
// spec string installed only on one node produces asymmetric faults.

#ifndef SWIFT_SRC_AGENT_CHAOS_H_
#define SWIFT_SRC_AGENT_CHAOS_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/util/rng.h"
#include "src/util/status.h"

namespace swift {

class ChaosDirector {
 public:
  enum class Action { kDeliver, kDrop, kDelay, kDuplicate };
  struct Verdict {
    Action action = Action::kDeliver;
    uint32_t delay_ms = 0;  // meaningful for kDelay
  };

  // Parses `spec` (grammar above). The elapsed-ms windows start at the
  // moment of construction; `seed` fixes every probabilistic rule's RNG.
  static Result<std::shared_ptr<ChaosDirector>> Parse(const std::string& spec, uint64_t seed);

  // Verdict for one datagram leaving for `peer_port` / arriving from it.
  // Send-side chaos is drop-only (kDeliver or kDrop); the richer verdicts
  // are produced on the receive side, where the socket can hold datagrams.
  Verdict OnSend(uint16_t peer_port);
  Verdict OnRecv(uint16_t peer_port);

  // Milliseconds since construction — the clock the rule windows run on.
  uint64_t ElapsedMs() const;

 private:
  enum class Kind {
    kBlackholeOut,
    kBlackholeIn,
    kPartition,
    kDelay,
    kReorder,
    kDup,
    kLoss,
  };
  struct Rule {
    uint64_t start_ms = 0;
    uint64_t end_ms = 0;
    Kind kind = Kind::kPartition;
    uint16_t port = 0;  // 0 = any peer
    double param = 0;   // ms for delay/reorder, probability for dup/loss
  };

  explicit ChaosDirector(std::vector<Rule> rules, uint64_t seed);

  std::chrono::steady_clock::time_point epoch_;
  std::vector<Rule> rules_;  // immutable after construction
  std::mutex rng_mutex_;     // sockets on several threads share one director
  Rng rng_;
};

}  // namespace swift

#endif  // SWIFT_SRC_AGENT_CHAOS_H_
