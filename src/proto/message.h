// Wire format of the Swift light-weight data transfer protocol.
//
// The prototype's protocol (§3.1) runs over UDP. Each storage agent listens
// for OPEN requests on a well-known port; OPEN_REPLY names the data_port for
// the rest of the session. §3.1 gave each open file a private port and
// thread; this agent names its well-known port and serves the session on the
// shard that accepted the OPEN (udp_agent_server.h). Reads are client-driven
// (the client requests packets and keeps enough state to re-request lost
// ones — no acknowledgements needed); writes are streamed by the client and
// the agent either ACKs all packets or NACKs the missing ones.
//
// Every message starts with a fixed header:
//
//   magic     u16   0x5357 ("SW")
//   version   u8    protocol version (1)
//   type      u8    MessageType
//   handle    u32   agent-local file handle (0 for OPEN)
//   request   u32   request id, scopes seq/total
//   seq       u16   packet index within the request
//   total     u16   packet count of the request
//   offset    u64   agent-local byte offset of this packet's payload
//   length    u32   payload byte count
//   crc       u32   CRC-32 of the payload
//
// followed by type-specific fields and the payload. Integers are big-endian.
//
// Header extension (distributed tracing + congestion timestamps): when bit 7
// of the version byte is set, a self-describing extension block follows the
// fixed header (before the type-specific fields):
//
//   ext_len       u16   byte count of the extension body (16, 32, or 40)
//   trace_id      u64   causal trace identity (0 = untraced timestamp-only)
//   parent_span   u32   sender's span id (the receiver's parent)
//   flags         u32   bit 0 = sampled
//   -- present only when ext_len >= 32 (timestamp echo, DESIGN.md §15) --
//   tx_ts_us      u64   sender's send time, sender's microsecond clock
//   echo_ts_us    u64   on replies: the request's tx_ts_us echoed back
//   -- present only when ext_len >= 40 (deadline budget, DESIGN.md §16) --
//   deadline_us   u64   remaining per-op budget, microseconds (0 = none).
//                       Relative, not absolute: clocks are never compared
//                       across nodes — the receiver measures elapsed time
//                       from its own kernel receive stamp and sheds work
//                       once the budget is spent.
//
// Messages without a trace context or timestamps are encoded without the
// extension and are byte-identical to the pre-trace wire format; a traced
// but un-timestamped message keeps the 16-byte body of PR 7. Decoders skip
// extension bytes beyond what they understand (PR-6 peers skip the whole
// block, PR-7 peers skip the 16 timestamp bytes, PR-8 peers skip the 8
// deadline bytes), so the block grows compatibly in both directions. A
// timestamp-only extension carries trace_id 0, which decodes as "no trace"
// exactly like an absent block; a deadline-bearing extension always carries
// the timestamp bytes (zeros when unmeasured) so tx_ts_us stays at the fixed
// kTxTimestampHeaderOffset.

#ifndef SWIFT_SRC_PROTO_MESSAGE_H_
#define SWIFT_SRC_PROTO_MESSAGE_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/util/buffer.h"
#include "src/util/status.h"
#include "src/util/trace.h"

namespace swift {

// Largest UDP payload the prototype ships per datagram. 8 KiB datagrams let
// the kernel scatter-gather straight into user buffers while staying under
// the SunOS socket-buffer limits that §3.1 describes.
inline constexpr uint32_t kMaxPacketPayload = 8192;

// Byte offset of tx_ts_us inside an encoded header that carries the
// timestamp extension: fixed header (32) + ext_len (2) + trace context (16).
// The transport overwrites these 8 big-endian bytes at flush time so paced
// or re-queued datagrams carry their true send instant, not their encode
// instant. Encode reserves the bytes whenever has_timestamps().
inline constexpr size_t kTxTimestampHeaderOffset = 32 + 2 + 16;

// Byte offset of deadline_us inside an encoded header that carries the
// deadline extension: the 8 bytes after tx_ts_us + echo_ts_us. Like the tx
// timestamp, the transport overwrites these at flush time so a paced or
// re-queued datagram carries the budget remaining at its true send instant.
// Encode reserves the bytes whenever has_deadline().
inline constexpr size_t kDeadlineHeaderOffset = kTxTimestampHeaderOffset + 16;

// Well-known agent port for OPEN requests (real-socket stack).
inline constexpr uint16_t kDefaultAgentPort = 4751;

// Well-known storage-mediator port for the session control plane.
inline constexpr uint16_t kDefaultMediatorPort = 4750;

enum class MessageType : uint8_t {
  kOpen = 1,        // client → agent (well-known port): open/create a store file
  kOpenReply = 2,   // agent → client: status, handle, data_port, size
  kReadReq = 3,     // client → agent: request packets of [offset, offset+len)
  kData = 4,        // agent → client: one packet of read data
  kWriteData = 5,   // client → agent: one packet of write data
  kWriteAck = 6,    // agent → client: all packets of request received & stored
  kWriteNack = 7,   // agent → client: list of missing seqs, please resend
  kClose = 8,       // client → agent: release the handle and its session
  kCloseAck = 9,    // agent → client
  kStat = 10,       // client → agent: query stored size
  kStatReply = 11,  // agent → client
  kTruncate = 12,   // client → agent: set stored size
  kTruncateAck = 13,
  kError = 14,      // agent → client: request failed (status_code set)
  kWriteReq = 15,   // client → agent: announces/queries a write request.
                    //   window=0: announce (offset/read_length/total describe
                    //             the incoming WRITE_DATA burst; no reply)
                    //   window=1: query (agent replies kWriteAck if complete,
                    //             else kWriteNack with the missing seqs)
  kRemove = 16,     // client → agent (well-known port): delete a store file
  kRemoveAck = 17,  // agent → client
  kStats = 18,      // client → agent (well-known port): pull a metrics snapshot
  kStatsReply = 19, // agent → client: payload carries the rendered registry text

  // --- mediator control plane (all speak to the mediator's well-known port;
  // `handle` carries the mediator-assigned agent id where noted) ---
  kRegisterAgent = 20,    // agent → mediator: capacity (rate/storage), data_port
  kRegisterAgentAck = 21, // mediator → agent: status; handle = assigned agent id
  kHeartbeat = 22,        // agent → mediator: handle = agent id, rate = live load
  kHeartbeatAck = 23,     // mediator → agent: status (NOT_FOUND ⇒ re-register)
  kOpenSession = 24,      // client → mediator: payload = serialized SessionRequest
  kSessionPlan = 25,      // mediator → client: status; payload = SessionGrant
  kCloseSession = 26,     // client → mediator: size = session id
  kCloseSessionAck = 27,  // mediator → client: status (double close is OK)
  kReportFailure = 28,    // client → mediator: size = session id; data_port =
                          //   failed agent's port (0 ⇒ handle = failed agent id)
  kRevisedPlan = 29,      // mediator → client: status; payload = repaired grant
  kRenewLease = 30,       // client → mediator: size = session id
  kRenewLeaseAck = 31,    // mediator → client: status; size = remaining lease ms
  kListSessions = 32,     // client → mediator
  kSessionList = 33,      // mediator → client: payload = one text line per session

  // --- integrity scrub (well-known agent port, object-scoped like REMOVE) ---
  kScrub = 34,            // client → agent: verify object_name's at-rest checksums
  kScrubReply = 35,       // agent → client: status; size = blocks checked; payload
                          //   = (u64 offset, u64 length) per corrupt range, plus a
                          //   trailing truncation flag (see docs/PROTOCOL.md)

  // --- distributed tracing (well-known agent/mediator port) ---
  kTrace = 36,            // client → node: pull recent spans; size = trace id
                          //   filter (0 = all recent spans)
  kTraceReply = 37,       // node → client: status; payload = serialized span
                          //   stream, packetized across seq/total datagrams
};

const char* MessageTypeName(MessageType type);

// Open flags.
inline constexpr uint32_t kOpenCreate = 1u << 0;   // create if missing
inline constexpr uint32_t kOpenTruncate = 1u << 1; // start empty

struct Message {
  MessageType type = MessageType::kError;
  uint32_t handle = 0;
  uint32_t request_id = 0;
  uint16_t seq = 0;
  uint16_t total = 1;
  uint64_t offset = 0;

  // Type-specific fields (unused ones stay zero/empty).
  std::string object_name;            // kOpen
  uint32_t open_flags = 0;            // kOpen
  uint16_t data_port = 0;             // kOpenReply: port for the session's I/O
  uint64_t size = 0;                  // kOpenReply/kStatReply/kTruncate: object size
  uint32_t status_code = 0;           // kOpenReply/kError: 0 = OK, else StatusCode
  std::vector<uint16_t> missing_seqs; // kWriteNack
  uint32_t read_length = 0;           // kReadReq/kWriteReq: bytes in the request
  uint16_t window = 0;                // kReadReq: packets in flight; kWriteReq: announce/query
  double rate = 0;                    // kRegisterAgent: capacity (bytes/s);
                                      // kHeartbeat: current load (IEEE-754 bits on the wire)

  // Distributed-tracing context; carried as a flagged header extension when
  // trace.present() (see file comment). Absent contexts leave the wire
  // byte-identical to the pre-trace format.
  TraceContext trace;

  // Timestamp echo for delay-based congestion control (DESIGN.md §15),
  // carried in the same header extension when nonzero. tx_ts_us is the
  // sender's send time on its own microsecond clock (the transport patches
  // it at flush so paced datagrams carry honest times); replies echo the
  // request's tx_ts_us back as echo_ts_us so the client measures RTT on its
  // own clock and one-way delay against the server's.
  uint64_t tx_ts_us = 0;
  uint64_t echo_ts_us = 0;

  bool has_timestamps() const { return tx_ts_us != 0 || echo_ts_us != 0; }

  // Remaining per-op deadline budget in microseconds (0 = no deadline).
  // Carried in the header extension when nonzero; the server sheds work
  // whose budget expired while it was queued (replying kError with
  // StatusCode::kOverloaded), and the client stops retrying past it.
  uint64_t deadline_us = 0;

  bool has_deadline() const { return deadline_us != 0; }

  BufferSlice payload;                // kData/kWriteData; shared view, never copied

  // A message serialized as two pieces so the socket layer can hand the
  // kernel an iovec pair (header bytes + the payload slice) and never
  // flatten the payload into a fresh datagram buffer.
  struct Encoded {
    std::vector<uint8_t> header;  // fixed header + type-specific fields
    BufferSlice payload;          // aliases the message's payload block
    size_t size() const { return header.size() + payload.size(); }
  };

  // Serializes header + fields (payload CRC is computed here); the payload
  // rides along as a slice for scatter-gather send. No payload bytes move.
  Encoded EncodeParts() const;

  // Serializes to one contiguous datagram, pre-sized exactly to
  // header + payload (no vector regrowth). Flattening copies the payload
  // (counted); prefer EncodeParts + UdpSocket::SendTo(head, payload).
  std::vector<uint8_t> Encode() const;

  // Parses a datagram. Fails on bad magic/version/truncation/CRC mismatch;
  // a CRC failure is reported as kDataLoss so callers can treat the packet
  // as lost. The returned message's payload *aliases* `datagram` — the
  // datagram block stays alive for as long as the payload slice does.
  static Result<Message> Decode(const BufferSlice& datagram);

  // Convenience for callers holding plain bytes (tests, captured vectors):
  // copies the datagram once (counted) and decodes the copy.
  static Result<Message> Decode(std::span<const uint8_t> datagram);
};

}  // namespace swift

#endif  // SWIFT_SRC_PROTO_MESSAGE_H_
