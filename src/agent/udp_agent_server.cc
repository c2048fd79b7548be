#include "src/agent/udp_agent_server.h"

#include <algorithm>
#include <chrono>
#include <string>

#include "src/proto/packetizer.h"
#include "src/util/logging.h"
#include "src/util/metrics.h"
#include "src/util/trace.h"
#include "src/util/wire_buffer.h"

namespace swift {

namespace {

// Shard loops poll with a short timeout so Stop() is prompt even if the
// wake datagram races, and so an idle shard ships its pending spans.
constexpr int kPollMs = 200;

// Span-aggregation entries a session may hold before the ones a receive
// batch did not touch are shipped early.
constexpr size_t kMaxSessionTraces = 32;

// A reply of `type` to `request`: same handle, same request id.
Message ReplyTo(const Message& request, MessageType type) {
  Message reply;
  reply.type = type;
  reply.handle = request.handle;
  reply.request_id = request.request_id;
  return reply;
}

Message ErrorReply(const Message& request, const Status& status) {
  Message reply = ReplyTo(request, MessageType::kError);
  reply.status_code = static_cast<uint32_t>(status.code());
  return reply;
}

// Requests that name an open handle; everything else the agent serves
// (OPEN, STATS, TRACE, REMOVE, SCRUB) is object- or agent-scoped.
bool IsSessionRequest(MessageType type) {
  switch (type) {
    case MessageType::kReadReq:
    case MessageType::kWriteReq:
    case MessageType::kWriteData:
    case MessageType::kStat:
    case MessageType::kTruncate:
    case MessageType::kClose:
      return true;
    default:
      return false;
  }
}

// Wire-level registry metrics shared by every agent server in the process.
struct ServerMetrics {
  Counter* datagrams_in;
  Counter* datagrams_out;
  Counter* nacks_sent;
  Counter* stats_requests;
  Counter* trace_requests;
  Counter* overload_sheds;
  HistogramMetric* read_service_us;
  HistogramMetric* write_service_us;
};

const ServerMetrics& Metrics() {
  static const ServerMetrics metrics = [] {
    MetricRegistry& registry = MetricRegistry::Global();
    return ServerMetrics{
        registry.GetCounter("swift_agent_datagrams_in_total"),
        registry.GetCounter("swift_agent_datagrams_out_total"),
        registry.GetCounter("swift_agent_nacks_sent_total"),
        registry.GetCounter("swift_agent_stats_requests_total"),
        registry.GetCounter("swift_agent_trace_requests_total"),
        registry.GetCounter("swift_agent_overload_shed_total"),
        registry.GetHistogram("swift_agent_read_service_us"),
        registry.GetHistogram("swift_agent_write_service_us"),
    };
  }();
  return metrics;
}

// True when the request's deadline budget (a RELATIVE µs value — clocks are
// never compared across nodes) expired while the datagram sat in kernel
// socket buffers or the receive batch. The client has already written this
// attempt off, so serving it is pure waste ahead of fresher work: the server
// sheds it with kOverloaded, which the client treats as backpressure (jitter
// retry, no congestion-window decrease). recv_ns is the kernel-drain stamp
// on the FlightRecorder clock; 0 (untracked) never sheds.
bool BudgetExpired(const Message& m, uint64_t recv_ns) {
  if (m.deadline_us == 0 || recv_ns == 0) {
    return false;
  }
  const uint64_t now_ns = FlightRecorder::NowNs();
  return now_ns > recv_ns && (now_ns - recv_ns) / 1000 > m.deadline_us;
}

double ElapsedUs(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration_cast<std::chrono::duration<double, std::micro>>(
             std::chrono::steady_clock::now() - since)
      .count();
}

// Starts a server-side span as the child of the context a request carried.
// `shard_tag` is 1-based (0 = unsharded) so merged dumps attribute shard 0's
// work distinguishably from untagged threads.
Span NewServerSpan(const Message& m, uint32_t shard_tag, uint64_t recv_ns) {
  Span span;
  span.trace_id = m.trace.trace_id;
  span.parent_span_id = m.trace.parent_span_id;
  span.span_id = NextSpanId();
  span.node = TraceNodeId();
  span.shard = shard_tag;
  span.request_id = m.request_id;
  span.op = static_cast<uint8_t>(m.type);
  span.sampled = m.trace.sampled();
  span.start_ns = recv_ns != 0 ? recv_ns : FlightRecorder::NowNs();
  return span;
}

// Encodes `message` for `to` and appends it to the reply queue; the caller
// flushes the queue with one SendBatch per drained receive batch.
// `echo_ts_us` is the request's tx timestamp: when nonzero the reply carries
// the timestamp-echo extension (DESIGN.md §15) — the client's stamp
// reflected for RTT, plus this server's own send instant for one-way delay.
void QueueReply(std::vector<OutgoingDatagram>& replies, const UdpEndpoint& to, Message message,
                uint64_t echo_ts_us) {
  if (echo_ts_us != 0) {
    message.echo_ts_us = echo_ts_us;
    message.tx_ts_us = std::max<uint64_t>(1, FlightRecorder::NowNs() / 1000);
  }
  Metrics().datagrams_out->Increment();
  if (message.type == MessageType::kWriteNack) {
    Metrics().nacks_sent->Increment();
  }
  // Header + payload stay two separate pieces: a DATA reply's payload goes
  // from the block-cache slice into sendmmsg(2)'s iovec without ever being
  // flattened.
  Message::Encoded parts = message.EncodeParts();
  replies.push_back(OutgoingDatagram{to, std::move(parts.header), std::move(parts.payload)});
}

// Flushes the reply queue in chunks of `batch_limit` datagrams, so batch=1
// stays an honest per-datagram baseline (one syscall per reply). Send errors
// are absorbed as wire loss in the socket layer; clients retransmit.
void FlushReplies(UdpSocket& socket, const std::vector<OutgoingDatagram>& replies,
                  size_t batch_limit) {
  const std::span<const OutgoingDatagram> all(replies);
  for (size_t off = 0; off < all.size(); off += batch_limit) {
    (void)socket.SendBatch(all.subspan(off, std::min(batch_limit, all.size() - off)));
  }
}

// An in-progress write request: reassembly of its WRITE_DATA burst.
struct PendingWrite {
  std::unique_ptr<Reassembler> reassembler;
  uint64_t offset = 0;
  bool committed = false;
};

// A client op (one request id) arrives as many datagrams spread across
// receive batches; its server-side story is aggregated here and submitted as
// ONE span — per-stage sums, not one span per datagram. Timestamps inside
// the span are recorded live, so late submission costs nothing.
struct RequestTrace {
  Span span;
  uint64_t recv_wait_ns = 0;      // sum: kernel receive → processing start
  uint64_t service_start_ns = 0;  // first handler start
  uint64_t service_ns = 0;        // sum of handler time minus store time
  uint64_t store_start_ns = 0;    // first backing-store call start
  uint64_t store_ns = 0;          // sum of backing-store call time
  uint64_t reply_start_ns = 0;    // first reply-flush start
  uint64_t reply_ns = 0;          // sum of reply-flush time

  void Submit() {
    if (recv_wait_ns != 0) {
      span.events.push_back({SpanStage::kRecvBatch, span.start_ns, recv_wait_ns, 0});
    }
    if (service_ns != 0) {
      span.events.push_back({SpanStage::kService, service_start_ns, service_ns, 0});
    }
    if (store_ns != 0) {
      span.events.push_back({SpanStage::kStore, store_start_ns, store_ns, 0});
    }
    if (reply_ns != 0) {
      span.events.push_back({SpanStage::kReply, reply_start_ns, reply_ns, 0});
    }
    SpanStore::Global().Submit(std::move(span));
  }
};

}  // namespace

// State is keyed per handle, never per request id alone: every client
// transport numbers its requests from 1, so two clients on one shard reuse
// the same ids.
struct UdpAgentServer::Session {
  UdpEndpoint opener;            // who sent the OPEN, and
  uint32_t open_request_id = 0;  // its request id: recognizes a retransmit
  std::map<uint32_t, PendingWrite> writes;  // keyed by request id
  std::map<uint32_t, RequestTrace> traces;  // keyed by request id

  // Ships every pending span: on idle, on CLOSE, and at shutdown.
  void SubmitTraces() {
    for (auto& [id, trace] : traces) {
      trace.Submit();
    }
    traces.clear();
  }

  // After a receive batch: charges the batch's reply flush (if it sent any)
  // to traced request `request_id` — the intervals of concurrent requests
  // overlap, which the timeline's union-based attribution handles — then
  // bounds the span map the way `writes` is bounded: past the limit, ship
  // every request the batch did not touch.
  void EndBatch(uint32_t handle, uint32_t request_id, uint64_t flush_begin_ns,
                uint64_t flush_end_ns, const TouchedList& touched) {
    auto it = traces.find(request_id);
    if (it != traces.end() && flush_end_ns != 0) {
      it->second.reply_ns += flush_end_ns - flush_begin_ns;
      if (it->second.reply_start_ns == 0) {
        it->second.reply_start_ns = flush_begin_ns;
      }
      it->second.span.end_ns = flush_end_ns;
    }
    if (traces.size() <= kMaxSessionTraces) {
      return;
    }
    for (auto entry = traces.begin(); entry != traces.end();) {
      if (std::find(touched.begin(), touched.end(), std::pair(handle, entry->first)) !=
          touched.end()) {
        ++entry;
      } else {
        entry->second.Submit();
        entry = traces.erase(entry);
      }
    }
  }
};

UdpAgentServer::UdpAgentServer(StorageAgentCore* core, Options options)
    : core_(core), options_(options) {}

UdpAgentServer::~UdpAgentServer() { Stop(); }

Status UdpAgentServer::Start() {
  const uint32_t wanted = std::max<uint32_t>(1, options_.shards);
  auto first = std::make_unique<Shard>();
  first->index = 0;
  // SO_REUSEPORT must be set on the very first bind too, or later shards
  // cannot join the port.
  SWIFT_RETURN_IF_ERROR(first->socket.BindLoopback(options_.port, /*reuseport=*/wanted > 1));
  port_ = first->socket.local_port();
  shards_.push_back(std::move(first));
  for (uint32_t i = 1; i < wanted; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->index = i;
    Status bound = shard->socket.BindLoopback(port_, /*reuseport=*/true);
    if (!bound.ok()) {
      // Platform can't deliver the full shard count (no SO_REUSEPORT, fd
      // limits): degrade to what bound rather than failing the server.
      SWIFT_LOG(WARNING) << "shard " << i << " bind failed (" << bound.message()
                      << "); running with " << shards_.size() << " shard(s)";
      break;
    }
    shards_.push_back(std::move(shard));
  }
  MetricRegistry& registry = MetricRegistry::Global();
  for (auto& shard : shards_) {
    shard->registry_datagrams = registry.GetCounter(
        "swift_agent_shard" + std::to_string(shard->index) + "_datagrams_total");
    if (options_.loss_probability > 0) {
      // Decorrelate the shards' drop patterns.
      shard->socket.SetLossProbability(options_.loss_probability,
                                       options_.loss_seed + shard->index * 1000003ULL);
    }
    shard->socket.SetChaos(options_.chaos);
  }
  running_.store(true, std::memory_order_release);
  for (auto& shard : shards_) {
    Shard* raw = shard.get();
    shard->thread = std::thread([this, raw] { ShardLoop(raw); });
  }
  SWIFT_LOG(INFO) << "storage agent listening on udp port " << port_ << " with "
                  << shards_.size() << " shard(s)";
  return OkStatus();
}

void UdpAgentServer::Stop() {
  if (!running_.exchange(false)) {
    return;
  }
  for (auto& shard : shards_) {
    shard->socket.Shutdown();
  }
  for (auto& shard : shards_) {
    if (shard->thread.joinable()) {
      shard->thread.join();
    }
  }
}

size_t UdpAgentServer::active_session_count() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->sessions.load(std::memory_order_relaxed);
  }
  return total;
}

std::vector<uint64_t> UdpAgentServer::shard_datagram_counts() const {
  std::vector<uint64_t> counts;
  counts.reserve(shards_.size());
  for (const auto& shard : shards_) {
    counts.push_back(shard->datagrams.load(std::memory_order_relaxed));
  }
  return counts;
}

void UdpAgentServer::ShardLoop(Shard* shard) {
  const uint32_t shard_tag = shard->index + 1;  // 1-based: 0 means "unsharded"
  SetThreadTraceShard(shard_tag);
  const size_t batch_limit = std::max<uint32_t>(1, options_.socket_batch);
  SessionTable sessions;  // only this thread touches it: no lock
  std::vector<UdpSocket::ReceivedDatagram> batch;
  std::vector<OutgoingDatagram> replies;
  TouchedList touched;
  auto submit_all_traces = [&] {
    for (auto& [handle, session] : sessions) {
      session.SubmitTraces();
    }
  };
  while (running_.load(std::memory_order_acquire)) {
    auto received = shard->socket.RecvBatch(kPollMs, batch_limit, batch);
    if (!received.ok()) {
      if (received.code() == StatusCode::kTimedOut) {
        // Idle: every in-flight request has gone quiet for a poll interval;
        // ship the aggregated spans so collectors see them promptly.
        submit_all_traces();
        continue;
      }
      break;  // socket shut down
    }
    replies.clear();
    touched.clear();
    for (const auto& datagram : batch) {
      if (datagram.truncated) {
        continue;  // kernel cut it: garbage, behave as if lost
      }
      auto message = Message::Decode(datagram.data);
      if (!message.ok()) {
        continue;  // corrupted or stray datagram: behave as if lost
      }
      Metrics().datagrams_in->Increment();
      shard->datagrams.fetch_add(1, std::memory_order_relaxed);
      shard->registry_datagrams->Increment();
      const Message& m = *message;
      Session* session = nullptr;
      if (IsSessionRequest(m.type)) {
        auto it = sessions.find(m.handle);
        if (it == sessions.end()) {
          // Not open on this shard (closed, never opened, or opened through
          // another shard): dropped as if lost, as a closed port would.
          continue;
        }
        session = &it->second;
      }
      // Shed expired queued work before any service or trace accounting.
      // CLOSE is exempt (releasing the handle must always go through), and
      // an expired WRITE_DATA packet is dropped silently — the write op's
      // query/NACK cycle resynchronizes, and one kOverloaded on the query
      // beats a reply storm mirroring the whole burst.
      if (m.type != MessageType::kClose && BudgetExpired(m, datagram.recv_ns)) {
        Metrics().overload_sheds->Increment();
        if (m.type != MessageType::kWriteData) {
          QueueReply(replies, datagram.from,
                     ErrorReply(m, OverloadedError("deadline expired in queue")), m.tx_ts_us);
        }
        continue;
      }
      if (session != nullptr) {
        if (HandleSessionRequest(*session, m, datagram, shard_tag, replies, touched)) {
          session->SubmitTraces();
          sessions.erase(m.handle);
          shard->sessions.fetch_sub(1, std::memory_order_relaxed);
        }
        continue;
      }
      // Control requests are single datagrams; a traced one gets a
      // self-contained span (recv-batch wait + handler time) right here.
      const bool traced = m.trace.sampled() && GetTraceMode() != TraceMode::kOff;
      const uint64_t proc_ns = traced ? FlightRecorder::NowNs() : 0;
      HandleControl(shard, sessions, m, datagram.from, replies);
      if (traced) {
        Span span = NewServerSpan(m, shard_tag,
                                  datagram.recv_ns != 0 ? datagram.recv_ns : proc_ns);
        if (datagram.recv_ns != 0 && proc_ns > datagram.recv_ns) {
          span.events.push_back(
              {SpanStage::kRecvBatch, datagram.recv_ns, proc_ns - datagram.recv_ns, 0});
        }
        span.end_ns = FlightRecorder::NowNs();
        span.events.push_back({SpanStage::kService, proc_ns, span.end_ns - proc_ns, 0});
        SpanStore::Global().Submit(std::move(span));
      }
    }
    uint64_t flush_begin_ns = 0;
    uint64_t flush_end_ns = 0;
    if (!replies.empty()) {
      flush_begin_ns = touched.empty() ? 0 : FlightRecorder::NowNs();
      FlushReplies(shard->socket, replies, batch_limit);
      flush_end_ns = touched.empty() ? 0 : FlightRecorder::NowNs();
    }
    for (const auto& [handle, request_id] : touched) {
      auto it = sessions.find(handle);
      if (it != sessions.end()) {  // else closed later in this batch
        it->second.EndBatch(handle, request_id, flush_begin_ns, flush_end_ns, touched);
      }
    }
  }
  submit_all_traces();
}

void UdpAgentServer::HandleControl(Shard* shard, SessionTable& sessions, const Message& request,
                                   const UdpEndpoint& client,
                                   std::vector<OutgoingDatagram>& replies) {
  Message reply;
  reply.request_id = request.request_id;
  switch (request.type) {
    case MessageType::kOpen: {
      reply.type = MessageType::kOpenReply;
      // A retransmitted OPEN (its reply was lost) gets the handle the first
      // copy opened rather than a second, orphaned one.
      auto retry = std::find_if(sessions.begin(), sessions.end(), [&](const auto& entry) {
        return entry.second.opener == client &&
               entry.second.open_request_id == request.request_id;
      });
      if (retry != sessions.end()) {
        reply.handle = retry->first;
        reply.data_port = port_;
        reply.size = core_->Stat(retry->first).value_or(0);
        break;
      }
      auto opened = core_->Open(request.object_name, request.open_flags);
      if (!opened.ok()) {
        reply.status_code = static_cast<uint32_t>(opened.code());
        break;
      }
      // The session lives on this shard; the client keeps talking to the
      // well-known port from the same socket, so its datagrams come back here.
      Session& session = sessions[opened->handle];
      session.opener = client;
      session.open_request_id = request.request_id;
      shard->sessions.fetch_add(1, std::memory_order_relaxed);
      reply.handle = opened->handle;
      reply.data_port = port_;
      reply.size = opened->size;
      break;
    }
    case MessageType::kStats: {
      Metrics().stats_requests->Increment();
      // The full registry, packetized: STATS_REPLY is a bulk reply family,
      // so a many-KiB snapshot ships as a seq/total train instead of being
      // truncated to one datagram.
      const std::string text = MetricRegistry::Global().RenderText();
      for (const Message& packet : SplitIntoPackets(MessageType::kStatsReply, 0,
                                                    request.request_id, 0,
                                                    BufferSlice::CopyOf(text))) {
        QueueReply(replies, client, packet, request.tx_ts_us);
      }
      return;
    }
    case MessageType::kTrace: {
      Metrics().trace_requests->Increment();
      // `size` carries the trace-id filter (0 = all recent spans).
      const std::vector<Span> spans = SpanStore::Global().Snapshot(request.size);
      for (const Message& packet :
           SplitIntoPackets(MessageType::kTraceReply, 0, request.request_id, 0,
                            BufferSlice::FromVector(SerializeSpans(spans)))) {
        QueueReply(replies, client, packet, request.tx_ts_us);
      }
      return;
    }
    case MessageType::kRemove: {
      Status status = core_->Remove(request.object_name);
      reply.type = status.ok() ? MessageType::kRemoveAck : MessageType::kError;
      reply.status_code = static_cast<uint32_t>(status.code());
      break;
    }
    case MessageType::kScrub: {
      reply.type = MessageType::kScrubReply;
      auto report = core_->Scrub(request.object_name);
      if (!report.ok()) {
        reply.status_code = static_cast<uint32_t>(report.code());
        break;
      }
      reply.size = report->blocks_checked;
      // Payload: (u64 offset, u64 length) per corrupt range, then a u8
      // truncation flag. Clip to one datagram; the client re-scrubs after
      // repairing what fit.
      constexpr size_t kMaxRanges = (kMaxPacketPayload - 1) / 16;
      const size_t count = std::min(report->corrupt_ranges.size(), kMaxRanges);
      WireWriter w(count * 16 + 1);
      for (size_t i = 0; i < count; ++i) {
        w.PutU64(report->corrupt_ranges[i].offset);
        w.PutU64(report->corrupt_ranges[i].length);
      }
      const bool truncated = report->truncated || count < report->corrupt_ranges.size();
      w.PutU8(truncated ? 1 : 0);
      reply.payload = BufferSlice::FromVector(w.Take());
      break;
    }
    default:
      return;  // a reply or mediator type sent to an agent: ignore
  }
  QueueReply(replies, client, reply, request.tx_ts_us);
}

bool UdpAgentServer::HandleSessionRequest(Session& session, const Message& m,
                                          const UdpSocket::ReceivedDatagram& datagram,
                                          uint32_t shard_tag,
                                          std::vector<OutgoingDatagram>& replies,
                                          TouchedList& touched) {
  const uint32_t handle = m.handle;
  const UdpEndpoint& client = datagram.from;
  RequestTrace* trace = nullptr;
  uint64_t handler_begin_ns = 0;
  uint64_t store_before_ns = 0;
  if (m.trace.sampled() && GetTraceMode() != TraceMode::kOff) {
    handler_begin_ns = FlightRecorder::NowNs();
    auto [slot, fresh] = session.traces.try_emplace(m.request_id);
    trace = &slot->second;
    if (fresh) {
      trace->span = NewServerSpan(m, shard_tag,
                                  datagram.recv_ns != 0 ? datagram.recv_ns : handler_begin_ns);
    }
    if (datagram.recv_ns != 0 && handler_begin_ns > datagram.recv_ns) {
      trace->recv_wait_ns += handler_begin_ns - datagram.recv_ns;
    }
    if (trace->service_start_ns == 0) {
      trace->service_start_ns = handler_begin_ns;
    }
    store_before_ns = trace->store_ns;
    touched.emplace_back(handle, m.request_id);
  }
  // Times one backing-store call into the request's span, if it is traced.
  auto timed_store = [trace](auto&& call) {
    const uint64_t begin_ns = trace != nullptr ? FlightRecorder::NowNs() : 0;
    auto result = call();
    if (trace != nullptr) {
      trace->store_ns += FlightRecorder::NowNs() - begin_ns;
      if (trace->store_start_ns == 0) {
        trace->store_start_ns = begin_ns;
      }
    }
    return result;
  };
  auto commit_if_complete = [&](PendingWrite& pending) {
    if (!pending.reassembler->complete() || pending.committed) {
      return;
    }
    const auto service_start = std::chrono::steady_clock::now();
    Status status = timed_store(
        [&] { return core_->Write(handle, pending.offset, pending.reassembler->data()); });
    Metrics().write_service_us->Record(ElapsedUs(service_start));
    if (status.ok()) {
      pending.committed = true;
      QueueReply(replies, client, ReplyTo(m, MessageType::kWriteAck), m.tx_ts_us);
    } else {
      QueueReply(replies, client, ErrorReply(m, status), m.tx_ts_us);
    }
  };

  bool closed = false;
  switch (m.type) {
    case MessageType::kReadReq: {
      // One DATA packet per request, served immediately.
      const auto service_start = std::chrono::steady_clock::now();
      auto data = timed_store([&] { return core_->Read(handle, m.offset, m.read_length); });
      Metrics().read_service_us->Record(ElapsedUs(service_start));
      if (!data.ok()) {
        QueueReply(replies, client, ErrorReply(m, data.status()), m.tx_ts_us);
        break;
      }
      Message reply = ReplyTo(m, MessageType::kData);
      reply.seq = m.seq;
      reply.total = m.total;
      reply.offset = m.offset;
      reply.payload = std::move(*data);
      QueueReply(replies, client, reply, m.tx_ts_us);
      break;
    }
    case MessageType::kWriteReq: {
      auto it = session.writes.find(m.request_id);
      if (it == session.writes.end()) {
        PendingWrite pending;
        pending.offset = m.offset;
        pending.reassembler =
            std::make_unique<Reassembler>(m.request_id, m.offset, m.read_length, m.total);
        it = session.writes.emplace(m.request_id, std::move(pending)).first;
      }
      if (m.window == 1) {  // query
        if (it->second.reassembler->complete()) {
          commit_if_complete(it->second);
          if (it->second.committed) {
            QueueReply(replies, client, ReplyTo(m, MessageType::kWriteAck), m.tx_ts_us);
          }
        } else {
          Message nack = ReplyTo(m, MessageType::kWriteNack);
          nack.missing_seqs = it->second.reassembler->MissingSeqs();
          QueueReply(replies, client, nack, m.tx_ts_us);
        }
      }
      break;
    }
    case MessageType::kWriteData: {
      auto it = session.writes.find(m.request_id);
      if (it == session.writes.end()) {
        break;  // data before announce: client's query will resynchronize
      }
      if (it->second.reassembler->Accept(m).ok()) {
        commit_if_complete(it->second);
      }
      // Bound session memory: drop committed requests once a newer request
      // id appears (duplicated ACKs are regenerated from the query path).
      if (session.writes.size() > 8) {
        std::erase_if(session.writes, [&](const auto& entry) {
          return entry.second.committed && entry.first != m.request_id;
        });
      }
      break;
    }
    case MessageType::kStat: {
      auto size = core_->Stat(handle);
      if (!size.ok()) {
        QueueReply(replies, client, ErrorReply(m, size.status()), m.tx_ts_us);
        break;
      }
      Message reply = ReplyTo(m, MessageType::kStatReply);
      reply.size = *size;
      QueueReply(replies, client, reply, m.tx_ts_us);
      break;
    }
    case MessageType::kTruncate: {
      Status status = core_->Truncate(handle, m.size);
      QueueReply(replies, client,
                 status.ok() ? ReplyTo(m, MessageType::kTruncateAck) : ErrorReply(m, status),
                 m.tx_ts_us);
      break;
    }
    case MessageType::kClose: {
      QueueReply(replies, client, ReplyTo(m, MessageType::kCloseAck), m.tx_ts_us);
      (void)core_->Close(handle);
      closed = true;
      break;
    }
    default:
      break;
  }
  if (trace != nullptr) {
    const uint64_t handler_end_ns = FlightRecorder::NowNs();
    const uint64_t handler_ns = handler_end_ns - handler_begin_ns;
    const uint64_t store_ns = trace->store_ns - store_before_ns;
    trace->service_ns += handler_ns > store_ns ? handler_ns - store_ns : 0;
    trace->span.end_ns = handler_end_ns;
  }
  return closed;
}

}  // namespace swift
