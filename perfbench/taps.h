// Pass-through taps on the program's two seams, for the traced run.
//
// TappedTransport decorates an AgentTransport and TappedStore a
// BackingStore. Each forwards every virtual to the wrapped object unchanged,
// so a traced run takes the same code path as an untraced one, and records
// one span per call into a SpanLog: name, start, end, the parent span, and
// the user call in flight when the span began. The benchmark drives one
// closed-loop client, so at most one user call is outstanding and the
// current call id is the request id every span of that call shares — the
// agent-side store spans included.

#ifndef SWIFT_PERFBENCH_TAPS_H_
#define SWIFT_PERFBENCH_TAPS_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "src/agent/backing_store.h"
#include "src/core/agent_transport.h"

namespace perfbench {

enum class SpanKind : uint8_t {
  kCallRead,        // SwiftFile::PRead
  kCallWrite,       // SwiftFile::PWrite
  kCallRebuild,     // RebuildColumns
  kTransportRead,   // AgentTransport read entry points
  kTransportWrite,  // AgentTransport write entry points
  kTransportControl,
  kStoreRead,       // BackingStore::ReadAt
  kStoreWrite,      // BackingStore::WriteAt
  kStoreControl,
};

const char* SpanKindName(SpanKind kind);

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  // enclosing span, 0 for none
  uint64_t call = 0;    // user call in flight when the span began (request id)
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t bytes = 0;
  uint32_t where = 0;   // transport column, or agent index for store spans
  SpanKind kind = SpanKind::kCallRead;
  bool inner = false;   // store spans: below the integrity layer
};

// In-memory span sink shared by every tap of one traced phase.
class SpanLog {
 public:
  static int64_t NowNs();

  uint64_t NextId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  // The user call spans started from now on belong to (0 = none).
  void set_call(uint64_t call) { call_.store(call, std::memory_order_release); }
  uint64_t call() const { return call_.load(std::memory_order_acquire); }

  void Add(const Span& span);
  std::vector<Span> spans() const;

  // Writes one JSON object per line: `header` first, then every span.
  bool WriteJsonl(const std::string& path, const std::string& header) const;

 private:
  std::atomic<uint64_t> next_id_{1};
  std::atomic<uint64_t> call_{0};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

class TappedTransport : public swift::AgentTransport {
 public:
  // `inner` and `log` must outlive this tap.
  TappedTransport(swift::AgentTransport* inner, SpanLog* log, uint32_t column)
      : inner_(inner), log_(log), column_(column) {}

  swift::Result<swift::AgentOpenResult> Open(const std::string& object_name,
                                             uint32_t flags) override;
  swift::Status Write(uint32_t handle, uint64_t offset, std::span<const uint8_t> data) override;
  swift::Result<swift::BufferSlice> Read(uint32_t handle, uint64_t offset,
                                         uint64_t length) override;
  swift::Result<uint64_t> Stat(uint32_t handle) override;
  swift::Status Truncate(uint32_t handle, uint64_t size) override;
  swift::Status Close(uint32_t handle) override;
  swift::Status Remove(const std::string& object_name) override;
  swift::Result<swift::ScrubReport> Scrub(const std::string& object_name) override;
  void StartRead(uint32_t handle, uint64_t offset, uint64_t length,
                 ReadCompletion done) override;
  void StartReadInto(uint32_t handle, uint64_t offset, std::span<uint8_t> out,
                     WriteCompletion done) override;
  uint64_t StartCancellableReadInto(uint32_t handle, uint64_t offset, std::span<uint8_t> out,
                                    WriteCompletion done) override;
  void CancelRead(uint64_t token) override { inner_->CancelRead(token); }
  bool RttEstimate(double* srtt_us, double* rttvar_us) const override {
    return inner_->RttEstimate(srtt_us, rttvar_us);
  }
  void StartWrite(uint32_t handle, uint64_t offset, std::span<const uint8_t> data,
                  WriteCompletion done) override;
  uint32_t max_in_flight() const override { return inner_->max_in_flight(); }
  uint32_t current_window() const override { return inner_->current_window(); }
  size_t Poll() override { return inner_->Poll(); }
  void Drain() override { inner_->Drain(); }
  swift::TransportStats stats() const override { return inner_->stats(); }

 private:
  Span Begin(SpanKind kind, uint64_t bytes) const;
  void End(Span span) const;

  swift::AgentTransport* inner_;
  SpanLog* log_;
  uint32_t column_;
};

class TappedStore : public swift::BackingStore {
 public:
  // `inner` and `log` must outlive this tap. `below_integrity` marks the tap
  // under the checksum layer; its spans take the enclosing outer store span
  // on the same thread as parent.
  TappedStore(swift::BackingStore* inner, SpanLog* log, uint32_t agent, bool below_integrity)
      : inner_(inner), log_(log), agent_(agent), below_integrity_(below_integrity) {}

  bool Exists(const std::string& object_name) override { return inner_->Exists(object_name); }
  swift::Status Ensure(const std::string& object_name) override;
  swift::Result<swift::BufferSlice> ReadAt(const std::string& object_name, uint64_t offset,
                                           uint64_t length) override;
  swift::Status WriteAt(const std::string& object_name, uint64_t offset,
                        std::span<const uint8_t> data) override;
  swift::Result<uint64_t> Size(const std::string& object_name) override;
  swift::Status Truncate(const std::string& object_name, uint64_t size) override;
  swift::Status Remove(const std::string& object_name) override;
  swift::Result<swift::ScrubReport> Scrub(const std::string& object_name) override;

 private:
  // Opens a span and, above the integrity layer, makes it the parent of
  // the inner spans this thread records until the matching End.
  Span Begin(SpanKind kind, uint64_t bytes);
  void End(Span span);

  swift::BackingStore* inner_;
  SpanLog* log_;
  uint32_t agent_;
  bool below_integrity_;
};

}  // namespace perfbench

#endif  // SWIFT_PERFBENCH_TAPS_H_
