#include "perfbench/taps.h"

#include <chrono>
#include <cstdio>
#include <utility>

namespace perfbench {

namespace {

// The outer store span open on this thread, parent of inner store spans.
thread_local uint64_t t_outer_store_span = 0;

}  // namespace

const char* SpanKindName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kCallRead:
      return "swift_file.pread";
    case SpanKind::kCallWrite:
      return "swift_file.pwrite";
    case SpanKind::kCallRebuild:
      return "rebuild.columns";
    case SpanKind::kTransportRead:
      return "transport.read";
    case SpanKind::kTransportWrite:
      return "transport.write";
    case SpanKind::kTransportControl:
      return "transport.control";
    case SpanKind::kStoreRead:
      return "store.read";
    case SpanKind::kStoreWrite:
      return "store.write";
    case SpanKind::kStoreControl:
      return "store.control";
  }
  return "unknown";
}

int64_t SpanLog::NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SpanLog::Add(const Span& span) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(span);
}

std::vector<Span> SpanLog::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

bool SpanLog::WriteJsonl(const std::string& path, const std::string& header) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return false;
  }
  std::fprintf(out, "%s\n", header.c_str());
  for (const Span& span : spans()) {
    std::fprintf(out,
                 "{\"id\":%llu,\"parent\":%llu,\"call\":%llu,\"name\":\"%s%s\","
                 "\"start_ns\":%lld,\"end_ns\":%lld,\"bytes\":%llu,\"where\":%u}\n",
                 static_cast<unsigned long long>(span.id),
                 static_cast<unsigned long long>(span.parent),
                 static_cast<unsigned long long>(span.call), SpanKindName(span.kind),
                 span.inner ? ".inner" : "", static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns),
                 static_cast<unsigned long long>(span.bytes), span.where);
  }
  return std::fclose(out) == 0;
}

// --- TappedTransport ---------------------------------------------------------

Span TappedTransport::Begin(SpanKind kind, uint64_t bytes) const {
  Span span;
  span.id = log_->NextId();
  span.call = log_->call();
  span.kind = kind;
  span.bytes = bytes;
  span.where = column_;
  span.start_ns = SpanLog::NowNs();
  return span;
}

void TappedTransport::End(Span span) const {
  span.end_ns = SpanLog::NowNs();
  log_->Add(span);
}

swift::Result<swift::AgentOpenResult> TappedTransport::Open(const std::string& object_name,
                                                            uint32_t flags) {
  Span span = Begin(SpanKind::kTransportControl, 0);
  auto result = inner_->Open(object_name, flags);
  End(span);
  return result;
}

swift::Status TappedTransport::Write(uint32_t handle, uint64_t offset,
                                     std::span<const uint8_t> data) {
  Span span = Begin(SpanKind::kTransportWrite, data.size());
  swift::Status status = inner_->Write(handle, offset, data);
  End(span);
  return status;
}

swift::Result<swift::BufferSlice> TappedTransport::Read(uint32_t handle, uint64_t offset,
                                                        uint64_t length) {
  Span span = Begin(SpanKind::kTransportRead, length);
  auto result = inner_->Read(handle, offset, length);
  End(span);
  return result;
}

swift::Result<uint64_t> TappedTransport::Stat(uint32_t handle) {
  Span span = Begin(SpanKind::kTransportControl, 0);
  auto result = inner_->Stat(handle);
  End(span);
  return result;
}

swift::Status TappedTransport::Truncate(uint32_t handle, uint64_t size) {
  Span span = Begin(SpanKind::kTransportControl, 0);
  swift::Status status = inner_->Truncate(handle, size);
  End(span);
  return status;
}

swift::Status TappedTransport::Close(uint32_t handle) {
  Span span = Begin(SpanKind::kTransportControl, 0);
  swift::Status status = inner_->Close(handle);
  End(span);
  return status;
}

swift::Status TappedTransport::Remove(const std::string& object_name) {
  Span span = Begin(SpanKind::kTransportControl, 0);
  swift::Status status = inner_->Remove(object_name);
  End(span);
  return status;
}

swift::Result<swift::ScrubReport> TappedTransport::Scrub(const std::string& object_name) {
  Span span = Begin(SpanKind::kTransportControl, 0);
  auto result = inner_->Scrub(object_name);
  End(span);
  return result;
}

// The span is recorded before the caller's completion runs: that completion
// may release the user call, and the next call must not see this op open.
void TappedTransport::StartRead(uint32_t handle, uint64_t offset, uint64_t length,
                                ReadCompletion done) {
  Span span = Begin(SpanKind::kTransportRead, length);
  inner_->StartRead(handle, offset, length,
                    [this, span, done = std::move(done)](
                        swift::Result<swift::BufferSlice> data) mutable {
                      End(span);
                      done(std::move(data));
                    });
}

void TappedTransport::StartReadInto(uint32_t handle, uint64_t offset, std::span<uint8_t> out,
                                    WriteCompletion done) {
  Span span = Begin(SpanKind::kTransportRead, out.size());
  inner_->StartReadInto(handle, offset, out,
                        [this, span, done = std::move(done)](swift::Status status) mutable {
                          End(span);
                          done(std::move(status));
                        });
}

uint64_t TappedTransport::StartCancellableReadInto(uint32_t handle, uint64_t offset,
                                                   std::span<uint8_t> out,
                                                   WriteCompletion done) {
  Span span = Begin(SpanKind::kTransportRead, out.size());
  return inner_->StartCancellableReadInto(
      handle, offset, out, [this, span, done = std::move(done)](swift::Status status) mutable {
        End(span);
        done(std::move(status));
      });
}

void TappedTransport::StartWrite(uint32_t handle, uint64_t offset,
                                 std::span<const uint8_t> data, WriteCompletion done) {
  Span span = Begin(SpanKind::kTransportWrite, data.size());
  inner_->StartWrite(handle, offset, data,
                     [this, span, done = std::move(done)](swift::Status status) mutable {
                       End(span);
                       done(std::move(status));
                     });
}

// --- TappedStore --------------------------------------------------------------

Span TappedStore::Begin(SpanKind kind, uint64_t bytes) {
  Span span;
  span.id = log_->NextId();
  span.call = log_->call();
  span.kind = kind;
  span.bytes = bytes;
  span.where = agent_;
  span.inner = below_integrity_;
  if (below_integrity_) {
    span.parent = t_outer_store_span;
  } else {
    // Store calls do not nest above the integrity layer, so the slot is
    // free; End clears it.
    t_outer_store_span = span.id;
  }
  span.start_ns = SpanLog::NowNs();
  return span;
}

void TappedStore::End(Span span) {
  span.end_ns = SpanLog::NowNs();
  if (!below_integrity_) {
    t_outer_store_span = 0;
  }
  log_->Add(span);
}

swift::Status TappedStore::Ensure(const std::string& object_name) {
  Span span = Begin(SpanKind::kStoreControl, 0);
  swift::Status status = inner_->Ensure(object_name);
  End(span);
  return status;
}

swift::Result<swift::BufferSlice> TappedStore::ReadAt(const std::string& object_name,
                                                      uint64_t offset, uint64_t length) {
  Span span = Begin(SpanKind::kStoreRead, length);
  auto result = inner_->ReadAt(object_name, offset, length);
  End(span);
  return result;
}

swift::Status TappedStore::WriteAt(const std::string& object_name, uint64_t offset,
                                   std::span<const uint8_t> data) {
  Span span = Begin(SpanKind::kStoreWrite, data.size());
  swift::Status status = inner_->WriteAt(object_name, offset, data);
  End(span);
  return status;
}

swift::Result<uint64_t> TappedStore::Size(const std::string& object_name) {
  Span span = Begin(SpanKind::kStoreControl, 0);
  auto result = inner_->Size(object_name);
  End(span);
  return result;
}

swift::Status TappedStore::Truncate(const std::string& object_name, uint64_t size) {
  Span span = Begin(SpanKind::kStoreControl, 0);
  swift::Status status = inner_->Truncate(object_name, size);
  End(span);
  return status;
}

swift::Status TappedStore::Remove(const std::string& object_name) {
  Span span = Begin(SpanKind::kStoreControl, 0);
  swift::Status status = inner_->Remove(object_name);
  End(span);
  return status;
}

swift::Result<swift::ScrubReport> TappedStore::Scrub(const std::string& object_name) {
  Span span = Begin(SpanKind::kStoreControl, 0);
  auto result = inner_->Scrub(object_name);
  End(span);
  return result;
}

}  // namespace perfbench
