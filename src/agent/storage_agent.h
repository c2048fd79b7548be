// Storage agent service core.
//
// The transport-independent half of a storage agent: handle table, open
// semantics, and the file operations behind the Swift data-transfer
// protocol. The in-process transport calls it directly; the UDP server
// (udp_agent_server.h) drives it from decoded protocol messages. All methods
// are thread-safe (the UDP server calls them from every shard's loop).

#ifndef SWIFT_SRC_AGENT_STORAGE_AGENT_H_
#define SWIFT_SRC_AGENT_STORAGE_AGENT_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "src/agent/backing_store.h"
#include "src/core/agent_transport.h"
#include "src/util/status.h"

namespace swift {

class StorageAgentCore {
 public:
  // Does not take ownership of the store.
  explicit StorageAgentCore(BackingStore* store) : store_(store) {}

  // Mirrors the AgentTransport surface (same semantics), operating locally.
  Result<AgentOpenResult> Open(const std::string& object_name, uint32_t flags);
  Status Write(uint32_t handle, uint64_t offset, std::span<const uint8_t> data);
  Result<BufferSlice> Read(uint32_t handle, uint64_t offset, uint64_t length);
  Result<uint64_t> Stat(uint32_t handle);
  Status Truncate(uint32_t handle, uint64_t size);
  Status Close(uint32_t handle);
  Status Remove(const std::string& object_name);
  Result<ScrubReport> Scrub(const std::string& object_name);

  size_t open_handle_count();

  // --- statistics (benches/examples) ---
  uint64_t bytes_read() const { return bytes_read_; }
  uint64_t bytes_written() const { return bytes_written_; }

 private:
  Result<std::string> NameFor(uint32_t handle);

  BackingStore* store_;
  std::mutex mutex_;
  std::map<uint32_t, std::string> handles_;
  uint32_t next_handle_ = 1;
  uint64_t bytes_read_ = 0;
  uint64_t bytes_written_ = 0;
};

// AgentTransport over a local StorageAgentCore, with fault injection for the
// failure-path tests: a "crashed" agent answers every call with kUnavailable,
// exactly what the UDP transport reports after its retry budget.
//
// Async contract: StartRead/StartWrite run the op inline (through the same
// fault-injection gate as the synchronous calls, so kUnavailable → parity
// takeover semantics are identical) and invoke the completion before
// returning; max_in_flight() stays 1. This keeps the deterministic tests
// deterministic: ops on one column execute in submission order.
class InProcTransport : public AgentTransport {
 public:
  explicit InProcTransport(StorageAgentCore* core) : core_(core) {}

  // Simulate agent crash/recovery.
  void set_crashed(bool crashed) { crashed_ = crashed; }
  bool crashed() const { return crashed_; }

  // Fail the next `n` calls with kUnavailable, then recover (transient
  // fault).
  void FailNextCalls(int n) { fail_budget_ = n; }

  Result<AgentOpenResult> Open(const std::string& object_name, uint32_t flags) override;
  Status Write(uint32_t handle, uint64_t offset, std::span<const uint8_t> data) override;
  Result<BufferSlice> Read(uint32_t handle, uint64_t offset, uint64_t length) override;
  Result<uint64_t> Stat(uint32_t handle) override;
  Status Truncate(uint32_t handle, uint64_t size) override;
  Status Close(uint32_t handle) override;
  Status Remove(const std::string& object_name) override;
  Result<ScrubReport> Scrub(const std::string& object_name) override;

  void StartRead(uint32_t handle, uint64_t offset, uint64_t length,
                 ReadCompletion done) override;
  void StartWrite(uint32_t handle, uint64_t offset, std::span<const uint8_t> data,
                  WriteCompletion done) override;
  TransportStats stats() const override;

  uint64_t call_count() const { return call_count_; }

 private:
  Status CheckUp();
  void Account(bool ok, uint64_t bytes_read, uint64_t bytes_written);

  StorageAgentCore* core_;
  std::atomic<bool> crashed_{false};
  std::atomic<int> fail_budget_{0};
  std::atomic<uint64_t> call_count_{0};
  std::atomic<uint64_t> ops_submitted_{0};
  std::atomic<uint64_t> ops_completed_{0};
  std::atomic<uint64_t> ops_failed_{0};
  std::atomic<uint64_t> bytes_read_{0};
  std::atomic<uint64_t> bytes_written_{0};
};

}  // namespace swift

#endif  // SWIFT_SRC_AGENT_STORAGE_AGENT_H_
