// Backing stores for storage agents.
//
// A storage agent persists one file per Swift object ("storage agents are
// represented by Unix processes on servers which use the standard Unix file
// system", §3). `BackingStore` abstracts that: the in-memory store backs
// deterministic tests and simulations; the POSIX store writes real files
// under a root directory, as the prototype's agents did.
//
// Reads zero-fill past the stored end (see AgentTransport's contract); holes
// created by sparse writes read back as zeros.

#ifndef SWIFT_SRC_AGENT_BACKING_STORE_H_
#define SWIFT_SRC_AGENT_BACKING_STORE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "src/core/scrub_report.h"
#include "src/util/buffer.h"
#include "src/util/status.h"

namespace swift {

class BackingStore {
 public:
  virtual ~BackingStore() = default;

  // True if a file for `object_name` exists.
  virtual bool Exists(const std::string& object_name) = 0;
  // Creates an empty file (no-op if it exists).
  virtual Status Ensure(const std::string& object_name) = 0;
  // Reads exactly `length` bytes at `offset`, zero-filled past EOF. Returns
  // a shared slice; fully-past-EOF reads are served from the process-wide
  // zero page with no allocation.
  virtual Result<BufferSlice> ReadAt(const std::string& object_name, uint64_t offset,
                                     uint64_t length) = 0;
  // Writes `data` at `offset`, extending the file (holes read as zeros).
  virtual Status WriteAt(const std::string& object_name, uint64_t offset,
                         std::span<const uint8_t> data) = 0;
  virtual Result<uint64_t> Size(const std::string& object_name) = 0;
  virtual Status Truncate(const std::string& object_name, uint64_t size) = 0;
  // Removing an absent file is OK: removal is a goal state, and cleanup paths
  // (object delete, rebuild) retry after partial failures.
  virtual Status Remove(const std::string& object_name) = 0;

  // Verifies the stored bytes against their at-rest checksums. Only stores
  // that maintain checksums (IntegrityBackingStore) implement this; bare
  // stores have nothing to verify against.
  virtual Result<ScrubReport> Scrub(const std::string& object_name) {
    (void)object_name;
    return UnimplementedError("this backing store keeps no at-rest checksums");
  }
};

// Memory-backed store for tests, simulation and benchmarks.
class InMemoryBackingStore : public BackingStore {
 public:
  bool Exists(const std::string& object_name) override;
  Status Ensure(const std::string& object_name) override;
  Result<BufferSlice> ReadAt(const std::string& object_name, uint64_t offset,
                             uint64_t length) override;
  Status WriteAt(const std::string& object_name, uint64_t offset,
                 std::span<const uint8_t> data) override;
  Result<uint64_t> Size(const std::string& object_name) override;
  Status Truncate(const std::string& object_name, uint64_t size) override;
  Status Remove(const std::string& object_name) override;

  // Total bytes held across files: the sum of their sizes.
  uint64_t TotalBytes();

 private:
  // One object's bytes in one anonymous mapping, grown with mremap(2): the
  // pages move and no byte is copied, so a file grown by doubling never
  // stalls the agent copying what it already holds. Bytes from size() to
  // the end of the mapping are always zero, so an extension reads zeros.
  class File {
   public:
    File() = default;
    File(const File&) = delete;
    File& operator=(const File&) = delete;
    ~File();

    uint64_t size() const { return size_; }
    uint8_t* data() const { return base_; }
    // Sets the size; a shrink zeroes the bytes it cuts off.
    Status Resize(uint64_t size);

   private:
    uint8_t* base_ = nullptr;
    uint64_t size_ = 0;
    uint64_t capacity_ = 0;  // mapped bytes, whole pages
  };

  std::mutex mutex_;
  std::map<std::string, File> files_;
};

// Files under `root` directory, one per object. Object names are sanitized
// into file names ('/' is rejected).
class PosixBackingStore : public BackingStore {
 public:
  struct Options {
    // fsync after every WriteAt/Truncate so acknowledged writes survive a
    // host crash (swift_agentd --durable). Off by default: the 1991
    // prototype's agents relied on the Unix buffer cache for throughput.
    bool fsync_on_write = false;
  };

  // `root` must exist and be writable.
  explicit PosixBackingStore(std::string root);
  PosixBackingStore(std::string root, Options options);

  bool Exists(const std::string& object_name) override;
  Status Ensure(const std::string& object_name) override;
  Result<BufferSlice> ReadAt(const std::string& object_name, uint64_t offset,
                             uint64_t length) override;
  Status WriteAt(const std::string& object_name, uint64_t offset,
                 std::span<const uint8_t> data) override;
  Result<uint64_t> Size(const std::string& object_name) override;
  Status Truncate(const std::string& object_name, uint64_t size) override;
  Status Remove(const std::string& object_name) override;

 private:
  Result<std::string> PathFor(const std::string& object_name) const;

  std::string root_;
  Options options_;
  std::mutex mutex_;
};

}  // namespace swift

#endif  // SWIFT_SRC_AGENT_BACKING_STORE_H_
