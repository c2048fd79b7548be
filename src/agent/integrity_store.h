// At-rest checksums for a backing store.
//
// `IntegrityBackingStore` decorates any `BackingStore` with per-block CRC-32
// checksums kept in a sidecar file (`<name>.crc`) stored alongside the data
// in the same inner store. Every read verifies the blocks it touches and
// fails with kDataCorrupt — never returning unverified bytes — when the
// stored data no longer matches its seal; every write reseals the blocks it
// fully determines. The striping layer treats kDataCorrupt like a localized
// unit failure and reconstructs through parity (src/core/swift_file.cc),
// then writes the repaired unit back, which reseals it here.
//
// Sidecar format (big-endian, same wire conventions as src/proto):
//
//   magic       u32   0x43524331 ("CRC1")
//   block_size  u32   checksum granularity, bytes
//   crc[i]      u32   CRC-32 of data block i, clipped to the file size
//
// with one entry per block of the data file (ceil(size / block_size)). The
// final block's CRC covers only the stored bytes, so the sidecar commits to
// the file size as well as its contents.
//
// Policies worth knowing:
//   * Trust on first use: a data file with no (or unreadable) sidecar is
//     sealed from its current contents. Integrity protection starts at the
//     first access; pre-existing corruption cannot be detected.
//   * A write that fully determines a block (covers it entirely, or covers
//     its head through end-of-file) reseals it without looking at the old
//     bytes — this is what lets parity repair overwrite a corrupt unit.
//   * A write that merely patches part of a block verifies the old block
//     first and fails with kDataCorrupt if it does not match: silently
//     folding corrupt bytes into a fresh seal would bless the corruption.
//   * Object names ending in ".crc" are rejected; the sidecar namespace is
//     private to this layer.

#ifndef SWIFT_SRC_AGENT_INTEGRITY_STORE_H_
#define SWIFT_SRC_AGENT_INTEGRITY_STORE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "src/agent/backing_store.h"
#include "src/core/scrub_report.h"
#include "src/util/status.h"

namespace swift {

// Checksum granularity. Stripe units are powers of two ≥ 4 KiB in every
// shipped configuration, so a unit always covers whole blocks and a parity
// repair (one whole unit) always reseals cleanly.
inline constexpr uint64_t kIntegrityBlockSize = 4096;

class IntegrityBackingStore : public BackingStore {
 public:
  // `inner` must outlive this store. Does not take ownership.
  explicit IntegrityBackingStore(BackingStore* inner,
                                 uint64_t block_size = kIntegrityBlockSize);

  bool Exists(const std::string& object_name) override;
  Status Ensure(const std::string& object_name) override;
  Result<BufferSlice> ReadAt(const std::string& object_name, uint64_t offset,
                             uint64_t length) override;
  Status WriteAt(const std::string& object_name, uint64_t offset,
                 std::span<const uint8_t> data) override;
  Result<uint64_t> Size(const std::string& object_name) override;
  Status Truncate(const std::string& object_name, uint64_t size) override;
  Status Remove(const std::string& object_name) override;
  Result<ScrubReport> Scrub(const std::string& object_name) override;

 private:
  // Cached, authoritative copy of one object's sidecar.
  struct Sidecar {
    std::vector<uint32_t> crcs;
    // False after a failed persist: the stored sidecar may lag the cache,
    // so the next persist rewrites it whole.
    bool synced = false;
  };

  // Loads (or trust-on-first-use seals) the sidecar for `object_name`.
  // Requires mutex_ held.
  Result<Sidecar*> LoadSidecar(const std::string& object_name);
  // Writes the whole cached sidecar back through the inner store. Requires
  // mutex_.
  Status PersistSidecar(const std::string& object_name, Sidecar& sidecar);
  // Writes only seals [first, last] — the bytes [8 + 4*first, 8 + 4*(last+1))
  // of the stored sidecar. Falls back to PersistSidecar when the stored copy
  // is missing or out of sync. Requires mutex_.
  Status PersistSeals(const std::string& object_name, Sidecar& sidecar, uint64_t first,
                      uint64_t last);
  // Recomputes every block CRC from the inner store's current contents.
  // Requires mutex_.
  Result<Sidecar> SealFromContents(const std::string& object_name);

  static Status CheckName(const std::string& object_name);
  static std::string SidecarName(const std::string& object_name);

  BackingStore* inner_;
  const uint64_t block_size_;
  std::mutex mutex_;
  std::map<std::string, Sidecar> cache_;
};

}  // namespace swift

#endif  // SWIFT_SRC_AGENT_INTEGRITY_STORE_H_
