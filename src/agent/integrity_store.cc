#include "src/agent/integrity_store.h"

#include <algorithm>
#include <cstring>

#include "src/util/crc32.h"
#include "src/util/metrics.h"
#include "src/util/wire_buffer.h"

namespace swift {

namespace {

constexpr uint32_t kSidecarMagic = 0x43524331;  // "CRC1"
constexpr std::string_view kSidecarSuffix = ".crc";

struct IntegrityMetrics {
  Counter* blocks_verified;
  Counter* corrupt;
  Counter* seals;
};

const IntegrityMetrics& Metrics() {
  static const IntegrityMetrics metrics = [] {
    MetricRegistry& registry = MetricRegistry::Global();
    return IntegrityMetrics{
        registry.GetCounter("swift_integrity_blocks_verified_total"),
        registry.GetCounter("swift_integrity_corrupt_total"),
        registry.GetCounter("swift_integrity_seals_total"),
    };
  }();
  return metrics;
}

Status CorruptBlockError(const std::string& object_name, uint64_t block,
                         uint64_t block_size) {
  Metrics().corrupt->Increment();
  const uint64_t begin = block * block_size;
  return DataCorruptError("object '" + object_name + "' block " + std::to_string(block) +
                          " (bytes [" + std::to_string(begin) + ", " +
                          std::to_string(begin + block_size) + ")) fails its CRC-32 seal");
}

}  // namespace

IntegrityBackingStore::IntegrityBackingStore(BackingStore* inner, uint64_t block_size)
    : inner_(inner), block_size_(block_size) {}

Status IntegrityBackingStore::CheckName(const std::string& object_name) {
  if (object_name.ends_with(kSidecarSuffix)) {
    return InvalidArgumentError("object name '" + object_name +
                                "' collides with the checksum sidecar namespace");
  }
  return OkStatus();
}

std::string IntegrityBackingStore::SidecarName(const std::string& object_name) {
  return object_name + std::string(kSidecarSuffix);
}

Result<IntegrityBackingStore::Sidecar> IntegrityBackingStore::SealFromContents(
    const std::string& object_name) {
  SWIFT_ASSIGN_OR_RETURN(const uint64_t size, inner_->Size(object_name));
  const uint64_t bs = block_size_;
  const uint64_t nblocks = (size + bs - 1) / bs;
  Sidecar sidecar;
  sidecar.crcs.reserve(nblocks);
  constexpr uint64_t kChunkBlocks = 64;
  for (uint64_t base = 0; base < nblocks; base += kChunkBlocks) {
    const uint64_t count = std::min(kChunkBlocks, nblocks - base);
    const uint64_t span_len = std::min(count * bs, size - base * bs);
    SWIFT_ASSIGN_OR_RETURN(BufferSlice buf,
                           inner_->ReadAt(object_name, base * bs, span_len));
    for (uint64_t i = 0; i < count; ++i) {
      const uint64_t len = std::min(bs, span_len - i * bs);
      sidecar.crcs.push_back(Crc32(std::span<const uint8_t>(buf.data() + i * bs, len)));
    }
  }
  Metrics().seals->Increment(nblocks);
  return sidecar;
}

Status IntegrityBackingStore::PersistSidecar(const std::string& object_name,
                                             Sidecar& sidecar) {
  WireWriter w(8 + 4 * sidecar.crcs.size());
  w.PutU32(kSidecarMagic);
  w.PutU32(static_cast<uint32_t>(block_size_));
  for (uint32_t crc : sidecar.crcs) {
    w.PutU32(crc);
  }
  const std::vector<uint8_t> bytes = w.Take();
  const std::string sidecar_name = SidecarName(object_name);
  sidecar.synced = false;
  SWIFT_RETURN_IF_ERROR(inner_->Ensure(sidecar_name));
  SWIFT_RETURN_IF_ERROR(inner_->WriteAt(sidecar_name, 0, bytes));
  SWIFT_RETURN_IF_ERROR(inner_->Truncate(sidecar_name, bytes.size()));
  sidecar.synced = true;
  return OkStatus();
}

Status IntegrityBackingStore::PersistSeals(const std::string& object_name, Sidecar& sidecar,
                                           uint64_t first, uint64_t last) {
  if (sidecar.synced) {
    WireWriter w(4 * (last - first + 1));
    for (uint64_t b = first; b <= last; ++b) {
      w.PutU32(sidecar.crcs[b]);
    }
    const Status status = inner_->WriteAt(SidecarName(object_name), 8 + 4 * first, w.buffer());
    if (status.code() != StatusCode::kNotFound) {
      sidecar.synced = status.ok();
      return status;
    }
    // The stored sidecar was removed underneath the cache (a wiped agent
    // store being rebuilt): recreate it whole.
  }
  return PersistSidecar(object_name, sidecar);
}

Result<IntegrityBackingStore::Sidecar*> IntegrityBackingStore::LoadSidecar(
    const std::string& object_name) {
  auto it = cache_.find(object_name);
  if (it != cache_.end()) {
    return &it->second;
  }
  const std::string sidecar_name = SidecarName(object_name);
  Sidecar sidecar;
  bool parsed = false;
  if (inner_->Exists(sidecar_name)) {
    SWIFT_ASSIGN_OR_RETURN(const uint64_t sidecar_size, inner_->Size(sidecar_name));
    if (sidecar_size >= 8 && (sidecar_size - 8) % 4 == 0) {
      SWIFT_ASSIGN_OR_RETURN(BufferSlice bytes,
                             inner_->ReadAt(sidecar_name, 0, sidecar_size));
      WireReader r(bytes.span());
      const uint32_t magic = r.GetU32();
      const uint32_t block_size = r.GetU32();
      if (r.ok() && magic == kSidecarMagic && block_size == block_size_) {
        const uint64_t entries = (sidecar_size - 8) / 4;
        sidecar.crcs.reserve(entries);
        for (uint64_t i = 0; i < entries; ++i) {
          sidecar.crcs.push_back(r.GetU32());
        }
        parsed = r.ok();
      }
    }
    // An unreadable sidecar (torn header, wrong granularity) is rebuilt from
    // the current contents below: protection restarts rather than bricking
    // every read with an unrepairable error.
  }
  SWIFT_ASSIGN_OR_RETURN(const uint64_t size, inner_->Size(object_name));
  const uint64_t nblocks = (size + block_size_ - 1) / block_size_;
  bool dirty = !parsed;
  if (!parsed) {
    SWIFT_ASSIGN_OR_RETURN(sidecar, SealFromContents(object_name));
  } else if (sidecar.crcs.size() != nblocks) {
    // The data file changed size behind the sidecar (e.g. written before
    // integrity was enabled): seal the uncovered tail, drop stale entries.
    if (sidecar.crcs.size() > nblocks) {
      sidecar.crcs.resize(nblocks);
    } else {
      SWIFT_ASSIGN_OR_RETURN(Sidecar sealed, SealFromContents(object_name));
      for (size_t b = sidecar.crcs.size(); b < sealed.crcs.size(); ++b) {
        sidecar.crcs.push_back(sealed.crcs[b]);
      }
    }
    dirty = true;
  }
  if (dirty) {
    SWIFT_RETURN_IF_ERROR(PersistSidecar(object_name, sidecar));
  } else {
    sidecar.synced = true;  // parsed from the stored bytes as they stand
  }
  auto [inserted, unused] = cache_.emplace(object_name, std::move(sidecar));
  return &inserted->second;
}

bool IntegrityBackingStore::Exists(const std::string& object_name) {
  if (!CheckName(object_name).ok()) {
    return false;
  }
  return inner_->Exists(object_name);
}

Status IntegrityBackingStore::Ensure(const std::string& object_name) {
  SWIFT_RETURN_IF_ERROR(CheckName(object_name));
  std::lock_guard<std::mutex> lock(mutex_);
  SWIFT_RETURN_IF_ERROR(inner_->Ensure(object_name));
  return LoadSidecar(object_name).status();
}

Result<BufferSlice> IntegrityBackingStore::ReadAt(const std::string& object_name,
                                                  uint64_t offset, uint64_t length) {
  SWIFT_RETURN_IF_ERROR(CheckName(object_name));
  std::lock_guard<std::mutex> lock(mutex_);
  SWIFT_ASSIGN_OR_RETURN(const uint64_t size, inner_->Size(object_name));
  SWIFT_ASSIGN_OR_RETURN(Sidecar * sidecar, LoadSidecar(object_name));
  const uint64_t bs = block_size_;
  // Verification is driven by sidecar coverage, not just the stored size: a
  // torn write can leave the file shorter than what was sealed, and a read
  // past the shortened EOF must fail rather than hand back unverified zeros.
  const uint64_t covered_end = std::max(size, sidecar->crcs.size() * bs);
  if (length == 0 || offset >= covered_end) {
    // Nothing stored or sealed in range: zero-fill needs no verification.
    return inner_->ReadAt(object_name, offset, length);
  }
  const uint64_t verify_end = std::min(offset + length, covered_end);
  const uint64_t b0 = offset / bs;
  const uint64_t b_last = (verify_end - 1) / bs;
  const uint64_t aligned_start = b0 * bs;
  const uint64_t aligned_end = std::min((b_last + 1) * bs, size);  // stored bytes only
  BufferSlice buf;
  if (aligned_end > aligned_start) {
    SWIFT_ASSIGN_OR_RETURN(
        buf, inner_->ReadAt(object_name, aligned_start, aligned_end - aligned_start));
  }
  for (uint64_t b = b0; b <= b_last; ++b) {
    const uint64_t begin = b * bs;
    const uint64_t stop = std::min((b + 1) * bs, size);
    const std::span<const uint8_t> stored =
        stop > begin ? std::span<const uint8_t>(buf.data() + (begin - aligned_start), stop - begin)
                     : std::span<const uint8_t>();
    if (b >= sidecar->crcs.size() || Crc32(stored) != sidecar->crcs[b]) {
      return CorruptBlockError(object_name, b, bs);
    }
  }
  Metrics().blocks_verified->Increment(b_last - b0 + 1);
  if (offset + length <= aligned_end) {
    // The common case — block-aligned stripe-unit reads land here: the
    // requested range sits inside the verified page, so the result is a
    // sub-slice of that page. Zero copies.
    return buf.Slice(offset - aligned_start, length);
  }
  // The read extends past the stored bytes: zero-extend into a fresh block.
  Buffer out = Buffer::AllocateZeroed(length);
  if (offset < aligned_end) {
    const uint64_t available = aligned_end - offset;
    std::memcpy(out.data(), buf.data() + (offset - aligned_start), available);
    CountBufferCopy(available);
  }
  return out.SliceAll();
}

Status IntegrityBackingStore::WriteAt(const std::string& object_name, uint64_t offset,
                                      std::span<const uint8_t> data) {
  SWIFT_RETURN_IF_ERROR(CheckName(object_name));
  if (data.empty()) {
    return inner_->WriteAt(object_name, offset, data);
  }
  std::lock_guard<std::mutex> lock(mutex_);
  SWIFT_ASSIGN_OR_RETURN(const uint64_t old_size, inner_->Size(object_name));
  SWIFT_ASSIGN_OR_RETURN(Sidecar * sidecar, LoadSidecar(object_name));
  const uint64_t bs = block_size_;
  const uint64_t end = offset + data.size();
  const uint64_t new_size = std::max(old_size, end);
  // Writing past EOF implicitly determines the zero hole [old_size, offset)
  // too, so the resealed region starts at whichever comes first.
  const uint64_t det_start = std::min(offset, old_size);
  const uint64_t b0 = det_start / bs;
  const uint64_t b_last = (end - 1) / bs;

  // Old bytes the fresh seals will fold in: the head of the first block and
  // the stored tail of the last. Verify them first — resealing a block we
  // cannot verify would silently bless corruption.
  std::vector<uint8_t> head;  // [b0*bs, det_start)
  if (det_start > b0 * bs) {
    const uint64_t begin = b0 * bs;
    const uint64_t stored_stop = std::min((b0 + 1) * bs, old_size);
    SWIFT_ASSIGN_OR_RETURN(BufferSlice old_block,
                           inner_->ReadAt(object_name, begin, stored_stop - begin));
    if (b0 >= sidecar->crcs.size() || Crc32(old_block.span()) != sidecar->crcs[b0]) {
      return CorruptBlockError(object_name, b0, bs);
    }
    head.assign(old_block.begin(), old_block.begin() + (det_start - begin));
  }
  std::vector<uint8_t> tail;  // [end, min((b_last+1)*bs, old_size))
  const uint64_t tail_stop = std::min((b_last + 1) * bs, old_size);
  if (tail_stop > end) {
    const uint64_t begin = b_last * bs;
    SWIFT_ASSIGN_OR_RETURN(BufferSlice old_block,
                           inner_->ReadAt(object_name, begin, tail_stop - begin));
    if (b_last >= sidecar->crcs.size() || Crc32(old_block.span()) != sidecar->crcs[b_last]) {
      return CorruptBlockError(object_name, b_last, bs);
    }
    tail.assign(old_block.begin() + (end - begin), old_block.end());
  }

  // Fresh seals are computed from the bytes the caller intends, not read
  // back from the store, so faults injected below this layer (bit flips,
  // torn writes) stay detectable on the next read.
  std::vector<uint32_t> fresh(b_last - b0 + 1);
  for (uint64_t b = b0; b <= b_last; ++b) {
    const uint64_t begin = b * bs;
    const uint64_t stop = std::min((b + 1) * bs, new_size);
    uint32_t crc = Crc32Init();
    uint64_t pos = begin;
    if (b == b0 && !head.empty()) {
      crc = Crc32Update(crc, head);
      pos = det_start;
    }
    if (pos < offset) {  // the implicit zero hole of a past-EOF write
      const uint64_t zeros_end = std::min(offset, stop);
      crc = Crc32Update(crc, BufferSlice::ZeroPage(zeros_end - pos).span());
      pos = zeros_end;
    }
    if (pos < stop && pos < end) {
      const uint64_t data_end = std::min(end, stop);
      crc = Crc32Update(
          crc, std::span<const uint8_t>(data.data() + (pos - offset), data_end - pos));
      pos = data_end;
    }
    if (b == b_last && !tail.empty()) {
      crc = Crc32Update(crc, tail);
      pos += tail.size();
    }
    fresh[b - b0] = Crc32Final(crc);
  }

  SWIFT_RETURN_IF_ERROR(inner_->WriteAt(object_name, offset, data));
  const uint64_t nblocks = (new_size + bs - 1) / bs;
  if (sidecar->crcs.size() < nblocks) {
    sidecar->crcs.resize(nblocks, 0);
  }
  std::copy(fresh.begin(), fresh.end(), sidecar->crcs.begin() + b0);
  Metrics().seals->Increment(fresh.size());
  return PersistSeals(object_name, *sidecar, b0, b_last);
}

Result<uint64_t> IntegrityBackingStore::Size(const std::string& object_name) {
  SWIFT_RETURN_IF_ERROR(CheckName(object_name));
  return inner_->Size(object_name);
}

Status IntegrityBackingStore::Truncate(const std::string& object_name, uint64_t size) {
  SWIFT_RETURN_IF_ERROR(CheckName(object_name));
  std::lock_guard<std::mutex> lock(mutex_);
  SWIFT_ASSIGN_OR_RETURN(const uint64_t old_size, inner_->Size(object_name));
  SWIFT_ASSIGN_OR_RETURN(Sidecar * sidecar, LoadSidecar(object_name));
  if (size == old_size) {
    return OkStatus();
  }
  const uint64_t bs = block_size_;
  // The block containing the size-change boundary keeps some of its old
  // bytes, so it must verify before it is resealed at its new clip length.
  const uint64_t boundary = std::min(size, old_size);
  const uint64_t bb = boundary / bs;
  uint32_t boundary_crc = 0;
  bool have_boundary = false;
  if (boundary % bs != 0) {
    const uint64_t begin = bb * bs;
    const uint64_t stored_stop = std::min((bb + 1) * bs, old_size);
    SWIFT_ASSIGN_OR_RETURN(BufferSlice old_block,
                           inner_->ReadAt(object_name, begin, stored_stop - begin));
    if (bb >= sidecar->crcs.size() || Crc32(old_block.span()) != sidecar->crcs[bb]) {
      return CorruptBlockError(object_name, bb, bs);
    }
    const uint64_t new_stop = std::min((bb + 1) * bs, size);
    const uint64_t kept = std::min(boundary, new_stop) - begin;
    uint32_t crc = Crc32Init();
    crc = Crc32Update(crc, std::span<const uint8_t>(old_block.data(), kept));
    if (new_stop - begin > kept) {  // extension pads the block with zeros
      crc = Crc32Update(crc, BufferSlice::ZeroPage(new_stop - begin - kept).span());
    }
    boundary_crc = Crc32Final(crc);
    have_boundary = true;
  }
  SWIFT_RETURN_IF_ERROR(inner_->Truncate(object_name, size));
  const uint64_t nblocks = (size + bs - 1) / bs;
  const uint64_t old_nblocks = (old_size + bs - 1) / bs;
  sidecar->crcs.resize(nblocks, 0);
  if (have_boundary && bb < nblocks) {
    sidecar->crcs[bb] = boundary_crc;
  }
  // Extension past the old last block appends all-zero blocks.
  for (uint64_t b = old_nblocks; b < nblocks; ++b) {
    sidecar->crcs[b] = Crc32(BufferSlice::ZeroPage(std::min(bs, size - b * bs)).span());
  }
  return PersistSidecar(object_name, *sidecar);
}

Status IntegrityBackingStore::Remove(const std::string& object_name) {
  SWIFT_RETURN_IF_ERROR(CheckName(object_name));
  std::lock_guard<std::mutex> lock(mutex_);
  cache_.erase(object_name);
  SWIFT_RETURN_IF_ERROR(inner_->Remove(object_name));
  return inner_->Remove(SidecarName(object_name));
}

Result<ScrubReport> IntegrityBackingStore::Scrub(const std::string& object_name) {
  SWIFT_RETURN_IF_ERROR(CheckName(object_name));
  std::lock_guard<std::mutex> lock(mutex_);
  if (!inner_->Exists(object_name)) {
    return NotFoundError("no store file '" + object_name + "'");
  }
  SWIFT_ASSIGN_OR_RETURN(Sidecar * sidecar, LoadSidecar(object_name));
  SWIFT_ASSIGN_OR_RETURN(const uint64_t size, inner_->Size(object_name));
  const uint64_t bs = block_size_;
  // Walk every block that is stored OR sealed: a torn write can shorten the
  // file below its sidecar coverage, and those lost tails count as corrupt.
  const uint64_t nblocks =
      std::max((size + bs - 1) / bs, static_cast<uint64_t>(sidecar->crcs.size()));
  ScrubReport report;
  report.blocks_checked = nblocks;
  constexpr uint64_t kChunkBlocks = 64;
  for (uint64_t base = 0; base < nblocks; base += kChunkBlocks) {
    const uint64_t count = std::min(kChunkBlocks, nblocks - base);
    const uint64_t stored_len =
        base * bs < size ? std::min(count * bs, size - base * bs) : 0;
    BufferSlice buf;
    if (stored_len > 0) {
      SWIFT_ASSIGN_OR_RETURN(buf, inner_->ReadAt(object_name, base * bs, stored_len));
    }
    for (uint64_t i = 0; i < count; ++i) {
      const uint64_t b = base + i;
      const uint64_t len = i * bs < stored_len ? std::min(bs, stored_len - i * bs) : 0;
      const uint32_t crc =
          Crc32(len > 0 ? std::span<const uint8_t>(buf.data() + i * bs, len)
                        : std::span<const uint8_t>());
      if (b < sidecar->crcs.size() && crc == sidecar->crcs[b]) {
        continue;
      }
      Metrics().corrupt->Increment();
      const uint64_t begin = b * bs;
      const uint64_t reported = len > 0 ? len : bs;  // lost tails report a full block
      if (!report.corrupt_ranges.empty() &&
          report.corrupt_ranges.back().offset + report.corrupt_ranges.back().length >= begin) {
        report.corrupt_ranges.back().length = begin + reported - report.corrupt_ranges.back().offset;
      } else {
        report.corrupt_ranges.push_back(CorruptRange{begin, reported});
      }
    }
  }
  Metrics().blocks_verified->Increment(nblocks);
  return report;
}

}  // namespace swift
