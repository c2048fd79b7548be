#include "src/agent/backing_store.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace swift {

// ------------------------------------------------------ InMemoryBackingStore

namespace {

// ThreadSanitizer does not intercept mremap(2): the addresses a move leaves
// keep their shadow state, which it reports as races once a later mapping
// reuses them. Under it, growth maps anew and copies instead.
#if defined(__SANITIZE_THREAD__)
constexpr bool kRemap = false;
#else
constexpr bool kRemap = true;
#endif

uint64_t RoundUpToPage(uint64_t bytes) {
  static const uint64_t page = static_cast<uint64_t>(::sysconf(_SC_PAGESIZE));
  return (bytes + page - 1) / page * page;
}

}  // namespace

InMemoryBackingStore::File::~File() {
  if (base_ != nullptr) {
    ::munmap(base_, capacity_);
  }
}

Status InMemoryBackingStore::File::Resize(uint64_t size) {
  if (size > capacity_) {
    const uint64_t capacity = RoundUpToPage(std::max(size, 2 * capacity_));
    void* grown = kRemap && base_ != nullptr
                      ? ::mremap(base_, capacity_, capacity, MREMAP_MAYMOVE)
                      : ::mmap(nullptr, capacity, PROT_READ | PROT_WRITE,
                               MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (grown == MAP_FAILED) {
      return ResourceExhaustedError("growing a store file to " + std::to_string(size) +
                                    " bytes: " + std::strerror(errno));
    }
    if (!kRemap && base_ != nullptr) {
      std::memcpy(grown, base_, size_);
      ::munmap(base_, capacity_);
    }
    base_ = static_cast<uint8_t*>(grown);
    capacity_ = capacity;
  } else if (size < size_) {
    // Zero what is cut off: the rest of the new last page by hand, whole
    // pages by handing them back (they read as zeros when touched again).
    const uint64_t whole = std::min(RoundUpToPage(size), size_);
    std::memset(base_ + size, 0, whole - size);
    if (const uint64_t end = RoundUpToPage(size_); end > whole) {
      ::madvise(base_ + whole, end - whole, MADV_DONTNEED);
    }
  }
  size_ = size;
  return OkStatus();
}

bool InMemoryBackingStore::Exists(const std::string& object_name) {
  std::lock_guard<std::mutex> lock(mutex_);
  return files_.count(object_name) > 0;
}

Status InMemoryBackingStore::Ensure(const std::string& object_name) {
  std::lock_guard<std::mutex> lock(mutex_);
  files_.try_emplace(object_name);
  return OkStatus();
}

Result<BufferSlice> InMemoryBackingStore::ReadAt(const std::string& object_name,
                                                 uint64_t offset, uint64_t length) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = files_.find(object_name);
  if (it == files_.end()) {
    return NotFoundError("no store file '" + object_name + "'");
  }
  const File& file = it->second;
  if (offset >= file.size()) {
    // Fully past EOF: zero-extension comes straight off the shared zero
    // page — no allocation, no memset, no copy.
    return BufferSlice::ZeroPage(length);
  }
  // The file is mutable under later writes, so the served page must be a
  // snapshot: one counted copy out of the store.
  Buffer out = Buffer::AllocateZeroed(length);
  const uint64_t available = std::min<uint64_t>(length, file.size() - offset);
  if (available > 0) {
    std::memcpy(out.data(), file.data() + offset, available);
    CountBufferCopy(available);
  }
  return out.SliceAll();
}

Status InMemoryBackingStore::WriteAt(const std::string& object_name, uint64_t offset,
                                     std::span<const uint8_t> data) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = files_.find(object_name);
  if (it == files_.end()) {
    return NotFoundError("no store file '" + object_name + "'");
  }
  File& file = it->second;
  if (offset + data.size() > file.size()) {
    SWIFT_RETURN_IF_ERROR(file.Resize(offset + data.size()));
  }
  if (!data.empty()) {
    std::memcpy(file.data() + offset, data.data(), data.size());
  }
  return OkStatus();
}

Result<uint64_t> InMemoryBackingStore::Size(const std::string& object_name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = files_.find(object_name);
  if (it == files_.end()) {
    return NotFoundError("no store file '" + object_name + "'");
  }
  return static_cast<uint64_t>(it->second.size());
}

Status InMemoryBackingStore::Truncate(const std::string& object_name, uint64_t size) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = files_.find(object_name);
  if (it == files_.end()) {
    return NotFoundError("no store file '" + object_name + "'");
  }
  return it->second.Resize(size);
}

Status InMemoryBackingStore::Remove(const std::string& object_name) {
  std::lock_guard<std::mutex> lock(mutex_);
  files_.erase(object_name);  // absent is fine: the goal state is reached
  return OkStatus();
}

uint64_t InMemoryBackingStore::TotalBytes() {
  std::lock_guard<std::mutex> lock(mutex_);
  uint64_t total = 0;
  for (const auto& [name, file] : files_) {
    total += file.size();
  }
  return total;
}

// -------------------------------------------------------- PosixBackingStore

PosixBackingStore::PosixBackingStore(std::string root)
    : PosixBackingStore(std::move(root), Options()) {}

PosixBackingStore::PosixBackingStore(std::string root, Options options)
    : root_(std::move(root)), options_(options) {
  if (!root_.empty() && root_.back() == '/') {
    root_.pop_back();
  }
}

Result<std::string> PosixBackingStore::PathFor(const std::string& object_name) const {
  if (object_name.empty() || object_name.find('/') != std::string::npos ||
      object_name == "." || object_name == "..") {
    return InvalidArgumentError("object name not usable as a file name: '" + object_name + "'");
  }
  return root_ + "/" + object_name;
}

bool PosixBackingStore::Exists(const std::string& object_name) {
  auto path = PathFor(object_name);
  if (!path.ok()) {
    return false;
  }
  struct stat st;
  return ::stat(path->c_str(), &st) == 0;
}

Status PosixBackingStore::Ensure(const std::string& object_name) {
  SWIFT_ASSIGN_OR_RETURN(std::string path, PathFor(object_name));
  std::lock_guard<std::mutex> lock(mutex_);
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT, 0644);
  if (fd < 0) {
    return IoError("open('" + path + "'): " + std::strerror(errno));
  }
  ::close(fd);
  return OkStatus();
}

Result<BufferSlice> PosixBackingStore::ReadAt(const std::string& object_name,
                                              uint64_t offset, uint64_t length) {
  SWIFT_ASSIGN_OR_RETURN(std::string path, PathFor(object_name));
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return errno == ENOENT ? NotFoundError("no store file '" + object_name + "'")
                           : IoError("open('" + path + "'): " + std::strerror(errno));
  }
  struct stat st;
  if (::fstat(fd, &st) == 0 && offset >= static_cast<uint64_t>(st.st_size)) {
    // Fully past EOF: serve the zero-extension off the shared zero page.
    ::close(fd);
    return BufferSlice::ZeroPage(length);
  }
  // pread lands the bytes directly in the served block (kernel copy only;
  // no user-space copy to count).
  Buffer out = Buffer::AllocateZeroed(length);
  uint64_t done = 0;
  while (done < length) {
    const ssize_t n = ::pread(fd, out.data() + done, length - done,
                              static_cast<off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      ::close(fd);
      return IoError("pread('" + path + "'): " + std::strerror(errno));
    }
    if (n == 0) {
      break;  // EOF: remainder stays zero-filled
    }
    done += static_cast<uint64_t>(n);
  }
  ::close(fd);
  return out.SliceAll();
}

Status PosixBackingStore::WriteAt(const std::string& object_name, uint64_t offset,
                                  std::span<const uint8_t> data) {
  SWIFT_ASSIGN_OR_RETURN(std::string path, PathFor(object_name));
  const int fd = ::open(path.c_str(), O_WRONLY);
  if (fd < 0) {
    return errno == ENOENT ? NotFoundError("no store file '" + object_name + "'")
                           : IoError("open('" + path + "'): " + std::strerror(errno));
  }
  uint64_t done = 0;
  while (done < data.size()) {
    const ssize_t n = ::pwrite(fd, data.data() + done, data.size() - done,
                               static_cast<off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      ::close(fd);
      return IoError("pwrite('" + path + "'): " + std::strerror(errno));
    }
    if (n == 0) {
      // pwrite never legitimately writes zero bytes for a nonzero count;
      // bail rather than spin.
      ::close(fd);
      return IoError("pwrite('" + path + "'): wrote 0 bytes");
    }
    done += static_cast<uint64_t>(n);
  }
  if (options_.fsync_on_write && ::fsync(fd) != 0) {
    const Status status = IoError("fsync('" + path + "'): " + std::strerror(errno));
    ::close(fd);
    return status;
  }
  ::close(fd);
  return OkStatus();
}

Result<uint64_t> PosixBackingStore::Size(const std::string& object_name) {
  SWIFT_ASSIGN_OR_RETURN(std::string path, PathFor(object_name));
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) {
    return errno == ENOENT ? NotFoundError("no store file '" + object_name + "'")
                           : IoError("stat('" + path + "'): " + std::strerror(errno));
  }
  return static_cast<uint64_t>(st.st_size);
}

Status PosixBackingStore::Truncate(const std::string& object_name, uint64_t size) {
  SWIFT_ASSIGN_OR_RETURN(std::string path, PathFor(object_name));
  if (::truncate(path.c_str(), static_cast<off_t>(size)) != 0) {
    return errno == ENOENT ? NotFoundError("no store file '" + object_name + "'")
                           : IoError("truncate('" + path + "'): " + std::strerror(errno));
  }
  if (options_.fsync_on_write) {
    const int fd = ::open(path.c_str(), O_WRONLY);
    if (fd < 0) {
      return IoError("open('" + path + "'): " + std::strerror(errno));
    }
    if (::fsync(fd) != 0) {
      const Status status = IoError("fsync('" + path + "'): " + std::strerror(errno));
      ::close(fd);
      return status;
    }
    ::close(fd);
  }
  return OkStatus();
}

Status PosixBackingStore::Remove(const std::string& object_name) {
  SWIFT_ASSIGN_OR_RETURN(std::string path, PathFor(object_name));
  if (::unlink(path.c_str()) != 0 && errno != ENOENT) {
    return IoError("unlink('" + path + "'): " + std::strerror(errno));
  }
  return OkStatus();
}

}  // namespace swift
