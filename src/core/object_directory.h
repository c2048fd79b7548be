// Object metadata directory.
//
// Maps object names to their striping geometry, agent set, and logical size.
// The 1991 prototype leaned on the Unix file system for naming ("we have
// used file system facilities to name and store objects which makes the
// storage mediators unnecessary"); the full architecture keeps this state
// with the mediator. Our directory is an in-memory map with optional flat-
// file persistence, shared by mediator and clients.
//
// Unlike CFS — where losing the repository holding an object's descriptor
// loses the object (§6) — the directory is a separate, small, hardenable
// component: persist it wherever you like, or replicate the file.

#ifndef SWIFT_SRC_CORE_OBJECT_DIRECTORY_H_
#define SWIFT_SRC_CORE_OBJECT_DIRECTORY_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "src/core/stripe_layout.h"
#include "src/util/status.h"

namespace swift {

struct ObjectMetadata {
  std::string name;
  StripeConfig stripe;
  // Agent registry ids in stripe-column order.
  std::vector<uint32_t> agent_ids;
  // Logical object size in bytes.
  uint64_t size = 0;
};

class ObjectDirectory {
 public:
  ObjectDirectory() = default;

  Status Create(const ObjectMetadata& metadata);
  Result<ObjectMetadata> Lookup(const std::string& name) const;
  bool Exists(const std::string& name) const;
  Status UpdateSize(const std::string& name, uint64_t size);
  Status Remove(const std::string& name);
  std::vector<std::string> List() const;
  size_t object_count() const;

  // Flat-file persistence (one record per line; see object_directory.cc for
  // the format). Save replaces `path` atomically (temp file, fsync, rename,
  // directory fsync): on failure `path` keeps its old contents. Load
  // replaces current contents.
  Status SaveToFile(const std::string& path) const;
  Status LoadFromFile(const std::string& path);

 private:
  mutable std::mutex mutex_;
  std::map<std::string, ObjectMetadata> objects_;
};

}  // namespace swift

#endif  // SWIFT_SRC_CORE_OBJECT_DIRECTORY_H_
