#include "src/core/object_directory.h"

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <sstream>

namespace swift {

namespace {

// Record formats (one object per line, space-separated):
//   v1 <name> <num_agents> <stripe_unit> <parity:0|1|2> <size> <agent_count> <id...>
//   v2 <name> <num_agents> <stripe_unit> <parity:0|1|2> <parity_units> <codec:0|1>
//      <size> <agent_count> <id...>
// Single-XOR-parity objects keep emitting v1 so pre-codec directory files
// stay byte-identical; anything with m > 1 or a non-XOR codec uses v2.
// Names may not contain whitespace or newlines (enforced at Create).
constexpr char kRecordTagV1[] = "v1";
constexpr char kRecordTagV2[] = "v2";

bool ValidName(const std::string& name) {
  if (name.empty()) {
    return false;
  }
  for (char c : name) {
    if (c == ' ' || c == '\n' || c == '\r' || c == '\t') {
      return false;
    }
  }
  return true;
}

}  // namespace

Status ObjectDirectory::Create(const ObjectMetadata& metadata) {
  if (!ValidName(metadata.name)) {
    return InvalidArgumentError("object names must be non-empty and whitespace-free");
  }
  SWIFT_RETURN_IF_ERROR(metadata.stripe.Validate());
  if (metadata.agent_ids.size() != metadata.stripe.num_agents) {
    return InvalidArgumentError("agent list does not match stripe width");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  auto [it, inserted] = objects_.emplace(metadata.name, metadata);
  (void)it;
  if (!inserted) {
    return AlreadyExistsError("object '" + metadata.name + "' already exists");
  }
  return OkStatus();
}

Result<ObjectMetadata> ObjectDirectory::Lookup(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = objects_.find(name);
  if (it == objects_.end()) {
    return NotFoundError("no object named '" + name + "'");
  }
  return it->second;
}

bool ObjectDirectory::Exists(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return objects_.count(name) > 0;
}

Status ObjectDirectory::UpdateSize(const std::string& name, uint64_t size) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = objects_.find(name);
  if (it == objects_.end()) {
    return NotFoundError("no object named '" + name + "'");
  }
  it->second.size = size;
  return OkStatus();
}

Status ObjectDirectory::Remove(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (objects_.erase(name) == 0) {
    return NotFoundError("no object named '" + name + "'");
  }
  return OkStatus();
}

std::vector<std::string> ObjectDirectory::List() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> names;
  names.reserve(objects_.size());
  for (const auto& [name, metadata] : objects_) {
    names.push_back(name);
  }
  return names;
}

size_t ObjectDirectory::object_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return objects_.size();
}

Status ObjectDirectory::SaveToFile(const std::string& path) const {
  std::ostringstream out;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [name, m] : objects_) {
      const bool legacy =
          m.stripe.parity_units == 1 && m.stripe.codec == ErasureKind::kXor;
      out << (legacy ? kRecordTagV1 : kRecordTagV2) << ' ' << name << ' '
          << m.stripe.num_agents << ' ' << m.stripe.stripe_unit << ' '
          << static_cast<int>(m.stripe.parity);
      if (!legacy) {
        out << ' ' << m.stripe.parity_units << ' ' << static_cast<int>(m.stripe.codec);
      }
      out << ' ' << m.size << ' ' << m.agent_ids.size();
      for (uint32_t id : m.agent_ids) {
        out << ' ' << id;
      }
      out << '\n';
    }
  }
  // Atomic replace: write and fsync `<path>.tmp`, rename it over `path`,
  // then fsync the parent directory so the rename itself is durable. A crash
  // or failure at any step leaves either the old file or the new one, never
  // a torn mix; `path` is only ever replaced by a fully written file.
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) {
    return IoError("cannot write directory file '" + tmp + "'");
  }
  const std::string text = out.str();
  const bool written = std::fwrite(text.data(), 1, text.size(), f) == text.size() &&
                       std::fflush(f) == 0 && ::fsync(::fileno(f)) == 0;
  if (std::fclose(f) != 0 || !written) {
    std::remove(tmp.c_str());
    return IoError("short write to directory file '" + tmp + "'");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return IoError("cannot replace directory file '" + path + "'");
  }
  const std::string parent = std::filesystem::path(path).parent_path().string();
  const int dir = ::open(parent.empty() ? "." : parent.c_str(), O_RDONLY | O_DIRECTORY);
  const bool synced = dir >= 0 && ::fsync(dir) == 0;
  if (dir >= 0) {
    ::close(dir);
  }
  if (!synced) {
    return IoError("cannot sync the directory holding '" + path + "'");
  }
  return OkStatus();
}

Status ObjectDirectory::LoadFromFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) {
    return IoError("cannot read directory file '" + path + "'");
  }
  std::string contents;
  char buffer[4096];
  size_t n;
  while ((n = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
    contents.append(buffer, n);
  }
  std::fclose(f);

  std::map<std::string, ObjectMetadata> loaded;
  std::istringstream in(contents);
  std::string line;
  int line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) {
      continue;
    }
    std::istringstream fields(line);
    std::string tag;
    ObjectMetadata m;
    int parity = 0;
    size_t agent_count = 0;
    fields >> tag >> m.name >> m.stripe.num_agents >> m.stripe.stripe_unit >> parity;
    const bool v2 = tag == kRecordTagV2;
    int codec = 0;
    if (v2) {
      fields >> m.stripe.parity_units >> codec;
    }
    fields >> m.size >> agent_count;
    if (!fields || (tag != kRecordTagV1 && !v2) || parity < 0 || parity > 2 || codec < 0 ||
        codec > 1) {
      return IoError("malformed directory record at line " + std::to_string(line_number));
    }
    m.stripe.parity = static_cast<ParityMode>(parity);
    m.stripe.codec = static_cast<ErasureKind>(codec);
    m.agent_ids.resize(agent_count);
    for (size_t i = 0; i < agent_count; ++i) {
      fields >> m.agent_ids[i];
    }
    if (!fields || m.agent_ids.size() != m.stripe.num_agents || !m.stripe.Validate().ok()) {
      return IoError("inconsistent directory record at line " + std::to_string(line_number));
    }
    loaded[m.name] = std::move(m);
  }
  std::lock_guard<std::mutex> lock(mutex_);
  objects_ = std::move(loaded);
  return OkStatus();
}

}  // namespace swift
