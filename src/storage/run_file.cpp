#include "storage/run_file.h"

#include <cassert>

#include "serde/serde.h"
#include "storage/sorted_run.h"

namespace hamr::storage {

RunWriter::RunWriter(FileStore* store, std::string path)
    : store_(store), path_(std::move(path)) {}

RunWriter::~RunWriter() {
  if (!closed_) close();
}

void RunWriter::add(std::string_view key, std::string_view value) {
  assert(!closed_);
  assert(last_key_.empty() || key >= last_key_);
  last_key_.assign(key);
  serde::Writer w(buf_);
  w.put_bytes(key);
  w.put_bytes(value);
  ++records_;
}

uint64_t RunWriter::close() {
  if (closed_) return buf_.size();
  closed_ = true;
  store_->write_file(path_, buf_.view());
  return buf_.size();
}

Result<uint64_t> RunWriter::finish() {
  if (closed_) return static_cast<uint64_t>(buf_.size());
  Status status = store_->write_file_checked(path_, buf_.view());
  if (!status.ok()) return status;
  closed_ = true;
  return static_cast<uint64_t>(buf_.size());
}

RunReader::RunReader(const FileStore* store, const std::string& path) {
  auto result = store->read_file(path);
  result.status().ExpectOk();
  data_ = std::move(result).value();
}

bool RunReader::next(std::string_view* key, std::string_view* value) {
  if (pos_ >= data_.size()) return false;
  serde::Reader r(std::string_view(data_).substr(pos_));
  *key = r.get_bytes();
  *value = r.get_bytes();
  pos_ += r.position();
  return true;
}

uint64_t merge_runs(FileStore* store, const std::vector<std::string>& run_paths,
                    const std::string& out_path, size_t max_fan_in) {
  // Bounded fan-in: merge groups into intermediate files, repeat.
  std::vector<std::string> current = run_paths;
  for (uint64_t pass = 0; max_fan_in >= 2 && current.size() > max_fan_in; ++pass) {
    std::vector<std::string> next;
    for (size_t i = 0; i < current.size(); i += max_fan_in) {
      const size_t end = std::min(i + max_fan_in, current.size());
      if (end - i == 1) {
        next.push_back(current[i]);
        continue;
      }
      const std::vector<std::string> group(current.begin() + i, current.begin() + end);
      next.push_back(out_path + ".merge" + std::to_string(pass) + "_" + std::to_string(i));
      merge_into(store, group, nullptr, next.back());
      for (const std::string& path : group) (void)store->remove(path);
    }
    current = std::move(next);
  }
  const uint64_t written = merge_into(store, current, nullptr, out_path);
  for (const std::string& path : current) {
    if (path != out_path) (void)store->remove(path);
  }
  return written;
}

}  // namespace hamr::storage
