#include "storage/sorted_run.h"

#include <algorithm>

namespace hamr::storage {

void RunBuffer::sort() {
  std::stable_sort(index_.begin(), index_.end(), [](const Rec& a, const Rec& b) {
    if (a.prefix != b.prefix) return a.prefix < b.prefix;
    return a.key() < b.key();
  });
}

void RunBuffer::write_to(RunWriter& out) const {
  for (const Rec& r : index_) out.add(r.key(), r.value());
}

RunBuffer RunBuffer::take() {
  RunBuffer out(gauge_);
  out.arena_ = std::move(arena_);
  arena_ = Arena(gauge_);
  out.index_.swap(index_);
  out.payload_bytes_ = std::exchange(payload_bytes_, 0);
  return out;
}

void RunBuffer::clear() {
  index_.clear();
  index_.shrink_to_fit();
  arena_.clear();
  payload_bytes_ = 0;
}

RunMerge open_merge(const FileStore* store, const std::vector<std::string>& run_paths,
                    const RunBuffer* memory) {
  std::vector<RunSource> sources;
  sources.reserve(run_paths.size() + 1);
  for (const std::string& path : run_paths) sources.emplace_back(store, path);
  if (memory != nullptr) sources.emplace_back(memory);
  return RunMerge(std::move(sources));
}

uint64_t merge_into(FileStore* store, const std::vector<std::string>& run_paths,
                    const RunBuffer* memory, const std::string& out_path) {
  RunMerge merge = open_merge(store, run_paths, memory);
  RunWriter out(store, out_path);
  std::string_view key, value;
  while (merge.next(&key, &value)) out.add(key, value);
  out.close();
  return out.records();
}

}  // namespace hamr::storage
