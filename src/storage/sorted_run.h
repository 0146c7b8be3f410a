// Key-sorted runs in memory and their k-way merge: the one implementation
// behind the engine's reduce staging, the sort sink and the MapReduce
// baseline's merges. Spill policy (when a buffer becomes a run file) stays
// with each caller; this module only owns the layout, the order and the merge.
//
// RunBuffer: record bytes live contiguously in a chunked arena and the index
// carries views plus a cached 8-byte key prefix, so staging a record is one
// arena bump + one index push and the sort compares integers instead of
// dereferencing two heap strings.
//
// LoserTree: k-way merge by a tree of losers. A linear best-of-k scan costs
// O(k) comparisons per output record; the loser tree costs O(log k): after
// the winner is consumed, only the path from its leaf to the root is
// replayed.
//
// Source concept (LoserTree's template argument):
//   bool next(std::string_view* key, std::string_view* value);
//     Advances to the next record, filling the views, or returns false when
//     exhausted. Views must stay valid until the source's following next()
//     call (arena- or file-buffer-backed sources satisfy this trivially).
//
// Stability: ties are broken by the smaller source index, so listing spill
// runs in creation order followed by the in-memory run reproduces exactly
// the arrival-order semantics of a stable merge.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/arena.h"
#include "common/metrics.h"
#include "storage/run_file.h"

namespace hamr::storage {

// Big-endian 8-byte key prefix: integer compare of prefixes orders exactly
// like the lexicographic compare of the first 8 key bytes, so the sort only
// touches key bytes on a prefix tie.
inline uint64_t key_prefix(std::string_view key) {
  uint64_t p = 0;
  const size_t n = key.size() < 8 ? key.size() : 8;
  for (size_t i = 0; i < n; ++i) {
    p |= static_cast<uint64_t>(static_cast<uint8_t>(key[i])) << (56 - 8 * i);
  }
  return p;
}

class RunBuffer {
 public:
  // One staged record: key bytes at [data, data+key_len), value bytes
  // immediately after.
  struct Rec {
    uint64_t prefix = 0;
    uint32_t key_len = 0;
    uint32_t value_len = 0;
    const char* data = nullptr;
    std::string_view key() const { return {data, key_len}; }
    std::string_view value() const { return {data + key_len, value_len}; }
  };

  // Arena chunks are charged to `arena_gauge` (may be null).
  explicit RunBuffer(Gauge* arena_gauge = nullptr)
      : gauge_(arena_gauge), arena_(arena_gauge) {}

  void add(std::string_view key, std::string_view value) {
    char* data = arena_.alloc(key.size() + value.size());
    std::memcpy(data, key.data(), key.size());
    std::memcpy(data + key.size(), value.data(), value.size());
    index_.push_back({key_prefix(key), static_cast<uint32_t>(key.size()),
                      static_cast<uint32_t>(value.size()), data});
    payload_bytes_ += key.size() + value.size();
  }

  size_t records() const { return index_.size(); }
  // Key plus value bytes of the staged records (index entries excluded).
  uint64_t payload_bytes() const { return payload_bytes_; }
  const std::vector<Rec>& recs() const { return index_; }

  // Stable sort by key (prefix first): equal keys keep insertion order.
  void sort();
  // Appends the records in index order (key order after sort()).
  void write_to(RunWriter& out) const;
  // Moves every record out, e.g. to sort and spill them outside a lock.
  // This buffer is left empty, its new arena charging the same gauge.
  RunBuffer take();
  // Drops every record and releases the arena and the index.
  void clear();

 private:
  Gauge* gauge_;
  Arena arena_;
  std::vector<Rec> index_;
  uint64_t payload_bytes_ = 0;
};

template <typename Source>
class LoserTree {
 public:
  explicit LoserTree(std::vector<Source> sources)
      : sources_(std::move(sources)),
        k_(sources_.size()),
        tree_(k_, 0),
        key_(k_),
        value_(k_),
        exhausted_(k_, false) {}

  // Pops the globally smallest record. The output views point into the
  // winning source and remain valid until the next call.
  bool next(std::string_view* key, std::string_view* value) {
    if (k_ == 0) return false;
    if (!started_) {
      for (size_t i = 0; i < k_; ++i) advance(i);
      winner_ = build(1);
      started_ = true;
    } else {
      // Advance the previous winner only now: pulling its source earlier
      // would invalidate the views handed out by the last call.
      advance(winner_);
      replay();
    }
    if (exhausted_[winner_]) return false;
    *key = key_[winner_];
    *value = value_[winner_];
    return true;
  }

 private:
  void advance(size_t i) {
    if (exhausted_[i]) return;
    if (!sources_[i].next(&key_[i], &value_[i])) {
      exhausted_[i] = true;
      key_[i] = {};
      value_[i] = {};
    }
  }

  // True when source a must come out before source b. Exhausted sources
  // always lose; key ties go to the smaller index (stability).
  bool wins(size_t a, size_t b) const {
    if (exhausted_[a]) return false;
    if (exhausted_[b]) return true;
    if (key_[a] != key_[b]) return key_[a] < key_[b];
    return a < b;
  }

  // Array-heap layout: internal nodes 1..k-1 hold the loser of their
  // subtree's playoff; leaf node k+i is source i. Returns the subtree
  // winner; called once as build(1) after the leaves are primed.
  size_t build(size_t node) {
    if (node >= k_) return node - k_;
    const size_t l = build(2 * node);
    const size_t r = build(2 * node + 1);
    const size_t w = wins(l, r) ? l : r;
    tree_[node] = w == l ? r : l;
    return w;
  }

  // Replays the path from the previous winner's leaf to the root against
  // the stored losers.
  void replay() {
    size_t w = winner_;
    for (size_t node = (w + k_) / 2; node >= 1; node /= 2) {
      if (wins(tree_[node], w)) std::swap(tree_[node], w);
    }
    winner_ = w;
  }

  std::vector<Source> sources_;
  size_t k_;
  std::vector<size_t> tree_;
  std::vector<std::string_view> key_;
  std::vector<std::string_view> value_;
  // vector<char>, not vector<bool>: flags are read in the comparator's
  // innermost path.
  std::vector<char> exhausted_;
  size_t winner_ = 0;
  bool started_ = false;
};

// One merge input: a run file or a sorted RunBuffer. Both keep every view
// they hand out valid for the source's lifetime, so a merge consumer may
// hold all of them until the merge ends.
class RunSource {
 public:
  RunSource(const FileStore* store, const std::string& path)
      : reader_(std::in_place, store, path) {}
  explicit RunSource(const RunBuffer* buffer) : buffer_(buffer) {}

  bool next(std::string_view* key, std::string_view* value) {
    if (reader_) return reader_->next(key, value);
    if (pos_ >= buffer_->records()) return false;
    const RunBuffer::Rec& r = buffer_->recs()[pos_++];
    *key = r.key();
    *value = r.value();
    return true;
  }

 private:
  std::optional<RunReader> reader_;
  const RunBuffer* buffer_ = nullptr;
  size_t pos_ = 0;
};

using RunMerge = LoserTree<RunSource>;

// Opens `run_paths` in order (each read once, charging the device), then
// `memory` when given and already sorted. Ties go to the earlier source, so
// runs spilled in creation order followed by the memory buffer merge into
// stable arrival order.
RunMerge open_merge(const FileStore* store, const std::vector<std::string>& run_paths,
                    const RunBuffer* memory = nullptr);

// One merge pass of `run_paths` (then `memory`) into the run file `out_path`.
// Returns the number of records written.
uint64_t merge_into(FileStore* store, const std::vector<std::string>& run_paths,
                    const RunBuffer* memory, const std::string& out_path);

// Hands each group of equal consecutive keys of `merge` to
// fn(key, values), values in merge order. The value views must outlive the
// group, which RunSource's do.
template <typename Merge, typename Fn>
void for_each_key_group(Merge& merge, Fn&& fn) {
  std::string current_key;
  std::vector<std::string_view> values;
  std::string_view key, value;
  bool more = merge.next(&key, &value);
  while (more) {
    current_key.assign(key);
    values.clear();
    do {
      values.push_back(value);
      more = merge.next(&key, &value);
    } while (more && key == current_key);
    fn(std::string_view(current_key), values);
  }
}

}  // namespace hamr::storage
