// FlatAccTable: open-addressing key -> accumulator table for partial-reduce
// and sender-side combine stripes.
//
// The previous unordered_map<std::string, std::string> paid a std::string
// key allocation per fold just to probe the map. This table stores key bytes
// in a chunked Arena (stable views, no per-key allocation beyond the arena
// bump) and probes with the caller's string_view directly - heterogeneous
// lookup with zero temporaries. Entries live in insertion order in a flat
// vector; the slot array is a power-of-two linear-probe index of entry
// positions, rebuilt on growth (entries themselves never move relative to
// their accumulators, so `std::string& acc` references stay valid only until
// the next insert - callers fold under the stripe lock and never hold the
// reference across inserts).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/arena.h"
#include "common/hash.h"

namespace hamr::engine {

class FlatAccTable {
 public:
  struct Entry {
    uint64_t hash = 0;
    std::string_view key;  // stable view into the arena
    std::string acc;
  };

  explicit FlatAccTable(Gauge* arena_gauge = nullptr) : arena_(arena_gauge) {}

  FlatAccTable(FlatAccTable&&) noexcept = default;
  FlatAccTable& operator=(FlatAccTable&&) noexcept = default;
  FlatAccTable(const FlatAccTable&) = delete;
  FlatAccTable& operator=(const FlatAccTable&) = delete;

  // The accumulator for `key`, default-constructed on first sight. The
  // reference is invalidated by the next find_or_insert (vector growth).
  std::string& find_or_insert(std::string_view key) {
    return find_or_insert(key, hash_bytes(key));
  }

  // Same, with `h` = hash_bytes(key) already computed by the caller (the
  // fold paths hash each record once for both stripe choice and probe).
  std::string& find_or_insert(std::string_view key, uint64_t h) {
    if (slots_.empty()) rebuild(kInitialSlots);
    const size_t mask = slots_.size() - 1;
    size_t i = static_cast<size_t>(h) & mask;
    for (;; i = (i + 1) & mask) {
      const uint32_t s = slots_[i];
      if (s == 0) break;
      Entry& e = entries_[s - 1];
      if (e.hash == h && e.key == key) return e.acc;
    }
    // Insert: grow first if the load factor would pass ~0.7 so the probe
    // above never sees a full table.
    if ((entries_.size() + 1) * 10 >= slots_.size() * 7) {
      rebuild(slots_.size() * 2);
      i = static_cast<size_t>(h) & (slots_.size() - 1);
      while (slots_[i] != 0) i = (i + 1) & (slots_.size() - 1);
    }
    entries_.push_back(Entry{h, arena_.store(key), std::string()});
    slots_[i] = static_cast<uint32_t>(entries_.size());
    return entries_.back().acc;
  }

  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  uint64_t arena_bytes() const { return arena_.reserved_bytes(); }

  // Entries in insertion order (keys are stable arena views).
  std::vector<Entry>& entries() { return entries_; }
  const std::vector<Entry>& entries() const { return entries_; }

  void clear() {
    entries_.clear();
    slots_.clear();
    arena_.clear();
  }

 private:
  static constexpr size_t kInitialSlots = 64;

  void rebuild(size_t slot_count) {
    slots_.assign(slot_count, 0);
    const size_t mask = slot_count - 1;
    for (size_t n = 0; n < entries_.size(); ++n) {
      size_t i = static_cast<size_t>(entries_[n].hash) & mask;
      while (slots_[i] != 0) i = (i + 1) & mask;
      slots_[i] = static_cast<uint32_t>(n + 1);
    }
  }

  std::vector<Entry> entries_;
  std::vector<uint32_t> slots_;  // entry index + 1; 0 = empty
  Arena arena_;
};

}  // namespace hamr::engine
