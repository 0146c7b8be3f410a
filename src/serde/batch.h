// Batch (vectorized) codecs: encode/decode whole runs of values with one
// bounds check and one memcpy per run instead of one per element.
//
// The scalar serde path pays, per value, a length/bounds check and a few
// branch-y varint byte loops. For columnar row blocks and sort records the
// values are homogeneous, so the codec can amortize:
//
//   * fixed-width runs (u64 / f64): varint count, then count*8 raw bytes
//     moved with a single memcpy each way (little-endian hosts only, same
//     assumption as Writer::put_fixed64);
//   * string runs: varint count, then the count varint lengths, then all
//     payload bytes concatenated - the decoder bounds-checks the payload
//     block once and slices views out of it.
//
// bench/micro_serde.cpp carries scalar-vs-batch head-to-heads for both
// shapes; the batch side is the contract the row codec (query/row.cpp) and
// the sort record path build on.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "serde/serde.h"

namespace hamr::serde {

// --- fixed-width runs ------------------------------------------------------

inline void put_u64_run(Writer& w, const uint64_t* values, size_t count) {
  w.put_varint(count);
  w.put_raw(values, count * sizeof(uint64_t));
}

inline void put_u64_run(Writer& w, const std::vector<uint64_t>& values) {
  put_u64_run(w, values.data(), values.size());
}

// Hostile-input guard shared by the run decoders: a run of `count` values
// of at least `min_bytes` each must fit in what is left, checked before any
// allocation or size arithmetic that could overflow.
inline void require_run(const Reader& r, uint64_t count, size_t min_bytes) {
  if (count > r.remaining() / min_bytes) {
    throw DecodeError("run count " + std::to_string(count) + " exceeds its " +
                      std::to_string(r.remaining()) + " bytes");
  }
}

inline void get_u64_run(Reader& r, std::vector<uint64_t>* out) {
  const uint64_t count = r.get_varint();
  require_run(r, count, sizeof(uint64_t));
  const std::string_view raw = r.get_raw(count * sizeof(uint64_t));
  const size_t base = out->size();
  out->resize(base + count);
  if (count != 0) std::memcpy(out->data() + base, raw.data(), raw.size());
}

inline void put_f64_run(Writer& w, const double* values, size_t count) {
  w.put_varint(count);
  w.put_raw(values, count * sizeof(double));
}

inline void put_f64_run(Writer& w, const std::vector<double>& values) {
  put_f64_run(w, values.data(), values.size());
}

inline void get_f64_run(Reader& r, std::vector<double>* out) {
  const uint64_t count = r.get_varint();
  require_run(r, count, sizeof(double));
  const std::string_view raw = r.get_raw(count * sizeof(double));
  const size_t base = out->size();
  out->resize(base + count);
  if (count != 0) std::memcpy(out->data() + base, raw.data(), raw.size());
}

// --- string runs -----------------------------------------------------------

inline void put_string_run(Writer& w, const std::string_view* values,
                           size_t count) {
  w.put_varint(count);
  for (size_t i = 0; i < count; ++i) w.put_varint(values[i].size());
  for (size_t i = 0; i < count; ++i) {
    w.put_raw(values[i].data(), values[i].size());
  }
}

inline void put_string_run(Writer& w, const std::vector<std::string_view>& values) {
  put_string_run(w, values.data(), values.size());
}

// Decoded views point into the Reader's underlying buffer (same lifetime
// rule as Reader::get_bytes). The payload block is bounds-checked once for
// the whole run.
inline void get_string_run(Reader& r, std::vector<std::string_view>* out) {
  const uint64_t count = r.get_varint();
  require_run(r, count, 1);  // one length byte per string at least
  std::vector<uint64_t> lens(count);
  uint64_t total = 0;
  for (uint64_t i = 0; i < count; ++i) {
    lens[i] = r.get_varint();
    // The payload follows the lengths, so it must fit in what is left; this
    // also keeps `total` from wrapping.
    if (lens[i] > r.remaining() || total + lens[i] > r.remaining()) {
      throw DecodeError("string run payload exceeds its input");
    }
    total += lens[i];
  }
  std::string_view payload = r.get_raw(total);
  out->reserve(out->size() + count);
  size_t off = 0;
  for (uint64_t i = 0; i < count; ++i) {
    out->push_back(payload.substr(off, lens[i]));
    off += lens[i];
  }
}

// --- framed record runs ----------------------------------------------------
//
// A framed stream is a plain concatenation of length-prefixed records
// (varint len | bytes)*, the layout shared by staged table shards and sort
// run files. These helpers are the one chunked encode/decode loop both
// readers use instead of each hand-rolling its own cursor arithmetic.

inline void put_framed(Writer& w, std::string_view record) {
  w.put_bytes(record);
}

// Decodes up to `max_records` records from `data` starting at *pos,
// appending views (into `data`) to `out` and advancing *pos past what was
// consumed. Returns the number decoded; fewer than `max_records` means the
// end of the stream was reached. Throws DecodeError on a truncated record.
inline size_t get_framed_run(std::string_view data, size_t* pos,
                             size_t max_records,
                             std::vector<std::string_view>* out) {
  Reader r(data.substr(*pos));
  size_t decoded = 0;
  while (decoded < max_records && r.remaining() > 0) {
    out->push_back(r.get_bytes());
    ++decoded;
  }
  *pos += r.position();
  return decoded;
}

}  // namespace hamr::serde
