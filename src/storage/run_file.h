// Sorted-run files: the on-disk format shared by the baseline engine's
// map-side sort/spill/merge and by HAMR's reduce-input spill path.
//
// A run file is a sequence of length-prefixed (key, value) records whose keys
// are non-decreasing. RunWriter enforces the ordering in debug builds;
// RunReader streams records back without materializing the file as records;
// merge_runs k-way merges many runs into one through the loser tree of
// storage/sorted_run.h (paying device cost for both the reads and the writes,
// exactly like Hadoop's multi-pass merge).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.h"
#include "storage/file_store.h"

namespace hamr::storage {

// Streams sorted records into an in-memory buffer and flushes the final file
// once on close() so device cost is charged for the file's full size exactly
// once (sequential write).
class RunWriter {
 public:
  RunWriter(FileStore* store, std::string path);
  ~RunWriter();

  void add(std::string_view key, std::string_view value);

  // Flushes and finalizes the file. Returns total bytes written.
  uint64_t close();

  // Fallible close: on an injected device write error the buffer is kept and
  // the writer stays open, so the caller can back off and call finish()
  // again (or fall back to the infallible close()).
  Result<uint64_t> finish();

  uint64_t records() const { return records_; }

 private:
  FileStore* store_;
  std::string path_;
  ByteBuffer buf_;
  uint64_t records_ = 0;
  bool closed_ = false;
  std::string last_key_;  // ordering check
};

// Sequentially decodes a run file. The whole file is fetched once (charging
// the device for one sequential read) and then iterated in memory.
class RunReader {
 public:
  RunReader(const FileStore* store, const std::string& path);

  // Returns false at end of file. Views are valid until the next call… they
  // point into the reader-owned buffer, so copies are taken by callers that
  // keep them.
  bool next(std::string_view* key, std::string_view* value);

 private:
  std::string data_;
  size_t pos_ = 0;
};

// K-way merges sorted runs into `out_path` and deletes the input runs.
// Stable on equal keys (run order). Returns the number of records written.
// `max_fan_in` (>= 2) bounds how many runs merge at once, like Hadoop's
// io.sort.factor: with more runs than the fan-in, intermediate merge files
// are written and re-read (extra disk passes - the behavior the paper's
// in-memory engine avoids). 0 = unlimited.
uint64_t merge_runs(FileStore* store, const std::vector<std::string>& run_paths,
                    const std::string& out_path, size_t max_fan_in = 0);

}  // namespace hamr::storage
