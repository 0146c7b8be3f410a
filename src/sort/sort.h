// Distributed sort (TeraSort-class) on the flowlet engine.
//
// Pipeline (one job):
//
//   SortRunLoader (per node)  --range-partitioned edge-->  SortSink (per node)
//
// The loader streams a node-local framed-record file in chunks; the edge
// routes each record by a RangePartitioner built from a seeded sampling pass
// over the inputs; the sink stages arrivals in a storage::RunBuffer, spills
// sorted runs past the memory budget, and on upstream completion merges
// spills + memory through storage's loser tree into one sorted run file per
// node. Because partition i's keys all precede
// partition i+1's, concatenating the per-node outputs in node order is the
// globally sorted dataset.
//
// Records are opaque byte strings sorted lexicographically (carried as keys
// with empty values), so equal records are byte-identical and the output is
// byte-for-byte deterministic under any merge order, work stealing, or
// chaos-plan retries.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/cluster.h"
#include "engine/engine.h"
#include "sort/partitioner.h"

namespace hamr::sort {

struct SortSpec {
  // Node-local framed input file ((varint len | bytes)* records).
  std::string input_path = "sort/input";
  // Sorted partition written to "<output_prefix>/p<node>" per node; spill
  // runs live under "<output_prefix>/spill/".
  std::string output_prefix = "sort/out";
  // Per-node staging bytes before a sorted run is spilled.
  uint64_t memory_budget_bytes = 8ull << 20;
  // Records decoded per loader chunk (fine-grain task size).
  size_t records_per_chunk = 2048;
  // Sampling pass: reservoir capacity and seed (deterministic boundaries).
  size_t sample_capacity = 4096;
  uint64_t sample_seed = 0x5eed;
};

struct SortStats {
  engine::JobResult job;
  uint64_t input_records = 0;
  RangePartitioner partitioner;
};

// Encodes records into the framed on-disk layout the loader streams.
std::string frame_records(const std::vector<std::string>& records);

// Writes shard i to node i's local store at spec.input_path.
void stage_sort_input(cluster::Cluster& cluster, const SortSpec& spec,
                      const std::vector<std::string>& shards);

// Seeded sampling pass over every node's staged input; boundaries balanced
// for `parts` partitions (normally cluster size).
RangePartitioner sample_partitioner(cluster::Cluster& cluster,
                                    const SortSpec& spec, uint32_t parts);

// Runs the full sort: sampling pass, range-partitioned shuffle, per-node
// spill/merge. Output partitions land in each node's local store.
SortStats run_distributed_sort(engine::Engine& engine, const SortSpec& spec);

// Reads the per-node sorted partitions back in node order (the globally
// sorted record sequence).
std::vector<std::string> collect_sorted(cluster::Cluster& cluster,
                                        const SortSpec& spec);

}  // namespace hamr::sort
