// Physical operators of the query layer: the flowlets a lowered plan runs
// as, plus the codecs they share (DESIGN.md §13).
//
// Lowering maps plan operators onto the engine's four flowlet kinds:
//
//   scan                         -> LoaderFlowlet over staged row shards
//   hash_join                    -> ReduceFlowlet (shuffle both sides by the
//                                   encoded join key, cross-product per key)
//   group_by                     -> PartialReduceFlowlet folding encoded
//                                   aggregate states into the node's
//                                   FlatAccTable (with the sender-side
//                                   combiner enabled on its in-edge)
//   result collection            -> sink MapFlowlet writing hex-encoded rows
//                                   to the node-local store
//
// Every producing flowlet carries an EmitSpec that says how its consumer
// wants rows handed over: plain local rows (sink), side-tagged rows keyed by
// the join key, or single-row aggregate states keyed by the group key. A
// filter/project chain above a scan, join or group-by is no stage of its
// own: it rides in that stage's EmitSpec as a RowPipeline, applied to each
// row before it is encoded. Group-by states are commutative + associative
// by construction - upstream emits the state *of one row* and fold() merges
// states - which is exactly what makes the sender-side combiner and
// crash-retry replays safe.
//
// The per-row paths encode and decode into Scratch storage (row.h), never
// into fresh strings or rows, and stay correct when ctx.emit() runs a fused
// downstream stage inline on the same thread.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "engine/flowlet.h"
#include "query/plan.h"

namespace hamr::cache {
class Dataset;
}  // namespace hamr::cache

namespace hamr::query {

// Staged shard of a table for one node: each row framed as
// varint(len) + Schema::encode_row bytes, rows dealt round-robin
// (row i lands in shard i % num_shards).
std::string encode_table_shard(const Table& table, uint32_t shard,
                               uint32_t num_shards);

// A fused chain of filter/project steps applied row-at-a-time.
struct RowPipeline {
  struct Step {
    bool is_filter = false;
    Expr pred;                   // is_filter
    std::vector<uint32_t> cols;  // !is_filter: projection
  };
  std::vector<Step> steps;

  // Applies the steps in order and returns the resulting row, or nullptr
  // when a filter rejects. `row` is never modified: projections copy into
  // *scratch (so one may repeat a column), and the result is `&row` or
  // `scratch`.
  const Row* apply(const Row& row, Row* scratch) const;
};

// Compiled group-by: key layout, aggregate list, and the encoded aggregate
// state codec. States concatenate, per aggregate:
//   count      varint(u64)
//   sum(i64)   fixed64 (wrapping two's-complement sum - deterministic and
//              associative even on overflow)
//   sum(f64)   fixed64 IEEE bits
//   min/max    value in row encoding (zigzag / bits / length-prefixed bytes)
struct GroupCompiled {
  std::vector<uint32_t> key_cols;
  std::vector<ColType> key_types;
  std::vector<AggSpec> aggs;
  Schema in_schema;   // rows arriving at the group-by
  Schema out_schema;  // key columns + aggregate columns

  void state_of_row(const Row& row, serde::Writer* writer) const;
  void merge_states(std::string_view a, std::string_view b,
                    serde::Writer* writer) const;
  // Overwrites *out with the output row: the decoded encode_key bytes `key`,
  // then one value per aggregate of `state`.
  void finalize(std::string_view key, std::string_view state, Row* out) const;
};

// How a producing flowlet hands rows to its (single) consumer.
struct EmitSpec {
  enum class Mode : uint8_t {
    kLocalRow,    // emit(0, "", row bytes) over a local edge
    kJoinSide,    // emit(0, encode_key(join key), side byte + row bytes)
    kGroupState,  // emit(0, encode_key(group keys), state_of_row(row))
  };
  Mode mode = Mode::kLocalRow;
  // Filter/project steps fused into the producer, run on each row first.
  RowPipeline pipeline;
  Schema schema;                              // rows after the pipeline
  std::vector<uint32_t> key_cols;             // kJoinSide (composed join key)
  uint8_t side = 0;                           // kJoinSide tag (0=left)
  std::shared_ptr<const GroupCompiled> group; // kGroupState

  void emit_row(const Row& row, engine::Context& ctx) const;
};

// --- flowlet factories (each captures its compiled, immutable stage) ------

struct ScanCompiled {
  Schema table_schema;
  EmitSpec emit;
  uint64_t rows_per_chunk = 512;
};
engine::FlowletFactory make_scan_loader(std::shared_ptr<const ScanCompiled> c);

// Scan over a dataset-cache-resident staged table instead of shard files:
// each cached record's value is one framed row block (the same
// encode_row_block bytes the file shards hold), decoded straight out of the
// pinned buffers - zero disk reads per query. Splits come from
// cache::add_scan_splits (shard index in user_tag).
engine::FlowletFactory make_cached_scan_loader(
    std::shared_ptr<const ScanCompiled> c,
    std::shared_ptr<const cache::Dataset> dataset);

struct JoinCompiled {
  Schema left_schema;
  Schema right_schema;
  EmitSpec emit;  // its pipeline's input is the joined row (left ++ right)
};
engine::FlowletFactory make_join(std::shared_ptr<const JoinCompiled> c);

engine::FlowletFactory make_group_by(std::shared_ptr<const GroupCompiled> g,
                                     EmitSpec emit);

// Sink: accumulates received encoded rows and writes them as hex lines to
// "<out_prefix>node<id>" in the node-local store on finish.
engine::FlowletFactory make_sink(std::string out_prefix);

}  // namespace hamr::query
