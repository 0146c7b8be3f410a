#include "query/exec.h"

#include <algorithm>
#include <map>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "cache/dataset_cache.h"
#include "common/bytes.h"
#include "serde/batch.h"

namespace hamr::query {

std::string encode_table_shard(const Table& table, uint32_t shard,
                               uint32_t num_shards) {
  // Framed row blocks: (varint len | encode_row_block bytes)*. The batch
  // codec amortizes bounds checks across a block; the framing lets the scan
  // loader walk blocks with the shared serde::get_framed_run cursor loop.
  constexpr size_t kRowsPerBlock = 256;
  ByteBuffer buf;
  serde::Writer writer(buf);
  std::vector<Row> block;
  block.reserve(kRowsPerBlock);
  for (size_t i = shard; i < table.rows.size(); i += num_shards) {
    block.push_back(table.rows[i]);
    if (block.size() == kRowsPerBlock) {
      serde::put_framed(writer, table.schema.encode_row_block(block));
      block.clear();
    }
  }
  if (!block.empty()) {
    serde::put_framed(writer, table.schema.encode_row_block(block));
  }
  return std::string(buf.view());
}

const Row* RowPipeline::apply(const Row& row, Row* scratch) const {
  const Row* cur = &row;
  for (const Step& step : steps) {
    if (step.is_filter) {
      if (!eval_predicate(step.pred, *cur)) return nullptr;
      continue;
    }
    // Project into a row other than the one read from: *scratch, or, when
    // the input already is *scratch, a second lease swapped in afterwards.
    Scratch<Row> second;
    Row* dst = cur == scratch ? second.get() : scratch;
    dst->resize(step.cols.size());
    for (size_t k = 0; k < step.cols.size(); ++k) {
      (*dst)[k] = (*cur)[step.cols[k]];
    }
    if (dst != scratch) std::swap(*dst, *scratch);
    cur = scratch;
  }
  return cur;
}

// --- aggregate state codec -------------------------------------------------

namespace {

bool value_less(const Value& a, const Value& b) {
  switch (a.type) {
    case ColType::kI64: return a.i < b.i;
    case ColType::kF64: return a.f < b.f;
    case ColType::kStr: return a.s < b.s;
  }
  return false;
}

}  // namespace

void GroupCompiled::state_of_row(const Row& row, serde::Writer* writer) const {
  for (const AggSpec& agg : aggs) {
    switch (agg.kind) {
      case AggKind::kCount:
        writer->put_varint(1);
        break;
      case AggKind::kSum: {
        const Value& v = row[agg.col];
        if (v.type == ColType::kI64) {
          writer->put_fixed64(static_cast<uint64_t>(v.i));
        } else {
          writer->put_double(v.as_f64());
        }
        break;
      }
      case AggKind::kMin:
      case AggKind::kMax:
        encode_value(row[agg.col], in_schema.cols[agg.col].type, writer);
        break;
    }
  }
}

void GroupCompiled::merge_states(std::string_view a, std::string_view b,
                                 serde::Writer* writer) const {
  serde::Reader ra(a), rb(b);
  Scratch<Row> minmax;  // two reused Values for min/max operands
  minmax->resize(2);
  Value& va = (*minmax)[0];
  Value& vb = (*minmax)[1];
  for (const AggSpec& agg : aggs) {
    switch (agg.kind) {
      case AggKind::kCount:
        writer->put_varint(ra.get_varint() + rb.get_varint());
        break;
      case AggKind::kSum: {
        const ColType t = in_schema.cols[agg.col].type;
        if (t == ColType::kI64) {
          writer->put_fixed64(ra.get_fixed64() + rb.get_fixed64());
        } else {
          writer->put_double(ra.get_double() + rb.get_double());
        }
        break;
      }
      case AggKind::kMin:
      case AggKind::kMax: {
        const ColType t = in_schema.cols[agg.col].type;
        decode_value(t, &ra, &va);
        decode_value(t, &rb, &vb);
        const bool b_less = value_less(vb, va);
        const bool take_b = agg.kind == AggKind::kMin
                                ? b_less
                                : (!b_less && !(va == vb));
        encode_value(take_b ? vb : va, t, writer);
        break;
      }
    }
  }
}

void GroupCompiled::finalize(std::string_view key, std::string_view state,
                             Row* out) const {
  decode_key(key, key_types, out);
  out->resize(key_types.size() + aggs.size());
  serde::Reader reader(state);
  for (size_t a = 0; a < aggs.size(); ++a) {
    const AggSpec& agg = aggs[a];
    Value& v = (*out)[key_types.size() + a];
    switch (agg.kind) {
      case AggKind::kCount:
        v = Value::of(static_cast<int64_t>(reader.get_varint()));
        break;
      case AggKind::kSum:
        if (in_schema.cols[agg.col].type == ColType::kI64) {
          v = Value::of(static_cast<int64_t>(reader.get_fixed64()));
        } else {
          v = Value::of(reader.get_double());
        }
        break;
      case AggKind::kMin:
      case AggKind::kMax:
        decode_value(in_schema.cols[agg.col].type, &reader, &v);
        break;
    }
  }
}

// --- emit spec -------------------------------------------------------------

void EmitSpec::emit_row(const Row& in, engine::Context& ctx) const {
  Scratch<Row> projected;
  const Row* row = pipeline.apply(in, projected.get());
  if (row == nullptr) return;
  // Key and value are encoded back to back into one scratch buffer, which
  // stays leased across ctx.emit(): a fused consumer running inside it
  // leases its own.
  ScratchWriter out;
  switch (mode) {
    case Mode::kLocalRow:
      // The edge is local: the record stays on this node regardless of key.
      schema.encode_row(*row, out.writer());
      ctx.emit(0, std::string_view(), out.view());
      return;
    case Mode::kJoinSide: {
      encode_key(*row, key_cols, out.writer());
      const size_t key_len = out.size();
      out.writer()->put_u8(side);
      schema.encode_row(*row, out.writer());
      ctx.emit(0, out.view().substr(0, key_len), out.view().substr(key_len));
      return;
    }
    case Mode::kGroupState: {
      encode_key(*row, group->key_cols, out.writer());
      const size_t key_len = out.size();
      group->state_of_row(*row, out.writer());
      ctx.emit(0, out.view().substr(0, key_len), out.view().substr(key_len));
      return;
    }
  }
}

// --- flowlets --------------------------------------------------------------

namespace {

// Reads a staged row shard from the node-local store in fine-grain chunks.
// One instance serves every split scheduled on its node; the file cache and
// cursor math mirror engine::TextLoader.
class RowScanLoader : public engine::LoaderFlowlet {
 public:
  explicit RowScanLoader(std::shared_ptr<const ScanCompiled> c)
      : c_(std::move(c)) {}

  bool load_chunk(const engine::InputSplit& split, uint64_t* cursor,
                  engine::Context& ctx) override {
    std::shared_ptr<const std::string> data = split_data(split, ctx);
    const std::string_view shard =
        std::string_view(*data).substr(split.offset, split.length);
    size_t pos = static_cast<size_t>(*cursor);
    if (pos >= shard.size()) return false;

    // Walk framed row blocks with the shared chunked-decode loop (also used
    // by the sort run loader), batch-decoding each block in one pass.
    uint64_t produced = 0;
    std::vector<std::string_view> blocks;
    Scratch<std::vector<Row>> rows;
    while (produced < c_->rows_per_chunk && pos < shard.size()) {
      blocks.clear();
      if (serde::get_framed_run(shard, &pos, 1, &blocks) == 0) break;
      c_->table_schema.decode_row_block(blocks[0], rows.get());
      produced += rows->size();
      for (const Row& row : *rows) c_->emit.emit_row(row, ctx);
    }
    *cursor = pos;
    return pos < shard.size();
  }

 private:
  std::shared_ptr<const std::string> split_data(const engine::InputSplit& split,
                                                engine::Context& ctx) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = cache_.find(split.path);
      if (it != cache_.end()) return it->second;
    }
    auto result = ctx.local_store().read_file(split.path);
    if (!result.ok()) {
      throw std::runtime_error("query scan: cannot read " + split.path + ": " +
                               result.status().ToString());
    }
    auto data =
        std::make_shared<const std::string>(std::move(result).value());
    std::lock_guard<std::mutex> lock(mu_);
    return cache_.emplace(split.path, std::move(data)).first->second;
  }

  const std::shared_ptr<const ScanCompiled> c_;
  std::mutex mu_;
  std::map<std::string, std::shared_ptr<const std::string>> cache_;
};

// Scan over a dataset-cache-resident staged table: each record value is one
// encode_row_block frame, decoded straight from the pinned block buffers -
// no store read, no per-query re-stage. The held pin keeps the dataset
// resident (and its buffers valid) for the life of the job.
class CachedRowScanLoader : public engine::LoaderFlowlet {
 public:
  CachedRowScanLoader(std::shared_ptr<const ScanCompiled> c,
                      std::shared_ptr<const cache::Dataset> dataset)
      : c_(std::move(c)), dataset_(std::move(dataset)) {}

  bool load_chunk(const engine::InputSplit& split, uint64_t* cursor,
                  engine::Context& ctx) override {
    const uint32_t shard_idx = static_cast<uint32_t>(split.user_tag);
    if (shard_idx >= dataset_->nodes()) return false;
    const cache::Dataset::Shard& shard = dataset_->shard(shard_idx);
    cache::ShardCursor sc;
    sc.packed = *cursor;
    uint64_t produced = 0;
    std::string_view key;
    std::string_view block;
    Scratch<std::vector<Row>> rows;
    bool more = true;
    while (produced < c_->rows_per_chunk &&
           (more = cache::next_record(shard, &sc, &key, &block))) {
      c_->table_schema.decode_row_block(block, rows.get());
      produced += rows->size();
      for (const Row& row : *rows) c_->emit.emit_row(row, ctx);
    }
    *cursor = sc.packed;
    return more;
  }

 private:
  const std::shared_ptr<const ScanCompiled> c_;
  const std::shared_ptr<const cache::Dataset> dataset_;
};

// Inner equi-join: both sides shuffle on the encoded key, so one reduce call
// sees every row of one key from both sides and emits the cross product.
class JoinFlowlet : public engine::ReduceFlowlet {
 public:
  explicit JoinFlowlet(std::shared_ptr<const JoinCompiled> c)
      : c_(std::move(c)) {}

  void reduce(std::string_view key,
              const std::vector<std::string_view>& values,
              engine::Context& ctx) override {
    (void)key;
    // Each side decodes into reused rows; only the first n of a side's
    // vector belong to this key.
    Scratch<std::vector<Row>> left, right;
    size_t num_left = 0, num_right = 0;
    for (std::string_view v : values) {
      if (v.empty()) throw serde::DecodeError("empty join value");
      const bool is_left = static_cast<uint8_t>(v.front()) == 0;
      std::vector<Row>& rows = is_left ? *left : *right;
      size_t& n = is_left ? num_left : num_right;
      if (n == rows.size()) rows.emplace_back();
      (is_left ? c_->left_schema : c_->right_schema)
          .decode_row(v.substr(1), &rows[n++]);
    }
    const size_t left_arity = c_->left_schema.size();
    Scratch<Row> joined;
    joined->resize(left_arity + c_->right_schema.size());
    for (size_t l = 0; l < num_left; ++l) {
      std::copy((*left)[l].begin(), (*left)[l].end(), joined->begin());
      for (size_t r = 0; r < num_right; ++r) {
        std::copy((*right)[r].begin(), (*right)[r].end(),
                  joined->begin() + left_arity);
        c_->emit.emit_row(*joined, ctx);
      }
    }
  }

 private:
  const std::shared_ptr<const JoinCompiled> c_;
};

// Grouped aggregation on the partial-reduce path: every arriving value is
// already an aggregate state, fold() merges two states, and the node's
// FlatAccTable holds one accumulator per encoded group key. The same fold
// runs sender-side when the in-edge has the combiner enabled.
class GroupByFlowlet : public engine::PartialReduceFlowlet {
 public:
  GroupByFlowlet(std::shared_ptr<const GroupCompiled> g, EmitSpec emit)
      : g_(std::move(g)), emit_(std::move(emit)) {}

  void fold(std::string_view key, std::string_view value,
            std::string& acc) override {
    (void)key;
    if (acc.empty()) {
      acc.assign(value);
      return;
    }
    ScratchWriter merged;
    g_->merge_states(acc, value, merged.writer());
    acc.assign(merged.view());
  }

  void emit_result(std::string_view key, std::string_view acc,
                   engine::Context& ctx) override {
    Scratch<Row> row;
    g_->finalize(key, acc, row.get());
    emit_.emit_row(*row, ctx);
  }

 private:
  const std::shared_ptr<const GroupCompiled> g_;
  const EmitSpec emit_;
};

// Terminal sink: collects this node's final rows and writes them as hex
// lines, one row per line, for collect_output_payload() to merge.
class SinkFlowlet : public engine::MapFlowlet {
 public:
  explicit SinkFlowlet(std::string out_prefix)
      : out_prefix_(std::move(out_prefix)) {}

  void process(const engine::KvPair& record, engine::Context& ctx) override {
    (void)ctx;
    std::lock_guard<std::mutex> lock(mu_);
    append_hex(record.value, &out_);
    out_.push_back('\n');
  }

  void finish(engine::Context& ctx) override {
    std::lock_guard<std::mutex> lock(mu_);
    ctx.local_store().write_file(out_prefix_ + "node" + std::to_string(ctx.node()),
                                 out_);
  }

 private:
  const std::string out_prefix_;
  std::mutex mu_;  // distinct bins process concurrently
  std::string out_;
};

}  // namespace

engine::FlowletFactory make_scan_loader(std::shared_ptr<const ScanCompiled> c) {
  return [c] { return std::make_unique<RowScanLoader>(c); };
}

engine::FlowletFactory make_cached_scan_loader(
    std::shared_ptr<const ScanCompiled> c,
    std::shared_ptr<const cache::Dataset> dataset) {
  return [c, dataset] {
    return std::make_unique<CachedRowScanLoader>(c, dataset);
  };
}

engine::FlowletFactory make_join(std::shared_ptr<const JoinCompiled> c) {
  return [c] { return std::make_unique<JoinFlowlet>(c); };
}

engine::FlowletFactory make_group_by(std::shared_ptr<const GroupCompiled> g,
                                     EmitSpec emit) {
  return [g, emit] { return std::make_unique<GroupByFlowlet>(g, emit); };
}

engine::FlowletFactory make_sink(std::string out_prefix) {
  return [out_prefix] { return std::make_unique<SinkFlowlet>(out_prefix); };
}

}  // namespace hamr::query
