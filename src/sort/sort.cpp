#include "sort/sort.h"

#include <memory>
#include <mutex>

#include "common/logging.h"
#include "ir/lower.h"
#include "serde/batch.h"
#include "storage/sorted_run.h"

namespace hamr::sort {

namespace {

// Streams the node-local framed input file in record chunks. One split per
// node covers the whole file; the cursor is the byte offset into it.
class SortRunLoader : public engine::LoaderFlowlet {
 public:
  explicit SortRunLoader(SortSpec spec) : spec_(std::move(spec)) {}

  bool load_chunk(const engine::InputSplit& split, uint64_t* cursor,
                  engine::Context& ctx) override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!loaded_) {
        Result<std::string> file = ctx.local_store().read_file(split.path);
        if (!file.ok()) {
          HLOG_ERROR << "sort loader: cannot read " << split.path << ": "
                     << file.status().ToString();
          loaded_ = true;  // treat as empty: the job still completes
        } else {
          data_ = std::move(file).value();
          loaded_ = true;
        }
      }
    }
    size_t pos = static_cast<size_t>(*cursor);
    if (pos >= data_.size()) return false;
    // The shared framed-record decode loop (also used by the query layer's
    // row scan): one bounds-checked cursor walk per chunk.
    std::vector<std::string_view> records;
    records.reserve(spec_.records_per_chunk);
    serde::get_framed_run(data_, &pos, spec_.records_per_chunk, &records);
    for (const std::string_view rec : records) {
      ctx.emit(0, rec, std::string_view());
    }
    *cursor = pos;
    return pos < data_.size();
  }

 private:
  SortSpec spec_;
  std::mutex mu_;
  bool loaded_ = false;
  std::string data_;  // stable: chunks hand out views into it within a call
};

// Receives this node's key range, staging records in a RunBuffer, spilling
// sorted runs past the budget, and merging everything into the node's output
// partition at finish.
class SortSink : public engine::MapFlowlet {
 public:
  explicit SortSink(SortSpec spec) : spec_(std::move(spec)) {}

  void process(const engine::KvPair& record, engine::Context& ctx) override {
    // Stage under the sink lock; a full buffer is moved out wholesale while
    // locked and sorted / written outside the lock. The budget charges each
    // record its bytes plus its index entry.
    storage::RunBuffer to_spill;
    std::string spill_file;
    {
      std::lock_guard<std::mutex> lock(mu_);
      wire_metrics(ctx);
      run_.add(record.key, record.value);
      if (run_.payload_bytes() + run_.records() * sizeof(storage::RunBuffer::Rec) >=
          spec_.memory_budget_bytes) {
        to_spill = run_.take();
        spill_file = spill_path(ctx.node(), spill_paths_.size());
        spill_paths_.push_back(spill_file);
      }
    }
    if (to_spill.records() != 0) {
      to_spill.sort();
      storage::RunWriter writer(&ctx.local_store(), spill_file);
      to_spill.write_to(writer);
      writer.close();
      spill_runs_c_->inc();
    }
  }

  void finish(engine::Context& ctx) override {
    // Upstream complete: no process() can race this. Sort the in-memory
    // remainder and merge it after the spill runs.
    {
      std::lock_guard<std::mutex> lock(mu_);
      wire_metrics(ctx);  // a node may receive zero records for its range
    }
    run_.sort();
    merge_fan_in_h_->observe(spill_paths_.size() + 1);
    const uint64_t records = storage::merge_into(
        &ctx.local_store(), spill_paths_, &run_,
        spec_.output_prefix + "/p" + std::to_string(ctx.node()));
    ctx.metrics().counter("sort.records_out")->add(records);

    run_.clear();
    for (const std::string& path : spill_paths_) {
      (void)ctx.local_store().remove(path);
    }
    spill_paths_.clear();
  }

 private:
  // Called under mu_. Bins can arrive and be processed before this node's
  // activate_job has run the flowlet's start() hook (cross-node activation
  // is not barriered), so the metric wiring happens lazily on the first
  // record instead of in start() - and the buffer is NEVER reassigned once a
  // record has been staged into it.
  void wire_metrics(engine::Context& ctx) {
    if (spill_runs_c_ != nullptr) return;
    run_ = storage::RunBuffer(ctx.metrics().gauge("engine.arena_bytes"));
    spill_runs_c_ = ctx.metrics().counter("sort.spill_runs");
    merge_fan_in_h_ = ctx.metrics().histogram("sort.merge_fan_in");
  }

  std::string spill_path(uint32_t node, uint64_t n) const {
    return spec_.output_prefix + "/spill/n" + std::to_string(node) + "/r" +
           std::to_string(n);
  }

  SortSpec spec_;
  Counter* spill_runs_c_ = nullptr;
  Histogram* merge_fan_in_h_ = nullptr;
  std::mutex mu_;
  storage::RunBuffer run_;
  std::vector<std::string> spill_paths_;
};

}  // namespace

std::string frame_records(const std::vector<std::string>& records) {
  ByteBuffer buf;
  serde::Writer w(buf);
  for (const std::string& rec : records) serde::put_framed(w, rec);
  return std::string(buf.view());
}

void stage_sort_input(cluster::Cluster& cluster, const SortSpec& spec,
                      const std::vector<std::string>& shards) {
  for (uint32_t n = 0; n < cluster.size() && n < shards.size(); ++n) {
    cluster.node(n).store().write_file(spec.input_path, shards[n]);
  }
}

RangePartitioner sample_partitioner(cluster::Cluster& cluster,
                                    const SortSpec& spec, uint32_t parts) {
  KeySampler sampler(spec.sample_capacity, spec.sample_seed);
  for (uint32_t n = 0; n < cluster.size(); ++n) {
    Result<std::string> file = cluster.node(n).store().read_file(spec.input_path);
    if (!file.ok()) continue;  // node without input contributes no samples
    const std::string& data = file.value();
    size_t pos = 0;
    std::vector<std::string_view> records;
    while (pos < data.size()) {
      records.clear();
      serde::get_framed_run(data, &pos, 4096, &records);
      for (const std::string_view rec : records) sampler.add(rec);
    }
  }
  return RangePartitioner::from_samples(sampler.take_samples(), parts);
}

SortStats run_distributed_sort(engine::Engine& engine, const SortSpec& spec) {
  cluster::Cluster& cluster = engine.cluster();
  SortStats stats;
  stats.partitioner = sample_partitioner(cluster, spec, cluster.size());

  engine::FlowletGraph graph;
  const auto loader = graph.add_loader(
      "sort_load", [spec] { return std::make_unique<SortRunLoader>(spec); });
  const auto sink = graph.add_map(
      "sort_sink", [spec] { return std::make_unique<SortSink>(spec); });
  graph.flowlet(sink).effect = true;  // writes the sorted run files
  engine::EdgeOptions range_edge;
  range_edge.partitioner = stats.partitioner.as_edge_partitioner();
  graph.connect(loader, sink, range_edge);

  for (uint32_t n = 0; n < cluster.size(); ++n) {
    engine::InputSplit split;
    split.path = spec.input_path;
    split.offset = 0;
    split.length = cluster.node(n).store().file_size(spec.input_path).value_or(0);
    split.preferred_node = n;
    graph.flowlet(loader).splits.push_back(std::move(split));
  }

  stats.job = ir::run(engine, std::move(graph));
  stats.input_records = stats.job.records_emitted;
  return stats;
}

std::vector<std::string> collect_sorted(cluster::Cluster& cluster,
                                        const SortSpec& spec) {
  std::vector<std::string> out;
  for (uint32_t n = 0; n < cluster.size(); ++n) {
    const std::string path = spec.output_prefix + "/p" + std::to_string(n);
    if (!cluster.node(n).store().exists(path)) continue;
    storage::RunReader reader(&cluster.node(n).store(), path);
    std::string_view key, value;
    while (reader.next(&key, &value)) out.emplace_back(key);
  }
  return out;
}

}  // namespace hamr::sort
