#include "mapreduce/job_runner.h"

#include <algorithm>
#include <thread>
#include <tuple>

#include "common/hash.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "storage/run_file.h"
#include "storage/sorted_run.h"

namespace hamr::mapreduce {

namespace {

// Extra bytes read past a split's end so the line straddling the boundary
// can be completed (Hadoop's LineRecordReader behavior).
constexpr uint64_t kBoundarySlack = 64 * 1024;

}  // namespace

struct JobRunner::JobScratch {
  uint64_t id = 0;
  uint32_t num_partitions = 0;
  std::string prefix;  // "mr/<id>/"
  std::mutex mu;
  // Per partition: (node, path, bytes) of every map-output segment.
  std::vector<std::vector<std::tuple<uint32_t, std::string, uint64_t>>> segments;
  std::atomic<uint64_t> map_input_bytes{0};
  std::atomic<uint64_t> map_output_records{0};
  std::atomic<uint64_t> spill_bytes{0};
  std::atomic<uint64_t> shuffle_bytes{0};
  std::atomic<uint64_t> output_bytes{0};
};

namespace {

// Groups consecutive equal keys of a sorted record range and feeds them to a
// reducer-style callback.
template <typename It, typename Fn>
void for_each_group(It begin, It end, Fn&& fn) {
  while (begin != end) {
    It run_end = begin;
    std::vector<std::string_view> values;
    while (run_end != end && std::get<1>(*run_end) == std::get<1>(*begin)) {
      values.emplace_back(std::get<2>(*run_end));
      ++run_end;
    }
    fn(std::string_view(std::get<1>(*begin)), values);
    begin = run_end;
  }
}

// Collects combiner output in sorted-key order (combiners emit the group key
// they were invoked with, so appending preserves order).
class CombineContext : public MrContext {
 public:
  CombineContext(uint32_t node, uint32_t num_nodes) : node_(node), nodes_(num_nodes) {}
  void emit(std::string_view key, std::string_view value) override {
    out.emplace_back(std::string(key), std::string(value));
  }
  uint32_t node() const override { return node_; }
  uint32_t num_nodes() const override { return nodes_; }

  std::vector<std::pair<std::string, std::string>> out;

 private:
  uint32_t node_, nodes_;
};

// Map-side collector: partitions, buffers, sorts, optionally combines, and
// spills through the node's throttled disk - Hadoop's MapOutputBuffer.
class MapCollector : public MrContext {
 public:
  MapCollector(cluster::Node* node, uint32_t num_nodes, uint32_t num_partitions,
               uint64_t buffer_limit, const ReducerFactory& combiner_factory,
               std::string path_prefix, std::atomic<uint64_t>* spill_bytes,
               uint32_t merge_fan_in)
      : node_(node),
        num_nodes_(num_nodes),
        num_partitions_(num_partitions),
        buffer_limit_(buffer_limit),
        path_prefix_(std::move(path_prefix)),
        spill_bytes_(spill_bytes),
        merge_fan_in_(merge_fan_in) {
    if (combiner_factory) combiner_ = combiner_factory();
    runs_.resize(num_partitions_);
  }

  void emit(std::string_view key, std::string_view value) override {
    const uint32_t part = partition_of(key, num_partitions_);
    buffered_bytes_ += key.size() + value.size() + 16;
    buffer_.emplace_back(part, std::string(key), std::string(value));
    if (buffered_bytes_ >= buffer_limit_) spill();
  }

  uint32_t node() const override { return node_->id(); }
  uint32_t num_nodes() const override { return num_nodes_; }

  uint64_t records() const { return records_; }

  // Final spill + per-partition merge. Returns (path, bytes) per partition
  // that has data.
  std::vector<std::tuple<uint32_t, std::string, uint64_t>> close(uint32_t task_id) {
    spill();
    std::vector<std::tuple<uint32_t, std::string, uint64_t>> outputs;
    for (uint32_t p = 0; p < num_partitions_; ++p) {
      if (runs_[p].empty()) continue;
      std::string final_path =
          path_prefix_ + "map_" + std::to_string(task_id) + "_p" + std::to_string(p);
      if (runs_[p].size() == 1) {
        final_path = runs_[p][0];  // single run: no extra merge pass
      } else {
        storage::merge_runs(&node_->store(), runs_[p], final_path, merge_fan_in_);
      }
      const uint64_t bytes = node_->store().file_size(final_path).value_or(0);
      outputs.emplace_back(p, final_path, bytes);
    }
    return outputs;
  }

 private:
  void spill() {
    if (buffer_.empty()) return;
    std::stable_sort(buffer_.begin(), buffer_.end(), [](const auto& a, const auto& b) {
      if (std::get<0>(a) != std::get<0>(b)) return std::get<0>(a) < std::get<0>(b);
      return std::get<1>(a) < std::get<1>(b);
    });
    records_ += buffer_.size();

    auto part_begin = buffer_.begin();
    while (part_begin != buffer_.end()) {
      const uint32_t part = std::get<0>(*part_begin);
      auto part_end = part_begin;
      while (part_end != buffer_.end() && std::get<0>(*part_end) == part) ++part_end;

      const std::string path = path_prefix_ + "spill_" +
                               std::to_string(spill_seq_++) + "_p" +
                               std::to_string(part);
      storage::RunWriter writer(&node_->store(), path);
      if (combiner_) {
        CombineContext cctx(node_->id(), num_nodes_);
        for_each_group(part_begin, part_end,
                       [&](std::string_view key, const std::vector<std::string_view>& vals) {
                         combiner_->reduce(key, vals, cctx);
                       });
        for (const auto& [k, v] : cctx.out) writer.add(k, v);
      } else {
        for (auto it = part_begin; it != part_end; ++it) {
          writer.add(std::get<1>(*it), std::get<2>(*it));
        }
      }
      const uint64_t written = writer.close();
      spill_bytes_->fetch_add(written);
      runs_[part].push_back(path);
      part_begin = part_end;
    }
    buffer_.clear();
    buffered_bytes_ = 0;
  }

  cluster::Node* node_;
  uint32_t num_nodes_;
  uint32_t num_partitions_;
  uint64_t buffer_limit_;
  std::string path_prefix_;
  std::atomic<uint64_t>* spill_bytes_;
  uint32_t merge_fan_in_;
  std::unique_ptr<Reducer> combiner_;
  std::vector<std::tuple<uint32_t, std::string, std::string>> buffer_;
  uint64_t buffered_bytes_ = 0;
  uint64_t spill_seq_ = 0;
  uint64_t records_ = 0;
  std::vector<std::vector<std::string>> runs_;
};

// Reduce-side collector: buffers "key\tvalue" text lines for the DFS output.
class OutputCollector : public MrContext {
 public:
  OutputCollector(uint32_t node, uint32_t num_nodes) : node_(node), nodes_(num_nodes) {}
  void emit(std::string_view key, std::string_view value) override {
    text_.append(key);
    text_.push_back('\t');
    text_.append(value);
    text_.push_back('\n');
  }
  uint32_t node() const override { return node_; }
  uint32_t num_nodes() const override { return nodes_; }

  const std::string& text() const { return text_; }

 private:
  uint32_t node_, nodes_;
  std::string text_;
};

}  // namespace

JobRunner::JobRunner(cluster::Cluster& cluster, dfs::MiniDfs& dfs)
    : cluster_(cluster), dfs_(dfs) {
  for (uint32_t i = 0; i < cluster_.size(); ++i) {
    cluster::Node& node = cluster_.node(i);
    node.rpc().register_method(
        rpc_id::kFetchSegment, [&node](uint32_t /*caller*/, std::string_view arg) {
          auto data = node.store().read_file(std::string(arg));
          data.status().ExpectOk();
          return std::move(data).value();
        });
  }
}

MrResult JobRunner::run(const MrJobConfig& config,
                        const std::vector<std::string>& input_paths,
                        const std::string& output_path,
                        const MapperFactory& mapper_factory,
                        const ReducerFactory& reducer_factory) {
  Stopwatch watch;

  JobScratch job;
  job.id = job_seq_.fetch_add(1);
  job.num_partitions =
      config.num_reduce_tasks == 0 ? cluster_.size() : config.num_reduce_tasks;
  job.prefix = "mr/" + std::to_string(job.id) + "/";
  job.segments.resize(job.num_partitions);

  // Job setup / submission overhead (client, scheduler, container launch).
  std::this_thread::sleep_for(config.job_startup_cost);

  // Build data-local map tasks: one per DFS block, placed on the replica
  // with the fewest tasks so far (Hadoop's locality-first scheduling).
  std::vector<MapTask> tasks;
  std::vector<uint32_t> load(cluster_.size(), 0);
  for (const std::string& path : input_paths) {
    auto info = dfs_.stat(path);
    info.status().ExpectOk();
    for (const auto& block : info.value().blocks) {
      MapTask task;
      task.task_id = static_cast<uint32_t>(tasks.size());
      task.path = path;
      task.offset = block.offset;
      task.length = block.length;
      uint32_t best = block.replicas.front();
      for (uint32_t replica : block.replicas) {
        if (load[replica] < load[best]) best = replica;
      }
      task.node = best;
      ++load[best];
      tasks.push_back(task);
    }
  }

  // Map phase.
  WaitGroup maps;
  maps.add(tasks.size());
  for (const MapTask& task : tasks) {
    cluster_.node(task.node).pool().submit([&, task] {
      run_map_task(config, job, task, mapper_factory);
      maps.done();
    });
  }
  maps.wait();  // <- the barrier HAMR removes (paper §3.2)

  // Reduce phase.
  WaitGroup reduces;
  reduces.add(job.num_partitions);
  for (uint32_t r = 0; r < job.num_partitions; ++r) {
    const uint32_t node = r % cluster_.size();
    cluster_.node(node).pool().submit([&, r] {
      run_reduce_task(config, job, r, output_path, reducer_factory);
      reduces.done();
    });
  }
  reduces.wait();

  // Intermediate cleanup (metadata-only).
  for (uint32_t n = 0; n < cluster_.size(); ++n) {
    for (const std::string& path : cluster_.node(n).store().list(job.prefix)) {
      (void)cluster_.node(n).store().remove(path);
    }
  }

  MrResult result;
  result.wall_seconds = watch.elapsed_seconds();
  result.map_tasks = static_cast<uint32_t>(tasks.size());
  result.reduce_tasks = job.num_partitions;
  result.map_input_bytes = job.map_input_bytes.load();
  result.map_output_records = job.map_output_records.load();
  result.spill_bytes = job.spill_bytes.load();
  result.shuffle_bytes = job.shuffle_bytes.load();
  result.output_bytes = job.output_bytes.load();
  return result;
}

void JobRunner::run_map_task(const MrJobConfig& config, JobScratch& job,
                             const MapTask& task, const MapperFactory& mapper_factory) {
  std::this_thread::sleep_for(config.task_startup_cost);  // JVM per task

  // Hadoop's LineRecordReader rule: a split owns every line that STARTS in
  // [offset, offset+length). Non-initial splits begin scanning one byte
  // early - if that byte is '\n' the split's first full line is kept, else
  // the partial line is skipped (it belongs upstream). Slack past the end
  // completes the final straddling line.
  const uint64_t base = task.offset > 0 ? task.offset - 1 : 0;
  auto data = dfs_.read_range(task.node, task.path, base,
                              (task.offset - base) + task.length + kBoundarySlack);
  data.status().ExpectOk();
  const std::string& raw = data.value();
  job.map_input_bytes.fetch_add(std::min<uint64_t>(task.length, raw.size()));

  MapCollector collector(&cluster_.node(task.node), cluster_.size(),
                         job.num_partitions, config.map_sort_buffer_bytes,
                         config.combiner,
                         job.prefix + "n" + std::to_string(task.node) + "_t" +
                             std::to_string(task.task_id) + "_",
                         &job.spill_bytes, config.merge_fan_in);
  std::unique_ptr<Mapper> mapper = mapper_factory();

  size_t pos = 0;
  if (task.offset > 0) {
    const size_t first_eol = raw.find('\n');
    if (first_eol == std::string::npos) return;
    pos = first_eol + 1;
  }
  const uint64_t end_abs = task.offset + task.length;  // first byte NOT owned
  while (pos < raw.size() && base + pos < end_abs) {
    size_t eol = raw.find('\n', pos);
    if (eol == std::string::npos) eol = raw.size();
    if (eol > pos) {
      const std::string key = std::to_string(base + pos);
      mapper->map(key, std::string_view(raw).substr(pos, eol - pos), collector);
    }
    pos = eol + 1;
  }

  auto outputs = collector.close(task.task_id);
  job.map_output_records.fetch_add(collector.records());
  std::lock_guard<std::mutex> lock(job.mu);
  for (auto& [part, path, bytes] : outputs) {
    job.segments[part].emplace_back(task.node, path, bytes);
  }
}

void JobRunner::run_reduce_task(const MrJobConfig& config, JobScratch& job,
                                uint32_t reduce_id, const std::string& output_path,
                                const ReducerFactory& reducer_factory) {
  std::this_thread::sleep_for(config.task_startup_cost);
  const uint32_t my_node = reduce_id % cluster_.size();
  cluster::Node& node = cluster_.node(my_node);

  // Shuffle: copy every remote segment of this partition to the local disk
  // (Hadoop's on-disk shuffle for data that exceeds the in-memory merge).
  std::vector<std::string> local_runs;
  std::vector<std::tuple<uint32_t, std::string, uint64_t>> segments;
  {
    std::lock_guard<std::mutex> lock(job.mu);
    segments = job.segments[reduce_id];
  }
  uint32_t fetched = 0;
  for (const auto& [src_node, path, bytes] : segments) {
    if (src_node == my_node) {
      local_runs.push_back(path);
      continue;
    }
    auto data = node.rpc().call_sync(src_node, rpc_id::kFetchSegment, path,
                                     std::chrono::minutes(10));
    data.status().ExpectOk();
    job.shuffle_bytes.fetch_add(data.value().size());
    const std::string local_path = job.prefix + "shuffle_r" +
                                   std::to_string(reduce_id) + "_" +
                                   std::to_string(fetched++);
    node.store().write_file(local_path, data.value());
    local_runs.push_back(local_path);
  }

  // Reduce-side pre-merge: with more segments than the fan-in, Hadoop merges
  // them through the disk before the final streaming merge.
  if (config.merge_fan_in >= 2 && local_runs.size() > config.merge_fan_in) {
    const std::string merged =
        job.prefix + "rmerge_r" + std::to_string(reduce_id);
    storage::merge_runs(&node.store(), local_runs, merged, config.merge_fan_in);
    local_runs.assign(1, merged);
  }

  // Merge + group + reduce.
  OutputCollector out(my_node, cluster_.size());
  std::unique_ptr<Reducer> reducer = reducer_factory();
  storage::RunMerge merge = storage::open_merge(&node.store(), local_runs);
  storage::for_each_key_group(
      merge, [&](std::string_view key, const std::vector<std::string_view>& values) {
        reducer->reduce(key, values, out);
      });

  // Output to DFS (text part file), even when empty - Hadoop writes empty
  // part files too, and chained jobs stat them.
  const std::string part_path =
      output_path + "/part-r-" + std::to_string(reduce_id);
  dfs_.write(my_node, part_path, out.text()).ExpectOk();
  job.output_bytes.fetch_add(out.text().size());
}

}  // namespace hamr::mapreduce
