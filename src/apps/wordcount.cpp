#include "apps/wordcount.h"

#include "apps/counting.h"
#include "engine/loaders.h"
#include "ir/lower.h"

namespace hamr::apps::wordcount {

namespace {

// --- HAMR flowlets ---

class Splitter : public engine::MapFlowlet {
 public:
  void process(const engine::KvPair& record, engine::Context& ctx) override {
    for (std::string_view word : tokenize(record.value)) ctx.emit(0, word, "1");
  }
};

// Full-reduce variant for the partial-vs-full ablation (A2).
class CountReducer : public engine::ReduceFlowlet {
 public:
  void reduce(std::string_view key, const std::vector<std::string_view>& values,
              engine::Context& ctx) override {
    (void)ctx;
    uint64_t total = 0;
    for (std::string_view v : values) total += parse_count(v);
    std::lock_guard<std::mutex> lock(mu_);
    out_.append(key);
    out_.push_back('\t');
    out_ += std::to_string(total);
    out_.push_back('\n');
  }

  void finish(engine::Context& ctx) override {
    std::lock_guard<std::mutex> lock(mu_);
    ctx.local_store().write_file(
        "out/wordcount/node" + std::to_string(ctx.node()), out_);
  }

 private:
  std::mutex mu_;  // distinct sub-partitions reduce concurrently
  std::string out_;
};

// --- baseline mapper/reducer ---

class WcMapper : public mapreduce::Mapper {
 public:
  void map(std::string_view key, std::string_view value,
           mapreduce::MrContext& ctx) override {
    (void)key;
    for (std::string_view word : tokenize(value)) ctx.emit(word, "1");
  }
};

}  // namespace

engine::FlowletGraph build_ir(bool combine, bool use_full_reduce) {
  engine::FlowletGraph graph;
  const auto loader = graph.add_loader(
      "TextLoader", [] { return std::make_unique<engine::TextLoader>(); },
      {"", "line"});
  const auto split = graph.add_map(
      "Splitter", [] { return std::make_unique<Splitter>(); }, {"", "line"},
      {"word", "count"});
  graph.connect(loader, split, engine::local_edge());
  if (use_full_reduce) {
    const auto count = graph.add_reduce(
        "CountReducer", [] { return std::make_unique<CountReducer>(); },
        {"word", "count"});
    graph.flowlet(count).effect = true;  // writes out/wordcount/ in finish()
    graph.connect(split, count);
  } else {
    const auto count = graph.add_partial_reduce(
        "Counter", [] { return std::make_unique<CountSink>("out/wordcount/"); },
        {"word", "count"});
    graph.flowlet(count).effect = true;
    graph.flowlet(count).combinable = combine;
    graph.connect(split, count);
  }
  return graph;
}

RunInfo run_hamr(BenchEnv& env, const StagedInput& input, bool combine,
                 bool use_full_reduce) {
  engine::FlowletGraph graph = build_ir(combine, use_full_reduce);
  graph.flowlet(0).splits = input.splits;  // build_ir adds the loader first
  RunInfo info;
  info.engine_result = ir::run(*env.engine, std::move(graph));
  info.seconds = info.engine_result.wall_seconds;
  return info;
}

RunInfo run_baseline(BenchEnv& env, const StagedInput& input, bool use_combiner) {
  mapreduce::MrJobConfig config = env.mr_defaults;
  config.name = "wordcount";
  if (use_combiner) {
    config.combiner = [] { return std::make_unique<SumReducer>(); };
  }
  RunInfo info;
  info.baseline_result = env.mr->run(
      config, {input.dfs_path}, "/out/wordcount",
      [] { return std::make_unique<WcMapper>(); },
      [] { return std::make_unique<SumReducer>(); });
  info.seconds = info.baseline_result.wall_seconds;
  return info;
}

std::map<std::string, uint64_t> hamr_output(BenchEnv& env) {
  return to_counts(collect_local_kv(*env.cluster, "out/wordcount/"));
}

std::map<std::string, uint64_t> baseline_output(BenchEnv& env) {
  return to_counts(collect_dfs_kv(env, "/out/wordcount"));
}

std::map<std::string, uint64_t> reference(const std::vector<std::string>& shards) {
  std::map<std::string, uint64_t> counts;
  for (const std::string& shard : shards) {
    size_t pos = 0;
    while (pos < shard.size()) {
      size_t eol = shard.find('\n', pos);
      if (eol == std::string::npos) eol = shard.size();
      for (std::string_view word :
           tokenize(std::string_view(shard).substr(pos, eol - pos))) {
        ++counts[std::string(word)];
      }
      pos = eol + 1;
    }
  }
  return counts;
}

}  // namespace hamr::apps::wordcount
