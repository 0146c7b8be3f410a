#include "apps/wordcount.h"

#include <charconv>

#include "engine/loaders.h"
#include "ir/passes.h"

namespace hamr::apps::wordcount {

namespace {

uint64_t parse_count(std::string_view s) {
  uint64_t n = 0;
  std::from_chars(s.data(), s.data() + s.size(), n);
  return n;
}

// --- HAMR flowlets ---

class Splitter : public engine::MapFlowlet {
 public:
  void process(const engine::KvPair& record, engine::Context& ctx) override {
    for (std::string_view word : tokenize(record.value)) ctx.emit(0, word, "1");
  }
};

// Counts per word; the accumulator is a decimal string so output is directly
// human-readable. Being a *sink*, it writes its node's final counts to the
// local disk in finish().
class Counter : public engine::PartialReduceFlowlet {
 public:
  void fold(std::string_view key, std::string_view value, std::string& acc) override {
    (void)key;
    const uint64_t total = parse_count(acc) + parse_count(value);
    acc = std::to_string(total);
  }

  void emit_result(std::string_view key, std::string_view acc,
                   engine::Context& ctx) override {
    (void)ctx;
    out_.append(key);
    out_.push_back('\t');
    out_.append(acc);
    out_.push_back('\n');
  }

  void finish(engine::Context& ctx) override {
    ctx.local_store().write_file(
        "out/wordcount/node" + std::to_string(ctx.node()), out_);
  }

 private:
  std::string out_;
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

class WcReducer : public mapreduce::Reducer {
 public:
  void reduce(std::string_view key, const std::vector<std::string_view>& values,
              mapreduce::MrContext& ctx) override {
    uint64_t total = 0;
    for (std::string_view v : values) total += parse_count(v);
    ctx.emit(key, std::to_string(total));
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
        "Counter", [] { return std::make_unique<Counter>(); },
        {"word", "count"});
    graph.flowlet(count).effect = true;
    graph.flowlet(count).combinable = combine;
    graph.connect(split, count);
  }
  return graph;
}

engine::FlowletGraph build_graph(uint32_t* loader_out, bool combine,
                                 bool use_full_reduce) {
  *loader_out = 0;
  return ir::PassPipeline::no_fusion().run(build_ir(combine, use_full_reduce));
}

ir::Lowered build_fused(uint32_t* loader_out, bool combine,
                        bool use_full_reduce) {
  ir::Lowered lowered =
      ir::lower(ir::optimize(build_ir(combine, use_full_reduce)));
  *loader_out = 0;
  for (const engine::GraphNode& node : lowered.graph.flowlets) {
    if (node.kind == engine::FlowletKind::kLoader) *loader_out = node.id;
  }
  return lowered;
}

RunInfo run_hamr(BenchEnv& env, const StagedInput& input, bool combine,
                 bool use_full_reduce, bool fused) {
  RunInfo info;
  uint32_t loader = 0;
  if (fused) {
    ir::Lowered lowered = build_fused(&loader, combine, use_full_reduce);
    info.engine_result =
        env.engine->run(lowered.graph, inputs_for(loader, input));
  } else {
    engine::FlowletGraph graph = build_graph(&loader, combine, use_full_reduce);
    info.engine_result = env.engine->run(graph, inputs_for(loader, input));
  }
  info.seconds = info.engine_result.wall_seconds;
  return info;
}

RunInfo run_baseline(BenchEnv& env, const StagedInput& input, bool use_combiner) {
  mapreduce::MrJobConfig config = env.mr_defaults;
  config.name = "wordcount";
  if (use_combiner) {
    config.combiner = [] { return std::make_unique<WcReducer>(); };
  }
  RunInfo info;
  info.baseline_result = env.mr->run(
      config, {input.dfs_path}, "/out/wordcount",
      [] { return std::make_unique<WcMapper>(); },
      [] { return std::make_unique<WcReducer>(); });
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
