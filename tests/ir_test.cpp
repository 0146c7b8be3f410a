// Tests for the flowlet-graph IR (engine/graph.h + src/ir/): verifier rules,
// the optimizing passes, ir::run as every app's path to the engine, and the
// EventLog-measurable effect of fusion (fused graphs emit byte-identical
// output through strictly fewer bin dispatches).
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "apps/classification.h"
#include "apps/common.h"
#include "apps/histograms.h"
#include "apps/kcliques.h"
#include "apps/kmeans.h"
#include "apps/naive_bayes.h"
#include "apps/pagerank.h"
#include "apps/wordcount.h"
#include "engine/engine.h"
#include "engine/graph.h"
#include "gen/generators.h"
#include "ir/lower.h"
#include "ir/passes.h"
#include "obs/event_log.h"

namespace hamr {
namespace {

using engine::EdgeOptions;
using engine::FlowletKind;
using engine::local_edge;
using engine::TypeTag;
using ir::Graph;
using NodeId = engine::FlowletId;

// Structure-only tests never run the flowlets, so a factory that produces
// nothing satisfies the verifier without dragging real operators in.
engine::FlowletFactory stub_factory() {
  return [] { return std::unique_ptr<engine::Flowlet>(); };
}

EdgeOptions hash_edge() { return {}; }

// A sink is a map whose side effects keep it alive.
NodeId add_sink(Graph& g, std::string name, engine::FlowletFactory factory,
                TypeTag in = {}) {
  const NodeId id = g.add_map(std::move(name), std::move(factory), std::move(in));
  g.flowlet(id).effect = true;
  return id;
}

// --- verifier -------------------------------------------------------------

TEST(IrVerify, AcceptsAWellFormedChain) {
  Graph g;
  const NodeId src = g.add_loader("src", stub_factory(), {"", "line"});
  const NodeId map = g.add_map("m", stub_factory(), {"", "line"}, {"k", "v"});
  const NodeId sink = add_sink(g, "sink", stub_factory(), {"k", "v"});
  g.connect(src, map, local_edge());
  g.connect(map, sink);
  EXPECT_NO_THROW(engine::verify(g));
}

TEST(IrVerify, RejectsTypeMismatchAcrossAnEdge) {
  Graph g;
  const NodeId src = g.add_loader("src", stub_factory(), {"word", "count"});
  const NodeId sink = add_sink(g, "sink", stub_factory(), {"word", "rank"});
  g.connect(src, sink);
  try {
    engine::verify(g);
    FAIL() << "expected type mismatch";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("type mismatch"), std::string::npos)
        << e.what();
  }
}

TEST(IrVerify, EmptyTagComponentIsAWildcard) {
  Graph g;
  const NodeId src = g.add_loader("src", stub_factory(), {"word", "count"});
  const NodeId sink = add_sink(g, "sink", stub_factory(), {"", "count"});
  g.connect(src, sink);
  EXPECT_NO_THROW(engine::verify(g));
}

TEST(IrVerify, RejectsDanglingNode) {
  Graph g;
  const NodeId src = g.add_loader("src", stub_factory());
  const NodeId sink = add_sink(g, "sink", stub_factory());
  g.connect(src, sink);
  g.add_map("orphan", stub_factory());  // never connected
  try {
    engine::verify(g);
    FAIL() << "expected dangling-node error";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("dangling"), std::string::npos)
        << e.what();
  }
}

TEST(IrVerify, RejectsTapOnCombineEdgeWithClearError) {
  Graph g;
  const NodeId src = g.add_loader("src", stub_factory());
  const NodeId comb = g.add_partial_reduce("fold", stub_factory());
  g.flowlet(comb).effect = true;
  EdgeOptions options;
  options.combine = true;
  options.tap = [](uint32_t, std::string_view, std::string_view) {};
  g.connect(src, comb, options);
  try {
    engine::verify(g);
    FAIL() << "expected tap-on-combine rejection";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("tap on combine"), std::string::npos) << what;
    // The message must explain the why and the fix, not just point.
    EXPECT_NE(what.find("fold before routing"), std::string::npos) << what;
    EXPECT_NE(what.find("remove the tap"), std::string::npos) << what;
  }
}

TEST(IrVerify, RejectsCombineEdgeIntoNonCombineNode) {
  Graph g;
  const NodeId src = g.add_loader("src", stub_factory());
  const NodeId sink = add_sink(g, "sink", stub_factory());
  EdgeOptions options;
  options.combine = true;
  g.connect(src, sink, options);
  EXPECT_THROW(engine::verify(g), std::invalid_argument);
}

TEST(IrVerify, RejectsSplitsOnNonSource) {
  Graph g;
  const NodeId src = g.add_loader("src", stub_factory());
  const NodeId sink = add_sink(g, "sink", stub_factory());
  g.connect(src, sink);
  g.flowlet(sink).splits.push_back(engine::InputSplit{});
  EXPECT_THROW(engine::verify(g), std::invalid_argument);
}

TEST(IrVerify, RejectsCycle) {
  Graph g;
  const NodeId a = g.add_map("a", stub_factory());
  const NodeId b = g.add_map("b", stub_factory());
  g.connect(a, b);
  g.connect(b, a);
  EXPECT_THROW(engine::verify(g), std::invalid_argument);
}

TEST(IrVerify, RejectsNodeWithoutFactory) {
  Graph g;
  const NodeId src = g.add_loader("src", engine::FlowletFactory{});
  const NodeId sink = add_sink(g, "sink", stub_factory());
  g.connect(src, sink);
  EXPECT_THROW(engine::verify(g), std::invalid_argument);
}

TEST(IrVerify, RejectsDuplicateFlowletNames) {
  // Names key crash points and per-flowlet metrics, so two flowlets may not
  // share one.
  Graph g;
  const NodeId src = g.add_loader("src", stub_factory());
  const NodeId a = add_sink(g, "sink", stub_factory());
  const NodeId b = add_sink(g, "sink", stub_factory());
  g.connect(src, a);
  g.connect(src, b);
  try {
    engine::verify(g);
    FAIL() << "expected a duplicate-name error";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("two flowlets are named 'sink'"),
              std::string::npos)
        << e.what();
  }
}

// --- passes ---------------------------------------------------------------

TEST(IrPasses, FuseMapsCollapsesALocalChain) {
  Graph g;
  const NodeId src = g.add_loader("src", stub_factory(), {"", "line"});
  const NodeId m1 =
      g.add_map("m1", stub_factory(), {"", "line"}, {"", "token"});
  const NodeId m2 = g.add_map("m2", stub_factory(), {"", "token"}, {"k", "v"});
  const NodeId sink = add_sink(g, "sink", stub_factory(), {"k", "v"});
  g.connect(src, m1, local_edge());
  g.connect(m1, m2, local_edge());
  g.connect(m2, sink, local_edge());

  const Graph fused = ir::fuse_maps(g);
  engine::verify(fused, "test");
  ASSERT_EQ(fused.flowlets.size(), 1u);
  EXPECT_EQ(fused.edges.size(), 0u);
  EXPECT_EQ(fused.flowlets[0].kind, FlowletKind::kLoader);
  EXPECT_EQ(fused.flowlets[0].name, "src+m1+m2+sink");
  EXPECT_TRUE(fused.flowlets[0].effect);  // the sink's side effect survives
}

TEST(IrPasses, FuseMapsStopsAtShuffleEdges) {
  Graph g;
  const NodeId src = g.add_loader("src", stub_factory());
  const NodeId map = g.add_map("m", stub_factory());
  const NodeId sink = add_sink(g, "sink", stub_factory());
  g.connect(src, map, hash_edge());  // shuffle: fusion cannot cross it
  g.connect(map, sink, local_edge());

  const Graph fused = ir::fuse_maps(g);
  engine::verify(fused, "test");
  ASSERT_EQ(fused.flowlets.size(), 2u);  // only map+sink collapsed
  EXPECT_EQ(fused.flowlets[1].name, "m+sink");
}

TEST(IrPasses, FuseMapsLeavesFanOutProducersAlone) {
  Graph g;
  const NodeId src = g.add_loader("src", stub_factory());
  const NodeId a = add_sink(g, "a", stub_factory());
  const NodeId b = add_sink(g, "b", stub_factory());
  g.connect(src, a, local_edge());
  g.connect(src, b, local_edge());

  // Two consumers: fusing either would change the other's port numbering.
  const Graph fused = ir::fuse_maps(g);
  EXPECT_EQ(fused.flowlets.size(), 3u);
}

TEST(IrPasses, PlaceCombinerEnablesOnlyEligibleEdges) {
  Graph g;
  const NodeId src = g.add_loader("src", stub_factory());
  const NodeId opted = g.add_partial_reduce("opted", stub_factory());
  const NodeId not_opted = g.add_partial_reduce("not-opted", stub_factory());
  const NodeId local = g.add_partial_reduce("local", stub_factory());
  const NodeId tapped = g.add_partial_reduce("tapped", stub_factory());
  g.flowlet(opted).combinable = true;
  g.flowlet(local).combinable = true;
  g.flowlet(tapped).combinable = true;
  for (NodeId n : {opted, not_opted, local, tapped}) g.flowlet(n).effect = true;

  g.connect(src, opted, hash_edge());
  g.connect(src, not_opted, hash_edge());
  g.connect(src, local, local_edge());
  EdgeOptions tap_options;
  tap_options.tap = [](uint32_t, std::string_view, std::string_view) {};
  g.connect(src, tapped, tap_options);

  const Graph placed = ir::place_combiner(g);
  engine::verify(placed, "test");
  EXPECT_TRUE(placed.edges[0].options.combine);    // shuffle into opted-in
  EXPECT_FALSE(placed.edges[1].options.combine);   // not opted in
  EXPECT_FALSE(placed.edges[2].options.combine);   // local edge: nothing to win
  EXPECT_FALSE(placed.edges[3].options.combine);   // tap would be blinded
}

TEST(IrPasses, FuseMapCombineFoldsTheMapBelowTheShuffle) {
  Graph g;
  const NodeId src = g.add_loader("src", stub_factory());
  const NodeId map = g.add_map("m", stub_factory());
  const NodeId comb = g.add_partial_reduce("fold", stub_factory());
  g.flowlet(comb).combinable = true;
  g.flowlet(comb).effect = true;
  g.connect(src, map, local_edge());
  g.connect(map, comb, hash_edge());

  const Graph placed = ir::place_combiner(g);
  ASSERT_TRUE(placed.edges[1].options.combine);
  const Graph fused = ir::fuse_map_combine(placed);
  engine::verify(fused, "test");
  ASSERT_EQ(fused.flowlets.size(), 2u);
  EXPECT_EQ(fused.flowlets[0].name, "src+m");
  EXPECT_TRUE(fused.edges[0].options.combine);  // combine edge survives fusion
}

TEST(IrPasses, EliminateDeadDropsBranchesWithoutEffects) {
  Graph g;
  const NodeId src = g.add_loader("src", stub_factory());
  const NodeId sink = add_sink(g, "sink", stub_factory());
  const NodeId dead = g.add_map("dead", stub_factory());
  g.connect(src, sink, local_edge());
  g.connect(src, dead, local_edge());
  // `dead` hangs off src's trailing out-port, so removing it cannot
  // renumber the sink edge.
  const Graph cleaned = ir::eliminate_dead(g);
  engine::verify(cleaned, "test");
  ASSERT_EQ(cleaned.flowlets.size(), 2u);
  EXPECT_EQ(cleaned.flowlets[1].name, "sink");
}

TEST(IrPasses, EliminateDeadKeepsNodesThatWouldRenumberPorts) {
  Graph g;
  const NodeId src = g.add_loader("src", stub_factory());
  const NodeId dead = g.add_map("dead", stub_factory());
  const NodeId sink = add_sink(g, "sink", stub_factory());
  g.connect(src, dead, local_edge());  // port 0: dead
  g.connect(src, sink, local_edge());  // port 1: live
  // Removing `dead` would shift the sink edge from port 1 to port 0 and
  // break the source flowlet's emit(1, ...) calls - so it must stay.
  const Graph cleaned = ir::eliminate_dead(g);
  engine::verify(cleaned, "test");
  EXPECT_EQ(cleaned.flowlets.size(), 3u);
}

TEST(IrPasses, StandardPipelineIsVerifiedBetweenPasses) {
  // A graph that is invalid from the start fails in optimize() with the
  // context-free message, before any pass mutates it.
  Graph g;
  g.add_map("orphan", stub_factory());
  EXPECT_THROW(ir::optimize(g), std::invalid_argument);
}

TEST(IrPasses, PlaceCombinerPreservesShape) {
  ir::Graph g = apps::wordcount::build_ir(/*combine=*/true);
  const ir::Graph out = ir::place_combiner(g);
  EXPECT_EQ(out.flowlets.size(), g.flowlets.size());
  EXPECT_EQ(out.edges.size(), g.edges.size());
  // ... and only adds the combiner on the shuffle edge.
  bool combined = false;
  for (const auto& e : out.edges) combined |= e.options.combine;
  EXPECT_TRUE(combined);
}

// --- dump -----------------------------------------------------------------

TEST(IrDump, RendersNodesEdgesAndAttributes) {
  Graph g;
  const NodeId src = g.add_loader("TextLoader", stub_factory(), {"", "line"});
  const NodeId map =
      g.add_map("Splitter", stub_factory(), {"", "line"}, {"word", "count"});
  const NodeId comb =
      g.add_partial_reduce("Counter", stub_factory(), {"word", "count"}, {});
  g.flowlet(comb).effect = true;
  g.flowlet(comb).combinable = true;
  g.flowlet(src).splits.resize(4);
  g.connect(src, map, local_edge());
  EdgeOptions options;
  options.combine = true;
  g.connect(map, comb, options);

  const std::string text = engine::dump(g);
  EXPECT_NE(text.find("n0: loader \"TextLoader\" out=(,line) splits=4"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("n1: map \"Splitter\" in=(,line) out=(word,count)"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("effect combinable"), std::string::npos) << text;
  EXPECT_NE(text.find("e0: n0 -> n1 [local]"), std::string::npos) << text;
  EXPECT_NE(text.find("e1: n1 -> n2 [combine]"), std::string::npos) << text;
}

// --- lowering -------------------------------------------------------------

// A job's inputs are the splits on its loader nodes: lowering keeps them
// there (nothing moves them into a side table) and keeps the edge options.
TEST(IrLower, MovesSplitsIntoJobInputsAndKeepsEdgeOptions) {
  Graph g;
  const NodeId src = g.add_loader("src", stub_factory());
  const NodeId comb = g.add_partial_reduce("fold", stub_factory());
  g.flowlet(comb).effect = true;
  engine::InputSplit split;
  split.path = "input/x";
  split.length = 7;
  split.preferred_node = 1;
  g.flowlet(src).splits.push_back(split);
  EdgeOptions options;
  options.combine = true;
  g.connect(src, comb, options);

  const ir::Graph out = ir::lower(std::move(g));
  ASSERT_EQ(out.num_flowlets(), 2u);
  ASSERT_EQ(out.num_edges(), 1u);
  EXPECT_TRUE(out.edge(0).options.combine);
  const auto& splits = out.flowlet(src).splits;
  ASSERT_EQ(splits.size(), 1u);
  EXPECT_EQ(splits[0].path, "input/x");
  EXPECT_EQ(splits[0].preferred_node, 1u);
  EXPECT_TRUE(out.flowlet(comb).splits.empty());
}

TEST(IrLower, FusedWordCountHasTwoFlowlets) {
  ir::Graph g = apps::wordcount::build_ir(/*combine=*/true);
  engine::InputSplit split;
  split.path = "input/x";
  split.preferred_node = 1;
  g.flowlet(0).splits.push_back(split);

  const ir::Graph out = ir::lower(ir::optimize(std::move(g)));
  ASSERT_EQ(out.num_flowlets(), 2u);  // loader+splitter, counter
  const engine::GraphNode& loader = out.flowlet(0);
  EXPECT_EQ(loader.kind, engine::FlowletKind::kLoader);
  EXPECT_EQ(loader.name, "TextLoader+Splitter");
  // The splits ride the fused loader; nothing else carries any.
  ASSERT_EQ(loader.splits.size(), 1u);
  EXPECT_EQ(loader.splits[0].path, "input/x");
  EXPECT_TRUE(out.flowlet(1).splits.empty());
  ASSERT_EQ(out.num_edges(), 1u);
  EXPECT_TRUE(out.edge(0).options.combine);
}

// --- end-to-end: fusion is an optimization, not a semantics change --------

std::vector<std::string> wc_shards(uint32_t nodes) {
  return apps::make_shards(nodes, [](uint32_t i) {
    std::string s;
    for (int line = 0; line < 40; ++line) {
      s += "alpha beta gamma delta w" + std::to_string(i) + " w" +
           std::to_string(line % 7) + "\n";
    }
    return s;
  });
}

struct LoggedRun {
  std::map<std::string, uint64_t> output;
  uint64_t bins_enqueued = 0;
  uint64_t bins_processed = 0;
};

// `fused` runs WordCount through ir::run (run_hamr); otherwise the graph
// goes to Engine::run exactly as built.
LoggedRun run_wordcount_logged(bool fused) {
  obs::EventLog log;
  engine::EngineConfig config = engine::EngineConfig::fast();
  config.event_log = &log;
  apps::BenchEnv env =
      apps::BenchEnv::make(cluster::ClusterConfig::fast(4, 2), config);
  const apps::StagedInput input =
      apps::stage_input(env, "wordcount", wc_shards(4));
  if (fused) {
    apps::wordcount::run_hamr(env, input);
  } else {
    engine::FlowletGraph graph = apps::wordcount::build_ir();
    graph.flowlet(0).splits = input.splits;
    env.engine->run(graph);
  }
  LoggedRun run;
  run.output = apps::wordcount::hamr_output(env);
  run.bins_enqueued = log.count(obs::EventKind::kBinEnqueued);
  run.bins_processed = log.count(obs::EventKind::kBinProcessed);
  return run;
}

TEST(IrEventLog, FusedWordCountIsByteIdenticalWithStrictlyFewerBinEvents) {
  const LoggedRun unfused = run_wordcount_logged(false);
  const LoggedRun fused = run_wordcount_logged(true);

  EXPECT_EQ(unfused.output, apps::wordcount::reference(wc_shards(4)));
  EXPECT_EQ(fused.output, unfused.output);

  // Fusing loader+splitter removes every bin on the local edge between
  // them: the fused job must dispatch strictly fewer bins, not just equal.
  EXPECT_LT(fused.bins_enqueued, unfused.bins_enqueued)
      << "fused=" << fused.bins_enqueued
      << " unfused=" << unfused.bins_enqueued;
  EXPECT_LT(fused.bins_processed, unfused.bins_processed);
}

TEST(IrEventLog, FusedCombinerWordCountStaysByteIdentical) {
  obs::EventLog log;
  engine::EngineConfig config = engine::EngineConfig::fast();
  config.event_log = &log;
  apps::BenchEnv env =
      apps::BenchEnv::make(cluster::ClusterConfig::fast(4, 2), config);
  const apps::StagedInput input =
      apps::stage_input(env, "wordcount", wc_shards(4));
  apps::wordcount::run_hamr(env, input, /*combine=*/true);
  EXPECT_EQ(apps::wordcount::hamr_output(env),
            apps::wordcount::reference(wc_shards(4)));
}

// --- ir::run is every app's path -------------------------------------------

// Each Table 2 app's result carries the task histogram of its fused
// loader stage, a name only the fusion passes create: every builder went
// through ir::run.
bool ran_stage(const engine::JobResult& result, const std::string& stage) {
  const obs::HistogramSnapshot* h =
      result.metrics.histogram("engine.flowlet." + stage + ".task_us");
  return h != nullptr && h->count > 0;
}

TEST(IrRun, EveryTable2AppRunsItsFusedLoaderStage) {
  apps::BenchEnv env = apps::BenchEnv::fast(4);
  auto shards = [&](auto make) { return apps::make_shards(env.nodes(), make); };

  gen::MoviesSpec vec_spec;
  vec_spec.total_bytes = 64 * 1024;
  const auto vectors = shards(
      [&](uint32_t i) { return gen::movie_vectors_shard(vec_spec, i, 4); });
  const auto vec_in = apps::stage_input(env, "vectors", vectors, 16 * 1024);
  const auto km = apps::kmeans::make_params(vectors, 4);
  EXPECT_TRUE(ran_stage(apps::kmeans::run_hamr(env, vec_in, km).engine_result,
                        "TextLoader+ClusterGen"));
  EXPECT_TRUE(ran_stage(
      apps::classification::run_hamr(env, vec_in, km).engine_result,
      "TextLoader+ClassifyMap"));

  gen::WebGraphSpec web_spec;
  web_spec.num_pages = 256;
  web_spec.num_edges = 2048;
  const auto web_in = apps::stage_input(
      env, "web",
      shards([&](uint32_t i) { return gen::web_graph_shard(web_spec, i, 4); }));
  apps::pagerank::Params pr;
  pr.num_pages = web_spec.num_pages;
  pr.iterations = 2;
  const auto pr_run = apps::pagerank::run_hamr(env, web_in, pr);
  ASSERT_EQ(pr_run.engine_results.size(), 2u);
  EXPECT_TRUE(ran_stage(pr_run.engine_results[0], "EdgeFileLoader+EdgeMap"));
  EXPECT_TRUE(ran_stage(pr_run.engine_results[1], "MergeRed+ContMap"));

  gen::RmatSpec rmat_spec;
  rmat_spec.scale = 6;
  rmat_spec.num_edges = 400;
  const auto rmat_in = apps::stage_input(
      env, "rmat",
      shards([&](uint32_t i) { return gen::rmat_shard(rmat_spec, i, 4); }));
  apps::kcliques::Params kc;
  kc.k = 3;
  EXPECT_TRUE(ran_stage(apps::kcliques::run_hamr(env, rmat_in, kc).engine_result,
                        "KCliquesLoader+EdgeKeyMap"));

  const auto text_in = apps::stage_input(env, "text", wc_shards(4));
  EXPECT_TRUE(ran_stage(apps::wordcount::run_hamr(env, text_in).engine_result,
                        "TextLoader+Splitter"));

  gen::MoviesSpec movie_spec;
  movie_spec.total_bytes = 64 * 1024;
  const auto movie_in = apps::stage_input(
      env, "movies",
      shards([&](uint32_t i) { return gen::movies_shard(movie_spec, i, 4); }));
  for (const auto kind :
       {apps::histograms::Kind::kMovies, apps::histograms::Kind::kRatings}) {
    EXPECT_TRUE(ran_stage(
        apps::histograms::run_hamr(env, movie_in, kind).engine_result,
        "TextLoader+HistogramMap"));
  }

  gen::DocsSpec docs_spec;
  docs_spec.total_bytes = 64 * 1024;
  const auto docs_in = apps::stage_input(
      env, "docs",
      shards([&](uint32_t i) { return gen::docs_shard(docs_spec, i, 4); }));
  EXPECT_TRUE(ran_stage(apps::naive_bayes::run_hamr(env, docs_in).engine_result,
                        "TextLoader+IndexInstances"));
}

}  // namespace
}  // namespace hamr
