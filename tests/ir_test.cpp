// Tests for the flowlet-graph IR (engine/graph.h + src/ir/): verifier rules,
// the optimizing passes, lowering, and the EventLog-measurable effect of fusion
// (fused graphs emit byte-identical output through strictly fewer bin
// dispatches).
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "apps/common.h"
#include "apps/wordcount.h"
#include "engine/engine.h"
#include "engine/graph.h"
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
  // A graph that is invalid from the start fails in run() with the
  // context-free message, before any pass mutates it.
  Graph g;
  g.add_map("orphan", stub_factory());
  EXPECT_THROW(ir::PassPipeline::standard().run(g), std::invalid_argument);
}

TEST(IrPasses, NoFusionPipelinePreservesShape) {
  ir::Graph g = apps::wordcount::build_ir(/*combine=*/true);
  const ir::Graph out = ir::PassPipeline::no_fusion().run(g);
  EXPECT_EQ(out.flowlets.size(), g.flowlets.size());
  EXPECT_EQ(out.edges.size(), g.edges.size());
  // ... but still places the combiner on the shuffle edge.
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

TEST(IrLower, UnfusedWordCountPreservesHandBuiltFlowletIds) {
  // The chaos suite pins crash points to loader=0, splitter=1, count=2;
  // the shape-preserving lowering must keep that contract forever.
  uint32_t loader = 99;
  const engine::FlowletGraph g = apps::wordcount::build_graph(&loader);
  EXPECT_EQ(loader, 0u);
  ASSERT_EQ(g.num_flowlets(), 3u);
  EXPECT_EQ(g.flowlet(0).kind, engine::FlowletKind::kLoader);
  EXPECT_EQ(g.flowlet(1).kind, engine::FlowletKind::kMap);
  EXPECT_EQ(g.flowlet(2).kind, engine::FlowletKind::kPartialReduce);
}

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

  const ir::Lowered lowered = ir::lower(g);
  ASSERT_EQ(lowered.graph.num_flowlets(), 2u);
  EXPECT_TRUE(lowered.graph.edge(0).options.combine);
  EXPECT_TRUE(lowered.graph.flowlet(src).splits.empty());  // moved, not copied
  const auto& splits = lowered.inputs.splits.at(src);
  ASSERT_EQ(splits.size(), 1u);
  EXPECT_EQ(splits[0].path, "input/x");
  EXPECT_EQ(splits[0].preferred_node, 1u);
}

TEST(IrLower, FusedWordCountHasTwoFlowlets) {
  uint32_t loader = 99;
  const ir::Lowered lowered =
      apps::wordcount::build_fused(&loader, /*combine=*/false);
  EXPECT_EQ(lowered.graph.num_flowlets(), 2u);  // loader+splitter, counter
  EXPECT_EQ(lowered.graph.flowlet(loader).kind, engine::FlowletKind::kLoader);
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

LoggedRun run_wordcount_logged(bool fused) {
  obs::EventLog log;
  engine::EngineConfig config = engine::EngineConfig::fast();
  config.event_log = &log;
  apps::BenchEnv env =
      apps::BenchEnv::make(cluster::ClusterConfig::fast(4, 2), config);
  const apps::StagedInput input =
      apps::stage_input(env, "wordcount", wc_shards(4));
  apps::wordcount::run_hamr(env, input, /*combine=*/false,
                            /*use_full_reduce=*/false, fused);
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
  apps::wordcount::run_hamr(env, input, /*combine=*/true,
                            /*use_full_reduce=*/false, /*fused=*/true);
  EXPECT_EQ(apps::wordcount::hamr_output(env),
            apps::wordcount::reference(wc_shards(4)));
}

}  // namespace
}  // namespace hamr
