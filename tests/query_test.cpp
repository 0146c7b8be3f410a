// Differential tests for the relational query layer (DESIGN.md §13).
//
// The in-memory reference evaluator is the spec; the engine path (stage →
// lower → flowlet DAG → collect) must produce byte-identical results after
// canonicalization (sorted encoded rows). Every generated query draws from
// value domains where aggregation is order-independent (see testgen.h), so
// any divergence is a real lowering or operator bug, not float noise.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "apps/common.h"
#include "engine/graph.h"
#include "query/planner.h"
#include "query/reference.h"
#include "query/testgen.h"
#include "service/job_service.h"

namespace {

using namespace hamr;
using namespace hamr::query;

constexpr uint64_t kSeedsPerFamily = 8;

Value V(int64_t v) { return Value::of(v); }
Value V(double v) { return Value::of(v); }
Value V(const char* v) { return Value::of(std::string(v)); }

// One shared 4-node engine for the whole suite; each query uses a distinct
// tag so staged inputs and sink files never collide.
class QueryDifferential : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    env_ = new apps::BenchEnv(apps::BenchEnv::fast(4));
  }
  static void TearDownTestSuite() {
    delete env_;
    env_ = nullptr;
  }

  // Runs `plan` on both paths and asserts byte-identical canonical rows.
  static void expect_differential_match(const Plan& plan,
                                        const Catalog& catalog,
                                        const std::string& tag) {
    const Schema schema = output_schema(plan, catalog);
    const auto ref = canonical(schema, reference_eval(plan, catalog));
    const auto got =
        canonical(schema, run_on_engine(*env_->engine, plan, catalog, tag));
    ASSERT_EQ(got.size(), ref.size()) << tag;
    EXPECT_EQ(got, ref) << tag;
  }

  static void run_family(Family family) {
    for (uint64_t seed = 0; seed < kSeedsPerFamily; ++seed) {
      GeneratedQuery q = generate_query(family, seed);
      const std::string tag =
          std::string(family_name(family)) + "_" + std::to_string(seed);
      SCOPED_TRACE(tag);
      expect_differential_match(*q.plan, q.catalog, tag);
    }
  }

  static apps::BenchEnv* env_;
};

apps::BenchEnv* QueryDifferential::env_ = nullptr;

TEST_F(QueryDifferential, ScanFilterMatchesReference) {
  run_family(Family::kScanFilter);
}

TEST_F(QueryDifferential, ProjectMatchesReference) {
  run_family(Family::kProject);
}

TEST_F(QueryDifferential, JoinMatchesReference) { run_family(Family::kJoin); }

TEST_F(QueryDifferential, GroupByMatchesReference) {
  run_family(Family::kGroupBy);
}

TEST_F(QueryDifferential, JoinGroupByMatchesReference) {
  run_family(Family::kJoinGroupBy);
}

// ---- Targeted edge cases ---------------------------------------------------

Table three_col_table() {
  Table t;
  t.schema.cols = {{"k", ColType::kI64}, {"v", ColType::kF64},
                   {"s", ColType::kStr}};
  return t;
}

TEST_F(QueryDifferential, EmptyInputFlowsThroughEveryOperator) {
  Catalog catalog;
  catalog.tables["t1"] = three_col_table();  // zero rows
  catalog.tables["t2"] = three_col_table();

  PlanPtr plan = group_by(
      hash_join(filter(scan("t1"), Expr::cmp(0, CmpOp::kGt, V(int64_t{0}))),
                scan("t2"), 0, 0),
      {0}, {{AggKind::kCount, 0}, {AggKind::kSum, 1}});
  expect_differential_match(*plan, catalog, "edge_empty_input");
}

TEST_F(QueryDifferential, AllRowsFilteredOut) {
  Catalog catalog;
  Table t = three_col_table();
  for (int64_t i = 0; i < 64; ++i) {
    t.rows.push_back({V(i), V(static_cast<double>(i) / 16.0), V("x")});
  }
  catalog.tables["t1"] = std::move(t);

  // No row satisfies k < -1, so the group-by above sees nothing.
  PlanPtr plan =
      group_by(filter(scan("t1"), Expr::cmp(0, CmpOp::kLt, V(int64_t{-1}))),
               {2}, {{AggKind::kCount, 0}});
  const Schema schema = output_schema(*plan, catalog);
  EXPECT_TRUE(reference_eval(*plan, catalog).empty());
  expect_differential_match(*plan, catalog, "edge_all_filtered");
}

TEST_F(QueryDifferential, JoinWithNoMatches) {
  Catalog catalog;
  Table left = three_col_table();
  Table right = three_col_table();
  for (int64_t i = 0; i < 32; ++i) {
    left.rows.push_back({V(i), V(0.5), V("l")});
    right.rows.push_back({V(i + 1000), V(1.5), V("r")});  // disjoint keys
  }
  catalog.tables["t1"] = std::move(left);
  catalog.tables["t2"] = std::move(right);

  PlanPtr plan = hash_join(scan("t1"), scan("t2"), 0, 0);
  EXPECT_TRUE(reference_eval(*plan, catalog).empty());
  expect_differential_match(*plan, catalog, "edge_join_no_match");
}

TEST_F(QueryDifferential, MultiColumnJoinKeysComposeViaEncodeKey) {
  // Join on (i64, str) key tuples: rows must match only when BOTH columns
  // agree. Shared c0 values with differing c2 strings probe the composed
  // encode_key - a join that compared only the first column would produce
  // extra rows, a concatenation without self-describing framing could
  // confuse ("ab","c") with ("a","bc").
  Catalog catalog;
  Table left = three_col_table();
  Table right = three_col_table();
  for (int64_t i = 0; i < 48; ++i) {
    left.rows.push_back(
        {V(i % 8), V(static_cast<double>(i) / 16.0), V(i % 2 ? "ab" : "a")});
    right.rows.push_back(
        {V(i % 8), V(static_cast<double>(i) / 8.0), V(i % 3 ? "b" : "ab")});
  }
  catalog.tables["t1"] = std::move(left);
  catalog.tables["t2"] = std::move(right);

  PlanPtr plan = hash_join(scan("t1"), scan("t2"),
                           std::vector<uint32_t>{0, 2},
                           std::vector<uint32_t>{0, 2});
  const auto rows = reference_eval(*plan, catalog);
  ASSERT_FALSE(rows.empty());  // ("ab" x "ab") pairs exist by construction
  expect_differential_match(*plan, catalog, "edge_multicol_join");
}

TEST_F(QueryDifferential, SingleHotGroupByKey) {
  // Every row lands in one group: the whole fold funnels through a single
  // FlatAccTable slot on one node, and the sender-side combiner has maximal
  // opportunity to pre-merge - any non-commutative state bug shows up here.
  Catalog catalog;
  Table t = three_col_table();
  for (int64_t i = 0; i < 500; ++i) {
    t.rows.push_back(
        {V(int64_t{7}), V(static_cast<double>(i % 40) / 16.0), V("hot")});
  }
  catalog.tables["t1"] = std::move(t);

  PlanPtr plan = group_by(scan("t1"), {0},
                          {{AggKind::kCount, 0},
                           {AggKind::kSum, 1},
                           {AggKind::kMin, 1},
                           {AggKind::kMax, 2}});
  ASSERT_EQ(reference_eval(*plan, catalog).size(), 1u);
  expect_differential_match(*plan, catalog, "edge_hot_key");
}

TEST_F(QueryDifferential, ProjectionRepeatingStrColumnsCopiesValues) {
  // A projection that names one str column twice must copy it into both
  // slots, on a scan and above a join alike; moving it out of the input row
  // would leave the second copy empty.
  Catalog catalog;
  Table left = three_col_table();
  Table right = three_col_table();
  for (int64_t i = 0; i < 40; ++i) {
    left.rows.push_back({V(i % 10), V(static_cast<double>(i) / 16.0),
                         V(("left-" + std::to_string(i)).c_str())});
    right.rows.push_back({V(i % 5), V(static_cast<double>(i) / 8.0),
                          V(("right-" + std::to_string(i)).c_str())});
  }
  catalog.tables["t1"] = std::move(left);
  catalog.tables["t2"] = std::move(right);

  expect_differential_match(*project(scan("t1"), {2, 2, 0, 2}), catalog,
                            "edge_repeat_scan");
  // Joined columns: l.k l.v l.s r.k r.v r.s; a filter over the repeated
  // projection reads the copies.
  PlanPtr post_join = filter(
      project(hash_join(scan("t1"), scan("t2"), 0, 0), {5, 2, 5, 2, 3}),
      Expr::cmp(2, CmpOp::kNe, V("")));
  ASSERT_FALSE(reference_eval(*post_join, catalog).empty());
  expect_differential_match(*post_join, catalog, "edge_repeat_join");
}

// Filter/project above a join or group-by runs inside that stage: lowering
// adds no map between it and the sink, and the results still match.
TEST_F(QueryDifferential, FilterProjectAboveShuffleLowersIntoTheStage) {
  Catalog catalog;
  Table left = three_col_table();
  Table right = three_col_table();
  for (int64_t i = 0; i < 64; ++i) {
    left.rows.push_back({V(i % 16), V(static_cast<double>(i) / 16.0),
                         V(i % 2 ? "odd" : "even")});
    right.rows.push_back({V(i % 8), V(static_cast<double>(i) / 4.0), V("r")});
  }
  catalog.tables["t1"] = std::move(left);
  catalog.tables["t2"] = std::move(right);

  auto post_join = [](Expr pred) {
    return project(filter(hash_join(scan("t1"), scan("t2"), 0, 0), pred),
                   {2, 0, 4});
  };
  auto post_group_by = [](Expr pred) {
    return filter(group_by(scan("t1"), {2},
                           {{AggKind::kCount, 0}, {AggKind::kSum, 1}}),
                  pred);
  };
  struct Case {
    std::string tag;
    PlanPtr plan;
    engine::FlowletKind stage;  // what must feed the sink directly
    bool empty;          // the filter rejects every row
  };
  std::vector<Case> cases;
  cases.push_back({"fuse_join", post_join(Expr::cmp(4, CmpOp::kLt, V(8.0))),
                   engine::FlowletKind::kReduce, false});
  cases.push_back({"fuse_join_none",
                   post_join(Expr::cmp(3, CmpOp::kGt, V(int64_t{100}))),
                   engine::FlowletKind::kReduce, true});
  cases.push_back({"fuse_group_by",
                   post_group_by(Expr::cmp(0, CmpOp::kEq, V("odd"))),
                   engine::FlowletKind::kPartialReduce, false});
  cases.push_back({"fuse_group_by_none",
                   post_group_by(Expr::cmp(1, CmpOp::kGt, V(int64_t{1000}))),
                   engine::FlowletKind::kPartialReduce, true});

  for (const Case& c : cases) {
    SCOPED_TRACE(c.tag);
    const StagedTables staged = stage_tables(
        env_->engine->cluster(), catalog, scan_tables(*c.plan), c.tag);
    const engine::FlowletGraph graph = lower_ir(*c.plan, catalog, staged, c.tag);
    engine::verify(graph);
    size_t maps = 0;  // standalone filter/project stages (not the sink)
    for (const engine::GraphNode& node : graph.flowlets) {
      if (node.kind == engine::FlowletKind::kMap && !node.effect) ++maps;
    }
    EXPECT_EQ(maps, 0u) << engine::dump(graph);
    // lower_ir adds the sink first.
    const engine::GraphNode& sink = graph.flowlet(0);
    ASSERT_EQ(sink.name, "QuerySink");
    ASSERT_TRUE(sink.effect);
    ASSERT_EQ(sink.in_edges.size(), 1u);
    EXPECT_EQ(graph.flowlet(graph.edge(sink.in_edges[0]).src).kind, c.stage)
        << engine::dump(graph);
    EXPECT_EQ(reference_eval(*c.plan, catalog).empty(), c.empty);
    expect_differential_match(*c.plan, catalog, c.tag);
  }
}

// ---- Service path ----------------------------------------------------------

// The same differential contract holds when the query is submitted through
// the multi-tenant JobService instead of run directly on an Engine — and two
// concurrent queries on separate lanes must not cross wires.
TEST(QueryService, ConcurrentQueriesMatchReferenceThroughJobService) {
  cluster::Cluster cluster(cluster::ClusterConfig::fast(4, 2));
  service::ServiceConfig svc_cfg;
  svc_cfg.lanes = 2;
  svc_cfg.engine = engine::EngineConfig::fast();
  service::JobService jobs(cluster, svc_cfg);

  GeneratedQuery q1 = generate_query(Family::kJoinGroupBy, 101);
  GeneratedQuery q2 = generate_query(Family::kGroupBy, 202);

  SubmittedQuery s1 = submit_query(jobs, cluster, *q1.plan, q1.catalog,
                                   service::JobSpec{}, "svc_q1");
  SubmittedQuery s2 = submit_query(jobs, cluster, *q2.plan, q2.catalog,
                                   service::JobSpec{}, "svc_q2");

  ASSERT_EQ(s1.ticket->wait(), service::JobStatus::kDone);
  ASSERT_EQ(s2.ticket->wait(), service::JobStatus::kDone);

  const auto got1 = canonical(
      s1.out_schema, decode_payload(s1.out_schema, s1.ticket->payload()));
  const auto got2 = canonical(
      s2.out_schema, decode_payload(s2.out_schema, s2.ticket->payload()));
  EXPECT_EQ(got1, canonical(s1.out_schema, reference_eval(*q1.plan, q1.catalog)));
  EXPECT_EQ(got2, canonical(s2.out_schema, reference_eval(*q2.plan, q2.catalog)));
}

// ---- Plan validation -------------------------------------------------------

TEST(QueryValidation, RejectsMalformedPlans) {
  Catalog catalog;
  Table t;
  t.schema.cols = {{"k", ColType::kI64}, {"s", ColType::kStr}};
  t.rows.push_back({Value::of(int64_t{1}), Value::of(std::string("a"))});
  catalog.tables["t1"] = t;
  catalog.tables["t2"] = t;

  // Unknown table.
  EXPECT_THROW(reference_eval(*scan("missing"), catalog),
               std::invalid_argument);
  // Predicate column out of range.
  EXPECT_THROW(
      reference_eval(
          *filter(scan("t1"), Expr::cmp(9, CmpOp::kEq, Value::of(int64_t{0}))),
          catalog),
      std::invalid_argument);
  // Empty projection.
  EXPECT_THROW(reference_eval(*project(scan("t1"), {}), catalog),
               std::invalid_argument);
  // Join keys of different types (i64 vs str).
  EXPECT_THROW(reference_eval(*hash_join(scan("t1"), scan("t2"), 0, 1),
                              catalog),
               std::invalid_argument);
  // Mismatched key-list lengths.
  EXPECT_THROW(reference_eval(*hash_join(scan("t1"), scan("t2"),
                                         std::vector<uint32_t>{0, 1},
                                         std::vector<uint32_t>{0}),
                              catalog),
               std::invalid_argument);
  // Empty key lists.
  EXPECT_THROW(reference_eval(*hash_join(scan("t1"), scan("t2"),
                                         std::vector<uint32_t>{},
                                         std::vector<uint32_t>{}),
                              catalog),
               std::invalid_argument);
  // Second key pair type-mismatched (first pair fine).
  EXPECT_THROW(reference_eval(*hash_join(scan("t1"), scan("t2"),
                                         std::vector<uint32_t>{0, 0},
                                         std::vector<uint32_t>{0, 1}),
                              catalog),
               std::invalid_argument);
  // Sum over a string column.
  EXPECT_THROW(
      reference_eval(*group_by(scan("t1"), {0}, {{AggKind::kSum, 1}}),
                     catalog),
      std::invalid_argument);
  // Group-by with no keys.
  EXPECT_THROW(
      reference_eval(*group_by(scan("t1"), {}, {{AggKind::kCount, 0}}),
                     catalog),
      std::invalid_argument);
}

}  // namespace
