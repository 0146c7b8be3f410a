// Tests for the distributed sort subsystem (src/sort/): range partitioner
// boundary behavior on skewed / duplicate-heavy / empty inputs, the batch
// serde codecs, and the end-to-end sort with spills over the zero-copy
// reliable shuffle. The loser-tree merge is tested in storage_test.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "apps/common.h"
#include "common/random.h"
#include "query/row.h"
#include "serde/batch.h"
#include "sort/partitioner.h"
#include "sort/sort.h"

using namespace hamr;

namespace {

std::vector<std::string> random_records(size_t n, uint64_t seed,
                                        size_t min_len = 8,
                                        size_t max_len = 64) {
  Rng rng(seed);
  std::vector<std::string> records;
  records.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const size_t len = min_len + rng.next_below(max_len - min_len + 1);
    std::string rec;
    rec.reserve(len);
    for (size_t b = 0; b < len; ++b) {
      rec.push_back(static_cast<char>(rng.next_below(256)));
    }
    records.push_back(std::move(rec));
  }
  return records;
}

}  // namespace

// --- KeySampler -------------------------------------------------------------

TEST(KeySampler, DeterministicForSeedAndBoundedByCapacity) {
  const auto stream = random_records(5000, 3);
  sort::KeySampler a(64, 99), b(64, 99);
  for (const auto& r : stream) {
    a.add(r);
    b.add(r);
  }
  EXPECT_EQ(a.seen(), stream.size());
  EXPECT_EQ(a.samples().size(), 64u);
  EXPECT_EQ(a.samples(), b.samples());
}

TEST(KeySampler, DifferentSeedsDiverge) {
  const auto stream = random_records(5000, 3);
  sort::KeySampler a(64, 1), b(64, 2);
  for (const auto& r : stream) {
    a.add(r);
    b.add(r);
  }
  EXPECT_NE(a.samples(), b.samples());
}

// --- RangePartitioner -------------------------------------------------------

TEST(RangePartitioner, BalancedPartitionsOnUniformKeys) {
  const auto keys = random_records(4000, 7, 16, 16);
  sort::RangePartitioner p = sort::RangePartitioner::from_samples(keys, 4);
  ASSERT_EQ(p.partitions(), 4u);
  std::vector<size_t> sizes(4, 0);
  for (const auto& k : keys) ++sizes[p.partition_of(k)];
  for (size_t s : sizes) {
    EXPECT_GT(s, keys.size() / 8);  // no partition under half its fair share
    EXPECT_LT(s, keys.size() / 2);
  }
}

TEST(RangePartitioner, MonotoneInKeyOrder) {
  auto keys = random_records(1000, 11);
  sort::RangePartitioner p = sort::RangePartitioner::from_samples(keys, 8);
  std::sort(keys.begin(), keys.end());
  uint32_t prev = 0;
  for (const auto& k : keys) {
    const uint32_t part = p.partition_of(k);
    EXPECT_GE(part, prev);
    EXPECT_LT(part, p.partitions());
    prev = part;
  }
}

TEST(RangePartitioner, DuplicateHeavySamplesCollapseBoundaries) {
  // One hot key dominates the sample: boundaries must stay strictly
  // increasing (duplicates collapsed), costing partitions but never
  // correctness.
  std::vector<std::string> samples(900, "hot-key");
  samples.push_back("aaa");
  samples.push_back("zzz");
  sort::RangePartitioner p = sort::RangePartitioner::from_samples(samples, 8);
  const auto& b = p.boundaries();
  for (size_t i = 1; i < b.size(); ++i) EXPECT_LT(b[i - 1], b[i]);
  EXPECT_LE(p.partitions(), 8u);
  EXPECT_LT(p.partition_of("hot-key"), p.partitions());
  EXPECT_LE(p.partition_of("aaa"), p.partition_of("hot-key"));
  EXPECT_LE(p.partition_of("hot-key"), p.partition_of("zzz"));
}

TEST(RangePartitioner, EmptySamplesYieldSinglePartition) {
  sort::RangePartitioner p = sort::RangePartitioner::from_samples({}, 8);
  EXPECT_EQ(p.partitions(), 1u);
  EXPECT_EQ(p.partition_of("anything"), 0u);
  EXPECT_EQ(p.partition_of(""), 0u);
}

TEST(RangePartitioner, EncodeDecodeRoundTrip) {
  const auto keys = random_records(500, 17);
  sort::RangePartitioner p = sort::RangePartitioner::from_samples(keys, 6);
  sort::RangePartitioner q = sort::RangePartitioner::decode(p.encode());
  EXPECT_EQ(p.boundaries(), q.boundaries());
  for (const auto& k : keys) EXPECT_EQ(p.partition_of(k), q.partition_of(k));
}

TEST(RangePartitioner, EdgePartitionerClampsIntoNodeRange) {
  // Built for 8 parts but routed across 3 nodes: clamped, still monotone.
  auto keys = random_records(500, 23);
  sort::RangePartitioner p = sort::RangePartitioner::from_samples(keys, 8);
  auto route = p.as_edge_partitioner();
  std::sort(keys.begin(), keys.end());
  uint32_t prev = 0;
  for (const auto& k : keys) {
    const uint32_t n = route(k, 3);
    EXPECT_LT(n, 3u);
    EXPECT_GE(n, prev);
    prev = n;
  }
}

// --- batch codecs -----------------------------------------------------------

TEST(BatchCodec, FixedWidthRunsRoundTrip) {
  Rng rng(41);
  std::vector<uint64_t> u64s(257);
  for (auto& v : u64s) v = rng.next_u64();
  std::vector<double> f64s = {0.0, -1.5, 3.14159, 1e300, -0.0};

  ByteBuffer buf;
  serde::Writer w(buf);
  serde::put_u64_run(w, u64s);
  serde::put_f64_run(w, f64s);
  serde::put_u64_run(w, std::vector<uint64_t>{});  // empty run

  serde::Reader r(buf.view());
  std::vector<uint64_t> u_out;
  std::vector<double> f_out;
  std::vector<uint64_t> e_out;
  serde::get_u64_run(r, &u_out);
  serde::get_f64_run(r, &f_out);
  serde::get_u64_run(r, &e_out);
  EXPECT_EQ(u_out, u64s);
  EXPECT_EQ(f_out, f64s);
  EXPECT_TRUE(e_out.empty());
  EXPECT_TRUE(r.at_end());
}

TEST(BatchCodec, StringRunsRoundTripIncludingEmpties) {
  const std::vector<std::string> values = {"", "a", "longer-value",
                                           std::string(300, 'x'), ""};
  std::vector<std::string_view> views(values.begin(), values.end());
  ByteBuffer buf;
  serde::Writer w(buf);
  serde::put_string_run(w, views);

  serde::Reader r(buf.view());
  std::vector<std::string_view> out;
  serde::get_string_run(r, &out);
  ASSERT_EQ(out.size(), values.size());
  for (size_t i = 0; i < values.size(); ++i) EXPECT_EQ(out[i], values[i]);
  EXPECT_TRUE(r.at_end());
}

TEST(BatchCodec, TruncatedRunsThrow) {
  ByteBuffer buf;
  serde::Writer w(buf);
  serde::put_u64_run(w, std::vector<uint64_t>{1, 2, 3, 4});
  const std::string bytes(buf.view());
  serde::Reader r(std::string_view(bytes).substr(0, bytes.size() - 5));
  std::vector<uint64_t> out;
  EXPECT_THROW(serde::get_u64_run(r, &out), serde::DecodeError);

  ByteBuffer sbuf;
  serde::Writer sw(sbuf);
  std::vector<std::string_view> views = {"hello", "world"};
  serde::put_string_run(sw, views);
  const std::string sbytes(sbuf.view());
  serde::Reader sr(std::string_view(sbytes).substr(0, sbytes.size() - 3));
  std::vector<std::string_view> sout;
  EXPECT_THROW(serde::get_string_run(sr, &sout), serde::DecodeError);
}

TEST(BatchCodec, FramedRunDecodesInChunks) {
  const auto records = random_records(10, 43, 4, 32);
  ByteBuffer buf;
  serde::Writer w(buf);
  for (const auto& rec : records) serde::put_framed(w, rec);
  const std::string data(buf.view());

  size_t pos = 0;
  std::vector<std::string_view> out;
  EXPECT_EQ(serde::get_framed_run(data, &pos, 3, &out), 3u);
  EXPECT_EQ(serde::get_framed_run(data, &pos, 3, &out), 3u);
  EXPECT_EQ(serde::get_framed_run(data, &pos, 3, &out), 3u);
  EXPECT_EQ(serde::get_framed_run(data, &pos, 3, &out), 1u);  // stream end
  EXPECT_EQ(pos, data.size());
  ASSERT_EQ(out.size(), records.size());
  for (size_t i = 0; i < records.size(); ++i) EXPECT_EQ(out[i], records[i]);

  size_t tpos = 0;
  std::vector<std::string_view> tout;
  EXPECT_THROW(
      serde::get_framed_run(data.substr(0, data.size() - 1), &tpos, 100, &tout),
      serde::DecodeError);
}

TEST(BatchCodec, RowBlockRoundTripAllColumnTypes) {
  query::Schema schema;
  schema.cols = {{"id", query::ColType::kI64},
                 {"score", query::ColType::kF64},
                 {"name", query::ColType::kStr}};
  std::vector<query::Row> rows;
  for (int i = 0; i < 10; ++i) {
    rows.push_back({query::Value::of(int64_t(i - 5)),
                    query::Value::of(i * 1.25),
                    query::Value::of("row-" + std::to_string(i))});
  }
  const std::string block = schema.encode_row_block(rows);
  // Decoding into storage that already holds longer, differently typed rows
  // must overwrite them completely.
  std::vector<query::Row> decoded(
      12, query::Row(4, query::Value::of(std::string(64, 'x'))));
  schema.decode_row_block(block, &decoded);
  ASSERT_EQ(decoded.size(), rows.size());
  for (size_t i = 0; i < rows.size(); ++i) EXPECT_EQ(decoded[i], rows[i]);

  // Per-block layout still enforces schema shape.
  std::vector<query::Row> bad = {{query::Value::of(int64_t(1))}};
  EXPECT_THROW(schema.encode_row_block(bad), std::invalid_argument);
  EXPECT_THROW(
      schema.decode_row_block(block.substr(0, block.size() - 2), &decoded),
      serde::DecodeError);
}

// --- end-to-end distributed sort -------------------------------------------

namespace {

struct SortRun {
  std::vector<std::string> sorted;
  sort::SortStats stats;
};

SortRun run_sort(apps::BenchEnv& env, const std::vector<std::string>& data,
                 uint64_t budget_bytes) {
  const uint32_t nodes = env.nodes();
  std::vector<std::vector<std::string>> shards(nodes);
  for (size_t i = 0; i < data.size(); ++i) shards[i % nodes].push_back(data[i]);
  std::vector<std::string> framed;
  for (const auto& s : shards) framed.push_back(sort::frame_records(s));

  sort::SortSpec spec;
  spec.memory_budget_bytes = budget_bytes;
  sort::stage_sort_input(*env.cluster, spec, framed);
  SortRun run;
  run.stats = sort::run_distributed_sort(*env.engine, spec);
  run.sorted = sort::collect_sorted(*env.cluster, spec);
  return run;
}

}  // namespace

TEST(DistributedSort, ByteIdenticalToReferenceWithSpillsOverReliableShuffle) {
  engine::EngineConfig cfg = engine::EngineConfig::fast();
  cfg.reliable_shuffle = true;
  apps::BenchEnv env =
      apps::BenchEnv::make(cluster::ClusterConfig::fast(4), cfg);

  const auto data = random_records(20000, 51, 16, 80);
  std::vector<std::string> expected = data;
  std::sort(expected.begin(), expected.end());

  // 64 KB budget forces several spill runs per node.
  const SortRun run = run_sort(env, data, 64 * 1024);
  EXPECT_EQ(run.sorted, expected);

  // New metrics: spills happened, the merge fan-in was recorded, the
  // zero-copy path never re-copied a frame, and the pool hit-rate gauge is
  // live.
  EXPECT_GT(env.cluster->total_counter("sort.spill_runs"), 0u);
  EXPECT_EQ(env.cluster->total_counter("engine.shuffle_frame_copies"), 0u);
  uint64_t fan_in_observations = 0;
  bool pool_gauge_live = false;
  for (uint32_t n = 0; n < env.nodes(); ++n) {
    fan_in_observations +=
        env.cluster->node(n).metrics().histogram("sort.merge_fan_in")->count();
    pool_gauge_live = pool_gauge_live ||
                      env.cluster->node(n).metrics().gauge("pool.hit_rate")->get() > 0;
  }
  EXPECT_GT(fan_in_observations, 0u);
  EXPECT_TRUE(pool_gauge_live);
}

TEST(DistributedSort, DuplicateHeavyInputStaysByteIdentical) {
  apps::BenchEnv env = apps::BenchEnv::fast(4);
  // Three distinct records, heavily repeated: range boundaries collapse and
  // whole partitions hold one key, but the output must still be exact.
  std::vector<std::string> data;
  for (int i = 0; i < 6000; ++i) {
    data.push_back(i % 3 == 0 ? "apple" : i % 3 == 1 ? "banana" : "cherry");
  }
  std::vector<std::string> expected = data;
  std::sort(expected.begin(), expected.end());
  const SortRun run = run_sort(env, data, 16 * 1024);
  EXPECT_EQ(run.sorted, expected);
}

TEST(DistributedSort, EmptyInputCompletes) {
  apps::BenchEnv env = apps::BenchEnv::fast(2);
  const SortRun run = run_sort(env, {}, 1 << 20);
  EXPECT_TRUE(run.sorted.empty());
}

TEST(DistributedSort, SingleNodeMatchesReference) {
  apps::BenchEnv env = apps::BenchEnv::fast(1);
  const auto data = random_records(3000, 61, 8, 40);
  std::vector<std::string> expected = data;
  std::sort(expected.begin(), expected.end());
  const SortRun run = run_sort(env, data, 32 * 1024);
  EXPECT_EQ(run.sorted, expected);
}
