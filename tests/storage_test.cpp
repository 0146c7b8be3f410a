#include <gtest/gtest.h>

#include <algorithm>
#include <thread>

#include "common/random.h"
#include "storage/device.h"
#include "storage/file_store.h"
#include "storage/run_file.h"
#include "storage/sorted_run.h"

using namespace hamr;
using namespace hamr::storage;

// --- ThrottledDevice ---------------------------------------------------------

TEST(ThrottledDevice, DisabledIsFree) {
  DeviceConfig config;
  config.enabled = false;
  ThrottledDevice dev(config);
  Stopwatch w;
  for (int i = 0; i < 100; ++i) dev.charge(1 << 20);
  // Generous bound: a disabled device must not sleep at all, but the test
  // process itself may be preempted on a loaded CI machine.
  EXPECT_LT(w.elapsed_seconds(), 0.5);
}

TEST(ThrottledDevice, ChargesBandwidth) {
  DeviceConfig config;
  config.bandwidth_bytes_per_sec = 10e6;  // 10 MB/s
  config.seek_latency = Duration::zero();
  ThrottledDevice dev(config);
  Stopwatch w;
  dev.charge(1 << 20);  // 1 MiB at 10 MB/s ~= 105 ms
  const double elapsed = w.elapsed_seconds();
  EXPECT_GE(elapsed, 0.09);
  // Upper bound guards against double-charging, not scheduling noise: a
  // bug would double it to ~210 ms, while preemption rarely adds seconds.
  EXPECT_LT(elapsed, 2.0);
}

TEST(ThrottledDevice, ChargesSeekPerOp) {
  DeviceConfig config;
  config.bandwidth_bytes_per_sec = 1e12;  // bandwidth negligible
  config.seek_latency = millis(10);
  ThrottledDevice dev(config);
  Stopwatch w;
  for (int i = 0; i < 5; ++i) dev.charge_seek();
  EXPECT_GE(w.elapsed_seconds(), 0.045);
}

TEST(ThrottledDevice, SerializesConcurrentRequests) {
  // Two concurrent 0.5 MB requests on a 10 MB/s disk must take ~100 ms total
  // (one spindle), not ~50 ms (parallel).
  DeviceConfig config;
  config.bandwidth_bytes_per_sec = 10e6;
  config.seek_latency = Duration::zero();
  ThrottledDevice dev(config);
  Stopwatch w;
  std::thread t1([&] { dev.charge(512 * 1024); });
  std::thread t2([&] { dev.charge(512 * 1024); });
  t1.join();
  t2.join();
  EXPECT_GE(w.elapsed_seconds(), 0.09);
}

TEST(ThrottledDevice, CountsBytesInMetrics) {
  Metrics metrics;
  DeviceConfig config;
  config.enabled = true;
  config.bandwidth_bytes_per_sec = 1e12;
  config.seek_latency = Duration::zero();
  ThrottledDevice dev(config, &metrics);
  dev.charge(1000);
  dev.charge(2000);
  EXPECT_EQ(metrics.value("disk.bytes"), 3000u);
  EXPECT_EQ(metrics.value("disk.ops"), 2u);
}

// --- FileStore ----------------------------------------------------------------

TEST(FileStore, WriteReadRoundTrip) {
  FileStore store;
  store.write_file("a/b", "hello");
  EXPECT_EQ(store.read_file("a/b").value(), "hello");
  EXPECT_TRUE(store.exists("a/b"));
  EXPECT_FALSE(store.exists("a/c"));
  EXPECT_EQ(store.file_size("a/b").value(), 5u);
}

TEST(FileStore, OverwriteTruncates) {
  FileStore store;
  store.write_file("f", "long content");
  store.write_file("f", "x");
  EXPECT_EQ(store.read_file("f").value(), "x");
}

TEST(FileStore, AppendCreatesAndExtends) {
  FileStore store;
  store.append("log", "a");
  store.append("log", "bc");
  EXPECT_EQ(store.read_file("log").value(), "abc");
}

TEST(FileStore, ReadRangeClamps) {
  FileStore store;
  store.write_file("f", "0123456789");
  EXPECT_EQ(store.read_range("f", 2, 3).value(), "234");
  EXPECT_EQ(store.read_range("f", 8, 100).value(), "89");
  EXPECT_EQ(store.read_range("f", 100, 5).value(), "");
}

TEST(FileStore, MissingFileIsNotFound) {
  FileStore store;
  EXPECT_EQ(store.read_file("nope").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(store.file_size("nope").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(store.remove("nope").code(), StatusCode::kNotFound);
}

TEST(FileStore, ListByPrefixSorted) {
  FileStore store;
  store.write_file("x/2", "");
  store.write_file("x/1", "");
  store.write_file("y/1", "");
  const auto listed = store.list("x/");
  ASSERT_EQ(listed.size(), 2u);
  EXPECT_EQ(listed[0], "x/1");
  EXPECT_EQ(listed[1], "x/2");
  EXPECT_EQ(store.list("").size(), 3u);
}

TEST(FileStore, RemoveAndTotalBytes) {
  FileStore store;
  store.write_file("a", "1234");
  store.write_file("b", "56");
  EXPECT_EQ(store.total_bytes(), 6u);
  EXPECT_TRUE(store.remove("a").ok());
  EXPECT_EQ(store.total_bytes(), 2u);
}

// --- run files -------------------------------------------------------------------

TEST(RunFile, WriteReadRoundTrip) {
  FileStore store;
  {
    RunWriter w(&store, "run");
    w.add("a", "1");
    w.add("b", "2");
    w.add("b", "3");
    EXPECT_EQ(w.records(), 3u);
    w.close();
  }
  RunReader r(&store, "run");
  std::string_view k, v;
  ASSERT_TRUE(r.next(&k, &v));
  EXPECT_EQ(k, "a");
  EXPECT_EQ(v, "1");
  ASSERT_TRUE(r.next(&k, &v));
  EXPECT_EQ(k, "b");
  EXPECT_EQ(v, "2");
  ASSERT_TRUE(r.next(&k, &v));
  EXPECT_EQ(v, "3");
  EXPECT_FALSE(r.next(&k, &v));
}

TEST(RunFile, EmptyRun) {
  FileStore store;
  RunWriter w(&store, "empty");
  w.close();
  RunReader r(&store, "empty");
  std::string_view k, v;
  EXPECT_FALSE(r.next(&k, &v));
}

TEST(RunFile, MergePreservesSortAndStability) {
  FileStore store;
  {
    RunWriter w(&store, "r0");
    w.add("a", "r0-a");
    w.add("c", "r0-c");
    w.close();
  }
  {
    RunWriter w(&store, "r1");
    w.add("a", "r1-a");
    w.add("b", "r1-b");
    w.close();
  }
  EXPECT_EQ(merge_runs(&store, {"r0", "r1"}, "merged"), 4u);
  RunReader r(&store, "merged");
  std::vector<std::pair<std::string, std::string>> out;
  std::string_view k, v;
  while (r.next(&k, &v)) out.emplace_back(k, v);
  ASSERT_EQ(out.size(), 4u);
  // Sorted by key; equal keys keep run order (r0 before r1).
  EXPECT_EQ(out[0], (std::pair<std::string, std::string>{"a", "r0-a"}));
  EXPECT_EQ(out[1], (std::pair<std::string, std::string>{"a", "r1-a"}));
  EXPECT_EQ(out[2].first, "b");
  EXPECT_EQ(out[3].first, "c");
}

// Property: merging K random sorted runs equals sorting the concatenation.
TEST(RunFile, MergeEqualsSortedConcat) {
  Rng rng(99);
  for (int trial = 0; trial < 10; ++trial) {
    FileStore store;
    std::vector<std::pair<std::string, std::string>> all;
    std::vector<std::string> paths;
    const uint64_t runs = 1 + rng.next_below(6);
    for (uint64_t i = 0; i < runs; ++i) {
      std::vector<std::pair<std::string, std::string>> records;
      const uint64_t n = rng.next_below(100);
      for (uint64_t j = 0; j < n; ++j) {
        records.emplace_back("k" + std::to_string(rng.next_below(30)),
                             "v" + std::to_string(j));
      }
      std::stable_sort(records.begin(), records.end(),
                       [](const auto& a, const auto& b) { return a.first < b.first; });
      const std::string path = "run" + std::to_string(i);
      RunWriter w(&store, path);
      for (const auto& [k, v] : records) w.add(k, v);
      w.close();
      paths.push_back(path);
      all.insert(all.end(), records.begin(), records.end());
    }
    std::stable_sort(all.begin(), all.end(),
                     [](const auto& a, const auto& b) { return a.first < b.first; });
    merge_runs(&store, paths, "merged");
    RunReader r(&store, "merged");
    std::string_view k, v;
    size_t idx = 0;
    while (r.next(&k, &v)) {
      ASSERT_LT(idx, all.size());
      EXPECT_EQ(k, all[idx].first);
      ++idx;
    }
    EXPECT_EQ(idx, all.size());
  }
}

// --- sorted runs: LoserTree, key prefix, RunBuffer --------------------------------------------------------------

namespace {

// A sorted in-memory run exposing the merge-source contract.
struct VecSource {
  std::vector<std::pair<std::string, std::string>> recs;
  size_t pos = 0;
  bool next(std::string_view* key, std::string_view* value) {
    if (pos >= recs.size()) return false;
    *key = recs[pos].first;
    *value = recs[pos].second;
    ++pos;
    return true;
  }
};

std::vector<std::pair<std::string, std::string>> drain(
    LoserTree<VecSource>& tree) {
  std::vector<std::pair<std::string, std::string>> out;
  std::string_view key, value;
  while (tree.next(&key, &value)) out.emplace_back(key, value);
  return out;
}

}  // namespace

TEST(LoserTree, MergesSeededRunsLikeReference) {
  Rng rng(31);
  std::vector<VecSource> sources(7);
  std::vector<std::pair<std::string, std::string>> all;
  for (auto& src : sources) {
    const size_t n = rng.next_below(200);
    for (size_t i = 0; i < n; ++i) {
      src.recs.emplace_back("k" + std::to_string(rng.next_below(100000)),
                            "v" + std::to_string(i));
    }
    std::sort(src.recs.begin(), src.recs.end());
    all.insert(all.end(), src.recs.begin(), src.recs.end());
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  LoserTree<VecSource> tree(std::move(sources));
  const auto merged = drain(tree);
  ASSERT_EQ(merged.size(), all.size());
  for (size_t i = 0; i < merged.size(); ++i) {
    EXPECT_EQ(merged[i].first, all[i].first) << "at " << i;
  }
}

TEST(LoserTree, TiesBreakTowardSmallerSourceIndex) {
  std::vector<VecSource> sources(3);
  sources[0].recs = {{"k", "s0-a"}, {"k", "s0-b"}};
  sources[1].recs = {{"k", "s1-a"}};
  sources[2].recs = {{"a", "s2-a"}, {"k", "s2-a"}};
  LoserTree<VecSource> tree(std::move(sources));
  const auto merged = drain(tree);
  ASSERT_EQ(merged.size(), 5u);
  EXPECT_EQ(merged[0].second, "s2-a");  // key "a"
  EXPECT_EQ(merged[1].second, "s0-a");
  EXPECT_EQ(merged[2].second, "s0-b");
  EXPECT_EQ(merged[3].second, "s1-a");
  EXPECT_EQ(merged[4].second, "s2-a");
}

TEST(LoserTree, HandlesSingleEmptyAndNoSources) {
  {
    std::vector<VecSource> one(1);
    one[0].recs = {{"a", "1"}, {"b", "2"}};
    LoserTree<VecSource> tree(std::move(one));
    EXPECT_EQ(drain(tree).size(), 2u);
  }
  {
    std::vector<VecSource> mixed(4);  // all but one empty
    mixed[2].recs = {{"x", "1"}};
    LoserTree<VecSource> tree(std::move(mixed));
    const auto merged = drain(tree);
    ASSERT_EQ(merged.size(), 1u);
    EXPECT_EQ(merged[0].first, "x");
  }
  {
    LoserTree<VecSource> tree({});
    std::string_view k, v;
    EXPECT_FALSE(tree.next(&k, &v));
  }
}

// --- key prefix / reduce record ordering ------------------------------------

TEST(KeyPrefix, OrdersLikeLexicographicCompare) {
  const std::vector<std::string> keys = {
      "", "a", "ab", "abcdefgh", "abcdefghZ", "abcdefghz", "b", "zzzzzzzzz",
      std::string("\x00", 1), std::string("\xff\x01", 2)};
  for (const std::string& x : keys) {
    for (const std::string& y : keys) {
      const uint64_t px = key_prefix(x);
      const uint64_t py = key_prefix(y);
      if (px < py) {
        EXPECT_LT(x, y) << "prefix order disagrees for '" << x << "' vs '" << y;
      } else if (px > py) {
        EXPECT_GT(x, y) << "prefix order disagrees for '" << x << "' vs '" << y;
      }
      // Equal prefixes: RunBuffer::sort falls back to full key compare,
      // nothing to check here.
    }
  }
}

namespace {

using Records = std::vector<std::pair<std::string, std::string>>;

// Keys that stress the prefix index: duplicates, keys sharing their first 8
// bytes, keys shorter than 8 bytes, and embedded NULs ("ab" and "ab\0" have
// equal prefixes but differ as keys).
Records hostile_records(uint64_t seed, size_t n) {
  Rng rng(seed);
  Records out;
  for (size_t i = 0; i < n; ++i) {
    std::string key;
    switch (rng.next_below(4)) {
      case 0:
        key = "k" + std::to_string(rng.next_below(20));
        break;
      case 1:
        key = "abcdefgh" + std::to_string(rng.next_below(50));
        break;
      case 2:
        key = "ab" + std::string(rng.next_below(3), '\0');
        break;
      default:
        key = std::string(8, '\0') + std::string(rng.next_below(3), '\0') +
              static_cast<char>(rng.next_below(2));
        break;
    }
    out.emplace_back(std::move(key), "v" + std::to_string(i));
  }
  return out;
}

Records read_run(const FileStore& store, const std::string& path) {
  Records out;
  RunReader r(&store, path);
  std::string_view k, v;
  while (r.next(&k, &v)) out.emplace_back(k, v);
  return out;
}

}  // namespace

// Differential: spilling at any budget and merging the runs plus the memory
// remainder equals a stable sort by key, through the loser tree and through
// merge_runs at every fan-in; grouping the merge equals grouping the
// reference.
TEST(RunBuffer, SpilledMergeMatchesStableSortAtEveryBudget) {
  for (uint64_t seed : {1, 2, 3}) {
    const Records input = hostile_records(seed, 600);
    Records want = input;
    std::stable_sort(want.begin(), want.end(),
                     [](const auto& a, const auto& b) { return a.first < b.first; });
    for (uint64_t budget : {64ull, 500ull, 4096ull, 1ull << 30}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " budget " + std::to_string(budget));
      Gauge gauge;
      FileStore store;
      std::vector<std::string> runs;
      {
        RunBuffer buffer(&gauge);
        for (const auto& [k, v] : input) {
          buffer.add(k, v);
          if (buffer.payload_bytes() < budget) continue;
          RunBuffer full = buffer.take();
          EXPECT_EQ(buffer.records(), 0u);
          EXPECT_EQ(buffer.payload_bytes(), 0u);
          full.sort();
          runs.push_back("run" + std::to_string(runs.size()));
          RunWriter w(&store, runs.back());
          full.write_to(w);
          w.close();
        }
        buffer.sort();

        RunMerge merge = open_merge(&store, runs, &buffer);
        Records got;
        std::string_view k, v;
        while (merge.next(&k, &v)) got.emplace_back(k, v);
        EXPECT_EQ(got, want);

        std::vector<std::pair<std::string, std::vector<std::string>>> groups, want_groups;
        for (const auto& [key, value] : want) {
          if (want_groups.empty() || want_groups.back().first != key) {
            want_groups.push_back({key, {}});
          }
          want_groups.back().second.push_back(value);
        }
        RunMerge regroup = open_merge(&store, runs, &buffer);
        for_each_key_group(regroup, [&](std::string_view key,
                                        const std::vector<std::string_view>& values) {
          groups.push_back({std::string(key), {values.begin(), values.end()}});
        });
        EXPECT_EQ(groups, want_groups);

        RunWriter w(&store, "mem");
        buffer.write_to(w);
        w.close();
        buffer.clear();
        EXPECT_EQ(gauge.get(), 0);
      }
      runs.push_back("mem");
      // merge_runs deletes the inputs of intermediate passes, so each fan-in
      // merges its own copies.
      for (size_t fan_in : {2, 3, 0}) {
        std::vector<std::string> copies;
        for (const std::string& run : runs) {
          copies.push_back(run + "_f" + std::to_string(fan_in));
          store.write_file(copies.back(), store.read_file(run).value());
        }
        const std::string out = "merged_f" + std::to_string(fan_in);
        EXPECT_EQ(merge_runs(&store, copies, out, fan_in), want.size());
        EXPECT_EQ(read_run(store, out), want) << "fan-in " << fan_in;
      }
    }
  }
}

TEST(FileStore, ChargedReadsHitDevice) {
  Metrics metrics;
  DeviceConfig config;
  config.bandwidth_bytes_per_sec = 1e12;
  config.seek_latency = Duration::zero();
  ThrottledDevice dev(config, &metrics);
  FileStore store(&dev);
  store.write_file("f", std::string(1000, 'x'));
  (void)store.read_file("f");
  EXPECT_EQ(metrics.value("disk.bytes"), 2000u);  // write + read
}
