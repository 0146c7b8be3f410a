// Unit + property tests for the HAMR engine itself: graph validation, bins,
// scheduling semantics (partial vs full reduce, completion, spill, flow
// control, routing modes, streaming), and multi-job reuse.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>

#include "cluster/cluster.h"
#include "common/hash.h"
#include "common/random.h"
#include "engine/engine.h"
#include "engine/flat_table.h"
#include "engine/loaders.h"
#include "engine/rate_gate.h"
#include "fault/fault.h"
#include "obs/event_log.h"
#include "stream/source.h"
#include "stream/stream_service.h"

using namespace hamr;
using namespace hamr::engine;

namespace {

struct Env {
  explicit Env(uint32_t nodes, EngineConfig config = EngineConfig::fast())
      : cluster(cluster::ClusterConfig::fast(nodes)),
        engine(cluster, config) {}

  cluster::Cluster cluster;
  Engine engine;
};

// Loader that synthesizes `user_tag` records per split: key "k<i>", value "v<i>".
class SyntheticLoader : public LoaderFlowlet {
 public:
  explicit SyntheticLoader(uint64_t per_chunk = 64) : per_chunk_(per_chunk) {}

  bool load_chunk(const InputSplit& split, uint64_t* cursor, Context& ctx) override {
    const uint64_t end = std::min(split.user_tag, *cursor + per_chunk_);
    for (uint64_t i = *cursor; i < end; ++i) {
      const uint64_t id = split.offset + i;
      ctx.emit(0, "k" + std::to_string(id), "v" + std::to_string(id));
    }
    *cursor = end;
    return end < split.user_tag;
  }

 private:
  uint64_t per_chunk_;
};

// Sink that records everything it receives (as a map flowlet).
class CollectorMap : public MapFlowlet {
 public:
  // Node-shared collection across instances via a static registry keyed by a
  // test-provided tag would be overkill; instead write to the local store.
  void process(const KvPair& record, Context& ctx) override {
    std::lock_guard<std::mutex> lock(mu_);
    lines_ += std::string(record.key) + "\t" + std::string(record.value) + "\n";
    (void)ctx;
  }
  void finish(Context& ctx) override {
    std::lock_guard<std::mutex> lock(mu_);
    ctx.local_store().write_file("test/collected_node" + std::to_string(ctx.node()),
                                 lines_);
  }

 private:
  std::mutex mu_;
  std::string lines_;
};

class CollectorReduce : public ReduceFlowlet {
 public:
  void reduce(std::string_view, const std::vector<std::string_view>&,
              Context&) override {}
};

std::multiset<std::string> collected(cluster::Cluster& cluster) {
  std::multiset<std::string> out;
  for (uint32_t n = 0; n < cluster.size(); ++n) {
    for (const auto& path : cluster.node(n).store().list("test/collected_node")) {
      auto data = cluster.node(n).store().read_file(path);
      const std::string& text = data.value();
      size_t pos = 0;
      while (pos < text.size()) {
        size_t eol = text.find('\n', pos);
        if (eol == std::string::npos) eol = text.size();
        if (eol > pos) out.insert(text.substr(pos, eol - pos));
        pos = eol + 1;
      }
    }
  }
  return out;
}

// Replaces `loader`'s splits with one synthetic split on each of `nodes`
// nodes, `per_node` records each; returns the graph for Engine::run.
const FlowletGraph& with_synthetic_splits(FlowletGraph& g, FlowletId loader,
                                          uint32_t nodes, uint64_t per_node) {
  std::vector<InputSplit>& splits = g.flowlet(loader).splits;
  splits.clear();
  for (uint32_t n = 0; n < nodes; ++n) {
    InputSplit split;
    split.offset = n * per_node;  // id base
    split.user_tag = per_node;    // record count
    split.preferred_node = n;
    splits.push_back(split);
  }
  return g;
}

}  // namespace

// --- graph validation -----------------------------------------------------------

TEST(FlowletGraph, ValidatesAcyclic) {
  FlowletGraph g;
  auto a = g.add_map("a", [] { return std::make_unique<CollectorMap>(); });
  auto b = g.add_map("b", [] { return std::make_unique<CollectorMap>(); });
  g.connect(a, b);
  g.connect(b, a);
  EXPECT_THROW(verify(g), std::invalid_argument);
}

TEST(FlowletGraph, LoaderWithInputsRejected) {
  FlowletGraph g;
  auto src = g.add_loader("src", [] { return std::make_unique<SyntheticLoader>(); });
  auto m = g.add_map("m", [] { return std::make_unique<CollectorMap>(); });
  auto l = g.add_loader("l", [] { return std::make_unique<SyntheticLoader>(); });
  g.connect(src, m);
  g.connect(m, l);
  EXPECT_THROW(verify(g), std::invalid_argument);
}

TEST(FlowletGraph, CombineIntoNonPartialReduceRejected) {
  FlowletGraph g;
  auto a = g.add_loader("a", [] { return std::make_unique<SyntheticLoader>(); });
  auto b = g.add_map("b", [] { return std::make_unique<CollectorMap>(); });
  EdgeOptions options;
  options.combine = true;
  g.connect(a, b, options);
  EXPECT_THROW(verify(g), std::invalid_argument);
}

TEST(FlowletGraph, TopologicalOrderRespectsEdges) {
  FlowletGraph g;
  auto a = g.add_loader("a", [] { return std::make_unique<SyntheticLoader>(); });
  auto b = g.add_map("b", [] { return std::make_unique<CollectorMap>(); });
  auto c = g.add_map("c", [] { return std::make_unique<CollectorMap>(); });
  g.connect(a, b);
  g.connect(a, c);
  g.connect(b, c);
  const auto order = g.topological_order();
  auto pos = [&](FlowletId id) {
    return std::find(order.begin(), order.end(), id) - order.begin();
  };
  EXPECT_LT(pos(a), pos(b));
  EXPECT_LT(pos(b), pos(c));
}

TEST(FlowletGraph, PortsNumberedInConnectOrder) {
  FlowletGraph g;
  auto a = g.add_map("a", [] { return std::make_unique<CollectorMap>(); });
  auto b = g.add_map("b", [] { return std::make_unique<CollectorMap>(); });
  auto c = g.add_map("c", [] { return std::make_unique<CollectorMap>(); });
  const auto e0 = g.connect(a, b);
  const auto e1 = g.connect(a, c);
  ASSERT_EQ(g.flowlet(a).out_edges.size(), 2u);
  EXPECT_EQ(g.flowlet(a).out_edges[0], e0);
  EXPECT_EQ(g.flowlet(a).out_edges[1], e1);
}

// --- bins -------------------------------------------------------------------------

TEST(Bin, BuilderViewRoundTrip) {
  BinBuilder builder(7, 3);
  builder.add("k1", "v1");
  builder.add("", "");
  builder.add("k3", std::string(1000, 'x'));
  EXPECT_EQ(builder.records(), 3u);
  const std::string bin = builder.take();
  EXPECT_TRUE(builder.empty());  // reset for reuse

  BinView view(bin);
  EXPECT_EQ(view.job_epoch(), 7u);
  EXPECT_EQ(view.edge(), 3u);
  EXPECT_EQ(view.records(), 3u);
  KvPair record;
  ASSERT_TRUE(view.next(&record));
  EXPECT_EQ(record.key, "k1");
  ASSERT_TRUE(view.next(&record));
  EXPECT_EQ(record.key, "");
  ASSERT_TRUE(view.next(&record));
  EXPECT_EQ(record.value.size(), 1000u);
  EXPECT_FALSE(view.next(&record));
  view.rewind();
  ASSERT_TRUE(view.next(&record));
  EXPECT_EQ(record.key, "k1");
}

TEST(Bin, MalformedBinThrows) {
  EXPECT_THROW(BinView(std::string_view("\xff")), serde::DecodeError);
}

namespace {

// Header (epoch 1, edge 0, `count` records) followed by raw record bytes.
std::string raw_bin(uint64_t count, std::string_view records) {
  std::string bin("\x01\x00", 2);
  for (; count >= 0x80; count >>= 7) bin.push_back(static_cast<char>(count | 0x80));
  bin.push_back(static_cast<char>(count));
  bin.append(records);
  return bin;
}

// Iterates every record the header promises; returns how many it yielded.
size_t drain_bin(const std::string& bin) {
  BinView view(bin);
  KvPair record;
  size_t n = 0;
  while (view.next(&record)) ++n;
  return n;
}

}  // namespace

TEST(Bin, HostileRecordBytesThrowDecodeError) {
  using namespace std::string_literals;
  // Control: the same framing, well formed, including a two-byte length.
  const std::string long_key(200, 'k');
  EXPECT_EQ(drain_bin(raw_bin(2, "\x03" "abc\x01v"s + "\xc8\x01"s + long_key +
                                     "\x00"s)),
            2u);

  // Key length past the end of the bin (single-byte and two-byte lengths).
  EXPECT_THROW(drain_bin(raw_bin(1, "\x32" "abc\x01v"s)), serde::DecodeError);
  EXPECT_THROW(drain_bin(raw_bin(1, "\xc8\x01"s + "abc"s)), serde::DecodeError);
  // Value length past the end of the bin.
  EXPECT_THROW(drain_bin(raw_bin(1, "\x03" "abc\x7fxy"s)), serde::DecodeError);
  EXPECT_THROW(drain_bin(raw_bin(1, "\x03" "abc\x01"s)), serde::DecodeError);
  // Cut off mid-varint: in a key length, then in a value length.
  EXPECT_THROW(drain_bin(raw_bin(1, "\xc8"s)), serde::DecodeError);
  EXPECT_THROW(drain_bin(raw_bin(1, "\x03" "abc\x80\x80"s)), serde::DecodeError);
  // Overlong varint: eleven continuation bytes never terminate within 64 bits.
  EXPECT_THROW(drain_bin(raw_bin(1, std::string(11, '\x80') + "\x01"s)),
               serde::DecodeError);
  // Header promises more records than the bin holds.
  EXPECT_THROW(drain_bin(raw_bin(5, "\x01" "a\x01" "b\x01" "c\x01" "d"s)),
               serde::DecodeError);
  EXPECT_THROW(drain_bin(raw_bin(1, ""s)), serde::DecodeError);
  // A truncated valid bin fails at every cut that splits a record.
  BinBuilder builder(1, 0);
  builder.add("key", "value");
  builder.add(long_key, "v");
  const std::string bin = builder.take();
  for (size_t cut = bin.size() - 1; cut > 0; --cut) {
    const std::string head = bin.substr(0, cut);
    try {
      drain_bin(head);
      ADD_FAILURE() << "truncation at " << cut << " decoded";
    } catch (const serde::DecodeError&) {
    }
  }
}

// --- RateGate --------------------------------------------------------------------

TEST(RateGate, DisabledIsFree) {
  RateGate gate(0);
  Stopwatch w;
  gate.charge(1000000);
  EXPECT_LT(w.elapsed_seconds(), 0.01);
  EXPECT_FALSE(gate.enabled());
}

TEST(RateGate, ChargesAtConfiguredRate) {
  RateGate gate(10000);  // 10k ops/s
  Stopwatch w;
  gate.charge(500);  // 50 ms
  EXPECT_GE(w.elapsed_seconds(), 0.045);
}

TEST(RateGate, SerializesConcurrentCallers) {
  RateGate gate(10000);
  Stopwatch w;
  std::thread t1([&] { gate.charge(250); });
  std::thread t2([&] { gate.charge(250); });
  t1.join();
  t2.join();
  EXPECT_GE(w.elapsed_seconds(), 0.045);  // 500 ops serialized
}

// --- end-to-end engine semantics ---------------------------------------------------

TEST(Engine, LoaderToMapDeliversAllRecords) {
  Env env(4);
  FlowletGraph g;
  auto loader = g.add_loader("l", [] { return std::make_unique<SyntheticLoader>(); });
  auto sink = g.add_map("sink", [] { return std::make_unique<CollectorMap>(); });
  g.connect(loader, sink);
  const auto result = env.engine.run(with_synthetic_splits(g, loader, 4, 100));
  EXPECT_EQ(result.records_emitted, 400u);

  const auto got = collected(env.cluster);
  EXPECT_EQ(got.size(), 400u);
  EXPECT_EQ(got.count("k0\tv0"), 1u);
  EXPECT_EQ(got.count("k399\tv399"), 1u);
}

TEST(Engine, KeyRoutingSendsEachKeyToOneNode) {
  Env env(4);
  FlowletGraph g;
  auto loader = g.add_loader("l", [] { return std::make_unique<SyntheticLoader>(); });
  auto sink = g.add_map("sink", [] { return std::make_unique<CollectorMap>(); });
  g.connect(loader, sink);  // default: key-hash routing
  env.engine.run(with_synthetic_splits(g, loader, 4, 50));

  // Every record with the same key landed on exactly the partition node.
  for (uint32_t n = 0; n < 4; ++n) {
    auto data = env.cluster.node(n).store().read_file("test/collected_node" +
                                                      std::to_string(n));
    if (!data.ok()) continue;
    size_t pos = 0;
    const std::string& text = data.value();
    while (pos < text.size()) {
      size_t eol = text.find('\n', pos);
      if (eol == std::string::npos) eol = text.size();
      const std::string_view line = std::string_view(text).substr(pos, eol - pos);
      const auto key = line.substr(0, line.find('\t'));
      EXPECT_EQ(partition_of(key, 4), n) << line;
      pos = eol + 1;
    }
  }
}

TEST(Engine, ReduceGroupsAllValuesOfKey) {
  Env env(3);
  // Loader emits k<i mod 10> so each key has many values.
  class ModLoader : public LoaderFlowlet {
   public:
    bool load_chunk(const InputSplit& split, uint64_t* cursor, Context& ctx) override {
      for (uint64_t i = 0; i < split.user_tag; ++i) {
        ctx.emit(0, "k" + std::to_string(i % 10), "x");
      }
      (void)cursor;
      return false;
    }
  };
  class CountingReduce : public ReduceFlowlet {
   public:
    void reduce(std::string_view key, const std::vector<std::string_view>& values,
                Context& ctx) override {
      std::lock_guard<std::mutex> lock(mu_);
      lines_ += std::string(key) + "\t" + std::to_string(values.size()) + "\n";
      (void)ctx;
    }
    void finish(Context& ctx) override {
      ctx.local_store().write_file("test/collected_node" + std::to_string(ctx.node()),
                                   lines_);
    }

   private:
    std::mutex mu_;
    std::string lines_;
  };

  FlowletGraph g;
  auto loader = g.add_loader("l", [] { return std::make_unique<ModLoader>(); });
  auto red = g.add_reduce("r", [] { return std::make_unique<CountingReduce>(); });
  g.connect(loader, red);
  for (uint32_t n = 0; n < 3; ++n) {
    InputSplit split;
    split.user_tag = 100;
    split.preferred_node = n;
    g.flowlet(loader).splits.push_back(split);
  }
  env.engine.run(g);

  const auto got = collected(env.cluster);
  ASSERT_EQ(got.size(), 10u);  // one line per key: grouping collected all
  for (const std::string& line : got) {
    EXPECT_NE(line.find("\t30"), std::string::npos) << line;  // 3 nodes x 10 each
  }
}

TEST(Engine, ReduceSpillsUnderMemoryPressureAndStaysCorrect) {
  EngineConfig config = EngineConfig::fast();
  config.memory_budget_bytes = 8 * 1024;  // force spills
  Env env(2, config);

  class BigValueLoader : public LoaderFlowlet {
   public:
    bool load_chunk(const InputSplit& split, uint64_t* cursor, Context& ctx) override {
      const uint64_t end = std::min(split.user_tag, *cursor + 16);
      for (uint64_t i = *cursor; i < end; ++i) {
        ctx.emit(0, "key" + std::to_string(i % 7), std::string(512, 'v'));
      }
      *cursor = end;
      return end < split.user_tag;
    }
  };
  class SizeReduce : public ReduceFlowlet {
   public:
    void reduce(std::string_view key, const std::vector<std::string_view>& values,
                Context& ctx) override {
      for (const auto& v : values) EXPECT_EQ(v.size(), 512u);
      std::lock_guard<std::mutex> lock(mu_);
      lines_ += std::string(key) + "\t" + std::to_string(values.size()) + "\n";
      (void)ctx;
    }
    void finish(Context& ctx) override {
      ctx.local_store().write_file("test/collected_node" + std::to_string(ctx.node()),
                                   lines_);
    }

   private:
    std::mutex mu_;
    std::string lines_;
  };

  FlowletGraph g;
  auto loader = g.add_loader("l", [] { return std::make_unique<BigValueLoader>(); });
  auto red = g.add_reduce("r", [] { return std::make_unique<SizeReduce>(); });
  g.connect(loader, red);
  const auto result = env.engine.run(with_synthetic_splits(g, loader, 2, 200));
  EXPECT_GT(result.spill_bytes, 0u) << "expected the memory budget to force spills";

  uint64_t total = 0;
  for (const std::string& line : collected(env.cluster)) {
    total += std::stoull(line.substr(line.find('\t') + 1));
  }
  EXPECT_EQ(total, 400u);
}

TEST(Engine, PartialReduceEmitsOnceOnCompletion) {
  Env env(2);
  class SumPartial : public PartialReduceFlowlet {
   public:
    void fold(std::string_view, std::string_view value, std::string& acc) override {
      const uint64_t prev = acc.empty() ? 0 : std::stoull(acc);
      acc = std::to_string(prev + std::stoull(std::string(value)));
    }
  };

  FlowletGraph g;
  class OneKeyLoader : public LoaderFlowlet {
   public:
    bool load_chunk(const InputSplit& split, uint64_t* cursor, Context& ctx) override {
      for (uint64_t i = 0; i < split.user_tag; ++i) ctx.emit(0, "total", "1");
      (void)cursor;
      return false;
    }
  };
  auto loader = g.add_loader("l", [] { return std::make_unique<OneKeyLoader>(); });
  auto partial = g.add_partial_reduce("p", [] { return std::make_unique<SumPartial>(); });
  auto sink = g.add_map("sink", [] { return std::make_unique<CollectorMap>(); });
  g.connect(loader, partial);
  g.connect(partial, sink);
  env.engine.run(with_synthetic_splits(g, loader, 2, 500));

  const auto got = collected(env.cluster);
  ASSERT_EQ(got.size(), 1u);  // exactly one emission for the single key
  EXPECT_EQ(*got.begin(), "total\t1000");
}

namespace {

// Order-sensitive fold: appends each value, so an accumulator spells out the
// order its records were folded in.
class AppendPartial : public PartialReduceFlowlet {
 public:
  void fold(std::string_view, std::string_view value, std::string& acc) override {
    acc.append(value);
    acc.push_back(',');
  }
};

constexpr uint64_t kInterleavedRecords = 1500;
constexpr uint64_t kInterleavedKeys = 97;

std::string interleaved_key(uint64_t i) {
  return "k" + std::to_string(i * 31 % kInterleavedKeys);
}

// One chunk, one emitter: every record lands in a single bin.
class InterleavedLoader : public LoaderFlowlet {
 public:
  bool load_chunk(const InputSplit&, uint64_t*, Context& ctx) override {
    for (uint64_t i = 0; i < kInterleavedRecords; ++i) {
      ctx.emit(0, interleaved_key(i), std::to_string(i));
    }
    return false;
  }
};

}  // namespace

TEST(Engine, PartialReduceFoldsABinInArrivalOrderPerKey) {
  // The bin's keys interleave across most of the 64 stripes, with repeats.
  std::set<uint64_t> stripes;
  uint64_t bin_bytes = 0;
  std::map<std::string, std::string> want;  // record-at-a-time fold
  AppendPartial reference;
  for (uint64_t i = 0; i < kInterleavedRecords; ++i) {
    const std::string key = interleaved_key(i);
    stripes.insert(hash_combine(hash_bytes(key), 0x9d13) %
                   EngineConfig::fast().partial_reduce_stripes);
    bin_bytes += key.size() + std::to_string(i).size() + 2;
    reference.fold(key, std::to_string(i), want[key]);
  }
  ASSERT_GT(stripes.size(), 32u);
  ASSERT_LT(bin_bytes, EngineConfig::fast().bin_size_bytes);
  ASSERT_EQ(want.size(), kInterleavedKeys);

  Env env(1);
  FlowletGraph g;
  auto loader = g.add_loader("l", [] { return std::make_unique<InterleavedLoader>(); });
  auto partial =
      g.add_partial_reduce("p", [] { return std::make_unique<AppendPartial>(); });
  auto sink = g.add_map("sink", [] { return std::make_unique<CollectorMap>(); });
  g.connect(loader, partial);
  g.connect(partial, sink);
  const JobResult result = env.engine.run(with_synthetic_splits(g, loader, 1, 1));
  EXPECT_EQ(result.bins_sent, 2u);  // the one folded bin, then the results

  std::multiset<std::string> expected;
  for (const auto& [key, acc] : want) expected.insert(key + "\t" + acc);
  const std::multiset<std::string> got = collected(env.cluster);
  EXPECT_EQ(got, expected);
  // Arrival order, spelled out: each key's values (record indices) ascend.
  for (const std::string& line : got) {
    std::istringstream values(line.substr(line.find('\t') + 1));
    std::string item;
    int64_t last = -1;
    while (std::getline(values, item, ',')) {
      const int64_t index = std::stoll(item);
      EXPECT_GT(index, last) << line;
      last = index;
    }
  }
}

TEST(FlatAccTable, HashedProbeMatchesOneArgumentForm) {
  FlatAccTable plain;
  FlatAccTable hashed;
  for (uint64_t i = 0; i < 5000; ++i) {
    // 700 distinct keys: several rebuilds, every key seen repeatedly.
    const std::string key = "key" + std::to_string(i * 7919 % 700);
    const std::string value = std::to_string(i);
    plain.find_or_insert(key).append(value);
    hashed.find_or_insert(key, hash_bytes(key)).append(value);
  }
  ASSERT_EQ(plain.size(), 700u);
  ASSERT_EQ(hashed.size(), plain.size());
  for (size_t n = 0; n < plain.size(); ++n) {
    const FlatAccTable::Entry& a = plain.entries()[n];
    const FlatAccTable::Entry& b = hashed.entries()[n];
    EXPECT_EQ(a.hash, b.hash);
    EXPECT_EQ(a.key, b.key);
    EXPECT_EQ(a.acc, b.acc);
  }
}

TEST(Engine, EmitToNodeAndBroadcast) {
  Env env(4);
  class DirectedLoader : public LoaderFlowlet {
   public:
    bool load_chunk(const InputSplit& split, uint64_t* cursor, Context& ctx) override {
      (void)cursor;
      if (split.preferred_node == 0) {
        ctx.emit_to_node(0, 2, "direct", "to-node-2");
        ctx.emit_broadcast(0, "bcast", "everywhere");
      }
      return false;
    }
  };
  FlowletGraph g;
  auto loader = g.add_loader("l", [] { return std::make_unique<DirectedLoader>(); });
  auto sink = g.add_map("sink", [] { return std::make_unique<CollectorMap>(); });
  g.connect(loader, sink);
  env.engine.run(with_synthetic_splits(g, loader, 4, 1));

  // direct record only on node 2; broadcast on all 4 nodes.
  for (uint32_t n = 0; n < 4; ++n) {
    auto data = env.cluster.node(n).store().read_file("test/collected_node" +
                                                      std::to_string(n));
    const std::string text = data.ok() ? data.value() : "";
    EXPECT_EQ(text.find("direct") != std::string::npos, n == 2) << "node " << n;
    EXPECT_NE(text.find("bcast"), std::string::npos) << "node " << n;
  }
}

TEST(Engine, FlowControlStallsLoadersButCompletes) {
  EngineConfig config = EngineConfig::fast();
  config.flow_control_high_bytes = 2 * 1024;  // tiny watermark
  config.bin_size_bytes = 512;
  Env env(2, config);

  FlowletGraph g;
  auto loader = g.add_loader("l", [] { return std::make_unique<SyntheticLoader>(16); });
  auto sink = g.add_map("sink", [] { return std::make_unique<CollectorMap>(); });
  g.connect(loader, sink);
  const auto result = env.engine.run(with_synthetic_splits(g, loader, 2, 3000));
  EXPECT_EQ(collected(env.cluster).size(), 6000u);
  EXPECT_GT(result.flow_control_stalls, 0u);
}

TEST(Engine, FlowControlDisabledNeverStalls) {
  EngineConfig config = EngineConfig::fast();
  config.flow_control_high_bytes = 1;  // would trip constantly...
  config.flow_control_enabled = false;  // ...but it is off
  Env env(2, config);
  FlowletGraph g;
  auto loader = g.add_loader("l", [] { return std::make_unique<SyntheticLoader>(); });
  auto sink = g.add_map("sink", [] { return std::make_unique<CollectorMap>(); });
  g.connect(loader, sink);
  const auto result = env.engine.run(with_synthetic_splits(g, loader, 2, 500));
  EXPECT_EQ(result.flow_control_stalls, 0u);
  EXPECT_EQ(collected(env.cluster).size(), 1000u);
}

TEST(Engine, MultipleJobsReuseEngine) {
  Env env(2);
  for (int round = 0; round < 3; ++round) {
    FlowletGraph g;
    auto loader = g.add_loader("l", [] { return std::make_unique<SyntheticLoader>(); });
    auto sink = g.add_map("sink", [] { return std::make_unique<CollectorMap>(); });
    g.connect(loader, sink);
    env.engine.run(with_synthetic_splits(g, loader, 2, 100 * (round + 1)));
    EXPECT_EQ(collected(env.cluster).size(), 200u * (round + 1)) << round;
  }
}

TEST(Engine, FanInAndFanOutGraph) {
  Env env(3);
  FlowletGraph g;
  auto l1 = g.add_loader("l1", [] { return std::make_unique<SyntheticLoader>(); });
  auto l2 = g.add_loader("l2", [] { return std::make_unique<SyntheticLoader>(); });
  auto sink = g.add_map("sink", [] { return std::make_unique<CollectorMap>(); });
  g.connect(l1, sink);
  g.connect(l2, sink);

  InputSplit s1;
  s1.offset = 0;
  s1.user_tag = 50;
  s1.preferred_node = 0;
  g.flowlet(l1).splits.push_back(s1);
  InputSplit s2;
  s2.offset = 1000;
  s2.user_tag = 70;
  s2.preferred_node = 1;
  g.flowlet(l2).splits.push_back(s2);
  env.engine.run(g);
  EXPECT_EQ(collected(env.cluster).size(), 120u);
}

TEST(Engine, EmptyInputCompletes) {
  Env env(2);
  FlowletGraph g;
  auto loader = g.add_loader("l", [] { return std::make_unique<SyntheticLoader>(); });
  auto red = g.add_reduce("r", [] { return std::make_unique<CollectorReduce>(); });
  g.connect(loader, red);
  const auto result = env.engine.run(g);  // no splits at all
  EXPECT_EQ(result.records_emitted, 0u);
}

TEST(Engine, EmitDuringStartThrows) {
  Env env(1);
  class BadStart : public MapFlowlet {
   public:
    void start(Context& ctx) override { ctx.emit(0, "k", "v"); }
    void process(const KvPair&, Context&) override {}
  };
  FlowletGraph g;
  auto loader = g.add_loader("l", [] { return std::make_unique<SyntheticLoader>(); });
  auto bad = g.add_map("bad", [] { return std::make_unique<BadStart>(); });
  auto sink = g.add_map("sink", [] { return std::make_unique<CollectorMap>(); });
  g.connect(loader, bad);
  g.connect(bad, sink);
  EXPECT_THROW(env.engine.run(with_synthetic_splits(g, loader, 1, 1)), std::logic_error);
}

TEST(Engine, StreamingWindowsFlushPeriodically) {
  // Processing-time windows are event-time windows over ingestion stamps: a
  // paced, unbounded generator stamps event i at i / rate seconds, so its
  // watermark closes 100 ms windows while the 400 ms stream runs.
  const uint32_t kNodes = 2;
  Env env(kNodes);
  stream::GeneratorConfig gen;  // total_events = 0: runs until stopped
  gen.events_per_sec = 2000;
  gen.period_us = 500;  // 1e6 / events_per_sec
  gen.make = [](uint64_t index, std::string* key, std::string* value) {
    *key = "tick" + std::to_string(index % 4);
    *value = "1";
  };
  stream::StreamPipeline p;
  p.source = [gen] { return std::make_unique<stream::GeneratorSource>(gen); };
  p.source_options.window.size_us = 100'000;
  p.source_options.events_per_chunk = 32;
  p.source_options.punctuate_every = 32;
  p.fold = [](std::string_view, std::string_view value, std::string& acc) {
    const uint64_t prev = acc.empty() ? 0 : std::stoull(acc);
    acc = std::to_string(prev + std::stoull(std::string(value)));
  };
  p.output_dir = "test/windows";
  const service::JobWork work =
      stream::StreamService::make_work(std::move(p), kNodes, nullptr);
  const JobResult result = env.engine.run_streaming(work.graph, millis(400));

  std::map<std::string, std::set<int64_t>> windows_of;  // key -> window ends
  uint64_t total = 0;
  std::istringstream lines(work.collect(env.engine));
  for (std::string line; std::getline(lines, line);) {
    const size_t tab = line.find('\t');
    ASSERT_NE(tab, std::string::npos) << line;
    const std::string_view key(line.data(), tab);
    windows_of[std::string(stream::window_key_user(key))].insert(
        stream::window_key_end(key));
    total += std::stoull(line.substr(tab + 1));
  }
  ASSERT_EQ(windows_of.size(), 4u);
  for (const auto& [key, ends] : windows_of) {
    EXPECT_GT(ends.size(), 1u) << key << " closed in a single window";
  }
  EXPECT_GT(total, 0u);
  EXPECT_EQ(total, result.metrics.counter("stream.events_ingested"));
}

namespace {

// Shared between PrefixBarrierProbe instances, the gated loader and the test.
struct BarrierProbeState {
  std::atomic<bool> armed{false};
  std::mutex mu;
  std::vector<std::string> emitted;     // every key emit_result saw, in order
  std::vector<std::string> first_fire;  // keys the first fire() drained
  int fires = 0;
};

// Arms the barrier once (after its first folded bin), drains every key
// when it fires, and records what each drain removed.
class PrefixBarrierProbe : public PartialReduceFlowlet, private PrefixBarrier {
 public:
  explicit PrefixBarrierProbe(std::shared_ptr<BarrierProbeState> state)
      : state_(std::move(state)) {}

  void fold(std::string_view, std::string_view value, std::string& acc) override {
    acc.assign(value);
  }
  void emit_result(std::string_view key, std::string_view, Context&) override {
    std::lock_guard<std::mutex> lock(state_->mu);
    state_->emitted.emplace_back(key);
  }
  PrefixBarrier* prefix_barrier() override { return this; }

 private:
  int64_t after_bin(Context&) override {
    return state_->armed.exchange(true) ? kNoArm : 1;
  }
  void fire(int64_t, AccumulatorDrain& drain, Context&) override {
    size_t before = 0;
    {
      std::lock_guard<std::mutex> lock(state_->mu);
      before = state_->emitted.size();
    }
    drain.drain_if([](std::string_view) { return true; });
    std::lock_guard<std::mutex> lock(state_->mu);
    if (state_->fires++ == 0) {
      state_->first_fire.assign(state_->emitted.begin() + before,
                                state_->emitted.end());
    }
  }

  std::shared_ptr<BarrierProbeState> state_;
};

// Emits one record per chunk, so one bin per chunk: "b0", then - once the
// log shows b0's crash - "b1", then "b2".."b9" once the probe has armed.
class GatedLoader : public LoaderFlowlet {
 public:
  GatedLoader(std::shared_ptr<BarrierProbeState> state, obs::EventLog* log)
      : state_(std::move(state)), log_(log) {}

  bool load_chunk(const InputSplit&, uint64_t* cursor, Context& ctx) override {
    if (*cursor == 1) {
      await([&] { return log_->count(obs::EventKind::kTaskRetry) >= 1; });
    } else if (*cursor == 2) {
      await([&] { return state_->armed.load(); });
    }
    ctx.emit(0, "b" + std::to_string(*cursor), "x");
    return ++*cursor < 10;
  }

 private:
  // Bounded, so a broken barrier fails the assertions instead of hanging.
  template <typename Pred>
  static void await(Pred ready) {
    const TimePoint give_up = now() + std::chrono::seconds(10);
    while (!ready() && now() < give_up) std::this_thread::sleep_for(millis(1));
  }

  std::shared_ptr<BarrierProbeState> state_;
  obs::EventLog* log_;
};

}  // namespace

TEST(Engine, PrefixBarrierWaitsForAParkedEarlierBin) {
  // The probe's first bin b0 crashes and parks for a long backoff. b1 arms
  // the barrier with b0 still unfolded, and b2..b9 complete before b0's
  // retry: a processed-bin count reaches the target without b0, the
  // processed prefix does not. The loader sequences on the event log (b0's
  // kTaskRetry) and on the arm, not on timing.
  obs::EventLog log;
  EngineConfig config = EngineConfig::fast();
  config.event_log = &log;
  config.worker_threads = 3;  // one may sit in the gated loader
  fault::FaultPlan plan;
  plan.crash_points.push_back({.node = 0, .flowlet = "probe", .times = 1});
  plan.retry_backoff = millis(200);
  plan.retry_backoff_cap = millis(200);
  fault::FaultInjector injector(plan);
  config.fault_injector = &injector;
  Env env(1, config);

  auto state = std::make_shared<BarrierProbeState>();
  FlowletGraph g;
  auto loader = g.add_loader("gated", [state, &log] {
    return std::make_unique<GatedLoader>(state, &log);
  });
  auto probe = g.add_partial_reduce("probe", [state] {
    return std::make_unique<PrefixBarrierProbe>(state);
  });
  g.connect(loader, probe);
  g.flowlet(loader).splits.push_back(InputSplit{});
  env.engine.run(g);

  EXPECT_EQ(log.count(obs::EventKind::kTaskRetry), 1u);
  EXPECT_EQ(state->fires, 1);
  // The fire waited for the parked bin: b0 (and b1, the arming bin) left
  // the table in the first drain, not in the finish pass.
  const std::set<std::string> first(state->first_fire.begin(),
                                    state->first_fire.end());
  EXPECT_TRUE(first.count("b0")) << "barrier fired before the parked bin folded";
  EXPECT_TRUE(first.count("b1"));
  // Drain plus finish emit every key exactly once.
  std::multiset<std::string> all(state->emitted.begin(), state->emitted.end());
  EXPECT_EQ(all.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(all.count("b" + std::to_string(i)), 1u);
}

TEST(Engine, RunningTwoJobsConcurrentlyRejected) {
  Env env(1);
  // The public contract is one job at a time; verified via the guard flag.
  FlowletGraph g;
  auto loader = g.add_loader("l", [] { return std::make_unique<SyntheticLoader>(); });
  auto sink = g.add_map("s", [] { return std::make_unique<CollectorMap>(); });
  g.connect(loader, sink);
  env.engine.run(with_synthetic_splits(g, loader, 1, 10));  // completes fine
  // (Concurrent-run rejection is covered by the logic_error guard; invoking
  // it concurrently here would race the test itself, so we assert the flag
  // resets by simply running again.)
  env.engine.run(with_synthetic_splits(g, loader, 1, 10));
}

namespace {

// Loader that parks inside its first chunk until released (or the engine
// raises the stream-stop flag, which request_cancel does), so tests can hold
// a run in-flight deterministically.
class ParkedLoader : public LoaderFlowlet {
 public:
  ParkedLoader(std::shared_ptr<std::atomic<int>> parked,
               std::shared_ptr<std::atomic<bool>> release)
      : parked_(std::move(parked)), release_(std::move(release)) {}

  bool load_chunk(const InputSplit& split, uint64_t* cursor,
                  Context& ctx) override {
    parked_->fetch_add(1);
    while (!release_->load() && !ctx.stream_stopping()) {
      std::this_thread::sleep_for(millis(1));
    }
    for (uint64_t i = 0; i < split.user_tag; ++i) {
      ctx.emit(0, "k" + std::to_string(split.offset + i), "v");
    }
    (void)cursor;
    return false;
  }

 private:
  std::shared_ptr<std::atomic<int>> parked_;
  std::shared_ptr<std::atomic<bool>> release_;
};

struct ParkedRun {
  std::shared_ptr<std::atomic<int>> parked = std::make_shared<std::atomic<int>>(0);
  std::shared_ptr<std::atomic<bool>> release = std::make_shared<std::atomic<bool>>(false);
  FlowletGraph graph;
  FlowletId loader = 0;

  ParkedRun() {
    auto p = parked;
    auto r = release;
    loader = graph.add_loader(
        "parked", [p, r] { return std::make_unique<ParkedLoader>(p, r); });
    auto sink = graph.add_map("s", [] { return std::make_unique<CollectorMap>(); });
    graph.connect(loader, sink);
  }

  void wait_parked() {
    while (parked->load() == 0) std::this_thread::sleep_for(millis(1));
  }
};

}  // namespace

TEST(Engine, SecondRunWhileFirstInFlightThrowsLogicError) {
  Env env(1);
  ParkedRun pr;
  with_synthetic_splits(pr.graph, pr.loader, 1, 4);
  std::thread first([&] { env.engine.run(pr.graph); });
  pr.wait_parked();
  // The slot is genuinely occupied: a concurrent entry fails loudly instead
  // of corrupting the in-flight job.
  EXPECT_THROW(env.engine.run(pr.graph), std::logic_error);
  pr.release->store(true);
  first.join();
  // ...and the rejection left the running job and the slot intact.
  env.engine.run(pr.graph);
}

// A zero receive budget could never admit a bin (the delivery thread would
// block on the first one), so the engine refuses it at construction.
TEST(Engine, ZeroBinQueueBudgetRejected) {
  cluster::Cluster cluster(cluster::ClusterConfig::fast(2));
  EngineConfig config = EngineConfig::fast();
  config.bin_queue_bytes = 0;
  EXPECT_THROW(Engine(cluster, config), std::invalid_argument);
}

TEST(Engine, FailedRunReleasesSlotForNextJob) {
  Env env(1);
  FlowletGraph bad;
  bad.add_loader("broken", nullptr);
  EXPECT_THROW(env.engine.run(bad), std::invalid_argument);

  // The guard must release the run slot on the throwing path, or this second
  // run would be rejected as concurrent.
  FlowletGraph g;
  auto loader = g.add_loader("l", [] { return std::make_unique<SyntheticLoader>(); });
  auto sink = g.add_map("s", [] { return std::make_unique<CollectorMap>(); });
  g.connect(loader, sink);
  const JobResult result = env.engine.run(with_synthetic_splits(g, loader, 1, 10));
  EXPECT_FALSE(result.cancelled);
}

TEST(Engine, RequestCancelAbortsRunAndClearsForNextJob) {
  Env env(2);
  env.engine.request_cancel();  // idle engine: safe no-op

  ParkedRun pr;
  JobResult result;
  std::thread run([&] {
    result = env.engine.run(with_synthetic_splits(pr.graph, pr.loader, 2, 64));
  });
  pr.wait_parked();
  env.engine.request_cancel();  // never released: only cancel can end it
  run.join();
  EXPECT_TRUE(result.cancelled);

  // The cancel flag does not leak into the next job.
  ParkedRun next;
  next.release->store(true);
  const JobResult clean =
      env.engine.run(with_synthetic_splits(next.graph, next.loader, 2, 8));
  EXPECT_FALSE(clean.cancelled);
}

// --- event-log ordering invariants ----------------------------------------------
//
// These tests plant an obs::EventLog in the engine config and assert ordering
// properties that hold in EVERY legal schedule (the runtime records each event
// before the atomic transition that makes it causally visible). They contain
// no sleeps and no timing assumptions, so they are deterministic under
// repetition and under sanitizers.

namespace {

EngineConfig logged_config(obs::EventLog* log) {
  EngineConfig config = EngineConfig::fast();
  config.event_log = log;
  return config;
}

}  // namespace

TEST(EngineEventLog, BinsProcessedBeforeFlowletCompletes) {
  obs::EventLog log;
  Env env(4, logged_config(&log));
  FlowletGraph g;
  auto loader = g.add_loader("l", [] { return std::make_unique<SyntheticLoader>(); });
  auto sink = g.add_map("sink", [] { return std::make_unique<CollectorMap>(); });
  g.connect(loader, sink);
  env.engine.run(with_synthetic_splits(g, loader, 4, 200));

  // Every enqueued bin was processed, per (node, flowlet) stream.
  for (uint32_t n = 0; n < 4; ++n) {
    EXPECT_EQ(log.count(n, sink, obs::EventKind::kBinEnqueued),
              log.count(n, sink, obs::EventKind::kBinProcessed))
        << "node " << n;
    // State machine is monotonic: every kBinProcessed precedes the node's
    // kFlowletReady, which precedes its kFlowletComplete.
    uint64_t ready_seq = 0, complete_seq = 0;
    uint64_t ready_count = 0, complete_count = 0;
    for (const obs::Event& ev : log.stream(n, sink)) {
      if (ev.kind == obs::EventKind::kFlowletReady) {
        ready_seq = ev.seq;
        ++ready_count;
      }
      if (ev.kind == obs::EventKind::kFlowletComplete) {
        complete_seq = ev.seq;
        ++complete_count;
      }
    }
    ASSERT_EQ(ready_count, 1u) << "node " << n;
    ASSERT_EQ(complete_count, 1u) << "node " << n;
    EXPECT_LT(ready_seq, complete_seq) << "node " << n;
    for (const obs::Event& ev : log.stream(n, sink)) {
      if (ev.kind == obs::EventKind::kBinProcessed) {
        EXPECT_LT(ev.seq, ready_seq) << "node " << n;
      }
    }
  }
}

TEST(EngineEventLog, CompletionPropagatesExactlyOnce) {
  obs::EventLog log;
  Env env(3, logged_config(&log));
  FlowletGraph g;
  auto loader = g.add_loader("l", [] { return std::make_unique<SyntheticLoader>(); });
  auto sink = g.add_map("sink", [] { return std::make_unique<CollectorMap>(); });
  g.connect(loader, sink);
  env.engine.run(with_synthetic_splits(g, loader, 3, 50));

  // Each (node, flowlet) goes Ready -> Complete -> Broadcast exactly once:
  // the finish_scheduled exchange is the only gate into that chain.
  for (uint32_t n = 0; n < 3; ++n) {
    for (FlowletId f : {loader, sink}) {
      EXPECT_EQ(log.count(n, f, obs::EventKind::kFlowletReady), 1u)
          << "node " << n << " flowlet " << f;
      EXPECT_EQ(log.count(n, f, obs::EventKind::kFlowletComplete), 1u)
          << "node " << n << " flowlet " << f;
      EXPECT_EQ(log.count(n, f, obs::EventKind::kCompleteBroadcast), 1u)
          << "node " << n << " flowlet " << f;
    }
  }
}

TEST(EngineEventLog, ReduceFiresAfterAllUpstreamChannelsComplete) {
  obs::EventLog log;
  Env env(3, logged_config(&log));
  FlowletGraph g;
  auto loader = g.add_loader("l", [] { return std::make_unique<SyntheticLoader>(); });
  auto red = g.add_reduce("r", [] { return std::make_unique<CollectorReduce>(); });
  g.connect(loader, red);
  env.engine.run(with_synthetic_splits(g, loader, 3, 100));

  for (uint32_t n = 0; n < 3; ++n) {
    const auto stream = log.stream(n, red);
    // One COMPLETE channel per upstream node, from distinct sources.
    std::set<int64_t> sources;
    uint64_t last_channel_seq = 0;
    uint64_t ready_seq = 0;
    for (const obs::Event& ev : stream) {
      if (ev.kind == obs::EventKind::kChannelComplete) {
        sources.insert(ev.aux);
        last_channel_seq = std::max(last_channel_seq, ev.seq);
      }
      if (ev.kind == obs::EventKind::kFlowletReady) ready_seq = ev.seq;
    }
    EXPECT_EQ(sources.size(), 3u) << "node " << n;
    // The reduce only becomes Ready after the LAST channel completes, and
    // its stage tasks run only after Ready.
    EXPECT_GT(ready_seq, last_channel_seq) << "node " << n;
    for (const obs::Event& ev : stream) {
      if (ev.kind == obs::EventKind::kReduceStageRun) {
        EXPECT_GT(ev.seq, ready_seq) << "node " << n;
      }
    }
  }
}

TEST(EngineEventLog, FlowControlStallsPauseAndResumeSameTask) {
  obs::EventLog log;
  EngineConfig config = logged_config(&log);
  config.flow_control_high_bytes = 2 * 1024;  // tiny watermark: force stalls
  config.bin_size_bytes = 512;
  Env env(2, config);
  FlowletGraph g;
  auto loader = g.add_loader("l", [] { return std::make_unique<SyntheticLoader>(16); });
  auto sink = g.add_map("sink", [] { return std::make_unique<CollectorMap>(); });
  g.connect(loader, sink);
  const auto result = env.engine.run(with_synthetic_splits(g, loader, 2, 3000));

  const uint64_t begins = log.count(obs::EventKind::kStallBegin);
  ASSERT_GT(begins, 0u) << "watermark too high to trip flow control";
  EXPECT_EQ(begins, log.count(obs::EventKind::kStallEnd));
  EXPECT_EQ(begins, result.flow_control_stalls);

  // Within each (node, loader) stream, stalls pause and resume the SAME
  // task: every StallBegin(tag) is closed by a later StallEnd(tag) before
  // that tag can stall again (defer logs End before re-queuing the task).
  for (uint32_t n = 0; n < 2; ++n) {
    std::multiset<int64_t> open;
    for (const obs::Event& ev : log.stream(n, loader)) {
      if (ev.kind == obs::EventKind::kStallBegin) {
        EXPECT_EQ(open.count(ev.aux), 0u)
            << "task tag " << ev.aux << " stalled twice without resuming";
        open.insert(ev.aux);
      } else if (ev.kind == obs::EventKind::kStallEnd) {
        ASSERT_EQ(open.count(ev.aux), 1u)
            << "StallEnd for tag " << ev.aux << " without open StallBegin";
        open.erase(ev.aux);
      }
    }
    EXPECT_TRUE(open.empty()) << "node " << n << " has unclosed stalls";
  }
}

// --- stealing scheduler ----------------------------------------------------------
//
// The same four ordering invariants, rerun with 8 workers per node (the
// default test envs use 2): per-worker sharded deques with stealing must not
// reorder any (node, flowlet) event stream the completion protocol depends
// on. Each scenario repeats to give interleavings a chance to vary; the
// invariants are schedule-free, so every repetition must hold exactly.

namespace {

constexpr uint32_t kWideWorkers = 8;
constexpr int kWideRepeats = 3;

struct WideEnv {
  explicit WideEnv(uint32_t nodes, EngineConfig config = EngineConfig::fast())
      : cluster(cluster::ClusterConfig::fast(nodes, kWideWorkers)),
        engine(cluster, config) {}

  cluster::Cluster cluster;
  Engine engine;
};

uint64_t total_counter(cluster::Cluster& cluster, const std::string& name) {
  uint64_t total = 0;
  for (uint32_t n = 0; n < cluster.size(); ++n) {
    total += cluster.node(n).metrics().counter(name)->get();
  }
  return total;
}

}  // namespace

TEST(EngineStealing, BinsProcessedBeforeFlowletCompletesAtEightWorkers) {
  uint64_t steals = 0;
  for (int rep = 0; rep < kWideRepeats; ++rep) {
    obs::EventLog log;
    WideEnv env(4, logged_config(&log));
    FlowletGraph g;
    auto loader = g.add_loader("l", [] { return std::make_unique<SyntheticLoader>(); });
    auto sink = g.add_map("sink", [] { return std::make_unique<CollectorMap>(); });
    g.connect(loader, sink);
    env.engine.run(with_synthetic_splits(g, loader, 4, 200));

    for (uint32_t n = 0; n < 4; ++n) {
      EXPECT_EQ(log.count(n, sink, obs::EventKind::kBinEnqueued),
                log.count(n, sink, obs::EventKind::kBinProcessed))
          << "rep " << rep << " node " << n;
      uint64_t ready_seq = 0, complete_seq = 0;
      uint64_t ready_count = 0, complete_count = 0;
      for (const obs::Event& ev : log.stream(n, sink)) {
        if (ev.kind == obs::EventKind::kFlowletReady) {
          ready_seq = ev.seq;
          ++ready_count;
        }
        if (ev.kind == obs::EventKind::kFlowletComplete) {
          complete_seq = ev.seq;
          ++complete_count;
        }
      }
      ASSERT_EQ(ready_count, 1u) << "rep " << rep << " node " << n;
      ASSERT_EQ(complete_count, 1u) << "rep " << rep << " node " << n;
      EXPECT_LT(ready_seq, complete_seq) << "rep " << rep << " node " << n;
      for (const obs::Event& ev : log.stream(n, sink)) {
        if (ev.kind == obs::EventKind::kBinProcessed) {
          EXPECT_LT(ev.seq, ready_seq) << "rep " << rep << " node " << n;
        }
      }
    }
    steals += total_counter(env.cluster, "engine.sched_steal");
  }
  // With 8 workers and only 4 sender shards populated, idle workers must
  // have stolen at least once across the repetitions.
  EXPECT_GT(steals, 0u) << "stealing never engaged at 8 workers";
}

TEST(EngineStealing, CompletionPropagatesExactlyOnceAtEightWorkers) {
  for (int rep = 0; rep < kWideRepeats; ++rep) {
    obs::EventLog log;
    WideEnv env(3, logged_config(&log));
    FlowletGraph g;
    auto loader = g.add_loader("l", [] { return std::make_unique<SyntheticLoader>(); });
    auto sink = g.add_map("sink", [] { return std::make_unique<CollectorMap>(); });
    g.connect(loader, sink);
    env.engine.run(with_synthetic_splits(g, loader, 3, 50));

    for (uint32_t n = 0; n < 3; ++n) {
      for (FlowletId f : {loader, sink}) {
        EXPECT_EQ(log.count(n, f, obs::EventKind::kFlowletReady), 1u)
            << "rep " << rep << " node " << n << " flowlet " << f;
        EXPECT_EQ(log.count(n, f, obs::EventKind::kFlowletComplete), 1u)
            << "rep " << rep << " node " << n << " flowlet " << f;
        EXPECT_EQ(log.count(n, f, obs::EventKind::kCompleteBroadcast), 1u)
            << "rep " << rep << " node " << n << " flowlet " << f;
      }
    }
  }
}

TEST(EngineStealing, ReduceFiresAfterAllUpstreamChannelsCompleteAtEightWorkers) {
  for (int rep = 0; rep < kWideRepeats; ++rep) {
    obs::EventLog log;
    WideEnv env(3, logged_config(&log));
    FlowletGraph g;
    auto loader = g.add_loader("l", [] { return std::make_unique<SyntheticLoader>(); });
    auto red = g.add_reduce("r", [] { return std::make_unique<CollectorReduce>(); });
    g.connect(loader, red);
    env.engine.run(with_synthetic_splits(g, loader, 3, 100));

    for (uint32_t n = 0; n < 3; ++n) {
      const auto stream = log.stream(n, red);
      std::set<int64_t> sources;
      uint64_t last_channel_seq = 0;
      uint64_t ready_seq = 0;
      for (const obs::Event& ev : stream) {
        if (ev.kind == obs::EventKind::kChannelComplete) {
          sources.insert(ev.aux);
          last_channel_seq = std::max(last_channel_seq, ev.seq);
        }
        if (ev.kind == obs::EventKind::kFlowletReady) ready_seq = ev.seq;
      }
      EXPECT_EQ(sources.size(), 3u) << "rep " << rep << " node " << n;
      EXPECT_GT(ready_seq, last_channel_seq) << "rep " << rep << " node " << n;
      for (const obs::Event& ev : stream) {
        if (ev.kind == obs::EventKind::kReduceStageRun) {
          EXPECT_GT(ev.seq, ready_seq) << "rep " << rep << " node " << n;
        }
      }
    }
  }
}

TEST(EngineStealing, FlowControlStallsPauseAndResumeSameTaskAtEightWorkers) {
  for (int rep = 0; rep < kWideRepeats; ++rep) {
    obs::EventLog log;
    EngineConfig config = logged_config(&log);
    config.flow_control_high_bytes = 2 * 1024;
    config.bin_size_bytes = 512;
    WideEnv env(2, config);
    FlowletGraph g;
    auto loader = g.add_loader("l", [] { return std::make_unique<SyntheticLoader>(16); });
    auto sink = g.add_map("sink", [] { return std::make_unique<CollectorMap>(); });
    g.connect(loader, sink);
    const auto result = env.engine.run(with_synthetic_splits(g, loader, 2, 3000));

    const uint64_t begins = log.count(obs::EventKind::kStallBegin);
    ASSERT_GT(begins, 0u) << "rep " << rep << ": watermark too high";
    EXPECT_EQ(begins, log.count(obs::EventKind::kStallEnd)) << "rep " << rep;
    EXPECT_EQ(begins, result.flow_control_stalls) << "rep " << rep;

    for (uint32_t n = 0; n < 2; ++n) {
      std::multiset<int64_t> open;
      for (const obs::Event& ev : log.stream(n, loader)) {
        if (ev.kind == obs::EventKind::kStallBegin) {
          EXPECT_EQ(open.count(ev.aux), 0u)
              << "rep " << rep << " tag " << ev.aux << " stalled twice";
          open.insert(ev.aux);
        } else if (ev.kind == obs::EventKind::kStallEnd) {
          ASSERT_EQ(open.count(ev.aux), 1u)
              << "rep " << rep << " StallEnd for tag " << ev.aux
              << " without open StallBegin";
          open.erase(ev.aux);
        }
      }
      EXPECT_TRUE(open.empty()) << "rep " << rep << " node " << n;
    }
  }
}
