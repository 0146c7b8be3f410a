// Streaming subsystem tests: window math and key codecs, source determinism,
// event-time windowing end to end on the engine (bounded replay as a batch
// job), EventLog ordering invariants for window open / watermark advance /
// window emit (sleep-free, hold in every legal schedule), and the
// StreamService lifecycle (start / poll / drain / stop) including the RPC
// drain verb and source backpressure.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster.h"
#include "engine/engine.h"
#include "obs/event_log.h"
#include "service/job_rpc.h"
#include "service/job_service.h"
#include "stream/source.h"
#include "stream/stream.h"
#include "stream/stream_service.h"
#include "stream/window.h"

using namespace hamr;
using namespace hamr::stream;

namespace {

// WordCount-over-windows fold: values are decimal counts.
void count_fold(std::string_view, std::string_view value, std::string& acc) {
  const uint64_t add = std::stoull(std::string(value));
  const uint64_t have = acc.empty() ? 0 : std::stoull(acc);
  acc = std::to_string(have + add);
}

StreamPipeline count_pipeline(GeneratorConfig gen, WindowSpec window,
                              const std::string& out_dir,
                              uint64_t punctuate_every = 256) {
  StreamPipeline p;
  p.source = [gen] { return std::make_unique<GeneratorSource>(gen); };
  p.source_options.window = window;
  p.source_options.events_per_chunk = 128;
  p.source_options.punctuate_every = punctuate_every;
  p.fold = count_fold;
  p.output_dir = out_dir;
  return p;
}

// Parses WindowFileSink output ("key\tvalue\n" per line) into a map. Fails
// the test on a duplicate key: the sink concatenates duplicate emissions
// with ';', which stoull would reject anyway - this catches it by name.
std::map<std::string, std::string> parse_sink(const std::string& bytes) {
  std::map<std::string, std::string> out;
  size_t pos = 0;
  while (pos < bytes.size()) {
    const size_t nl = bytes.find('\n', pos);
    if (nl == std::string::npos) {
      ADD_FAILURE() << "unterminated sink line";
      break;
    }
    const std::string line = bytes.substr(pos, nl - pos);
    pos = nl + 1;
    const size_t tab = line.find('\t');
    if (tab == std::string::npos) {
      ADD_FAILURE() << "malformed sink line: " << line;
      continue;
    }
    const std::string key = line.substr(0, tab);
    const std::string value = line.substr(tab + 1);
    EXPECT_TRUE(out.emplace(key, value).second) << "duplicate key " << key;
    EXPECT_EQ(value.find(';'), std::string::npos)
        << "duplicate emission for " << key;
  }
  return out;
}

// Reference: replay the generator's pure event function through the same
// window assignment, multiplied across `nodes` identical per-node sources.
std::map<std::string, std::string> reference_counts(const GeneratorConfig& gen,
                                                    WindowSpec window,
                                                    uint32_t nodes) {
  GeneratorSource src(gen);
  std::map<std::string, uint64_t> counts;
  for (uint64_t i = 0; i < gen.total_events; ++i) {
    const std::string key = "k" + std::to_string(i % 64);
    window.each_window(src.event_ts(i), [&](int64_t end) {
      counts[window_key(end, key)] += nodes;
    });
  }
  std::map<std::string, std::string> out;
  for (const auto& [k, v] : counts) out[k] = std::to_string(v);
  return out;
}

}  // namespace

// --- window math and codecs -------------------------------------------------

TEST(WindowSpec, TumblingAssignsExactlyOneWindow) {
  WindowSpec w{.size_us = 1000, .slide_us = 0};
  std::vector<int64_t> ends;
  w.each_window(0, [&](int64_t e) { ends.push_back(e); });
  EXPECT_EQ(ends, std::vector<int64_t>({1000}));
  ends.clear();
  w.each_window(999, [&](int64_t e) { ends.push_back(e); });
  EXPECT_EQ(ends, std::vector<int64_t>({1000}));
  ends.clear();
  w.each_window(1000, [&](int64_t e) { ends.push_back(e); });
  EXPECT_EQ(ends, std::vector<int64_t>({2000}));
}

TEST(WindowSpec, NegativeTimestampsWindowCorrectly) {
  WindowSpec w{.size_us = 1000, .slide_us = 0};
  std::vector<int64_t> ends;
  w.each_window(-1, [&](int64_t e) { ends.push_back(e); });
  EXPECT_EQ(ends, std::vector<int64_t>({0}));
  ends.clear();
  w.each_window(-1000, [&](int64_t e) { ends.push_back(e); });
  EXPECT_EQ(ends, std::vector<int64_t>({0}));
  ends.clear();
  w.each_window(-1001, [&](int64_t e) { ends.push_back(e); });
  EXPECT_EQ(ends, std::vector<int64_t>({-1000}));
}

TEST(WindowSpec, SlidingAssignsEveryCoveringWindow) {
  WindowSpec w{.size_us = 1000, .slide_us = 250};
  std::vector<int64_t> ends;
  w.each_window(500, [&](int64_t e) { ends.push_back(e); });
  // Newest first: windows (start, start+1000] with start in {500,250,0,-250}.
  EXPECT_EQ(ends, std::vector<int64_t>({1500, 1250, 1000, 750}));
}

TEST(WindowKeys, RoundTripAndOrdering) {
  const std::string key = window_key(123456789, "hello");
  EXPECT_EQ(key.size(), kWindowKeyPrefix + 5);
  EXPECT_EQ(window_key_end(key), 123456789);
  EXPECT_EQ(window_key_user(key), "hello");
  // Hex encoding preserves window order lexicographically (for sorted sinks).
  EXPECT_LT(window_key(1000, "z"), window_key(2000, "a"));
  // Non-window keys decode to INT64_MIN.
  EXPECT_EQ(window_key_end("plain"), INT64_MIN);
  EXPECT_EQ(window_key_end("wnot-hex-but-17-ch|x"), INT64_MIN);
}

TEST(Punctuation, CodecRoundTripAndRejectsGarbage) {
  const std::string value = encode_punctuation(3, -987654321);
  uint32_t origin = 0;
  int64_t wm = 0;
  ASSERT_TRUE(decode_punctuation(value, &origin, &wm));
  EXPECT_EQ(origin, 3u);
  EXPECT_EQ(wm, -987654321);
  EXPECT_FALSE(decode_punctuation("", &origin, &wm));
  EXPECT_TRUE(is_punctuation_key(punctuation_key()));
  EXPECT_FALSE(is_punctuation_key(window_key(1, "wm")));
}

// --- sources ----------------------------------------------------------------

TEST(GeneratorSource, DeterministicAndWatermarkExact) {
  GeneratorConfig gen;
  gen.total_events = 500;
  gen.period_us = 100;
  gen.jitter_us = 250;
  gen.seed = 7;
  GeneratorSource a(gen);
  GeneratorSource b(gen);
  for (uint64_t i = 0; i < gen.total_events; ++i) {
    EXPECT_EQ(a.event_ts(i), b.event_ts(i));
    // Forward-only jitter: ts(i) in [i * period, i * period + jitter].
    EXPECT_GE(a.event_ts(i), static_cast<int64_t>(i) * gen.period_us);
    EXPECT_LE(a.event_ts(i),
              static_cast<int64_t>(i) * gen.period_us + gen.jitter_us);
  }
  // The watermark at cursor c lower-bounds every event at index >= c.
  engine::InputSplit split;
  for (uint64_t c : {0u, 100u, 499u}) {
    const int64_t wm = a.watermark(split, c);
    for (uint64_t i = c; i < gen.total_events; ++i) {
      EXPECT_GE(a.event_ts(i), wm) << "cursor " << c << " index " << i;
    }
  }
  EXPECT_EQ(a.watermark(split, gen.total_events), INT64_MAX);
}

TEST(FileTailSource, ParsesLinesSkipsMalformedKeepsPartialTail) {
  cluster::Cluster cluster(cluster::ClusterConfig::fast(1));
  storage::FileStore& store = cluster.node(0).store();
  store.write_file("tail/in",
                   "100\ta\t1\n"
                   "garbage-no-tabs\n"
                   "250\tb\t2\n"
                   "300\tc\t");  // incomplete: no newline yet
  // Complete the tail, then run a one-node bounded replay (stop_at_eof)
  // through the full pipeline - sources only see a Context via the engine.
  store.append("tail/in", "3\n400\td\t4\n");
  FileTailConfig cfg;
  cfg.path = "tail/in";
  cfg.stop_at_eof = true;

  StreamPipeline p;
  p.source = [cfg] { return std::make_unique<FileTailSource>(cfg); };
  p.source_options.window = WindowSpec{.size_us = 1'000'000, .slide_us = 0};
  p.source_options.punctuate_every = 1;
  p.fold = count_fold;
  p.output_dir = "tail/out";

  service::JobWork work = StreamService::make_work(p, 1, nullptr);
  engine::Engine eng(cluster, engine::EngineConfig::fast());
  eng.run(work.graph, work.inputs);
  const auto got = parse_sink(work.collect(eng));

  std::map<std::string, std::string> want;
  want[window_key(1'000'000, "a")] = "1";
  want[window_key(1'000'000, "b")] = "2";
  want[window_key(1'000'000, "c")] = "3";
  want[window_key(1'000'000, "d")] = "4";
  EXPECT_EQ(got, want);
}

// --- end-to-end event-time windowing ----------------------------------------

namespace {

struct StreamEnv {
  explicit StreamEnv(uint32_t nodes,
                     engine::EngineConfig config = engine::EngineConfig::fast())
      : cluster(cluster::ClusterConfig::fast(nodes)), engine(cluster, config) {}

  cluster::Cluster cluster;
  engine::Engine engine;
};

}  // namespace

TEST(EventTimeWindows, BoundedReplayMatchesReferenceExactly) {
  const uint32_t kNodes = 4;
  StreamEnv env(kNodes);
  GeneratorConfig gen;
  gen.total_events = 3000;
  gen.period_us = 100;
  gen.jitter_us = 500;  // out-of-order by up to 5 indices
  gen.seed = 11;
  const WindowSpec window{.size_us = 20'000, .slide_us = 0};

  service::JobWork work = StreamService::make_work(
      count_pipeline(gen, window, "et/out"), kNodes, nullptr);
  const engine::JobResult result = env.engine.run(work.graph, work.inputs);

  EXPECT_EQ(parse_sink(work.collect(env.engine)),
            reference_counts(gen, window, kNodes));
  // Windows were closed by watermarks mid-stream, not only at finish: the
  // emit-latency histogram only counts barrier-armed (mid-stream) closes.
  EXPECT_GT(result.metrics.counter("stream.events_ingested"),
            gen.total_events * (kNodes - 1));
  EXPECT_GT(result.metrics.counter("stream.windows_emitted"), 0u);
}

TEST(EventTimeWindows, SlidingWindowsCountEventsInEveryCover) {
  const uint32_t kNodes = 2;
  StreamEnv env(kNodes);
  GeneratorConfig gen;
  gen.total_events = 1000;
  gen.period_us = 100;
  gen.jitter_us = 0;
  const WindowSpec window{.size_us = 40'000, .slide_us = 10'000};

  service::JobWork work = StreamService::make_work(
      count_pipeline(gen, window, "sl/out"), kNodes, nullptr);
  env.engine.run(work.graph, work.inputs);

  const auto got = parse_sink(work.collect(env.engine));
  EXPECT_EQ(got, reference_counts(gen, window, kNodes));
  // Every event lands in size/slide = 4 windows: total mass quadruples.
  uint64_t mass = 0;
  for (const auto& [k, v] : got) mass += std::stoull(v);
  EXPECT_EQ(mass, gen.total_events * kNodes * 4);
}

TEST(EventTimeWindows, MetricsSurfaceInJobResult) {
  StreamEnv env(2);
  GeneratorConfig gen;
  gen.total_events = 2000;
  gen.period_us = 100;
  const WindowSpec window{.size_us = 10'000, .slide_us = 0};

  service::JobWork work = StreamService::make_work(
      count_pipeline(gen, window, "m/out", /*punctuate_every=*/128), 2,
      nullptr);
  const engine::JobResult result = env.engine.run(work.graph, work.inputs);

  EXPECT_EQ(result.metrics.counter("stream.events_ingested"), 2000u * 2);
  EXPECT_GT(result.metrics.counter("stream.windows_emitted"), 0u);
  const obs::HistogramSnapshot* lag =
      result.metrics.histogram("stream.watermark_lag_us");
  ASSERT_NE(lag, nullptr);
  EXPECT_GT(lag->count, 0u);
  const obs::HistogramSnapshot* emit =
      result.metrics.histogram("stream.window_emit_latency_us");
  ASSERT_NE(emit, nullptr);
  EXPECT_GT(emit->count, 0u);  // at least one mid-stream (barrier) close
}

// --- EventLog ordering invariants -------------------------------------------
//
// Sleep-free and schedule-independent, in the style of the EngineEventLog
// suite: these hold in EVERY legal interleaving because the runtime records
// each event under fs.wm_mu before the transition that makes it visible.

TEST(StreamEventLog, EmitNeverPrecedesTheWatermarkThatClosesTheWindow) {
  obs::EventLog log;
  engine::EngineConfig config = engine::EngineConfig::fast();
  config.event_log = &log;
  const uint32_t kNodes = 3;
  StreamEnv env(kNodes, config);

  GeneratorConfig gen;
  gen.total_events = 2000;
  gen.period_us = 100;
  gen.jitter_us = 300;
  const WindowSpec window{.size_us = 15'000, .slide_us = 0};
  service::JobWork work = StreamService::make_work(
      count_pipeline(gen, window, "log/out", /*punctuate_every=*/200), kNodes,
      nullptr);
  // stream.window is the second flowlet added by make_work.
  const int64_t win_flowlet = 1;
  env.engine.run(work.graph, work.inputs);

  EXPECT_GT(log.count(obs::EventKind::kWatermarkAdvance), 0u);
  EXPECT_GT(log.count(obs::EventKind::kWindowEmit), 0u);
  for (uint32_t n = 0; n < kNodes; ++n) {
    int64_t watermark = INT64_MIN;  // highest advance seen so far in-stream
    bool finished = false;
    std::set<int64_t> opened;
    std::set<int64_t> emitted;
    for (const obs::Event& ev : log.stream(n, win_flowlet)) {
      switch (ev.kind) {
        case obs::EventKind::kWatermarkAdvance:
          EXPECT_GT(ev.aux, watermark) << "node " << n;  // monotonic
          watermark = ev.aux;
          break;
        case obs::EventKind::kFlowletReady:
          finished = true;
          break;
        case obs::EventKind::kWindowOpen:
          EXPECT_TRUE(opened.insert(ev.aux).second)
              << "window " << ev.aux << " opened twice on node " << n;
          break;
        case obs::EventKind::kWindowEmit:
          // The window was opened on this node first...
          EXPECT_TRUE(opened.count(ev.aux))
              << "node " << n << " emitted unopened window " << ev.aux;
          // ...and is emitted exactly once (the exactly-once invariant)...
          EXPECT_TRUE(emitted.insert(ev.aux).second)
              << "window " << ev.aux << " emitted twice on node " << n;
          // ...and never before the watermark that closes it (or finish).
          EXPECT_TRUE(watermark >= ev.aux || finished)
              << "node " << n << " window " << ev.aux << " emitted at wm "
              << watermark;
          break;
        default:
          break;
      }
    }
    // Bounded replay: every opened window eventually emits.
    EXPECT_EQ(opened, emitted) << "node " << n;
  }
}

// --- StreamService lifecycle -------------------------------------------------

namespace {

struct ServiceEnv {
  explicit ServiceEnv(uint32_t nodes = 2, uint32_t lanes = 2)
      : cluster(cluster::ClusterConfig::fast(nodes)),
        jobs(cluster,
             service::ServiceConfig{.lanes = lanes,
                                    .engine = engine::EngineConfig::fast()}),
        streams(jobs) {}

  cluster::Cluster cluster;
  service::JobService jobs;
  StreamService streams;
};

StreamPipeline unbounded_pipeline(const std::string& out_dir) {
  GeneratorConfig gen;  // total_events = 0: runs until drained
  gen.period_us = 100;
  StreamPipeline p = count_pipeline(gen, WindowSpec{.size_us = 10'000}, out_dir,
                                    /*punctuate_every=*/512);
  return p;
}

}  // namespace

TEST(StreamService, StartPollDrainCompletesWithPayload) {
  ServiceEnv env;
  StreamSpec spec;
  spec.duration = std::chrono::seconds(30);  // drained long before this
  auto ticket = env.streams.start(unbounded_pipeline("svc/out"), spec);
  ASSERT_NE(ticket, nullptr);

  // Live progress: wait until events flow and the watermark moves.
  StreamTicket::Progress p;
  for (int i = 0; i < 4000; ++i) {
    p = ticket->poll();
    if (p.events_ingested > 0 && p.watermark_us != INT64_MIN) break;
    std::this_thread::sleep_for(millis(1));
  }
  EXPECT_GT(p.events_ingested, 0u);
  EXPECT_NE(p.watermark_us, INT64_MIN);

  EXPECT_TRUE(ticket->drain());
  EXPECT_EQ(ticket->wait(std::chrono::seconds(30)), service::JobStatus::kDone);
  const auto out = parse_sink(ticket->payload());
  EXPECT_FALSE(out.empty());
  // Drain flushed every buffered window through the final watermark.
  p = ticket->poll();
  EXPECT_EQ(out.size(), p.results_emitted);
  EXPECT_GT(p.windows_emitted, 0u);
  // Stream metrics merged into the job result next to service.jobs_*.
  const engine::JobResult result = ticket->result();
  EXPECT_EQ(result.metrics.counter("stream.events_ingested"),
            p.events_ingested);
  EXPECT_GT(result.metrics.counter("service.jobs_submitted"), 0u);
}

TEST(StreamService, StopCancelsInsteadOfDraining) {
  ServiceEnv env;
  StreamSpec spec;
  spec.duration = std::chrono::seconds(30);
  auto ticket = env.streams.start(unbounded_pipeline("stop/out"), spec);
  for (int i = 0; i < 4000; ++i) {
    if (ticket->poll().events_ingested > 0) break;
    std::this_thread::sleep_for(millis(1));
  }
  EXPECT_TRUE(ticket->stop());
  EXPECT_EQ(ticket->wait(std::chrono::seconds(30)),
            service::JobStatus::kCancelled);
  EXPECT_TRUE(ticket->payload().empty());
}

TEST(StreamService, DrainWhileQueuedStillCompletes) {
  // One lane occupied by a long stream; a second queued stream is drained
  // before it ever dispatches - it must still run (token duration) and
  // complete kDone.
  ServiceEnv env(/*nodes=*/2, /*lanes=*/1);
  StreamSpec spec;
  spec.duration = std::chrono::seconds(30);
  auto first = env.streams.start(unbounded_pipeline("q1/out"), spec);
  auto second = env.streams.start(unbounded_pipeline("q2/out"), spec);
  EXPECT_TRUE(second->drain());  // still queued behind `first`
  EXPECT_TRUE(first->drain());
  EXPECT_EQ(first->wait(std::chrono::seconds(30)), service::JobStatus::kDone);
  EXPECT_EQ(second->wait(std::chrono::seconds(30)), service::JobStatus::kDone);
}

TEST(StreamService, BackpressurePausesSourcesUntilDrain) {
  ServiceEnv env;
  StreamPipeline p = unbounded_pipeline("bp/out");
  // A budget of one byte stalls the sources as soon as any window opens.
  p.source_options.window_buffer_budget = 1;
  StreamSpec spec;
  spec.duration = std::chrono::seconds(30);
  auto ticket = env.streams.start(std::move(p), spec);
  StreamTicket::Progress prog;
  for (int i = 0; i < 4000; ++i) {
    prog = ticket->poll();
    if (prog.backpressure_stalls > 0) break;
    std::this_thread::sleep_for(millis(1));
  }
  EXPECT_GT(prog.backpressure_stalls, 0u);
  EXPECT_TRUE(ticket->drain());
  EXPECT_EQ(ticket->wait(std::chrono::seconds(30)), service::JobStatus::kDone);
  EXPECT_GT(ticket->result().metrics.counter("stream.backpressure_stalls"),
            0u);
}

TEST(StreamService, WindowBytesNeverNegativeAndZeroAfterBoundedReplay) {
  // window_bytes feeds the backpressure probe: folds publish their growth
  // once per bin, closes subtract what they drain. Polled throughout a
  // bounded replay it never dips below zero, and every byte is gone at the
  // end.
  ServiceEnv env(/*nodes=*/2, /*lanes=*/1);
  GeneratorConfig gen;
  gen.total_events = 60'000;
  gen.period_us = 10;
  gen.jitter_us = 50;
  gen.seed = 5;
  StreamSpec spec;  // duration zero: bounded replay
  auto ticket = env.streams.start(
      count_pipeline(gen, WindowSpec{.size_us = 20'000}, "wb/out"), spec);
  ASSERT_NE(ticket, nullptr);
  int64_t lowest = 0;
  int64_t highest = 0;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  StreamTicket::Progress p = ticket->poll();
  while ((p.status == service::JobStatus::kQueued ||
          p.status == service::JobStatus::kRunning) &&
         std::chrono::steady_clock::now() < deadline) {
    lowest = std::min(lowest, p.window_bytes);
    highest = std::max(highest, p.window_bytes);
    std::this_thread::yield();
    p = ticket->poll();
  }
  EXPECT_EQ(ticket->wait(std::chrono::seconds(30)), service::JobStatus::kDone);
  p = ticket->poll();
  EXPECT_GE(lowest, 0);
  EXPECT_EQ(p.window_bytes, 0);
  EXPECT_GT(p.windows_emitted, 0u);
  EXPECT_EQ(p.events_ingested, 2 * gen.total_events);
  EXPECT_GT(highest, 0);  // the polls did see windows open mid-replay
}

TEST(StreamRpc, DrainVerbWindsDownARemoteStream) {
  cluster::Cluster cluster(cluster::ClusterConfig::fast(2));
  service::JobService svc(
      cluster, service::ServiceConfig{.engine = engine::EngineConfig::fast()});
  auto stats = std::make_shared<StreamStats>();
  svc.register_builder("stream", [stats](const service::JobSpec&) {
    service::JobWork w =
        StreamService::make_work(unbounded_pipeline("rpc/out"), 2, stats);
    w.stream_duration = std::chrono::seconds(30);
    return w;
  });
  service::JobRpcServer server(&svc, &cluster.node(0).rpc());
  service::JobClient client(cluster.node(1).rpc(), /*server=*/0);

  EXPECT_FALSE(client.drain(999999));  // unknown id: clean false
  service::JobSpec spec;
  spec.job_type = "stream";
  const uint64_t id = client.submit(spec);
  for (int i = 0; i < 4000; ++i) {
    if (stats->events_ingested.load() > 0) break;
    std::this_thread::sleep_for(millis(1));
  }
  EXPECT_TRUE(client.drain(id));
  EXPECT_EQ(client.wait(id, std::chrono::seconds(30)),
            service::JobStatus::kDone);
  const service::JobClient::RemoteResult result = client.result(id);
  EXPECT_EQ(result.status, service::JobStatus::kDone);
  EXPECT_FALSE(result.payload.empty());
}
