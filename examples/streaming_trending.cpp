// Streaming example: trending-words over a live event stream - the paper's
// "streaming processing model subsystem" (Fig. 1) and Lambda-architecture
// claim (one engine, same programming model, batch AND streaming).
//
// A paced, unbounded GeneratorSource on every node synthesizes the words of
// Zipfian "social media" posts. Each word is stamped with its ingestion
// time (event i at i / rate seconds, the pace the source runs at), so the
// stream layer's event-time tumbling windows are wall-clock windows over
// ingestion: the source's watermark closes each window as the stream
// passes its end. Closed windows flow to a trending sink that keeps each
// word's peak single-window count. After the configured duration the driver
// stops the sources, the final watermark closes the open windows, and
// completion cascades exactly like a batch job.
//
// Run:  ./examples/streaming_trending [--seconds=3] [--window_ms=500]
//       [--rate=20000]
#include <algorithm>
#include <cstdio>
#include <mutex>

#include "apps/common.h"
#include "apps/counting.h"
#include "common/flags.h"
#include "common/random.h"
#include "ir/lower.h"
#include "stream/source.h"
#include "stream/stream_service.h"

using namespace hamr;

namespace {

constexpr uint64_t kWordsPerPost = 6;

// Maintains each word's peak single-window count; records arrive keyed by
// (window end, word).
class TrendingSink : public engine::MapFlowlet {
 public:
  void process(const engine::KvPair& record, engine::Context& ctx) override {
    (void)ctx;
    const uint64_t count = apps::parse_count(record.value);
    std::lock_guard<std::mutex> lock(mu_);
    auto& best = peak_[std::string(stream::window_key_user(record.key))];
    best = std::max(best, count);
  }

  void finish(engine::Context& ctx) override {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::pair<uint64_t, std::string>> ranked;
    for (const auto& [word, peak] : peak_) ranked.emplace_back(peak, word);
    std::sort(ranked.rbegin(), ranked.rend());
    std::string out;
    const size_t n = std::min<size_t>(5, ranked.size());
    for (size_t i = 0; i < n; ++i) {
      out += ranked[i].second + "\t" + std::to_string(ranked[i].first) + "\n";
    }
    ctx.local_store().write_file(
        "out/trending/node" + std::to_string(ctx.node()), out);
  }

 private:
  std::mutex mu_;
  std::map<std::string, uint64_t> peak_;
};

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv,
              "streaming_trending - windowed trending words on HAMR streaming\n"
              "  --nodes=N      cluster size (default 4)\n"
              "  --seconds=F    stream duration (default 3)\n"
              "  --window_ms=N  tumbling window over ingestion time (default 500)\n"
              "  --rate=N       posts/second per source (default 20000)");

  cluster::ClusterConfig cluster_cfg;
  cluster_cfg.num_nodes = static_cast<uint32_t>(flags.get_int("nodes", 4));
  apps::BenchEnv env = apps::BenchEnv::make(cluster_cfg);

  // Six words per post: the source runs at six times the post rate, and
  // event i is stamped i / words_per_sec seconds - its ingestion time.
  const double words_per_sec =
      flags.get_double("rate", 20000) * static_cast<double>(kWordsPerPost);
  stream::GeneratorConfig gen;
  gen.events_per_sec = words_per_sec;
  gen.period_us = std::max<int64_t>(1, static_cast<int64_t>(1e6 / words_per_sec));
  auto zipf = std::make_shared<const Zipf>(5000, 0.99);
  gen.make = [zipf](uint64_t index, std::string* key, std::string* value) {
    Rng rng(index);
    *key = "topic" + std::to_string(zipf->sample(rng));
    *value = "1";
  };

  const auto window_ms = flags.get_int("window_ms", 500);
  stream::StreamPipeline pipeline;
  pipeline.source = [gen] { return std::make_unique<stream::GeneratorSource>(gen); };
  pipeline.source_options.window.size_us = window_ms * 1000;
  pipeline.fold = [](std::string_view, std::string_view value, std::string& acc) {
    acc = std::to_string(apps::parse_count(acc) + apps::parse_count(value));
  };
  pipeline.sink = [] { return std::make_unique<TrendingSink>(); };
  service::JobWork work =
      stream::StreamService::make_work(std::move(pipeline), env.nodes(), nullptr);

  const double seconds = flags.get_double("seconds", 3);
  std::printf("streaming for %.1f s with %lld ms windows...\n", seconds,
              static_cast<long long>(window_ms));
  const auto result =
      ir::run(*env.engine, std::move(work.graph), from_seconds(seconds));
  std::printf("stream drained in %.3f s total; %llu records through the DAG\n",
              result.wall_seconds,
              static_cast<unsigned long long>(result.records_emitted));

  const auto trending = apps::collect_local_kv(*env.cluster, "out/trending/");
  std::printf("trending words (peak single-window count):\n");
  std::vector<std::pair<uint64_t, std::string>> ranked;
  for (const auto& [word, peak] : trending) {
    ranked.emplace_back(apps::parse_count(peak), word);
  }
  std::sort(ranked.rbegin(), ranked.rend());
  for (size_t i = 0; i < std::min<size_t>(8, ranked.size()); ++i) {
    std::printf("  %-12s %llu\n", ranked[i].second.c_str(),
                static_cast<unsigned long long>(ranked[i].first));
  }
  return 0;
}
