// Microbenchmarks for the scheduling substrate: thread-pool dispatch
// overhead, sharded bin-scheduler throughput at 1..16 workers, and
// fused-vs-unfused WordCount pipeline dispatch.
#include <benchmark/benchmark.h>

#include <atomic>
#include <thread>
#include <vector>

#include "apps/common.h"
#include "apps/wordcount.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "engine/scheduler.h"

using namespace hamr;

static void BM_ThreadPoolDispatch(benchmark::State& state) {
  ThreadPool pool(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    constexpr int kTasks = 1000;
    std::atomic<int> done{0};
    for (int i = 0; i < kTasks; ++i) {
      pool.submit([&done] { done.fetch_add(1, std::memory_order_relaxed); });
    }
    pool.wait_idle();
    benchmark::DoNotOptimize(done.load());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_ThreadPoolDispatch)->Arg(1)->Arg(4);

// --- sharded scheduler --------------------------------------------------------
//
// The engine's bin scheduler on its own: a stream of bins from round-robin
// senders pushed through per-worker shards with stealing, gauges hooked up
// the way the engine hooks them, drained by batched pops at 1..16 workers.

namespace {

constexpr uint64_t kSchedItems = 20000;
constexpr size_t kSchedPayload = 64;
constexpr uint64_t kSchedBudget = 1ull << 30;

// Touch the payload so the consume side is not optimized away; cheap enough
// that queue overhead dominates.
uint64_t consume(const engine::QueueItem& item) {
  uint64_t sum = 0;
  for (char c : item.payload) sum += static_cast<unsigned char>(c);
  return sum;
}

}  // namespace

static void BM_ShardedSchedulerThroughput(benchmark::State& state) {
  const uint32_t workers = static_cast<uint32_t>(state.range(0));
  Metrics metrics;
  engine::ShardedScheduler::Hooks hooks;
  hooks.steals = metrics.counter("engine.sched_steal");
  hooks.lock_wait_ns = metrics.counter("engine.sched_lock_wait_ns");
  hooks.budget_wait_ns = metrics.counter("engine.bin_queue_wait_ns");
  hooks.depth = metrics.gauge("engine.bin_queue_depth");
  hooks.bytes = metrics.gauge("engine.bin_queue_bytes");
  for (auto _ : state) {
    engine::ShardedScheduler sched(workers, kSchedBudget);
    sched.set_hooks(hooks);
    std::atomic<uint64_t> done{0};
    std::vector<std::thread> pool;
    for (uint32_t w = 0; w < workers; ++w) {
      pool.emplace_back([&, w] {
        // Batched pop, exactly as the engine's worker_loop drains it.
        std::vector<engine::ShardedScheduler::Work> batch;
        batch.reserve(32);
        while (sched.next_batch(w, &batch, 32) > 0) {
          for (auto& work : batch) {
            if (work.is_item) {
              benchmark::DoNotOptimize(consume(work.item));
              done.fetch_add(1, std::memory_order_relaxed);
            }
          }
          batch.clear();
        }
      });
    }
    for (uint64_t i = 0; i < kSchedItems; ++i) {
      engine::QueueItem item;
      item.src = static_cast<uint32_t>(i % workers);
      item.payload.assign(kSchedPayload, 'x');
      sched.push_bin(std::move(item));
    }
    while (done.load(std::memory_order_relaxed) < kSchedItems) {
      std::this_thread::yield();
    }
    sched.stop();
    for (auto& t : pool) t.join();
  }
  state.SetItemsProcessed(state.iterations() * kSchedItems);
}
BENCHMARK(BM_ShardedSchedulerThroughput)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// --- fused vs unfused pipeline dispatch --------------------------------------
//
// The same WordCount job handed to Engine::run as built (three flowlets,
// loader->splitter bins crossing the scheduler) and through ir::run (the
// passes fuse loader+splitter into one task body, those bins gone).
// Identical input and output; the delta is pure per-bin dispatch overhead,
// which is what fusion exists to remove. CI's bench-smoke extracts the pair
// from the JSON artifact as the fused-pipeline regression signal.

namespace {

constexpr uint32_t kWcNodes = 4;
constexpr int kWcLinesPerShard = 200;

std::vector<std::string> wordcount_shards() {
  return apps::make_shards(kWcNodes, [](uint32_t i) {
    std::string s;
    for (int line = 0; line < kWcLinesPerShard; ++line) {
      s += "the quick brown fox jumps over w" + std::to_string(i) + " w" +
           std::to_string(line % 13) + "\n";
    }
    return s;
  });
}

void run_wordcount_pipeline(benchmark::State& state, bool fused) {
  apps::BenchEnv env = apps::BenchEnv::fast(kWcNodes, 2);
  const apps::StagedInput input =
      apps::stage_input(env, "wc_micro", wordcount_shards(), 4 * 1024);
  engine::FlowletGraph unfused = apps::wordcount::build_ir();
  unfused.flowlet(0).splits = input.splits;  // build_ir adds the loader first
  uint64_t bytes = 0;
  for (auto _ : state) {
    if (fused) {
      apps::wordcount::run_hamr(env, input);
    } else {
      env.engine->run(unfused);
    }
    bytes += input.total_bytes;
  }
  state.SetBytesProcessed(static_cast<int64_t>(bytes));
}

}  // namespace

static void BM_WordCountUnfusedPipeline(benchmark::State& state) {
  run_wordcount_pipeline(state, /*fused=*/false);
}
BENCHMARK(BM_WordCountUnfusedPipeline)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

static void BM_WordCountFusedPipeline(benchmark::State& state) {
  run_wordcount_pipeline(state, /*fused=*/true);
}
BENCHMARK(BM_WordCountFusedPipeline)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

BENCHMARK_MAIN();
