// Unit tests for the hot-path memory/scheduling primitives added by the
// perf rework: Arena, FlatAccTable, BufferPool, and ShardedScheduler.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/arena.h"
#include "common/metrics.h"
#include "common/pool.h"
#include "engine/flat_table.h"
#include "engine/scheduler.h"

namespace hamr {
namespace {

// --- Arena ------------------------------------------------------------------

TEST(Arena, StoreReturnsStableViewsAcrossGrowth) {
  Arena arena(nullptr, /*chunk_bytes=*/128);
  std::vector<std::string_view> views;
  std::vector<std::string> originals;
  for (int i = 0; i < 200; ++i) {
    originals.push_back("key-" + std::to_string(i) + std::string(i % 40, 'x'));
  }
  for (const std::string& s : originals) views.push_back(arena.store(s));
  // Many chunks later, every early view still reads back exactly.
  for (size_t i = 0; i < originals.size(); ++i) {
    EXPECT_EQ(views[i], originals[i]);
  }
  EXPECT_GT(arena.reserved_bytes(), 0u);
  EXPECT_GE(arena.reserved_bytes(), arena.used_bytes());
}

TEST(Arena, OversizedAllocationGetsDedicatedChunk) {
  Arena arena(nullptr, /*chunk_bytes=*/64);
  std::string big(1000, 'b');
  const std::string_view v = arena.store(big);
  EXPECT_EQ(v, big);
  EXPECT_GE(arena.reserved_bytes(), 1000u);
}

TEST(Arena, GaugeTracksReservedBytesThroughClearAndMove) {
  Gauge g;
  {
    Arena arena(&g, /*chunk_bytes=*/256);
    EXPECT_EQ(g.get(), 0);
    arena.store(std::string(100, 'a'));
    EXPECT_EQ(g.get(), static_cast<int64_t>(arena.reserved_bytes()));

    // Move: the charge travels with the chunks, no double count.
    Arena moved = std::move(arena);
    EXPECT_EQ(g.get(), static_cast<int64_t>(moved.reserved_bytes()));

    moved.clear();
    EXPECT_EQ(g.get(), 0);
    EXPECT_EQ(moved.used_bytes(), 0u);

    // A cleared arena is reusable and re-charges the gauge.
    moved.store("hello");
    EXPECT_GT(g.get(), 0);
  }
  // Destruction un-charges.
  EXPECT_EQ(g.get(), 0);
}

// --- FlatAccTable -----------------------------------------------------------

TEST(FlatAccTable, HeterogeneousLookupFindsSameSlot) {
  engine::FlatAccTable table;
  // Probe with a string_view into a larger buffer: no std::string key is ever
  // materialized by the caller.
  const std::string buffer = "xxapplexx";
  const std::string_view key = std::string_view(buffer).substr(2, 5);
  table.find_or_insert(key) = "1";
  EXPECT_EQ(table.size(), 1u);
  // A different view with the same bytes hits the same accumulator.
  const std::string other = "apple";
  std::string& acc = table.find_or_insert(other);
  EXPECT_EQ(acc, "1");
  EXPECT_EQ(table.size(), 1u);
}

TEST(FlatAccTable, GrowthKeepsAllEntriesAndInsertionOrder) {
  engine::FlatAccTable table;
  // Far past the initial 64 slots, forcing several rebuilds.
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    table.find_or_insert("key-" + std::to_string(i)) = std::to_string(i);
  }
  ASSERT_EQ(table.size(), static_cast<size_t>(n));
  // Every key still resolves to its accumulator.
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(table.find_or_insert("key-" + std::to_string(i)),
              std::to_string(i));
  }
  EXPECT_EQ(table.size(), static_cast<size_t>(n));
  // Entries iterate in insertion order (flush paths depend on determinism).
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(table.entries()[i].key, "key-" + std::to_string(i));
    EXPECT_EQ(table.entries()[i].acc, std::to_string(i));
  }
}

TEST(FlatAccTable, MoveDrainAndRearmKeepsByteAccountingExact) {
  Gauge g;
  engine::FlatAccTable table(&g);
  for (int i = 0; i < 1000; ++i) {
    table.find_or_insert("some-reasonably-long-key-" + std::to_string(i)) = "v";
  }
  const int64_t charged = g.get();
  EXPECT_GT(charged, 0);
  EXPECT_EQ(charged, static_cast<int64_t>(table.arena_bytes()));

  // Overflow-flush pattern: move the table out, re-arm an empty one.
  engine::FlatAccTable drained = std::move(table);
  table = engine::FlatAccTable(&g);
  EXPECT_EQ(g.get(), charged);  // the charge moved, nothing double-counted
  EXPECT_EQ(drained.size(), 1000u);
  EXPECT_EQ(table.size(), 0u);

  // Re-armed table is fully usable.
  table.find_or_insert("fresh") = "f";
  EXPECT_EQ(table.size(), 1u);

  drained.clear();
  EXPECT_EQ(static_cast<int64_t>(table.arena_bytes()), g.get());
}

TEST(FlatAccTable, EmptyKeyAndBinaryKeysWork) {
  engine::FlatAccTable table;
  table.find_or_insert("") = "empty";
  const std::string binary("\x00\x01\xff\x00", 4);
  table.find_or_insert(binary) = "bin";
  EXPECT_EQ(table.find_or_insert(""), "empty");
  EXPECT_EQ(table.find_or_insert(binary), "bin");
  EXPECT_EQ(table.size(), 2u);
}

// --- BufferPool -------------------------------------------------------------

TEST(BufferPool, RecyclesCapacityAndCountsHits) {
  BufferPool pool(/*max_buffers=*/4, /*max_buffer_bytes=*/1024);
  Counter hits, misses;
  pool.set_metrics(&hits, &misses);

  std::string a = pool.acquire();
  EXPECT_EQ(misses.get(), 1u);
  a.assign(500, 'x');
  const size_t cap = a.capacity();
  pool.release(std::move(a));
  EXPECT_EQ(pool.free_count(), 1u);

  std::string b = pool.acquire();
  EXPECT_EQ(hits.get(), 1u);
  EXPECT_TRUE(b.empty());
  EXPECT_GE(b.capacity(), cap);  // the heap buffer survived the round trip
}

TEST(BufferPool, DropsOversizedAndSurplusBuffers) {
  BufferPool pool(/*max_buffers=*/2, /*max_buffer_bytes=*/100);

  std::string big(1000, 'x');
  pool.release(std::move(big));
  EXPECT_EQ(pool.free_count(), 0u);  // over max_buffer_bytes: dropped

  for (int i = 0; i < 5; ++i) {
    std::string s(50, 'y');
    s.shrink_to_fit();
    pool.release(std::move(s));
  }
  EXPECT_LE(pool.free_count(), 2u);  // bounded at max_buffers
}

// --- ShardedScheduler --------------------------------------------------------

TEST(ShardedScheduler, FifoPerSenderStrictWithSingleConsumer) {
  // With one consumer there is no dequeue/record race to blur observation:
  // every sender's items must come back in exact arrival order even though
  // several producer threads interleave their pushes.
  for (int run = 0; run < 10; ++run) {
    const uint32_t kSenders = 5;
    const uint32_t kPerSender = 200;
    engine::ShardedScheduler sched(/*workers=*/1, /*byte_budget=*/1ull << 30);

    std::map<uint32_t, std::vector<uint32_t>> dequeued;  // src -> seq order
    std::thread worker([&] {
      engine::ShardedScheduler::Work work;
      while (sched.next(0, &work)) {
        if (!work.is_item) continue;
        dequeued[work.item.src].push_back(
            static_cast<uint32_t>(std::stoul(work.item.payload)));
      }
    });

    std::vector<std::thread> senders;
    for (uint32_t s = 0; s < kSenders; ++s) {
      senders.emplace_back([&, s] {
        for (uint32_t i = 0; i < kPerSender; ++i) {
          engine::QueueItem item;
          item.src = s;
          item.payload = std::to_string(i);
          ASSERT_TRUE(sched.push_bin(std::move(item)));
        }
      });
    }
    for (auto& t : senders) t.join();

    while (sched.queued_items() != 0) std::this_thread::yield();
    sched.stop();
    worker.join();

    for (uint32_t s = 0; s < kSenders; ++s) {
      ASSERT_EQ(dequeued[s].size(), kPerSender) << "sender " << s;
      for (uint32_t i = 0; i < kPerSender; ++i) {
      ASSERT_EQ(dequeued[s][i], i)
          << "sender " << s << " dequeued out of order at " << i;
      }
    }
  }
}

TEST(ShardedScheduler, FifoPerSenderAcrossEightWorkersUnderRepeatRuns) {
  // With 8 workers stealing from each other, the shard deques are still
  // front-pop-only, so successive takes of any ONE consumer from any one
  // sender must be monotonically increasing (a LIFO or back-pop steal would
  // break this), and every item must be dequeued exactly once. This is the
  // strongest per-sender FIFO statement observable race-free from outside
  // the shard lock: two consumers' records of adjacent items can interleave
  // in wall-clock order even though the deque itself popped them in order.
  for (int run = 0; run < 20; ++run) {
    const uint32_t kWorkers = 8;
    const uint32_t kSenders = 5;
    const uint32_t kPerSender = 200;
    engine::ShardedScheduler sched(kWorkers, /*byte_budget=*/1ull << 30);

    std::vector<std::map<uint32_t, std::vector<uint32_t>>> per_worker(kWorkers);

    std::vector<std::thread> workers;
    for (uint32_t w = 0; w < kWorkers; ++w) {
      workers.emplace_back([&, w] {
        // Batched pop with batch stealing: the exact engine dequeue path.
        std::vector<engine::ShardedScheduler::Work> batch;
        while (sched.next_batch(w, &batch, 16) > 0) {
          for (auto& work : batch) {
            if (!work.is_item) continue;
            per_worker[w][work.item.src].push_back(
                static_cast<uint32_t>(std::stoul(work.item.payload)));
          }
          batch.clear();
        }
      });
    }

    std::vector<std::thread> senders;
    for (uint32_t s = 0; s < kSenders; ++s) {
      senders.emplace_back([&, s] {
        for (uint32_t i = 0; i < kPerSender; ++i) {
          engine::QueueItem item;
          item.src = s;
          item.payload = std::to_string(i);
          ASSERT_TRUE(sched.push_bin(std::move(item)));
        }
      });
    }
    for (auto& t : senders) t.join();

    while (sched.queued_items() != 0) std::this_thread::yield();
    sched.stop();
    for (auto& t : workers) t.join();

    std::map<uint32_t, std::vector<uint32_t>> all;  // completeness check
    for (uint32_t w = 0; w < kWorkers; ++w) {
      for (const auto& [src, seqs] : per_worker[w]) {
        for (size_t i = 1; i < seqs.size(); ++i) {
          ASSERT_LT(seqs[i - 1], seqs[i])
              << "worker " << w << " saw sender " << src << " out of order";
        }
        all[src].insert(all[src].end(), seqs.begin(), seqs.end());
      }
    }
    for (uint32_t s = 0; s < kSenders; ++s) {
      ASSERT_EQ(all[s].size(), kPerSender) << "sender " << s;
      std::sort(all[s].begin(), all[s].end());
      for (uint32_t i = 0; i < kPerSender; ++i) {
        ASSERT_EQ(all[s][i], i) << "sender " << s << " item lost or duplicated";
      }
    }
  }
}

TEST(ShardedScheduler, IdleWorkersStealFromBusyShards) {
  // All items come from one sender, so they land in one shard; the other
  // workers can only make progress by stealing.
  const uint32_t kWorkers = 8;
  engine::ShardedScheduler sched(kWorkers, 1ull << 30);
  Counter steals;
  engine::ShardedScheduler::Hooks hooks;
  hooks.steals = &steals;
  sched.set_hooks(hooks);

  std::atomic<uint64_t> processed{0};
  std::vector<std::thread> workers;
  for (uint32_t w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      engine::ShardedScheduler::Work work;
      while (sched.next(w, &work)) {
        processed.fetch_add(1);
        // A little work so thieves have something to take.
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    });
  }

  const uint64_t kItems = 400;
  for (uint64_t i = 0; i < kItems; ++i) {
    engine::QueueItem item;
    item.src = 7;  // one shard gets everything
    item.payload = "x";
    ASSERT_TRUE(sched.push_bin(std::move(item)));
  }
  while (sched.queued_items() != 0) std::this_thread::yield();
  sched.stop();
  for (auto& t : workers) t.join();

  EXPECT_EQ(processed.load(), kItems);
  EXPECT_GT(steals.get(), 0u) << "no worker ever stole from the hot shard";
}

TEST(ShardedScheduler, ByteBudgetBlocksAndForceBypasses) {
  engine::ShardedScheduler sched(/*workers=*/1, /*byte_budget=*/64);

  engine::QueueItem a;
  a.src = 0;
  a.payload = std::string(64, 'a');
  ASSERT_TRUE(sched.push_bin(std::move(a)));  // fills the budget exactly

  // A forced push (crash-retry path) must not block even though the budget
  // is exhausted.
  engine::QueueItem b;
  b.src = 0;
  b.payload = std::string(64, 'b');
  ASSERT_TRUE(sched.push_bin(std::move(b), /*force=*/true));
  EXPECT_EQ(sched.queued_bytes(), 128u);

  // A normal push now blocks until a worker pops; run one pop concurrently.
  std::thread popper([&] {
    engine::ShardedScheduler::Work work;
    ASSERT_TRUE(sched.next(0, &work));
    ASSERT_TRUE(sched.next(0, &work));
  });
  engine::QueueItem c;
  c.src = 0;
  c.payload = std::string(8, 'c');
  ASSERT_TRUE(sched.push_bin(std::move(c)));  // returns once under budget
  popper.join();

  engine::ShardedScheduler::Work work;
  std::thread last([&] { ASSERT_TRUE(sched.next(0, &work)); });
  last.join();
  EXPECT_EQ(sched.queued_bytes(), 0u);
  sched.stop();
}

TEST(ShardedScheduler, TasksRunAndStopDrainsEverything) {
  const uint32_t kWorkers = 4;
  engine::ShardedScheduler sched(kWorkers, 1ull << 30);
  std::vector<std::thread> workers;
  std::atomic<uint64_t> ran{0};
  for (uint32_t w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      engine::ShardedScheduler::Work work;
      while (sched.next(w, &work)) {
        if (!work.is_item) work.task();
      }
    });
  }
  const uint64_t kTasks = 1000;
  for (uint64_t i = 0; i < kTasks; ++i) {
    sched.push_task([&ran] { ran.fetch_add(1); });
  }
  while (sched.queued_items() != 0) std::this_thread::yield();
  sched.stop();
  for (auto& t : workers) t.join();
  EXPECT_EQ(ran.load(), kTasks);
}

}  // namespace
}  // namespace hamr
