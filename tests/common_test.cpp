#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "common/clock.h"
#include "common/flags.h"
#include "common/hash.h"
#include "common/metrics.h"
#include "common/random.h"
#include "common/status.h"
#include "common/thread_pool.h"

using namespace hamr;

// --- ThreadPool / WaitGroup ---------------------------------------------------

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) pool.submit([&] { ++count; });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, WaitIdleWaitsForRunningTask) {
  ThreadPool pool(1);
  std::atomic<bool> done{false};
  pool.submit([&] {
    std::this_thread::sleep_for(millis(50));
    done = true;
  });
  pool.wait_idle();
  EXPECT_TRUE(done.load());
}

TEST(ThreadPool, ShutdownRunsQueuedTasks) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) pool.submit([&] { ++count; });
    pool.shutdown();
  }
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPool, SubmitAfterShutdownFails) {
  ThreadPool pool(1);
  pool.shutdown();
  EXPECT_FALSE(pool.submit([] {}));
}

TEST(WaitGroup, FanOutFanIn) {
  WaitGroup wg;
  std::atomic<int> count{0};
  ThreadPool pool(4);
  wg.add(20);
  for (int i = 0; i < 20; ++i) {
    pool.submit([&] {
      ++count;
      wg.done();
    });
  }
  wg.wait();
  EXPECT_EQ(count.load(), 20);
}

// --- Rng / Zipf --------------------------------------------------------------

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123), c(124);
  for (int i = 0; i < 100; ++i) {
    const uint64_t va = a.next_u64();
    EXPECT_EQ(va, b.next_u64());
    (void)c.next_u64();
  }
  Rng a2(123), c2(124);
  EXPECT_NE(a2.next_u64(), c2.next_u64());
}

TEST(Rng, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

class ZipfSweep : public ::testing::TestWithParam<double> {};

TEST_P(ZipfSweep, SkewIncreasesHeadMass) {
  const double theta = GetParam();
  Zipf zipf(1000, theta);
  Rng rng(42);
  uint64_t head = 0;
  constexpr int kSamples = 20000;
  for (int i = 0; i < kSamples; ++i) {
    const uint64_t v = zipf.sample(rng);
    ASSERT_LT(v, 1000u);
    if (v < 10) ++head;
  }
  // With any positive skew the top-10 of 1000 items exceed the uniform share.
  EXPECT_GT(static_cast<double>(head) / kSamples, 10.0 / 1000.0);
}

INSTANTIATE_TEST_SUITE_P(Thetas, ZipfSweep, ::testing::Values(0.5, 0.8, 0.99, 1.2));

TEST(Zipf, RankZeroIsMostFrequent) {
  Zipf zipf(100, 0.99);
  Rng rng(1);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 50000; ++i) ++counts[zipf.sample(rng)];
  EXPECT_EQ(std::max_element(counts.begin(), counts.end()) - counts.begin(), 0);
}

// --- hashing -------------------------------------------------------------------

TEST(Hash, StableGoldenValues) {
  // Partitioning must never change across versions: tests pin goldens.
  EXPECT_EQ(fnv1a64("hello", 5), 0xa430d84680aabd0bULL);
  EXPECT_EQ(hash_bytes("hello"), mix64(0xa430d84680aabd0bULL));
}

TEST(Hash, PartitionUniformity) {
  constexpr uint32_t kParts = 8;
  std::vector<int> counts(kParts, 0);
  for (int i = 0; i < 80000; ++i) {
    ++counts[partition_of("key" + std::to_string(i), kParts)];
  }
  for (int c : counts) {
    EXPECT_GT(c, 80000 / kParts / 2);
    EXPECT_LT(c, 80000 / kParts * 2);
  }
}

TEST(Hash, PartitionOfZeroPartitions) {
  EXPECT_EQ(partition_of("x", 0), 0u);
}

// --- Status / Result -----------------------------------------------------------

TEST(Status, OkAndErrors) {
  EXPECT_TRUE(Status::Ok().ok());
  const Status s = Status::NotFound("thing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.ToString(), "NOT_FOUND: thing");
  EXPECT_THROW(s.ExpectOk(), std::runtime_error);
  EXPECT_NO_THROW(Status::Ok().ExpectOk());
}

TEST(Result, ValueAndError) {
  Result<int> ok(42);
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 42);
  Result<int> err(Status::Internal("boom"));
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.value_or(-1), -1);
  EXPECT_THROW(err.value(), std::runtime_error);
}

// --- Flags ----------------------------------------------------------------------

constexpr const char* kFlagsUsage =
    "prog\n  --alpha=N\n  --beta=F\n  --verbose\n  --name=S\n";

TEST(Flags, ParsesAllForms) {
  const char* argv[] = {"prog", "--alpha=3",  "--beta", "4.5",
                        "--verbose", "--name=x"};
  Flags flags(6, const_cast<char**>(argv), kFlagsUsage);
  EXPECT_EQ(flags.get_int("alpha", 0), 3);
  EXPECT_DOUBLE_EQ(flags.get_double("beta", 0), 4.5);
  EXPECT_TRUE(flags.get_bool("verbose", false));
  EXPECT_EQ(flags.get_string("name", ""), "x");
  EXPECT_EQ(flags.get_int("missing", 7), 7);
  EXPECT_FALSE(flags.has("missing"));
}

TEST(FlagsDeathTest, UnknownFlagExitsTwoAndDocumentedFlagParses) {
  const char* typo[] = {"prog", "--alpah=3"};
  EXPECT_EXIT(Flags(2, const_cast<char**>(typo), kFlagsUsage),
              ::testing::ExitedWithCode(2), "unknown flag '--alpah=3'");
  const char* bare_typo[] = {"prog", "--verbos"};
  EXPECT_EXIT(Flags(2, const_cast<char**>(bare_typo), kFlagsUsage),
              ::testing::ExitedWithCode(2), "unknown flag");
  const char* documented[] = {"prog", "--alpha", "5"};
  Flags flags(3, const_cast<char**>(documented), kFlagsUsage);
  EXPECT_EQ(flags.get_int("alpha", 0), 5);
}

// --- Metrics ---------------------------------------------------------------------

TEST(Metrics, CountersAccumulateAndMerge) {
  Metrics a, b;
  a.counter("x")->add(3);
  a.counter("y")->inc();
  b.counter("x")->add(4);
  a.merge_from(b);
  EXPECT_EQ(a.value("x"), 7u);
  EXPECT_EQ(a.value("y"), 1u);
  EXPECT_EQ(a.value("zzz"), 0u);
  const auto snap = a.snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].first, "x");
}

TEST(Metrics, CounterPointerStable) {
  Metrics m;
  Counter* c = m.counter("hot");
  m.counter("other")->inc();
  c->add(5);
  EXPECT_EQ(m.value("hot"), 5u);
}

TEST(Metrics, GaugeMovesBothWays) {
  Metrics m;
  Gauge* g = m.gauge("depth");
  g->add(10);
  g->sub(3);
  g->inc();
  g->dec();
  EXPECT_EQ(m.gauge_value("depth"), 7);
  g->set(-2);
  EXPECT_EQ(m.gauge_value("depth"), -2);
  EXPECT_EQ(m.gauge_value("missing"), 0);
}

TEST(Metrics, GaugesMergeBySum) {
  Metrics a, b;
  a.gauge("g")->set(5);
  b.gauge("g")->set(-2);
  b.gauge("only_b")->set(9);
  a.merge_from(b);
  EXPECT_EQ(a.gauge_value("g"), 3);
  EXPECT_EQ(a.gauge_value("only_b"), 9);
}

TEST(Histogram, ObservationsLandInBuckets) {
  Histogram h({10, 100, 1000});
  h.observe(5);     // <= 10
  h.observe(10);    // <= 10 (bounds are inclusive)
  h.observe(70);    // <= 100
  h.observe(5000);  // overflow
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 5085u);
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(2), 0u);
  EXPECT_EQ(h.bucket_count(3), 1u);  // overflow bucket
  EXPECT_DOUBLE_EQ(h.mean(), 5085.0 / 4.0);
}

TEST(Histogram, QuantileReportsBucketUpperBound) {
  Histogram h({1, 2, 4, 8});
  for (uint64_t v : {1, 1, 1, 2, 2, 3, 5, 100}) h.observe(v);
  EXPECT_EQ(h.quantile(0.0), 1u);
  EXPECT_EQ(h.quantile(0.5), 2u);
  EXPECT_EQ(h.quantile(1.0), 8u);  // overflow reports last finite bound
  EXPECT_EQ(Histogram({1, 2}).quantile(0.5), 0u);  // empty
}

TEST(Histogram, MergeRequiresIdenticalBounds) {
  Histogram a({10, 100});
  Histogram b({10, 100});
  Histogram other({5, 50});
  a.observe(7);
  b.observe(70);
  other.observe(3);
  a.merge_from(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.bucket_count(0), 1u);
  EXPECT_EQ(a.bucket_count(1), 1u);
  a.merge_from(other);  // incompatible: silently skipped
  EXPECT_EQ(a.count(), 2u);
}

TEST(Metrics, HistogramsMergeThroughRegistry) {
  Metrics a, b;
  a.histogram("lat")->observe(3);
  b.histogram("lat")->observe(900);
  b.histogram("only_b", {1, 2})->observe(1);
  a.merge_from(b);
  EXPECT_EQ(a.histogram("lat")->count(), 2u);
  EXPECT_EQ(a.histogram("lat")->sum(), 903u);
  EXPECT_EQ(a.histogram("only_b", {1, 2})->count(), 1u);
}

// --- clock -------------------------------------------------------------------------

TEST(Clock, FormatDuration) {
  EXPECT_EQ(format_duration(from_seconds(1.234)), "1.234s");
  EXPECT_EQ(format_duration(millis(56)), "56.0ms");
  EXPECT_EQ(format_duration(micros(890)), "890us");
}

TEST(Clock, StopwatchMeasures) {
  Stopwatch w;
  std::this_thread::sleep_for(millis(20));
  EXPECT_GE(w.elapsed_seconds(), 0.015);
}
