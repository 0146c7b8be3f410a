#include "engine/scheduler.h"

#include <algorithm>
#include <thread>

#include "common/clock.h"

namespace hamr::engine {

ShardedScheduler::ShardedScheduler(uint32_t workers, uint64_t byte_budget)
    : byte_budget_(byte_budget) {
  shards_.resize(workers == 0 ? 1 : workers);
}

bool ShardedScheduler::push_bin(QueueItem&& item, bool force) {
  const uint64_t bytes = item.payload.size();
  if (!force &&
      (stopping_.load() ||
       queued_bytes_.load(std::memory_order_relaxed) >= byte_budget_)) {
    // Receiver-side backpressure: the delivery thread (our only non-retry
    // caller) blocks when the queue is over budget, which in turn fills the
    // transport ingress and stalls remote senders. Control items ride the
    // same path to preserve per-sender FIFO. The under-budget fast path
    // above never touches space_mu_; only an actually-full queue pays for
    // the lock and the wait.
    std::unique_lock<std::mutex> lock(space_mu_);
    const TimePoint t0 = now();
    space_cv_.wait(lock, [&] {
      return stopping_.load() ||
             queued_bytes_.load(std::memory_order_relaxed) < byte_budget_;
    });
    const Duration waited = now() - t0;
    if (waited >= micros(100) && hooks_.budget_wait_ns != nullptr) {
      // The delivery thread actually blocked on the queue budget:
      // receiver-side backpressure in action, worth surfacing.
      hooks_.budget_wait_ns->add(static_cast<uint64_t>(waited.count()));
    }
    if (stopping_.load()) return false;
  }
  // Account BEFORE the item becomes visible: a worker may pop it and settle
  // the instant the shard lock drops, and settling first would wrap the
  // unsigned counters. A wrapped queued_bytes_ reads as over budget, parks a
  // concurrent pusher in the space wait, and no later settle wakes it.
  queued_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  pending_bins_.fetch_add(1, std::memory_order_relaxed);
  pending_.fetch_add(1);
  Shard& shard = shards_[item.src % shards_.size()];
  bool was_workless;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    was_workless = shard.bins.empty() && shard.tasks.empty();
    shard.bins.push_back(std::move(item));
  }
  publish_gauges();
  // Only a workless -> workful transition wakes a worker: appends to an
  // already-workful shard ride the wakeup that transition already sent (a
  // woken worker drains until a clean all-shards-empty scan before it may
  // sleep again). In the backlogged steady state pushes make no syscalls.
  if (was_workless) notify_workers();
  return true;
}

void ShardedScheduler::push_task(std::function<void()> task) {
  const size_t i = task_rr_.fetch_add(1, std::memory_order_relaxed) % shards_.size();
  Shard& shard = shards_[i];
  bool was_workless;
  pending_.fetch_add(1);  // before visibility, as in push_bin
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    was_workless = shard.bins.empty() && shard.tasks.empty();
    shard.tasks.push_back(std::move(task));
  }
  if (was_workless) notify_workers();
}

void ShardedScheduler::notify_workers() {
  // The seq bump keeps a worker that snapshotted wake_seq_ before our push
  // from sleeping on a stale snapshot; the empty critical section pairs with
  // the waiter's predicate check (without it a worker could evaluate the
  // predicate and sleep right past this notify). Skip the syscall entirely
  // when nobody is registered asleep.
  wake_seq_.fetch_add(1);
  if (sleepers_.load() == 0) return;
  {
    std::lock_guard<std::mutex> lock(idle_mu_);
  }
  // One transition, one worker: notify_all would wake every idle worker per
  // transition (a thundering herd that re-scans all shards and goes back to
  // sleep).
  idle_cv_.notify_one();
}

bool ShardedScheduler::next(uint32_t self, Work* out) {
  std::vector<Work> batch;
  if (next_batch(self, &batch, 1) == 0) return false;
  *out = std::move(batch.front());
  return true;
}

size_t ShardedScheduler::next_batch(uint32_t self, std::vector<Work>* out,
                                    size_t max) {
  const uint32_t n = static_cast<uint32_t>(shards_.size());
  if (max == 0) max = 1;
  for (;;) {
    // Snapshot before scanning: a transition-notify after this point moves
    // the seq and defeats the sleep below.
    const uint64_t seen = wake_seq_.load();
    bool clean = true;
    size_t taken = 0;
    uint64_t bins = 0;
    uint64_t bytes = 0;
    {
      Shard& own = shards_[self];
      std::unique_lock<std::mutex> lock(own.mu, std::try_to_lock);
      if (!lock.owns_lock()) {
        // The own shard is waited on (unlike steal victims) and the wait is
        // surfaced: it measures exactly the producer/owner convoy the
        // sharding exists to keep rare.
        const TimePoint t0 = now();
        lock.lock();
        if (hooks_.lock_wait_ns != nullptr) {
          hooks_.lock_wait_ns->add(static_cast<uint64_t>((now() - t0).count()));
        }
      }
      while (taken < max) {
        Work w;
        if (!take_locked(own, &w)) break;
        if (w.is_item) {
          ++bins;
          bytes += w.item.payload.size();
        }
        out->push_back(std::move(w));
        ++taken;
      }
    }
    if (taken > 0) {
      settle_batch(taken, bins, bytes);
      return taken;
    }
    if (n > 1) {
      for (uint32_t k = 1; k < n && taken == 0; ++k) {
        Shard& victim = shards_[(self + k) % n];
        std::unique_lock<std::mutex> lock(victim.mu, std::try_to_lock);
        if (!lock.owns_lock()) {
          // A contended victim is skipped, not waited on - but it may hold
          // work, so this scan no longer proves the scheduler is drained.
          clean = false;
          continue;
        }
        // Steal up to half the victim's backlog (capped at the batch size):
        // enough to amortize the scan, while the owner keeps the rest. The
        // stolen run is front-popped in order, so FIFO per sender holds.
        const size_t avail = victim.bins.size() + victim.tasks.size();
        const size_t want =
            std::min(max, avail == 1 ? size_t{1} : avail / 2);
        while (taken < want) {
          Work w;
          if (!take_locked(victim, &w)) break;
          if (w.is_item) {
            ++bins;
            bytes += w.item.payload.size();
          }
          out->push_back(std::move(w));
          ++taken;
        }
      }
      if (taken > 0) {
        settle_batch(taken, bins, bytes);
        // One steal event per scan, however many units it moved.
        if (hooks_.steals != nullptr) hooks_.steals->inc();
        return taken;
      }
    }
    if (stopping_.load() && pending_.load() == 0) return 0;
    if (!clean) {
      // Never sleep off a scan that skipped a locked shard: the wakeup
      // protocol only re-notifies on workless -> workful transitions, so a
      // missed item behind a contended lock would have no wakeup left.
      std::this_thread::yield();
      continue;
    }
    std::unique_lock<std::mutex> lock(idle_mu_);
    sleepers_.fetch_add(1);
    idle_cv_.wait(lock, [&] {
      return stopping_.load() || wake_seq_.load() != seen;
    });
    sleepers_.fetch_sub(1);
    if (stopping_.load() && pending_.load() == 0) return 0;
  }
}

// Moves one unit of work out of a shard whose mutex the caller holds. Queue
// accounting is NOT touched here; the caller settles it once per batch after
// dropping the lock (settle_batch), so the critical section stays a pure
// deque operation.
bool ShardedScheduler::take_locked(Shard& shard, Work* out) {
  if (!shard.bins.empty()) {
    // Bins first: draining received data keeps upstream nodes unblocked.
    // Front pop (owner and thief alike) keeps dequeue order FIFO per sender.
    out->is_item = true;
    out->item = std::move(shard.bins.front());
    shard.bins.pop_front();
    return true;
  }
  if (!shard.tasks.empty()) {
    out->is_item = false;
    out->task = std::move(shard.tasks.front());
    shard.tasks.pop_front();
    return true;
  }
  return false;
}

void ShardedScheduler::settle_batch(uint64_t units, uint64_t bins,
                                    uint64_t bytes) {
  pending_.fetch_sub(units);
  if (bins != 0) pending_bins_.fetch_sub(bins, std::memory_order_relaxed);
  const uint64_t before =
      queued_bytes_.fetch_sub(bytes, std::memory_order_relaxed);
  publish_gauges();
  if (bytes != 0 && before >= byte_budget_) {
    // Possibly just crossed back under budget: wake the delivery thread.
    {
      std::lock_guard<std::mutex> space(space_mu_);
    }
    space_cv_.notify_all();
  }
}

void ShardedScheduler::publish_gauges() {
  // Gauge writes happen here, outside every shard lock, from the atomics.
  if (hooks_.depth != nullptr) {
    hooks_.depth->set(
        static_cast<int64_t>(pending_bins_.load(std::memory_order_relaxed)));
  }
  if (hooks_.bytes != nullptr) {
    hooks_.bytes->set(
        static_cast<int64_t>(queued_bytes_.load(std::memory_order_relaxed)));
  }
}

void ShardedScheduler::stop() {
  stopping_.store(true);
  {
    std::lock_guard<std::mutex> lock(idle_mu_);
  }
  idle_cv_.notify_all();
  {
    std::lock_guard<std::mutex> lock(space_mu_);
  }
  space_cv_.notify_all();
}

}  // namespace hamr::engine
