// Fault injection: a seeded, deterministic fault source for chaos testing.
//
// A FaultPlan declares, per (src, dst) node pair, the probabilities of a
// message being dropped, duplicated, or delayed in flight; a disk-write
// error rate; and task-crash behavior (a probabilistic rate plus explicit
// crash points by (node, flowlet name)). A FaultInjector evaluates the plan with
// counter-indexed hashing: the decision for the Nth event of a given stream
// (e.g. the Nth message on link 2->5) is a pure function of (plan, seed, N),
// so the same plan + seed always yields the same injected-fault sequence for
// each stream regardless of thread interleaving across streams.
//
// Injection hooks live in three layers (each takes an optional injector):
//   * net/InProcTransport::do_send   - message drop / duplicate / delay
//   * storage/ThrottledDevice        - fallible charge_write for spill paths
//   * engine/NodeRuntime             - task-crash points at task start
//
// The recovery side (seq/ack resend, duplicate suppression, task and spill
// retry with bounded exponential backoff) lives in the engine runtime; see
// DESIGN.md "Fault model & recovery".
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/clock.h"

namespace hamr::fault {

// Per-link message fault probabilities. Probabilities are evaluated per
// message, mutually exclusively (a message suffers at most one fault), so
// drop + duplicate + delay must be <= 1.
struct LinkFaults {
  double drop = 0;
  double duplicate = 0;
  double delay = 0;
  Duration delay_by = millis(5);

  bool any() const { return drop > 0 || duplicate > 0 || delay > 0; }
};

// Deterministic crash point: the first `times` task executions of the
// flowlet named `flowlet` on `node` crash at task start (before any side
// effects). The name is the one the engine runs: a fused stage is named
// after its parts, e.g. "TextLoader+Splitter".
struct CrashPoint {
  uint32_t node = 0;
  std::string flowlet;
  uint32_t times = 1;
};

struct FaultPlan {
  uint64_t seed = 1;

  // Message faults: default applied to every src != dst pair, overridable
  // per directed pair. Only message types in `faultable_types` are subject
  // to link faults; empty means the engine's reliable-channel frames and
  // acks (the shuffle path, which has recovery machinery above it).
  LinkFaults default_link;
  std::map<std::pair<uint32_t, uint32_t>, LinkFaults> links;
  std::set<uint32_t> faultable_types;

  // Storage faults: probability that a checked disk write fails (the write
  // is not performed; the caller retries with backoff).
  double disk_write_error_rate = 0;

  // Task faults: probability that any task execution crashes at start, plus
  // explicit deterministic crash points.
  double task_crash_rate = 0;
  std::vector<CrashPoint> crash_points;

  // Recovery policy consumed by the engine runtime.
  uint32_t max_task_retries = 16;    // per bin/split/stage
  uint32_t max_write_retries = 10;   // per spill file
  uint32_t max_resend_attempts = 30; // per shuffle frame
  Duration retry_backoff = millis(1);      // base; doubles per attempt
  Duration retry_backoff_cap = millis(64);
  // Retransmit timeout (doubles per attempt, capped). The default leaves
  // headroom over the worst ack round-trip seen under a loaded scheduler;
  // chaos tests that want fast retransmission lower it explicitly.
  Duration resend_after = millis(150);

  // Convenience chaos plan: `msg_rate` spread over drop/duplicate/delay on
  // every link, `crash_rate` per task execution.
  static FaultPlan chaos(uint64_t seed, double msg_rate, double crash_rate = 0);

  const LinkFaults& link(uint32_t src, uint32_t dst) const {
    auto it = links.find({src, dst});
    return it == links.end() ? default_link : it->second;
  }
};

enum class MessageFault { kNone, kDrop, kDuplicate, kDelay };

struct MessageFaultResult {
  MessageFault action = MessageFault::kNone;
  Duration delay = Duration::zero();
};

class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  const FaultPlan& plan() const { return plan_; }

  // Transport hook: fate of the next message src -> dst of `type`. Local
  // (src == dst) traffic is never faulted. Thread-safe; the decision stream
  // is independent per (src, dst) link.
  MessageFaultResult on_message(uint32_t src, uint32_t dst, uint32_t type);

  // Storage hook: true if the next checked write on `node` must fail.
  bool on_disk_write(uint32_t node);

  // Runtime hook: true if the task execution starting now for the flowlet
  // named `flowlet` on `node` must crash. Each call consumes one execution
  // slot of the (node, flowlet) stream, so retries can crash again.
  bool on_task_start(uint32_t node, std::string_view flowlet);

  struct Stats {
    uint64_t messages_dropped = 0;
    uint64_t messages_duplicated = 0;
    uint64_t messages_delayed = 0;
    uint64_t disk_write_errors = 0;
    uint64_t task_crashes = 0;

    uint64_t total() const {
      return messages_dropped + messages_duplicated + messages_delayed +
             disk_write_errors + task_crashes;
    }
  };
  Stats stats() const;

 private:
  // Uniform [0, 1) for event `n` of the stream tagged `tag`; pure.
  double uniform(uint64_t tag, uint64_t n) const;
  // Next event index of the stream `tag` (per-stream monotone counter).
  uint64_t next_event(uint64_t tag);

  FaultPlan plan_;
  std::mutex mu_;
  std::map<uint64_t, uint64_t> event_counts_;  // stream tag -> events so far

  std::atomic<uint64_t> dropped_{0};
  std::atomic<uint64_t> duplicated_{0};
  std::atomic<uint64_t> delayed_{0};
  std::atomic<uint64_t> disk_errors_{0};
  std::atomic<uint64_t> crashes_{0};
};

}  // namespace hamr::fault
