// Engine tuning knobs. One EngineConfig applies to every node runtime.
#pragma once

#include <cstdint>

namespace hamr::fault {
class FaultInjector;
}  // namespace hamr::fault

namespace hamr::obs {
class EventLog;
}  // namespace hamr::obs

namespace hamr::engine {

struct EngineConfig {
  // Executor lane of this engine instance. Several engines may share one
  // cluster (the job service runs one per lane): each lane claims its own
  // shuffle message-type quad (net::msg_type::engine_bin(lane)..), its own
  // kv RPC id range, and lane-scoped spill paths, so concurrent jobs on
  // different lanes never cross wires. Must be < net::msg_type::kMaxEngineLanes.
  uint32_t lane = 0;

  // Worker threads per node runtime. 0 = the cluster's threads_per_node;
  // the job service sets this to carve a node's task slots across lanes.
  uint32_t worker_threads = 0;

  // Target packed size of a shuffle bin. Bins are the unit of scheduling
  // ("the minimum data required to enable a flowlet", paper §2).
  uint64_t bin_size_bytes = 64 * 1024;

  // Per-node memory budget for reduce-input staging. Beyond it, staged data
  // is sorted and spilled to the node's (throttled) local disk (paper §3.1:
  // "if the data is too large to fit into memory, it will be spilled").
  uint64_t memory_budget_bytes = 64ull * 1024 * 1024;

  // Flow control: when a node's outbox exceeds this many buffered bytes,
  // running tasks park and loader tasks are deferred (paper §2: "the flowlet
  // stops the current execution immediately and will be scheduled in a later
  // time... the number of concurrent loader tasks can be decreased").
  uint64_t flow_control_high_bytes = 4ull * 1024 * 1024;
  bool flow_control_enabled = true;

  // Receiver-side bound on buffered incoming bins (bytes). When a node's
  // workers cannot drain this fast enough, its delivery thread blocks, the
  // transport ingress fills, senders stall, their outboxes grow past the
  // watermark, and loaders throttle - the full end-to-end backpressure chain
  // of paper §2. NOTE: because the delivery thread may block here, flowlet
  // data-path code must not wait synchronously on remote RPCs (use the
  // node-local kv shard, as every built-in benchmark does). Must be > 0.
  uint64_t bin_queue_bytes = 16ull * 1024 * 1024;

  // Striping of partial-reduce accumulator tables. Each stripe is a serial
  // resource: in HAMR's one-runtime-per-node model all worker threads share
  // the node's accumulators, so updates to the same stripe serialize
  // (paper §5.2: "all threads atomically update only one variable on each
  // node... severe memory contention").
  uint32_t partial_reduce_stripes = 64;

  // Cost model for that serialization: max updates/second a single stripe
  // (~ a single contended shared variable) sustains. 0 disables the model.
  // The value is scaled together with the disk/NIC models; see DESIGN.md.
  double shared_update_rate_per_stripe = 150e3;

  // Fault tolerance. When an injector is attached (not owned; must outlive
  // the engine) the runtime consults it for task-crash points and reads its
  // retry/resend policy; attaching one also enables the reliable shuffle
  // channel. `reliable_shuffle` turns on the seq/ack channel even without an
  // injector (e.g. over a lossy transport).
  fault::FaultInjector* fault_injector = nullptr;
  bool reliable_shuffle = false;

  // Observability. When set (not owned; must outlive the engine) every node
  // runtime appends scheduling-relevant events - bin enqueue/process,
  // flowlet ready/complete, completion broadcasts, stalls, spills, retries -
  // to this log, counter-indexed per (node, flowlet) stream so tests can
  // assert ordering invariants deterministically. Null = one branch per
  // site, no recording.
  obs::EventLog* event_log = nullptr;

  // Convenience: cost-model-free config for correctness tests.
  static EngineConfig fast() {
    EngineConfig c;
    c.shared_update_rate_per_stripe = 0;
    return c;
  }
};

}  // namespace hamr::engine
