// NodeRuntime: HAMR's per-node dataflow runtime (paper §2, Fig. 2).
//
// Each node holds the WHOLE flowlet graph (contrast with Dryad subgraphs),
// a worker thread pool, and a bin queue. Scheduling is event-driven:
//   * bins arriving for map/partial-reduce flowlets become Ready work;
//   * reduce flowlets stage incoming bins (spilling beyond the memory
//     budget) and fire only after the completion message has propagated
//     from every upstream flowlet instance on every node;
//   * loader splits are processed in chunks, deferred under flow control.
//
// Completion protocol: a flowlet that has finished on a node broadcasts a
// COMPLETE control message through the same per-channel FIFO path as its
// data bins, so "complete received" implies "all bins received" per sender.
//
// Flow control: each node has a single sender thread draining an outbox; the
// outbox byte count is the backpressure probe. Loader chunks (and any other
// task checking backpressured()) park and reschedule while it is high, and
// the transport's bounded ingress stalls the sender thread itself when a
// receiver falls behind - the end-to-end analog of the paper's "output bin
// buffer full" rule.
//
// Fault tolerance (see DESIGN.md "Fault model & recovery"): with a fault
// injector attached (or reliable_shuffle set), engine bins and control
// messages travel as sequence-numbered frames over a per-(src,dst) reliable
// channel - cumulative acks, timeout resend with exponential backoff, and
// receiver-side reordering + duplicate suppression that restores exactly the
// per-channel FIFO the completion protocol relies on. Task crashes injected
// at task start re-enqueue the task's bin (or split chunk / reduce stage)
// after a bounded exponential backoff instead of wedging the bin queue, and
// failed spill writes are retried the same way.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster.h"
#include "common/metrics.h"
#include "common/pool.h"
#include "engine/config.h"
#include "engine/flat_table.h"
#include "engine/graph.h"
#include "engine/rate_gate.h"
#include "engine/scheduler.h"
#include "engine/split.h"
#include "net/payload.h"
#include "obs/event_log.h"
#include "storage/sorted_run.h"

namespace hamr::engine {

class Engine;
class TaskContext;

namespace internal {

// Sub-partitions of a node's key range: parallel reduce streams per node,
// the fine-grain analog of multiple reduce slots.
inline constexpr uint32_t kReduceStages = 4;

// Reduce-input staging for one sub-partition of a node's key range: the
// buffered records and the sorted runs spilled from them, in creation order.
struct ReduceStage {
  explicit ReduceStage(Gauge* arena_gauge) : run(arena_gauge) {}

  std::mutex mu;
  storage::RunBuffer run;
  std::vector<std::string> spill_paths;
};

// Node-shared partial-reduce accumulator table, striped. Each stripe models
// one contended shared-variable set (see RateGate). The accumulator map is a
// flat open-addressing table with arena-backed keys: folding a record probes
// with the record's string_view directly, no per-fold key allocation.
struct PartialTable {
  struct Stripe {
    std::mutex mu;
    FlatAccTable acc;
    std::unique_ptr<RateGate> gate;
  };
  // deque: stripes are immovable (mutex member) and deque constructs them in
  // place without relocation.
  std::deque<Stripe> stripes;
};

// Per-(node, flowlet) state for one job.
struct FlowletState {
  std::unique_ptr<Flowlet> instance;
  FlowletKind kind = FlowletKind::kMap;
  // Bins enqueued locally for this flowlet but not yet fully processed.
  std::atomic<uint64_t> pending_bins{0};
  // Channels = one per (distinct upstream flowlet, node). All must complete
  // before this flowlet can finish locally.
  uint32_t channels_total = 0;
  std::atomic<uint32_t> channels_done{0};
  std::atomic<bool> finish_scheduled{false};
  std::atomic<bool> complete{false};
  // Loader bookkeeping.
  std::atomic<uint64_t> splits_outstanding{0};
  // Reduce staging (kind == kReduce), one per sub-partition (kReduceStages).
  std::vector<std::unique_ptr<ReduceStage>> stages;
  std::atomic<uint32_t> reduce_tasks_outstanding{0};
  // Partial-reduce accumulators (kind == kPartialReduce).
  std::unique_ptr<PartialTable> table;
  // Sender-side combine tables for this flowlet's combine out-edges.
  std::map<EdgeId, std::unique_ptr<PartialTable>> combine_tables;
  // Per-flowlet task latency histogram (engine.flowlet.<id>.task_us),
  // registered in the node's Metrics at job build time; pointer is stable.
  Histogram* task_us = nullptr;

  // --- event-time windowing (kind == kPartialReduce, stream_windowed()) ---
  // Cached PartialReduceFlowlet::stream_windowed() (set at job build).
  bool stream_windowed = false;
  // Bins ever enqueued locally for this flowlet (monotone). The fetch_add
  // return value is the bin's enqueue index, carried on the QueueItem so
  // completion can be tracked per bin.
  std::atomic<uint64_t> bins_enqueued{0};
  // Prefix-processed tracking: done_prefix = smallest enqueue index not yet
  // fully processed (every index below it is done). A simple
  // enqueued - pending >= target count is NOT a barrier: the work-stealing
  // scheduler and crash-retry backoffs complete bins out of order, so later
  // bins (enqueued after an arm) can stand in for a parked earlier one and
  // the count reaches the target while covered data is still unfolded.
  // done_prefix cannot be fooled that way. Guarded by done_mu; read
  // lock-free by the close barrier.
  std::mutex done_mu;
  std::atomic<uint64_t> done_prefix{0};
  std::set<uint64_t> done_out_of_order;
  // Watermark close barrier, guarded by wm_mu. Punctuation alignment arms it
  // with a target = bins_enqueued snapshot; it fires once every bin enqueued
  // before arming has been processed (done_prefix >= armed_target). The
  // barrier exists because "punctuation processed" alone does not imply
  // "covered data folded" when bins complete out of order.
  // wm_mu also serializes window close against the finish-path emission, so
  // a drain-and-reinsert close can never race a concurrent final flush.
  std::mutex wm_mu;
  int64_t armed_watermark = INT64_MIN;  // INT64_MIN = not armed
  uint64_t armed_target = 0;
  TimePoint armed_at{};
  int64_t closed_watermark = INT64_MIN;
  int64_t max_open_end = INT64_MIN;  // newest window end opened (lag probe)
  std::atomic<bool> close_running{false};
};

// One job's per-node state. Built by the Engine, owned jointly by the
// runtime and in-flight tasks via shared_ptr.
struct JobState {
  uint64_t epoch = 0;
  // Shared copy: completion broadcasts from other nodes can still be in
  // flight after the driver's run() returns, so the graph must outlive the
  // caller's stack frame.
  std::shared_ptr<const FlowletGraph> graph;
  std::vector<std::unique_ptr<FlowletState>> flowlets;
  std::atomic<uint32_t> flowlets_complete{0};
  std::atomic<bool> done_signaled{false};
};

}  // namespace internal

// The per-node runtime. Constructed once per Engine and reused across jobs.
class NodeRuntime {
 public:
  NodeRuntime(Engine* engine, cluster::Node* node, const EngineConfig& config);
  ~NodeRuntime();

  NodeRuntime(const NodeRuntime&) = delete;
  NodeRuntime& operator=(const NodeRuntime&) = delete;

  uint32_t node_id() const { return node_->id(); }
  cluster::Node& node() { return *node_; }
  Metrics& metrics() { return node_->metrics(); }

 private:
  friend class Engine;
  friend class TaskContext;

  // A task parked off the worker pool: flow-control stalls and crash-retry
  // backoffs wait here (deadline-ordered, drained by the sender loop)
  // instead of sleeping on a worker thread.
  struct DeferredTask {
    bool stall = false;  // flow-control stall: log StallEnd + metrics on wake
    FlowletId flowlet = 0;
    int64_t tag = 0;
    TimePoint begin{};
    std::function<void()> task;
  };

  // Reliable shuffle channel state (active when reliable()).
  struct SendChannel {
    std::mutex mu;
    uint64_t next_seq = 0;
    struct Unacked {
      // Framed payload held for retransmission: the seq/ack head plus a view
      // of the same shared body the live send carries - no retransmission
      // copy. Dropping the entry (on ack) releases the body to the pool.
      net::Payload frame;
      TimePoint next_resend{};
      uint32_t attempts = 0;
    };
    std::map<uint64_t, Unacked> unacked;
  };
  struct RecvChannel {
    std::mutex mu;
    uint64_t next_expected = 0;
    // Out-of-order frames staged until the gap fills: seq -> (type, payload).
    std::map<uint64_t, std::pair<uint32_t, std::string>> stash;
  };

  // --- job lifecycle (driven by Engine) ---
  // Phase 1 on every node: publish the job state so incoming bins resolve.
  void attach_job(std::shared_ptr<internal::JobState> job);
  // Phase 2: run start() hooks and schedule this node's loader splits.
  void activate_job(const std::map<FlowletId, std::vector<InputSplit>>& my_splits);
  void request_stream_stop() { streaming_stop_.store(true); }
  std::shared_ptr<internal::JobState> current_job() const;

  // --- ingress (called on transport delivery thread) ---
  void on_bin_message(net::Message&& msg);
  void on_control_message(net::Message&& msg);
  void on_frame_message(net::Message&& msg);  // reliable channel ingress
  void on_ack_message(net::Message&& msg);

  // --- worker-side processing ---
  void worker_loop(uint32_t self);
  void submit_task(std::function<void()> task);
  // Parks a flow-controlled task on the deferred queue. `flowlet` and `tag`
  // identify the parked task (loaders pass their split cursor) so the event
  // log can pair each StallBegin with the StallEnd of the *same* task. The
  // worker returns to the scheduler immediately; the sender loop re-submits
  // the task once the retry deadline passes.
  void defer_task(FlowletId flowlet, int64_t tag, std::function<void()> task);
  // Deadline-ordered parking lot shared by stalls and crash-retry backoffs.
  void schedule_deferred(TimePoint due, DeferredTask&& d);
  TimePoint next_deferred_deadline();
  void drain_due_deferred();
  void process_bin(const QueueItem& item);
  void process_control(const QueueItem& item);
  void run_split_chunk(FlowletId loader, const InputSplit& split, uint64_t cursor,
                       uint32_t attempt = 0);
  void stage_reduce_bin(FlowletId flowlet, internal::FlowletState& fs, BinView& bin);
  void fold_partial_bin(FlowletId flowlet, internal::FlowletState& fs, BinView& bin);
  // Advances the flowlet's processed-bin prefix past `index` (stream_windowed
  // close-barrier bookkeeping; see FlowletState::done_prefix).
  void mark_bin_done(internal::FlowletState& fs, uint64_t index);
  void maybe_schedule_finish(FlowletId flowlet);
  void run_finish(FlowletId flowlet);
  void fire_reduce(FlowletId flowlet);
  void run_reduce_stage(FlowletId flowlet, uint32_t stage_index,
                        uint32_t attempt = 0);
  // Un-charges the stage's buffered records and deletes its spill runs.
  void release_stage(internal::ReduceStage& stage);
  void flowlet_locally_complete(FlowletId flowlet);
  void broadcast_complete(FlowletId flowlet);
  void flush_combine_stripe(internal::JobState& job, EdgeId edge_id,
                            uint32_t stripe_index);
  void flush_window(FlowletId flowlet);  // processing-time streaming flush
  // Event-time close path: fires the armed watermark barrier once all bins
  // enqueued before arming are processed, then drains every accumulator
  // whose window end <= watermark through emit_result (exactly once; open
  // windows are re-inserted under the stripe lock).
  void maybe_close_event_windows(FlowletId flowlet);
  void close_event_windows(FlowletId flowlet, int64_t watermark,
                           TimePoint armed_at);

  // --- fault recovery ---
  bool reliable() const {
    return config_.fault_injector != nullptr || config_.reliable_shuffle;
  }
  // True if this task execution must crash (injected) AND may still retry;
  // retries past the bound proceed (logged) so data is never silently lost.
  bool should_crash_task(FlowletId flowlet, uint32_t attempt);
  Duration retry_backoff(uint32_t attempt) const;
  void retry_bin(const QueueItem& item);
  void write_spill_with_retry(storage::RunWriter& writer);

  // --- egress ---
  void enqueue_out(uint32_t dst, uint32_t type, net::Payload payload);
  void raw_enqueue_out(uint32_t dst, uint32_t type, net::Payload payload,
                       uint64_t frame_seq = 0, bool is_frame = false);
  void sender_loop();
  Duration resend_timeout(uint32_t attempts) const;
  Duration resend_check_every() const;
  void resend_due_frames();
  bool backpressured() const;

  std::string spill_path(FlowletId flowlet, uint32_t stage, uint64_t n) const;

  // Appends to the deterministic event log when one is attached (see
  // EngineConfig::event_log); one branch when it is not.
  void log_event(obs::EventKind kind, int64_t flowlet, int64_t aux = -1) {
    if (config_.event_log != nullptr) {
      config_.event_log->record(node_id(), kind, flowlet, aux);
    }
  }

  // True while the engine's in-flight job has a pending cancel; checked at
  // task boundaries (chunk, bin, reduce stage, finish) so a cancelled job
  // skips remaining work but still runs the completion protocol.
  bool job_cancelled() const;

  Engine* engine_;
  cluster::Node* node_;
  EngineConfig config_;

  // This engine lane's message-type quad (net::msg_type::engine_*(lane)),
  // resolved once: every hot-path send/dispatch compares against these.
  uint32_t bin_type_;
  uint32_t control_type_;
  uint32_t frame_type_;
  uint32_t ack_type_;

  // Cached hot-path metric handles (registry pointers are stable for the
  // node's lifetime, so per-record/per-bin paths skip the name lookup).
  Counter* frames_sent_c_ = nullptr;
  Counter* frames_recv_c_ = nullptr;
  Counter* records_c_ = nullptr;
  Counter* bins_c_ = nullptr;
  Counter* bin_bytes_c_ = nullptr;
  Counter* combine_folds_c_ = nullptr;
  Counter* folds_c_ = nullptr;
  Counter* stalls_c_ = nullptr;
  Counter* stall_ns_c_ = nullptr;
  Counter* task_retries_c_ = nullptr;
  // Fallback byte-copies on the reliable frame path (a framed payload that
  // arrived without a shared body); ~0 in zero-copy steady state.
  Counter* frame_copies_c_ = nullptr;
  Counter* spill_runs_c_ = nullptr;
  Histogram* stall_us_h_ = nullptr;
  Histogram* task_us_h_ = nullptr;
  Histogram* merge_fan_in_h_ = nullptr;
  Gauge* arena_bytes_g_ = nullptr;
  // Streaming (stream.* family; idle unless a windowed flowlet runs).
  Counter* windows_emitted_c_ = nullptr;
  Histogram* window_emit_us_h_ = nullptr;
  Histogram* wm_lag_us_h_ = nullptr;

  // Scheduler: per-worker sharded deques with work stealing (see
  // scheduler.h). The delivery thread routes each sender to a fixed shard
  // (per-sender FIFO dequeue order), idle workers steal before sleeping, and
  // the receiver byte budget is a shared atomic inside the scheduler.
  ShardedScheduler sched_;
  std::atomic<bool> stopping_{false};
  std::vector<std::thread> workers_;

  // Payload buffer recycling: bins and frames acquire their output strings
  // here; processed bins and acked frames return them. Shared so pooled
  // frame bodies still in a transport queue at teardown keep the pool alive
  // through their deleters.
  std::shared_ptr<BufferPool> pool_ = std::make_shared<BufferPool>();

  // Deferred tasks (flow-control stalls, crash-retry backoffs), ordered by
  // deadline; the sender loop drains due entries back onto the scheduler.
  std::mutex defer_mu_;
  std::multimap<TimePoint, DeferredTask> deferred_;

  // Egress: unbounded outbox drained by one sender thread; its byte count is
  // the flow-control probe.
  std::mutex out_mu_;
  std::condition_variable out_cv_;
  struct OutMsg {
    uint32_t dst;
    uint32_t type;
    net::Payload payload;
    // Reliable-frame bookkeeping, stamped at enqueue so the sender loop
    // never re-parses the payload to find the sequence number.
    uint64_t frame_seq = 0;
    bool is_frame = false;
  };
  std::deque<OutMsg> outbox_;
  std::atomic<uint64_t> outbox_bytes_{0};
  std::thread sender_;

  // Reliable shuffle channels, one per peer node (deque: immovable mutex
  // members, constructed in place). Allocated in the constructor; state
  // persists across jobs (sequence numbers keep counting).
  std::deque<SendChannel> send_channels_;  // indexed by destination
  std::deque<RecvChannel> recv_channels_;  // indexed by source

  // Reduce staging memory accounting (node-wide).
  std::atomic<uint64_t> staged_bytes_{0};

  std::shared_ptr<internal::JobState> job_;  // guarded by job_mu_
  mutable std::mutex job_mu_;

  std::atomic<bool> streaming_stop_{false};
};

}  // namespace hamr::engine
