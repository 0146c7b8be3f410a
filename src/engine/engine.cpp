#include "engine/engine.h"

#include <algorithm>
#include <set>
#include <stdexcept>
#include <thread>

#include "common/logging.h"
#include "fault/fault.h"
#include "net/message.h"

namespace hamr::engine {

namespace {

internal::PartialTable* make_table(uint32_t stripes, double gate_rate,
                                   Gauge* arena_gauge) {
  auto* table = new internal::PartialTable();
  table->stripes.resize(stripes == 0 ? 1 : stripes);
  for (auto& stripe : table->stripes) {
    stripe.acc = FlatAccTable(arena_gauge);
    stripe.gate = std::make_unique<RateGate>(gate_rate);
  }
  return table;
}

}  // namespace

Engine::Engine(cluster::Cluster& cluster, EngineConfig config)
    : cluster_(cluster),
      config_(config),
      kv_(cluster, kv::rpc_id::lane_base(config.lane)) {
  if (config_.lane >= net::msg_type::kMaxEngineLanes) {
    throw std::invalid_argument("engine lane out of range");
  }
  runtimes_.reserve(cluster_.size());
  for (uint32_t i = 0; i < cluster_.size(); ++i) {
    runtimes_.push_back(
        std::make_unique<NodeRuntime>(this, &cluster_.node(i), config_));
  }
}

Engine::~Engine() = default;

JobResult Engine::run(const FlowletGraph& graph, const JobInputs& inputs) {
  return run_internal(graph, inputs, Duration::zero(), Duration::zero());
}

JobResult Engine::run_streaming(const FlowletGraph& graph, const JobInputs& inputs,
                                Duration duration, Duration window_every) {
  if (duration <= Duration::zero()) {
    throw std::invalid_argument("streaming duration must be positive");
  }
  return run_internal(graph, inputs, duration, window_every);
}

namespace {

// Releases the single-job slot if run_internal() throws after claiming it
// (e.g. a null factory): without this a failed run would wedge the engine
// with job_running_ stuck true.
class RunGuard {
 public:
  RunGuard(std::mutex& mu, bool& running, std::atomic<bool>& cancel)
      : mu_(mu), running_(running), cancel_(cancel) {}
  ~RunGuard() {
    cancel_.store(false, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(mu_);
    running_ = false;
  }

 private:
  std::mutex& mu_;
  bool& running_;
  std::atomic<bool>& cancel_;
};

}  // namespace

JobResult Engine::run_internal(const FlowletGraph& graph, const JobInputs& inputs,
                               Duration stream_duration, Duration window_every) {
  verify(graph);
  {
    std::lock_guard<std::mutex> lock(done_mu_);
    if (job_running_) throw std::logic_error("engine runs one job at a time");
    job_running_ = true;
    nodes_done_ = 0;
    cancel_requested_.store(false, std::memory_order_relaxed);
    drain_requested_.store(false, std::memory_order_relaxed);
    ++epoch_;
  }
  RunGuard guard(done_mu_, job_running_, cancel_requested_);

  const uint32_t num_nodes = cluster_.size();

  // Baseline cluster-wide metrics snapshot; the result reports the delta.
  obs::MetricsSnapshot before;
  for (uint32_t n = 0; n < num_nodes; ++n) {
    before.merge_from(obs::MetricsSnapshot::capture(cluster_.node(n).metrics()));
  }
  const uint64_t faults_before =
      config_.fault_injector != nullptr ? config_.fault_injector->stats().total() : 0;

  // Distinct upstream flowlet count per flowlet (channels arrive per node).
  std::vector<uint32_t> distinct_upstreams(graph.num_flowlets(), 0);
  for (FlowletId f = 0; f < graph.num_flowlets(); ++f) {
    std::set<FlowletId> ups;
    for (EdgeId eid : graph.flowlet(f).in_edges) ups.insert(graph.edge(eid).src);
    distinct_upstreams[f] = static_cast<uint32_t>(ups.size());
  }

  // Phase 1: build and attach per-node job state everywhere, so that the
  // earliest bins from any node already resolve on every other node.
  // The graph is copied into shared ownership: completion broadcasts can
  // still be crossing the fabric after run() returns.
  auto graph_shared = std::make_shared<const FlowletGraph>(graph);
  std::vector<std::shared_ptr<internal::JobState>> jobs(num_nodes);
  for (uint32_t n = 0; n < num_nodes; ++n) {
    auto job = std::make_shared<internal::JobState>();
    job->epoch = epoch_;
    job->graph = graph_shared;
    job->flowlets.reserve(graph.num_flowlets());
    for (FlowletId f = 0; f < graph.num_flowlets(); ++f) {
      const GraphNode& gnode = graph.flowlet(f);
      auto fs = std::make_unique<internal::FlowletState>();
      fs->kind = gnode.kind;
      fs->instance = gnode.factory();
      if (!fs->instance) {
        throw std::invalid_argument("factory for '" + gnode.name + "' returned null");
      }
      // Per-flowlet task latency histogram on this node's registry. Keyed by
      // flowlet id (stable within a graph); accumulates across jobs, but
      // JobResult reports the per-job delta.
      fs->task_us = cluster_.node(n).metrics().histogram(
          "engine.flowlet." + std::to_string(f) + ".task_us");
      fs->channels_total = distinct_upstreams[f] * num_nodes;
      // All of a node's staging arenas (reduce stages, partial-reduce and
      // combine key arenas) report into one engine.arena_bytes gauge.
      Gauge* arena_gauge = cluster_.node(n).metrics().gauge("engine.arena_bytes");
      if (gnode.kind == FlowletKind::kReduce) {
        const uint32_t stages = std::max(1u, config_.reduce_subpartitions);
        for (uint32_t s = 0; s < stages; ++s) {
          fs->stages.push_back(
              std::make_unique<internal::ReduceStage>(arena_gauge));
        }
      }
      if (gnode.kind == FlowletKind::kPartialReduce) {
        fs->table.reset(make_table(config_.partial_reduce_stripes,
                                   config_.shared_update_rate_per_stripe,
                                   arena_gauge));
        // Cached once so the batch fold hot path pays nothing for the
        // event-time windowing hooks.
        fs->stream_windowed =
            static_cast<PartialReduceFlowlet*>(fs->instance.get())
                ->stream_windowed();
      }
      for (EdgeId eid : gnode.out_edges) {
        if (graph.edge(eid).options.combine) {
          fs->combine_tables.emplace(
              eid, std::unique_ptr<internal::PartialTable>(make_table(
                       config_.partial_reduce_stripes,
                       config_.shared_update_rate_per_stripe, arena_gauge)));
        }
      }
      job->flowlets.push_back(std::move(fs));
    }
    jobs[n] = std::move(job);
    runtimes_[n]->attach_job(jobs[n]);
  }

  // Split assignment: every split runs on its preferred node (HAMR reads
  // from local disks, paper §5.1).
  std::vector<std::map<FlowletId, std::vector<InputSplit>>> assignment(num_nodes);
  for (const auto& [loader, splits] : inputs.splits) {
    if (loader >= graph.num_flowlets() ||
        graph.flowlet(loader).kind != FlowletKind::kLoader) {
      throw std::invalid_argument("inputs reference non-loader flowlet " +
                                  std::to_string(loader));
    }
    for (const InputSplit& split : splits) {
      assignment[split.preferred_node % num_nodes][loader].push_back(split);
    }
  }
  // Loaders with no splits at all on a node must still be tracked; the
  // activate path completes them immediately (splits_outstanding == 0).

  Stopwatch watch;

  // Phase 2: activate.
  for (uint32_t n = 0; n < num_nodes; ++n) {
    runtimes_[n]->activate_job(assignment[n]);
  }

  // Streaming: punctuate windows until the duration elapses, then ask the
  // sources to stop; completion cascades exactly as in batch.
  if (stream_duration > Duration::zero()) {
    const TimePoint deadline = now() + stream_duration;
    while (now() < deadline && !cancel_requested() &&
           !drain_requested_.load(std::memory_order_relaxed)) {
      const Duration nap = window_every > Duration::zero()
                               ? std::min(window_every, deadline - now())
                               : deadline - now();
      {
        // Interruptible nap: request_cancel() / request_stream_drain()
        // notify done_cv_ so a cancelled or drained streaming job stops its
        // sources promptly instead of sleeping out the remaining duration.
        std::unique_lock<std::mutex> lock(done_mu_);
        done_cv_.wait_for(lock, nap, [&] {
          return cancel_requested_.load(std::memory_order_relaxed) ||
                 drain_requested_.load(std::memory_order_relaxed);
        });
      }
      if (now() >= deadline || cancel_requested() ||
          drain_requested_.load(std::memory_order_relaxed)) {
        break;
      }
      if (window_every > Duration::zero()) {
        for (uint32_t n = 0; n < num_nodes; ++n) {
          for (FlowletId f = 0; f < graph.num_flowlets(); ++f) {
            if (graph.flowlet(f).kind != FlowletKind::kPartialReduce) continue;
            NodeRuntime* rt = runtimes_[n].get();
            rt->submit_task([rt, f] { rt->flush_window(f); });
          }
        }
      }
    }
    for (auto& rt : runtimes_) rt->request_stream_stop();
  }

  // Wait for every node to report all flowlets complete. (job_running_ stays
  // true until the RunGuard releases it on return.)
  {
    std::unique_lock<std::mutex> lock(done_mu_);
    done_cv_.wait(lock, [&] { return nodes_done_ == num_nodes; });
  }

  obs::MetricsSnapshot after;
  for (uint32_t n = 0; n < num_nodes; ++n) {
    after.merge_from(obs::MetricsSnapshot::capture(cluster_.node(n).metrics()));
  }

  JobResult result;
  result.cancelled = cancel_requested();
  result.wall_seconds = watch.elapsed_seconds();
  result.metrics = after.delta_since(before);
  const obs::MetricsSnapshot& m = result.metrics;
  result.records_emitted = m.counter("engine.records");
  result.bins_sent = m.counter("engine.bins");
  result.bin_bytes = m.counter("engine.bin_bytes");
  result.spill_bytes = m.counter("engine.spill_bytes");
  result.flow_control_stalls = m.counter("engine.stalls");
  result.flow_control_stall_seconds =
      static_cast<double>(m.counter("engine.stall_ns")) * 1e-9;
  result.task_retries = m.counter("engine.task_retries");
  result.spill_retries = m.counter("engine.spill_retries");
  result.frames_resent = m.counter("engine.resends");
  result.duplicate_frames = m.counter("engine.dup_frames");
  if (config_.fault_injector != nullptr) {
    result.faults_injected = config_.fault_injector->stats().total() - faults_before;
  }
  return result;
}

void Engine::request_cancel() {
  {
    std::lock_guard<std::mutex> lock(done_mu_);
    if (!job_running_) return;
    cancel_requested_.store(true, std::memory_order_relaxed);
  }
  // Streaming sources observe stream_stopping(); batch tasks check the
  // cancel flag at their next boundary.
  for (auto& rt : runtimes_) rt->request_stream_stop();
  done_cv_.notify_all();
}

bool Engine::request_stream_drain() {
  {
    std::lock_guard<std::mutex> lock(done_mu_);
    if (!job_running_) return false;
    drain_requested_.store(true, std::memory_order_relaxed);
  }
  // Unlike cancel, only the sources stop; all in-flight data still folds and
  // the completion cascade flushes every remaining window downstream.
  for (auto& rt : runtimes_) rt->request_stream_stop();
  done_cv_.notify_all();
  return true;
}

void Engine::node_job_done(uint32_t node) {
  (void)node;
  std::lock_guard<std::mutex> lock(done_mu_);
  ++nodes_done_;
  done_cv_.notify_all();
}

}  // namespace hamr::engine
