// JobService: the resident, multi-tenant serving layer above the engine.
//
// The paper's HAMR daemon is long-lived, but a single Engine still runs jobs
// one at a time. The service turns the cluster into a job server:
//
//   * Admission queue - bounded depth, per-tenant priority ordering, explicit
//     load shedding: a submit against a full queue returns a ticket already
//     in kRejected, it never blocks the caller (or the RPC delivery thread).
//   * Executor lanes - a fixed pool of Engine instances over the *shared*
//     cluster. Lane L claims its own shuffle message-type quad
//     (net::msg_type::engine_*(L)), its own kv RPC id range, and lane-scoped
//     spill paths, so independent jobs run concurrently on the same nodes
//     without crossing wires. Worker threads and (optionally) the reduce
//     memory budget are carved across lanes.
//   * Weighted fair share - stride scheduling across tenants: dispatching a
//     tenant's job advances its pass by 1/weight, and the lowest-pass tenant
//     with queued work runs next, so one tenant cannot starve others.
//   * Lifecycle - Queued -> Running -> Done/Failed/Cancelled/Rejected/
//     DeadlineExceeded, surfaced through a JobTicket; cancel works on queued
//     and running jobs (plumbed into Engine::request_cancel), and a deadline
//     reaper aborts overrunning jobs cleanly.
//
// The RPC front-end lives in service/job_rpc.h.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster.h"
#include "common/clock.h"
#include "common/metrics.h"
#include "engine/engine.h"
#include "obs/event_log.h"

namespace hamr::cache {
class Dataset;
class DatasetCache;
class DatasetWriter;
}  // namespace hamr::cache

namespace hamr::service {

// Wire-stable values (the RPC front-end ships them as a single byte).
enum class JobStatus : uint8_t {
  kQueued = 0,
  kRunning = 1,
  kDone = 2,
  kFailed = 3,
  kCancelled = 4,
  kRejected = 5,
  kDeadlineExceeded = 6,
};

const char* to_string(JobStatus status);

inline bool is_terminal(JobStatus s) {
  return s != JobStatus::kQueued && s != JobStatus::kRunning;
}

// What the client asks for. `job_type`/`args` select a registered JobBuilder
// (the RPC submit path); direct submit(spec, work) callers may leave them
// empty.
struct JobSpec {
  std::string tenant = "default";
  int32_t priority = 0;                    // higher dispatches earlier in-tenant
  Duration deadline = Duration::zero();    // from submit time; zero = none
  std::string job_type;
  std::string args;
};

// The executable payload of a job. `collect` (optional) runs on the lane
// thread after a successful run and produces the byte payload clients fetch
// through the ticket / RPC result verb - typically a serialized read of the
// lane engine's kv store.
struct JobWork {
  engine::FlowletGraph graph;
  engine::JobInputs inputs;
  // > 0 = streaming job; windows close on event time (no wall-clock flush).
  Duration stream_duration = Duration::zero();
  std::function<std::string(engine::Engine&)> collect;

  // Cross-job dataset cache hooks (src/cache/, DESIGN.md §15). `pins` are
  // read leases the service holds from dispatch until the job is terminal,
  // so a dataset the graph scans cannot be evicted mid-run. `publish` are
  // writers the graph appends to (via EdgeOptions taps or flowlet code):
  // the service commits them when the job succeeds; on failure, cancel, or
  // deadline it aborts them AND invalidates the name's resident generation,
  // because a failed writer may have been re-deriving state whose upstream
  // already changed (readers of a stale chain must fall back cold).
  std::vector<std::shared_ptr<const cache::Dataset>> pins;
  std::vector<std::shared_ptr<cache::DatasetWriter>> publish;
};

using JobBuilder = std::function<JobWork(const JobSpec&)>;

// Client-side view of one submitted job. Thread-safe; shared between the
// caller, the service, and the RPC server.
class JobTicket {
 public:
  uint64_t id() const { return id_; }
  const JobSpec& spec() const { return spec_; }

  JobStatus status() const {
    std::lock_guard<std::mutex> lock(mu_);
    return status_;
  }

  // Blocks until the job reaches a terminal status (or the timeout elapses);
  // returns the status either way.
  JobStatus wait(Duration timeout = std::chrono::seconds(60)) const {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait_for(lock, timeout, [&] { return is_terminal(status_); });
    return status_;
  }

  // Valid once terminal. For kFailed, error() holds the exception text; for
  // kDone, payload() holds the collect() bytes (empty when no collector).
  engine::JobResult result() const {
    std::lock_guard<std::mutex> lock(mu_);
    return result_;
  }
  std::string payload() const {
    std::lock_guard<std::mutex> lock(mu_);
    return payload_;
  }
  std::string error() const {
    std::lock_guard<std::mutex> lock(mu_);
    return error_;
  }

  TimePoint submitted_at() const { return submitted_; }
  // Zero until dispatched.
  Duration queue_wait() const {
    std::lock_guard<std::mutex> lock(mu_);
    return queue_wait_;
  }

 private:
  friend class JobService;

  uint64_t id_ = 0;
  JobSpec spec_;
  TimePoint submitted_{};
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  JobStatus status_ = JobStatus::kQueued;
  Duration queue_wait_ = Duration::zero();
  engine::JobResult result_;
  std::string payload_;
  std::string error_;
};

struct ServiceConfig {
  // Executor lanes (concurrent jobs). Must be in [1, kMaxEngineLanes].
  uint32_t lanes = 2;

  // Admission bound: jobs waiting for a lane (running jobs do not count).
  // Submits beyond it are shed with kRejected.
  size_t max_queued = 16;

  // Engine template; each lane gets a copy with `lane`, `worker_threads`,
  // and (optionally) `memory_budget_bytes` overridden.
  engine::EngineConfig engine;

  // Divide the template's memory budget by the lane count, so the lanes
  // together stay inside one node budget.
  bool carve_memory_budget = true;

  // Worker threads per lane per node; 0 = threads_per_node / lanes (min 1).
  uint32_t worker_threads_per_lane = 0;

  // Fair-share weight per tenant (default 1.0). A weight-2 tenant receives
  // twice the dispatch share of a weight-1 tenant under contention.
  std::map<std::string, double> tenant_weights;

  // Optional lifecycle log (not owned). Job events are recorded as node 0,
  // flowlet = job id; the engine template's event_log defaults to this too.
  obs::EventLog* event_log = nullptr;

  // Optional cross-job dataset cache (not owned; shared by all lanes). Needed
  // for the writer-failure invalidation path; jobs that only pin may leave it
  // null (pins release through their own handles).
  cache::DatasetCache* dataset_cache = nullptr;
};

class JobService {
 public:
  JobService(cluster::Cluster& cluster, ServiceConfig config = {});
  ~JobService();

  JobService(const JobService&) = delete;
  JobService& operator=(const JobService&) = delete;

  // Non-blocking admission: returns a ticket immediately, in kQueued or -
  // when the queue is full or the service is shutting down - kRejected.
  std::shared_ptr<JobTicket> submit(const JobSpec& spec, JobWork work);

  // RPC-path submit: builds the work from the registered builder for
  // spec.job_type. Throws std::invalid_argument on an unknown type (or
  // whatever the builder throws).
  std::shared_ptr<JobTicket> submit(const JobSpec& spec);

  void register_builder(std::string job_type, JobBuilder builder);

  // Cancels a queued or running job. Returns false when unknown or already
  // terminal. Running jobs abort at their next task boundary.
  bool cancel(uint64_t job_id);

  // Gracefully drains a streaming job: its sources stop, buffered windows
  // flush, and the job completes as kDone with its collect() payload (a
  // queued streaming job runs with a token duration and drains immediately).
  // Returns false when unknown or already terminal; harmless for batch jobs
  // (they run to completion anyway).
  bool drain(uint64_t job_id);

  // Ticket lookup (RPC poll/result path); null when unknown.
  std::shared_ptr<JobTicket> ticket(uint64_t job_id) const;

  // Cancels queued and running jobs, then joins the lane and reaper
  // threads. Idempotent; the destructor calls it.
  void shutdown();

  // Service-scoped registry: service.jobs_* gauges/counters and the
  // service.queue_wait_us histogram (merged into each JobResult::metrics).
  Metrics& metrics() { return metrics_; }

  uint32_t lanes() const { return static_cast<uint32_t>(lanes_.size()); }
  // The lane's resident engine (tests and collect() callbacks read its kv).
  engine::Engine& lane_engine(uint32_t lane) { return *lanes_.at(lane); }

 private:
  struct Job {
    std::shared_ptr<JobTicket> ticket;
    JobWork work;
    std::atomic<bool> cancel_requested{false};
    std::atomic<bool> drain_requested{false};
    std::atomic<bool> deadline_hit{false};
    // Lane the job was dispatched to; -1 while queued.
    std::atomic<int32_t> lane{-1};
  };

  void lane_loop(uint32_t lane);
  void deadline_loop();
  void run_job(uint32_t lane, const std::shared_ptr<Job>& job);
  void finalize(const std::shared_ptr<Job>& job, JobStatus status,
                std::string error, engine::JobResult result,
                std::string payload);
  std::shared_ptr<Job> pop_next_locked();
  size_t queued_total_locked() const;
  bool remove_from_queue_locked(const std::shared_ptr<Job>& job);
  double weight_of(const std::string& tenant) const;
  void log_job_event(obs::EventKind kind, uint64_t job_id, int64_t aux = -1);

  cluster::Cluster& cluster_;
  ServiceConfig config_;
  Metrics metrics_;
  std::vector<std::unique_ptr<engine::Engine>> lanes_;

  Gauge* jobs_queued_g_;
  Gauge* jobs_running_g_;
  Counter* jobs_submitted_c_;
  Counter* jobs_rejected_c_;
  Counter* jobs_cancelled_c_;
  Counter* jobs_done_c_;
  Counter* jobs_failed_c_;
  Counter* jobs_deadline_c_;
  Histogram* queue_wait_us_h_;

  mutable std::mutex mu_;  // queues, passes, jobs_, deadlines_, stopping_
  std::condition_variable work_cv_;      // lanes wait here
  std::condition_variable deadline_cv_;  // reaper waits here
  bool stopping_ = false;

  // Per-tenant FIFO queues, priority-ordered on insert.
  std::map<std::string, std::deque<std::shared_ptr<Job>>> queues_;
  // Stride-scheduling pass values; global_pass_ tracks the last dispatched
  // pass so an idle tenant re-enters at the current line, not with hoarded
  // credit.
  std::map<std::string, double> passes_;
  double global_pass_ = 0;

  // What each lane is running right now (null = idle). Transitions happen
  // under mu_, so cancel/deadline paths can verify the lane still runs the
  // job they target before firing Engine::request_cancel at it.
  std::vector<std::shared_ptr<Job>> lane_jobs_;

  std::map<uint64_t, std::shared_ptr<Job>> jobs_;
  std::multimap<TimePoint, std::weak_ptr<Job>> deadlines_;
  std::map<std::string, JobBuilder> builders_;  // guarded by builders_mu_
  mutable std::mutex builders_mu_;

  std::atomic<uint64_t> next_id_{1};
  std::vector<std::thread> lane_threads_;
  std::thread reaper_;
};

}  // namespace hamr::service
