#include "service/job_service.h"

#include <algorithm>
#include <stdexcept>
#include <thread>

#include "cache/dataset_cache.h"
#include "common/logging.h"
#include "net/message.h"
#include "obs/metrics_snapshot.h"

namespace hamr::service {

const char* to_string(JobStatus status) {
  switch (status) {
    case JobStatus::kQueued:
      return "queued";
    case JobStatus::kRunning:
      return "running";
    case JobStatus::kDone:
      return "done";
    case JobStatus::kFailed:
      return "failed";
    case JobStatus::kCancelled:
      return "cancelled";
    case JobStatus::kRejected:
      return "rejected";
    case JobStatus::kDeadlineExceeded:
      return "deadline_exceeded";
  }
  return "unknown";
}

JobService::JobService(cluster::Cluster& cluster, ServiceConfig config)
    : cluster_(cluster), config_(std::move(config)) {
  if (config_.lanes == 0 || config_.lanes > net::msg_type::kMaxEngineLanes) {
    throw std::invalid_argument("service lanes must be in [1, " +
                                std::to_string(net::msg_type::kMaxEngineLanes) +
                                "]");
  }
  jobs_queued_g_ = metrics_.gauge("service.jobs_queued");
  jobs_running_g_ = metrics_.gauge("service.jobs_running");
  jobs_submitted_c_ = metrics_.counter("service.jobs_submitted");
  jobs_rejected_c_ = metrics_.counter("service.jobs_rejected");
  jobs_cancelled_c_ = metrics_.counter("service.jobs_cancelled");
  jobs_done_c_ = metrics_.counter("service.jobs_done");
  jobs_failed_c_ = metrics_.counter("service.jobs_failed");
  jobs_deadline_c_ = metrics_.counter("service.jobs_deadline_exceeded");
  queue_wait_us_h_ = metrics_.histogram("service.queue_wait_us");

  engine::EngineConfig tmpl = config_.engine;
  if (tmpl.event_log == nullptr) tmpl.event_log = config_.event_log;
  const uint32_t tpn = cluster_.config().threads_per_node;
  for (uint32_t l = 0; l < config_.lanes; ++l) {
    engine::EngineConfig ec = tmpl;
    ec.lane = l;
    ec.worker_threads = config_.worker_threads_per_lane != 0
                            ? config_.worker_threads_per_lane
                            : std::max(1u, tpn / config_.lanes);
    if (config_.carve_memory_budget) {
      ec.memory_budget_bytes =
          std::max<uint64_t>(tmpl.memory_budget_bytes / config_.lanes,
                             1ull * 1024 * 1024);
    }
    lanes_.push_back(std::make_unique<engine::Engine>(cluster_, ec));
  }
  lane_jobs_.resize(config_.lanes);

  lane_threads_.reserve(config_.lanes);
  for (uint32_t l = 0; l < config_.lanes; ++l) {
    lane_threads_.emplace_back([this, l] { lane_loop(l); });
  }
  reaper_ = std::thread([this] { deadline_loop(); });
}

JobService::~JobService() { shutdown(); }

double JobService::weight_of(const std::string& tenant) const {
  auto it = config_.tenant_weights.find(tenant);
  if (it == config_.tenant_weights.end() || it->second <= 0) return 1.0;
  return it->second;
}

void JobService::log_job_event(obs::EventKind kind, uint64_t job_id,
                               int64_t aux) {
  if (config_.event_log != nullptr) {
    config_.event_log->record(0, kind, static_cast<int64_t>(job_id), aux);
  }
}

size_t JobService::queued_total_locked() const {
  size_t n = 0;
  for (const auto& [tenant, q] : queues_) n += q.size();
  return n;
}

bool JobService::remove_from_queue_locked(const std::shared_ptr<Job>& job) {
  auto qit = queues_.find(job->ticket->spec().tenant);
  if (qit == queues_.end()) return false;
  auto& q = qit->second;
  auto it = std::find(q.begin(), q.end(), job);
  if (it == q.end()) return false;
  q.erase(it);
  return true;
}

std::shared_ptr<JobService::Job> JobService::pop_next_locked() {
  // Stride scheduling: the nonempty tenant with the lowest pass runs next;
  // its pass advances by 1/weight, so a weight-2 tenant is chosen twice as
  // often under contention. Ties break by tenant name for determinism.
  const std::string* best = nullptr;
  double best_pass = 0;
  for (const auto& [tenant, q] : queues_) {
    if (q.empty()) continue;
    const double pass = passes_[tenant];
    if (best == nullptr || pass < best_pass) {
      best = &tenant;
      best_pass = pass;
    }
  }
  if (best == nullptr) return nullptr;
  auto& q = queues_[*best];
  std::shared_ptr<Job> job = q.front();
  q.pop_front();
  global_pass_ = best_pass;
  passes_[*best] = best_pass + 1.0 / weight_of(*best);
  return job;
}

std::shared_ptr<JobTicket> JobService::submit(const JobSpec& spec,
                                              JobWork work) {
  auto job = std::make_shared<Job>();
  job->ticket = std::make_shared<JobTicket>();
  JobTicket& t = *job->ticket;
  t.id_ = next_id_.fetch_add(1);
  t.spec_ = spec;
  t.submitted_ = now();
  job->work = std::move(work);
  jobs_submitted_c_->inc();

  bool queued = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    jobs_[t.id_] = job;
    if (stopping_ || queued_total_locked() >= config_.max_queued) {
      // Load shedding: never block the submitter (this may be an RPC
      // delivery thread) - reject immediately and explicitly.
      finalize(job, JobStatus::kRejected,
               stopping_ ? "service shutting down" : "admission queue full",
               {}, {});
      return job->ticket;
    }
    log_job_event(obs::EventKind::kJobSubmitted, t.id_, spec.priority);
    auto& q = queues_[spec.tenant];
    if (q.empty()) {
      // Re-entering tenant joins at the current line: no hoarded credit
      // from idle time, no penalty from a stale high pass either.
      passes_[spec.tenant] = std::max(passes_[spec.tenant], global_pass_);
    }
    // Priority-ordered stable insert: higher priority dispatches first,
    // FIFO within a priority level.
    auto pos = q.end();
    for (auto it = q.begin(); it != q.end(); ++it) {
      if ((*it)->ticket->spec().priority < spec.priority) {
        pos = it;
        break;
      }
    }
    q.insert(pos, job);
    jobs_queued_g_->inc();
    queued = true;
    if (spec.deadline > Duration::zero()) {
      deadlines_.emplace(t.submitted_ + spec.deadline, job);
      deadline_cv_.notify_all();
    }
  }
  if (queued) work_cv_.notify_one();
  return job->ticket;
}

std::shared_ptr<JobTicket> JobService::submit(const JobSpec& spec) {
  JobBuilder builder;
  {
    std::lock_guard<std::mutex> lock(builders_mu_);
    auto it = builders_.find(spec.job_type);
    if (it == builders_.end()) {
      throw std::invalid_argument("unknown job type '" + spec.job_type + "'");
    }
    builder = it->second;
  }
  return submit(spec, builder(spec));
}

void JobService::register_builder(std::string job_type, JobBuilder builder) {
  std::lock_guard<std::mutex> lock(builders_mu_);
  builders_[std::move(job_type)] = std::move(builder);
}

std::shared_ptr<JobTicket> JobService::ticket(uint64_t job_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = jobs_.find(job_id);
  return it == jobs_.end() ? nullptr : it->second->ticket;
}

bool JobService::cancel(uint64_t job_id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = jobs_.find(job_id);
  if (it == jobs_.end()) return false;
  const std::shared_ptr<Job>& job = it->second;
  if (is_terminal(job->ticket->status())) return false;
  job->cancel_requested.store(true);
  if (remove_from_queue_locked(job)) {
    jobs_queued_g_->dec();
    finalize(job, JobStatus::kCancelled, "cancelled while queued", {}, {});
    return true;
  }
  // Dispatched (or mid-dispatch: run_job re-checks the flag before running).
  // lane_jobs_ transitions happen under mu_, so the lane cannot have moved
  // on to a different job between this check and the engine cancel.
  const int32_t lane = job->lane.load();
  if (lane >= 0 && lane_jobs_[lane] == job) {
    lanes_[lane]->request_cancel();
  }
  return true;
}

bool JobService::drain(uint64_t job_id) {
  std::shared_ptr<Job> job;
  int32_t lane = -1;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = jobs_.find(job_id);
    if (it == jobs_.end()) return false;
    job = it->second;
    if (is_terminal(job->ticket->status())) return false;
    job->drain_requested.store(true);
    // Queued: leave it queued; run_job sees the flag and runs the stream
    // with a token duration (start, flush, complete).
    lane = job->lane.load();
    if (lane < 0 || lane_jobs_[lane] != job) return true;
  }
  // Dispatched: hand the drain to the lane's engine. Between run_job's
  // drain-flag check and the engine claiming the job there is a gap where
  // request_stream_drain lands on an idle engine and is lost, so retry until
  // it sticks or the job reaches a terminal state on its own.
  while (!is_terminal(job->ticket->status())) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (lane_jobs_[lane] != job) break;  // lane moved on: job is winding up
      if (lanes_[lane]->request_stream_drain()) return true;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return true;
}

void JobService::lane_loop(uint32_t lane) {
  for (;;) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      lane_jobs_[lane].reset();
      work_cv_.wait(lock,
                    [&] { return stopping_ || queued_total_locked() > 0; });
      if (stopping_) return;
      job = pop_next_locked();
      if (!job) continue;
      jobs_queued_g_->dec();
      job->lane.store(static_cast<int32_t>(lane));
      lane_jobs_[lane] = job;
    }
    run_job(lane, job);
  }
}

void JobService::run_job(uint32_t lane, const std::shared_ptr<Job>& job) {
  JobTicket& t = *job->ticket;
  const TimePoint started = now();
  const Duration waited = started - t.submitted_;
  queue_wait_us_h_->observe(static_cast<uint64_t>(waited.count() / 1000));
  {
    std::lock_guard<std::mutex> lock(t.mu_);
    t.queue_wait_ = waited;
  }
  // A cancel or deadline that raced the dispatch: honor it without running.
  if (job->deadline_hit.load()) {
    finalize(job, JobStatus::kDeadlineExceeded,
             "deadline exceeded before dispatch", {}, {});
    return;
  }
  if (job->cancel_requested.load()) {
    finalize(job, JobStatus::kCancelled, "cancelled before dispatch", {}, {});
    return;
  }
  {
    std::lock_guard<std::mutex> lock(t.mu_);
    t.status_ = JobStatus::kRunning;
  }
  t.cv_.notify_all();
  jobs_running_g_->inc();
  log_job_event(obs::EventKind::kJobDispatched, t.id_,
                static_cast<int64_t>(lane));

  engine::Engine& eng = *lanes_[lane];
  engine::JobResult result;
  std::string payload;
  std::string error;
  bool failed = false;
  // A drain that landed while the job was still queued: run the stream with
  // a token duration so it starts, flushes, and completes immediately. (A
  // drain arriving in the microscopic gap between this check and the engine
  // claiming the job just waits out the clamped duration.)
  Duration stream_duration = job->work.stream_duration;
  if (job->drain_requested.load() && stream_duration > Duration::zero()) {
    stream_duration = std::chrono::milliseconds(1);
  }
  try {
    result = stream_duration > Duration::zero()
                 ? eng.run_streaming(job->work.graph, job->work.inputs,
                                     stream_duration, Duration::zero())
                 : eng.run(job->work.graph, job->work.inputs);
    if (!result.cancelled && job->work.collect) {
      payload = job->work.collect(eng);
    }
  } catch (const std::exception& e) {
    failed = true;
    error = e.what();
  }
  jobs_running_g_->dec();

  JobStatus status;
  if (failed) {
    status = JobStatus::kFailed;
  } else if (job->deadline_hit.load()) {
    status = JobStatus::kDeadlineExceeded;
    error = "deadline exceeded";
  } else if (result.cancelled || job->cancel_requested.load()) {
    status = JobStatus::kCancelled;
    error = "cancelled";
  } else {
    status = JobStatus::kDone;
  }
  finalize(job, status, std::move(error), std::move(result),
           std::move(payload));
}

void JobService::finalize(const std::shared_ptr<Job>& job, JobStatus status,
                          std::string error, engine::JobResult result,
                          std::string payload) {
  JobTicket& t = *job->ticket;
  switch (status) {
    case JobStatus::kDone:
      jobs_done_c_->inc();
      log_job_event(obs::EventKind::kJobDone, t.id_, 1);
      break;
    case JobStatus::kFailed:
      jobs_failed_c_->inc();
      log_job_event(obs::EventKind::kJobDone, t.id_, 0);
      break;
    case JobStatus::kCancelled:
      jobs_cancelled_c_->inc();
      log_job_event(obs::EventKind::kJobCancelled, t.id_);
      break;
    case JobStatus::kRejected:
      jobs_rejected_c_->inc();
      log_job_event(obs::EventKind::kJobRejected, t.id_);
      break;
    case JobStatus::kDeadlineExceeded:
      jobs_deadline_c_->inc();
      log_job_event(obs::EventKind::kJobDeadline, t.id_);
      break;
    default:
      break;
  }
  // Resolve cache publications at the terminal transition: success commits
  // the writer's generation; every other outcome aborts it AND invalidates
  // the name's resident generation, so readers chained on this job's output
  // fall back to a cold load instead of consuming a snapshot the failed
  // writer was supposed to replace (DESIGN.md §15).
  for (auto& writer : job->work.publish) {
    if (!writer) continue;
    if (status == JobStatus::kDone) {
      writer->commit();
    } else {
      writer->abort();
      if (config_.dataset_cache != nullptr) {
        config_.dataset_cache->invalidate(writer->name());
      }
    }
  }
  job->work.publish.clear();
  // Cross-job read leases end with the job; eviction may reclaim now.
  job->work.pins.clear();
  // Service-scoped observability rides along in the job's metric snapshot
  // (names are disjoint from the engine.* counters already in there).
  result.metrics.merge_from(obs::MetricsSnapshot::capture(metrics_));
  {
    std::lock_guard<std::mutex> lock(t.mu_);
    t.status_ = status;
    t.error_ = std::move(error);
    t.result_ = std::move(result);
    t.payload_ = std::move(payload);
  }
  t.cv_.notify_all();
}

void JobService::deadline_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (stopping_) return;
    if (deadlines_.empty()) {
      deadline_cv_.wait(lock);
      continue;
    }
    auto it = deadlines_.begin();
    const TimePoint due = it->first;
    if (now() < due) {
      deadline_cv_.wait_until(lock, due);
      continue;
    }
    std::shared_ptr<Job> job = it->second.lock();
    deadlines_.erase(it);
    if (!job) continue;
    if (is_terminal(job->ticket->status())) continue;
    job->deadline_hit.store(true);
    if (remove_from_queue_locked(job)) {
      jobs_queued_g_->dec();
      finalize(job, JobStatus::kDeadlineExceeded,
               "deadline exceeded before dispatch", {}, {});
      continue;
    }
    const int32_t lane = job->lane.load();
    if (lane >= 0 && lane_jobs_[lane] == job) {
      lanes_[lane]->request_cancel();
    }
  }
}

void JobService::shutdown() {
  std::vector<std::shared_ptr<Job>> drained;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!stopping_) {
      stopping_ = true;
      for (auto& [tenant, q] : queues_) {
        for (auto& job : q) drained.push_back(job);
        q.clear();
      }
      jobs_queued_g_->set(0);
      for (auto& job : drained) {
        job->cancel_requested.store(true);
        finalize(job, JobStatus::kCancelled, "service shutdown", {}, {});
      }
      for (auto& eng : lanes_) eng->request_cancel();
    }
  }
  work_cv_.notify_all();
  deadline_cv_.notify_all();
  for (auto& th : lane_threads_) {
    if (th.joinable()) th.join();
  }
  if (reaper_.joinable()) reaper_.join();
}

}  // namespace hamr::service
