#include "fault/fault.h"

#include "common/hash.h"
#include "common/random.h"
#include "net/message.h"  // header-only message-type ids; no link dependency

namespace hamr::fault {

namespace {

// Distinct stream classes so the Nth message on a link, the Nth write on a
// node, and the Nth task of a flowlet draw from independent hash streams.
constexpr uint64_t kClassMessage = 0x6d65;
constexpr uint64_t kClassDiskWrite = 0x6477;
constexpr uint64_t kClassTask = 0x7461;

uint64_t stream_tag(uint64_t klass, uint64_t a, uint64_t b) {
  uint64_t s = klass * 0x9e3779b97f4a7c15ULL;
  s ^= a + 0xbf58476d1ce4e5b9ULL + (s << 6) + (s >> 2);
  s ^= b + 0x94d049bb133111ebULL + (s << 6) + (s >> 2);
  return s;
}

}  // namespace

FaultPlan FaultPlan::chaos(uint64_t seed, double msg_rate, double crash_rate) {
  FaultPlan plan;
  plan.seed = seed;
  plan.default_link.drop = msg_rate / 2;
  plan.default_link.duplicate = msg_rate / 4;
  plan.default_link.delay = msg_rate / 4;
  plan.default_link.delay_by = millis(2);
  plan.task_crash_rate = crash_rate;
  return plan;
}

FaultInjector::FaultInjector(FaultPlan plan) : plan_(std::move(plan)) {
  if (plan_.faultable_types.empty()) {
    // Frames and acks of every executor lane: an injector shared by several
    // lane engines (the job service's chaos mode) faults them all alike.
    for (uint32_t lane = 0; lane < net::msg_type::kMaxEngineLanes; ++lane) {
      plan_.faultable_types.insert(net::msg_type::engine_frame(lane));
      plan_.faultable_types.insert(net::msg_type::engine_ack(lane));
    }
  }
}

double FaultInjector::uniform(uint64_t tag, uint64_t n) const {
  // splitmix64 over (seed, tag, n): a stateless counter-indexed stream, so
  // per-stream sequences are reproducible under any thread interleaving.
  uint64_t s = plan_.seed ^ stream_tag(tag, n, 0x5fa7);
  const uint64_t z = splitmix64(s);
  return static_cast<double>(z >> 11) * 0x1.0p-53;
}

uint64_t FaultInjector::next_event(uint64_t tag) {
  std::lock_guard<std::mutex> lock(mu_);
  return event_counts_[tag]++;
}

MessageFaultResult FaultInjector::on_message(uint32_t src, uint32_t dst,
                                             uint32_t type) {
  if (src == dst) return {};
  if (plan_.faultable_types.count(type) == 0) return {};
  const LinkFaults& link = plan_.link(src, dst);
  if (!link.any()) return {};

  const uint64_t tag = stream_tag(kClassMessage, src, dst);
  const double u = uniform(tag, next_event(tag));
  if (u < link.drop) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return {MessageFault::kDrop, Duration::zero()};
  }
  if (u < link.drop + link.duplicate) {
    duplicated_.fetch_add(1, std::memory_order_relaxed);
    return {MessageFault::kDuplicate, Duration::zero()};
  }
  if (u < link.drop + link.duplicate + link.delay) {
    delayed_.fetch_add(1, std::memory_order_relaxed);
    return {MessageFault::kDelay, link.delay_by};
  }
  return {};
}

bool FaultInjector::on_disk_write(uint32_t node) {
  if (plan_.disk_write_error_rate <= 0) return false;
  const uint64_t tag = stream_tag(kClassDiskWrite, node, 0);
  if (uniform(tag, next_event(tag)) < plan_.disk_write_error_rate) {
    disk_errors_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  return false;
}

bool FaultInjector::on_task_start(uint32_t node, std::string_view flowlet) {
  const uint64_t tag = stream_tag(kClassTask, node, hash_bytes(flowlet));
  bool crash_point_applies = false;
  for (const CrashPoint& cp : plan_.crash_points) {
    if (cp.node == node && cp.flowlet == flowlet) {
      crash_point_applies = true;
      break;
    }
  }
  if (plan_.task_crash_rate <= 0 && !crash_point_applies) return false;

  const uint64_t n = next_event(tag);
  for (const CrashPoint& cp : plan_.crash_points) {
    if (cp.node == node && cp.flowlet == flowlet && n < cp.times) {
      crashes_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
  }
  if (plan_.task_crash_rate > 0 &&
      uniform(tag, n) < plan_.task_crash_rate) {
    crashes_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  return false;
}

FaultInjector::Stats FaultInjector::stats() const {
  Stats s;
  s.messages_dropped = dropped_.load(std::memory_order_relaxed);
  s.messages_duplicated = duplicated_.load(std::memory_order_relaxed);
  s.messages_delayed = delayed_.load(std::memory_order_relaxed);
  s.disk_write_errors = disk_errors_.load(std::memory_order_relaxed);
  s.task_crashes = crashes_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace hamr::fault
