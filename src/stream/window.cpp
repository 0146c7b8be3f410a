#include "stream/window.h"

namespace hamr::stream {

namespace {

// Open-window bytes folded on this thread and not yet added to
// StreamStats::window_bytes. Every worker thread of a lane shares that one
// counter, so the folding thread publishes one delta per bin (from
// take_opened_windows, which the runtime calls after the bin's folds and
// before the bin counts as done) instead of one atomic add per event.
struct PendingWindowBytes {
  std::shared_ptr<StreamStats> stats;  // keeps the owed counter alive
  int64_t delta = 0;

  void publish() {
    if (delta != 0) stats->window_bytes.fetch_add(delta, std::memory_order_relaxed);
    delta = 0;
  }
};

thread_local PendingWindowBytes pending_window_bytes;

}  // namespace

void EventWindowFlowlet::fold(std::string_view key, std::string_view value,
                              std::string& acc) {
  const bool fresh = acc.empty();
  const size_t before = acc.size();
  fold_(window_key_user(key), value, acc);
  if (options_.stats != nullptr) {
    PendingWindowBytes& pending = pending_window_bytes;
    if (pending.stats != options_.stats) {
      pending.publish();  // another stream's debt, left by a failed bin
      pending.stats = options_.stats;
    }
    pending.delta += static_cast<int64_t>(acc.size()) -
                     static_cast<int64_t>(before) +
                     (fresh ? static_cast<int64_t>(key.size()) : 0);
  }
  if (fresh) {
    const int64_t end = window_key_end(key);
    if (end != INT64_MIN) {
      std::lock_guard<std::mutex> lock(mu_);
      if (open_ends_.insert(end).second) opened_.push_back(end);
    }
  }
}

void EventWindowFlowlet::emit_result(std::string_view key,
                                     std::string_view acc,
                                     engine::Context& ctx) {
  StreamStats* stats = options_.stats.get();
  if (stats != nullptr) {
    stats->results_emitted.fetch_add(1, std::memory_order_relaxed);
    stats->window_bytes.fetch_sub(
        static_cast<int64_t>(acc.size() + key.size()),
        std::memory_order_relaxed);
  }
  const int64_t end = window_key_end(key);
  if (end != INT64_MIN) {
    std::lock_guard<std::mutex> lock(mu_);
    if (open_ends_.erase(end) != 0 && stats != nullptr) {
      stats->windows_emitted.fetch_add(1, std::memory_order_relaxed);
    }
  }
  engine::PartialReduceFlowlet::emit_result(key, acc, ctx);
}

int64_t EventWindowFlowlet::on_punctuation(std::string_view key,
                                           std::string_view value) {
  (void)key;
  uint32_t origin = 0;
  int64_t wm = INT64_MIN;
  if (!decode_punctuation(value, &origin, &wm)) return INT64_MIN;
  std::lock_guard<std::mutex> lock(mu_);
  int64_t& have = origin_watermarks_[origin];
  if (wm > have) have = wm;
  if (origin_watermarks_.size() <
      static_cast<size_t>(options_.expected_origins)) {
    return INT64_MIN;  // some origin has not reported yet
  }
  int64_t aligned = INT64_MAX;
  for (const auto& [o, w] : origin_watermarks_) {
    (void)o;
    if (w < aligned) aligned = w;
  }
  if (aligned <= aligned_) return INT64_MIN;
  aligned_ = aligned;
  return aligned;
}

void EventWindowFlowlet::take_opened_windows(std::vector<int64_t>* out) {
  if (options_.stats != nullptr && pending_window_bytes.stats == options_.stats) {
    pending_window_bytes.publish();
  }
  std::lock_guard<std::mutex> lock(mu_);
  out->insert(out->end(), opened_.begin(), opened_.end());
  opened_.clear();
}

void WindowFileSink::process(const engine::KvPair& record,
                             engine::Context& ctx) {
  (void)ctx;
  std::lock_guard<std::mutex> lock(mu_);
  std::string& slot = out_[std::string(record.key)];
  if (!slot.empty()) slot += ';';  // duplicate emission: visible in output
  slot.append(record.value);
}

void WindowFileSink::finish(engine::Context& ctx) {
  std::string data;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [key, value] : out_) {
      data.append(key);
      data.push_back('\t');
      data.append(value);
      data.push_back('\n');
    }
  }
  ctx.local_store().write_file(node_path(dir_, ctx.node()), data);
}

std::string WindowFileSink::read_all(cluster::Cluster& cluster,
                                     const std::string& dir) {
  std::string all;
  for (uint32_t n = 0; n < cluster.size(); ++n) {
    auto data = cluster.node(n).store().read_file(node_path(dir, n));
    if (data.ok()) all.append(data.value());
  }
  return all;
}

}  // namespace hamr::stream
