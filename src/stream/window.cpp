#include "stream/window.h"

#include <algorithm>

namespace hamr::stream {

namespace {

// Open-window bytes folded on this thread and not yet added to
// StreamStats::window_bytes. Every worker thread of a lane shares that one
// counter, so the folding thread publishes one delta per bin (from
// after_bin, which the runtime calls after the bin's folds and before the
// bin counts as done) instead of one atomic add per event.
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

void EventWindowFlowlet::start(engine::Context& ctx) {
  windows_emitted_c_ = ctx.metrics().counter("stream.windows_emitted");
  emit_latency_us_h_ = ctx.metrics().histogram("stream.window_emit_latency_us");
  watermark_lag_us_h_ = ctx.metrics().histogram("stream.watermark_lag_us");
}

void EventWindowFlowlet::fold(std::string_view key, std::string_view value,
                              std::string& acc) {
  if (is_punctuation_key(key)) {
    uint32_t origin = 0;
    int64_t wm = INT64_MIN;
    if (!decode_punctuation(value, &origin, &wm)) return;
    std::lock_guard<std::mutex> lock(mu_);
    auto [have, first] = origin_watermarks_.try_emplace(origin, wm);
    if (!first && wm > have->second) have->second = wm;
    if (origin_watermarks_.size() <
        static_cast<size_t>(options_.expected_origins)) {
      return;  // some origin has not reported yet
    }
    int64_t aligned = INT64_MAX;
    for (const auto& [o, w] : origin_watermarks_) {
      (void)o;
      if (w < aligned) aligned = w;
    }
    if (aligned > aligned_) aligned_ = aligned;
    return;
  }
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
      if (open_ends_.insert(end).second) {
        opened_.push_back(end);
        if (end > max_open_end_) max_open_end_ = end;
      }
    }
  }
}

void EventWindowFlowlet::emit_result(std::string_view key,
                                     std::string_view acc,
                                     engine::Context& ctx) {
  if (is_punctuation_key(key)) return;  // its empty accumulator is no result
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
    if (open_ends_.erase(end) != 0) {
      // Opens are logged under mu_, by after_bin or here: a window whose
      // opening bin has not reached after_bin yet logs its open first, so
      // no log shows an emit before the open.
      auto it = std::find(opened_.begin(), opened_.end(), end);
      if (it != opened_.end()) {
        opened_.erase(it);
        ctx.log_event(obs::EventKind::kWindowOpen, end);
      }
      ctx.log_event(obs::EventKind::kWindowEmit, end);
      windows_emitted_c_->inc();
      if (stats != nullptr) {
        stats->windows_emitted.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  engine::PartialReduceFlowlet::emit_result(key, acc, ctx);
}

int64_t EventWindowFlowlet::after_bin(engine::Context& ctx) {
  if (options_.stats != nullptr && pending_window_bytes.stats == options_.stats) {
    pending_window_bytes.publish();
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (const int64_t end : opened_) {
    ctx.log_event(obs::EventKind::kWindowOpen, end);
  }
  opened_.clear();
  if (aligned_ <= advanced_) return kNoArm;
  // Channel FIFO: every event this watermark covers was enqueued before the
  // punctuation that completed it, so arming now covers them all.
  advanced_ = aligned_;
  ctx.log_event(obs::EventKind::kWatermarkAdvance, advanced_);
  if (max_open_end_ != INT64_MIN && advanced_ != INT64_MAX) {
    const int64_t lag = max_open_end_ > advanced_ ? max_open_end_ - advanced_ : 0;
    watermark_lag_us_h_->observe(static_cast<uint64_t>(lag));
  }
  armed_at_.emplace_back(advanced_, now());
  return advanced_;
}

void EventWindowFlowlet::fire(int64_t watermark,
                              engine::AccumulatorDrain& drain,
                              engine::Context& ctx) {
  (void)ctx;
  const size_t closed = drain.drain_if([watermark](std::string_view key) {
    const int64_t end = window_key_end(key);
    return end != INT64_MIN && end <= watermark;
  });
  TimePoint armed_at{};
  {
    // Arms the engine dropped as stale (a newer one overtook them) leave
    // entries below `watermark`; they are done too.
    std::lock_guard<std::mutex> lock(mu_);
    while (!armed_at_.empty() && armed_at_.front().first <= watermark) {
      armed_at = armed_at_.front().second;
      armed_at_.pop_front();
    }
  }
  if (closed != 0) {
    emit_latency_us_h_->observe(
        static_cast<uint64_t>((now() - armed_at).count() / 1000));
  }
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
