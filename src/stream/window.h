// Event-time windowing operator and the default output sink.
//
// EventWindowFlowlet is a PartialReduceFlowlet whose accumulators are keyed
// by composite (window end, user key) records from SourceFlowlet. It drives
// the engine's processed-prefix barrier (engine::PrefixBarrier): watermark
// punctuation folds into a per-origin watermark map, and when every expected
// origin has reported, the aligned minimum arms the barrier. When it fires,
// every window ending at or below that watermark is drained out of the
// table and emitted; the finish pass emits only what remains, so each
// window leaves exactly once. Closed windows travel downstream through the
// sequence-numbered reliable shuffle like any other records.
//
// This flowlet owns everything stream-specific about closing windows: the
// kWindowOpen / kWatermarkAdvance / kWindowEmit log events and the
// stream.windows_emitted, stream.window_emit_latency_us and
// stream.watermark_lag_us metrics in the node registry.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "common/clock.h"
#include "common/metrics.h"
#include "engine/flowlet.h"
#include "stream/stream.h"

namespace hamr::stream {

// Folds one event's value into the accumulator of its (window, user key).
using WindowFold = std::function<void(
    std::string_view user_key, std::string_view value, std::string& acc)>;

struct WindowOptions {
  // Distinct punctuation origins the operator must hear from before the
  // watermark advances - one per source split (the stream service sets this
  // to the cluster size: one split per node).
  uint32_t expected_origins = 1;
  std::shared_ptr<StreamStats> stats;
};

class EventWindowFlowlet : public engine::PartialReduceFlowlet,
                           private engine::PrefixBarrier {
 public:
  EventWindowFlowlet(WindowFold fold, WindowOptions options)
      : fold_(std::move(fold)), options_(std::move(options)) {}

  void start(engine::Context& ctx) override;
  // Folds a window-keyed event; a punctuation record (which the engine
  // folds like any key, leaving an empty accumulator) advances the origin
  // watermarks instead.
  void fold(std::string_view key, std::string_view value,
            std::string& acc) override;
  void emit_result(std::string_view key, std::string_view acc,
                   engine::Context& ctx) override;
  engine::PrefixBarrier* prefix_barrier() override { return this; }

 private:
  // Logs the windows this node opened since the last call and, when the
  // aligned watermark advanced, arms the barrier with it.
  int64_t after_bin(engine::Context& ctx) override;
  // Drains and emits every window ending at or below `watermark`.
  void fire(int64_t watermark, engine::AccumulatorDrain& drain,
            engine::Context& ctx) override;

  WindowFold fold_;
  WindowOptions options_;
  std::mutex mu_;  // guards everything below
  std::map<uint32_t, int64_t> origin_watermarks_;
  int64_t aligned_ = INT64_MIN;   // min over origins, once all reported
  int64_t advanced_ = INT64_MIN;  // newest watermark logged and armed
  std::set<int64_t> open_ends_;
  std::vector<int64_t> opened_;  // open, kWindowOpen not logged yet
  int64_t max_open_end_ = INT64_MIN;  // newest window end opened (lag probe)
  // Arm times of armed watermarks not yet fired, oldest first.
  std::deque<std::pair<int64_t, TimePoint>> armed_at_;
  Counter* windows_emitted_c_ = nullptr;
  Histogram* emit_latency_us_h_ = nullptr;
  Histogram* watermark_lag_us_h_ = nullptr;
};

// Default sink: buffers final (window, key) -> value records per node and
// writes them sorted to `<dir>/node<id>` in the node's local store on
// finish. A key emitted more than once concatenates its values with ';', so
// any duplicate emission is visible in the output bytes (the chaos tests'
// exactly-once probe).
class WindowFileSink : public engine::MapFlowlet {
 public:
  explicit WindowFileSink(std::string dir = "stream/out")
      : dir_(std::move(dir)) {}

  void process(const engine::KvPair& record, engine::Context& ctx) override;
  void finish(engine::Context& ctx) override;

  static std::string node_path(const std::string& dir, uint32_t node) {
    return dir + "/node" + std::to_string(node);
  }
  // Concatenates every node's sink file in node order (deterministic).
  static std::string read_all(cluster::Cluster& cluster, const std::string& dir);

 private:
  std::string dir_;
  std::mutex mu_;
  std::map<std::string, std::string> out_;
};

}  // namespace hamr::stream
