// Point-in-time snapshot of a Metrics registry, with delta / merge / JSON.
//
// The engine captures a cluster-wide snapshot before and after each job and
// stores the delta in JobResult::metrics, so a single run surfaces exactly
// the counters, gauge levels, and latency histograms that job produced -
// including the per-flowlet task-latency histograms
// (engine.flowlet.<name>.task_us) registered at job build time. The bench
// harness merges snapshots across benchmarks and dumps them as JSON under
// --metrics_json.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/metrics.h"

namespace hamr::obs {

// Plain-data copy of one Histogram (bounds + bucket counts + count + sum).
struct HistogramSnapshot {
  std::vector<uint64_t> bounds;
  std::vector<uint64_t> buckets;  // bounds.size() + 1, last = overflow
  uint64_t count = 0;
  uint64_t sum = 0;

  double mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }

  // Upper bound of the bucket holding the q-quantile observation; 0 when
  // empty. Mirrors Histogram::quantile.
  uint64_t quantile(double q) const;
};

struct MetricsSnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, int64_t> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  static MetricsSnapshot capture(const Metrics& metrics);

  // Counter value by name; 0 when absent.
  uint64_t counter(const std::string& name) const {
    auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  }

  int64_t gauge(const std::string& name) const {
    auto it = gauges.find(name);
    return it == gauges.end() ? 0 : it->second;
  }

  const HistogramSnapshot* histogram(const std::string& name) const {
    auto it = histograms.find(name);
    return it == histograms.end() ? nullptr : &it->second;
  }

  // Sums `other` into this snapshot (cluster-wide aggregation). Gauges sum
  // too: for level-style gauges across nodes the sum is the cluster level.
  void merge_from(const MetricsSnapshot& other);

  // What happened between `before` and now: counters and histogram buckets
  // subtract (both are monotone); gauges keep their current (after) level.
  MetricsSnapshot delta_since(const MetricsSnapshot& before) const;

  bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }

  // Pretty JSON: {"counters":{...},"gauges":{...},"histograms":{name:
  // {"count":..,"sum":..,"mean":..,"p50":..,"p99":..,"buckets":[..]}}}.
  std::string to_json() const;
};

}  // namespace hamr::obs
