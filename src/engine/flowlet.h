// The flowlet programming model - HAMR's public API (paper §2).
//
// A job is a DAG of flowlets. Four kinds exist, mirroring the paper:
//
//   * LoaderFlowlet        - pulls records from a data source, split by split,
//                            in chunks (fine-grain, throttled by flow control).
//   * MapFlowlet           - record-at-a-time transform; runs the moment a bin
//                            of input is available (Dormant -> Ready on data).
//   * ReduceFlowlet        - sees all values of a key, grouped; internally
//                            barriers on upstream completion, spilling staged
//                            input to disk beyond the memory budget.
//   * PartialReduceFlowlet - commutative+associative incremental aggregation;
//                            folds each record on arrival into a node-shared
//                            accumulator table and emits on upstream
//                            completion (or, mid-job, through its optional
//                            processed-prefix barrier).
//
// Application code interacts with the runtime only through Context.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/metrics.h"
#include "engine/bin.h"
#include "engine/split.h"
#include "kvstore/kv_store.h"
#include "obs/event_log.h"
#include "storage/file_store.h"

namespace hamr::engine {

using NodeId = uint32_t;
using FlowletId = uint32_t;

enum class FlowletKind { kLoader, kMap, kReduce, kPartialReduce };

const char* flowlet_kind_name(FlowletKind kind);

// Runtime services available to flowlet code. One Context is handed to each
// task execution; emitted records are buffered per (out-port, destination)
// and packed into bins.
class Context {
 public:
  virtual ~Context() = default;

  // Routes by key: the record goes to node partition_of(key, num_nodes) -
  // "each node works on a portion of the whole key space" (paper §2).
  virtual void emit(uint32_t port, std::string_view key, std::string_view value) = 0;

  // Locality-aware direct routing (paper §3.3: pass small index records back
  // to the node holding the data).
  virtual void emit_to_node(uint32_t port, NodeId node, std::string_view key,
                            std::string_view value) = 0;

  // Sends the record to every node (e.g. centroid broadcast in K-Means).
  virtual void emit_broadcast(uint32_t port, std::string_view key,
                              std::string_view value) = 0;

  virtual NodeId node() const = 0;
  virtual uint32_t num_nodes() const = 0;
  virtual uint32_t num_out_ports() const = 0;

  // Node-shared distributed key-value store (paper §5.2/§7).
  virtual kv::KvStore& kv() = 0;

  // This node's local disk (reads/writes pay the modeled disk cost).
  virtual storage::FileStore& local_store() = 0;

  virtual Metrics& metrics() = 0;

  // True once the driver has asked streaming sources to wind down. Batch
  // jobs always return false; stream loaders poll this from load_chunk.
  virtual bool stream_stopping() const = 0;

  // Appends (this node, this flowlet, kind, aux) to the engine's event log
  // when one is attached (EngineConfig::event_log); otherwise a no-op.
  virtual void log_event(obs::EventKind kind, int64_t aux) = 0;
};

class Flowlet {
 public:
  virtual ~Flowlet() = default;

  // Invoked once per node when the job starts, before any data.
  virtual void start(Context& ctx) { (void)ctx; }

  // Invoked once per node after every upstream channel has completed and all
  // received data has been processed. Flush final state here.
  virtual void finish(Context& ctx) { (void)ctx; }
};

class LoaderFlowlet : public Flowlet {
 public:
  // Processes one chunk of `split`, advancing *cursor (opaque to the engine,
  // 0 on the first call). Returns false when the split is exhausted. The
  // engine re-schedules chunks as separate fine-grain tasks, deferring them
  // under flow-control backpressure.
  virtual bool load_chunk(const InputSplit& split, uint64_t* cursor,
                          Context& ctx) = 0;
};

class MapFlowlet : public Flowlet {
 public:
  // One record. May be called concurrently from several worker threads
  // (distinct bins); implementations keep per-call state on the stack or
  // synchronize their own members.
  virtual void process(const KvPair& record, Context& ctx) = 0;
};

class ReduceFlowlet : public Flowlet {
 public:
  // All values of `key`, after shuffling and grouping. Distinct keys may be
  // reduced concurrently (sub-partitioned); same-key values arrive together.
  virtual void reduce(std::string_view key,
                      const std::vector<std::string_view>& values,
                      Context& ctx) = 0;
};

class PrefixBarrier;

class PartialReduceFlowlet : public Flowlet {
 public:
  // Folds `value` into `acc` (empty on the key's first record). Must be
  // commutative + associative in effect. Runs under the key's stripe lock;
  // the stripe's serialized-update cost model is charged by the engine.
  virtual void fold(std::string_view key, std::string_view value,
                    std::string& acc) = 0;

  // Emits one final accumulator; default forwards (key, acc) on port 0 when
  // a port exists (sink partial reduces override to write output instead).
  virtual void emit_result(std::string_view key, std::string_view acc,
                           Context& ctx);

  // Opts this flowlet into the processed-prefix barrier (see PrefixBarrier)
  // when non-null. Read once at job build: a flowlet without one pays a
  // single cached pointer test per bin.
  virtual PrefixBarrier* prefix_barrier() { return nullptr; }
};

// Removes accumulators from a partial reduce's node-shared table; handed to
// PrefixBarrier::fire.
class AccumulatorDrain {
 public:
  // Under each stripe lock, removes every accumulator whose key satisfies
  // `match` (the rest stay in place, so a concurrent fold never starts a
  // second accumulator for a kept key), then passes each removed one to the
  // flowlet's emit_result outside the lock. Returns how many were removed.
  virtual size_t drain_if(
      const std::function<bool(std::string_view key)>& match) = 0;

 protected:
  ~AccumulatorDrain() = default;
};

// Processed-prefix barrier of a partial reduce on one node: a way to act
// once every bin that arrived before some point has been folded.
//
// after_bin() runs on the folding thread once per bin, after the bin's
// folds and before the bin counts as processed. A return value other than
// kNoArm arms the barrier with that tag; its target is the number of bins
// enqueued for this flowlet so far. Tags only move forward: an arm whose tag
// is not above every tag armed before it is ignored, and a newer arm
// replaces one that has not fired yet.
//
// The barrier fires - fire() runs once, with the tag - when every bin below
// the target has been processed. This is a prefix, not a count: bins finish
// out of order (work stealing, crash-retry backoff), and bins enqueued after
// the arm must not stand in for an earlier one still parked. fire() runs on
// the thread that completed the last covered bin, before that bin counts as
// processed, so it never overlaps the flowlet's finish pass; calls to fire()
// never overlap each other.
class PrefixBarrier {
 public:
  static constexpr int64_t kNoArm = INT64_MIN;

  virtual int64_t after_bin(Context& ctx) = 0;
  virtual void fire(int64_t tag, AccumulatorDrain& drain, Context& ctx) = 0;

 protected:
  ~PrefixBarrier() = default;
};

using FlowletFactory = std::function<std::unique_ptr<Flowlet>()>;

}  // namespace hamr::engine
