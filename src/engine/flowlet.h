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
//                            completion (or on a streaming window flush).
//
// Application code interacts with the runtime only through Context.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/metrics.h"
#include "engine/bin.h"
#include "engine/split.h"
#include "kvstore/kv_store.h"
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

  // --- event-time windowing hooks (see src/stream/) ------------------------
  // A *windowed* partial reduce accumulates per-(window, key) state and
  // closes windows when in-band watermark punctuation aligns, instead of the
  // processing-time flush. Batch flowlets keep the defaults; the engine
  // caches stream_windowed() at job build so the batch hot path pays nothing.

  virtual bool stream_windowed() const { return false; }

  // True when `key` is a watermark punctuation record rather than data; such
  // records are routed to on_punctuation() and never touch the accumulator
  // table.
  virtual bool is_punctuation(std::string_view key) const {
    (void)key;
    return false;
  }

  // Handles one punctuation record. Returns the operator's new aligned
  // watermark (every expected origin has reported at least this, in
  // event-time microseconds), or INT64_MIN when the watermark did not
  // advance. Called without the stripe locks held; implementations
  // synchronize their own state.
  virtual int64_t on_punctuation(std::string_view key, std::string_view value) {
    (void)key;
    (void)value;
    return INT64_MIN;
  }

  // Window end (event-time us) encoded in a composite accumulator key, or
  // INT64_MIN when the key carries no window.
  virtual int64_t window_end_of(std::string_view key) const {
    (void)key;
    return INT64_MIN;
  }

  // Drains the window ends first opened since the last call (the runtime
  // logs them as kWindowOpen). Appends to *out. Called once per bin, on the
  // thread that folded it, after its folds and before the bin counts as
  // processed - the place to publish per-bin operator state.
  virtual void take_opened_windows(std::vector<int64_t>* out) { (void)out; }
};

using FlowletFactory = std::function<std::unique_ptr<Flowlet>()>;

}  // namespace hamr::engine
