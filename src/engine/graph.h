// The job graph: one DAG of flowlets (paper §2, §3.2; DESIGN.md §16).
//
// Unlike MapReduce's fixed map->reduce shape, a HAMR job is an arbitrary DAG:
// any flowlet may feed any other, with fan-in and fan-out. Each connect()
// call adds one out-port to the source (ports are numbered in connect order:
// a port is its position in out_edges) and one upstream channel set to the
// destination.
//
// Every front-end - hand-built apps, the query planner, the sort driver -
// builds this one type, and the optimizing passes in src/ir/ rewrite it. It
// is an open struct on purpose: passes are plain functions that read one
// graph and build another, and verify() re-establishes every invariant
// between passes and again in Engine::run.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "engine/flowlet.h"
#include "engine/split.h"

namespace hamr::engine {

// Key/value type tag pair, checked across every edge by verify().
// Components are free-form ("word", "f64-contrib", "row:<schema>"); an empty
// component matches anything, so untagged graphs and generic operators (a
// pass-through sink, a byte-level tap) type-check trivially.
struct TypeTag {
  std::string key;
  std::string value;
};

// True when the producer tag `out` can feed the consumer tag `in`.
bool tags_compatible(const TypeTag& out, const TypeTag& in);

struct EdgeOptions {
  // Sender-side combining: fold records with the destination partial-reduce
  // flowlet's fold() before packing bins (Table 3's combiner). Only valid
  // when the destination is a PartialReduce flowlet. Normally placed by the
  // place_combiner pass; setting it by hand is verified the same way.
  bool combine = false;
  // Local routing: records stay on the emitting node instead of being
  // hash-partitioned by key. The data-locality primitive of §3.3 - used on
  // loader->map edges so raw input is processed where its disk lives, with
  // only derived (small) records crossing the network downstream.
  bool local = false;
  // Custom key partitioner (key, num_nodes) -> destination node. When unset,
  // records route by key hash. Range-partitioned edges (distributed sort)
  // install one built from sampled boundaries; must be deterministic and
  // identical on every node. Ignored for local edges.
  std::function<uint32_t(std::string_view, uint32_t)> partitioner;
  // Sender-side observer invoked once per emitted record, after routing,
  // with the record's destination node. The dataset cache uses it to publish
  // a flowlet's output shard-by-shard with the exact shard->node mapping the
  // edge produced (src/cache/). Taps see each record exactly once: task
  // crashes are injected before flowlet code runs, and the reliable channel
  // dedups delivered bins, so retried sends never replay the emit. Not valid
  // together with `combine` (combined records fold before routing, so no
  // per-record destination exists); verify() rejects the combination.
  std::function<void(uint32_t dst_node, std::string_view key,
                     std::string_view value)>
      tap;
};

// Shorthand for a locality-preserving edge.
inline EdgeOptions local_edge() {
  EdgeOptions options;
  options.local = true;
  return options;
}

struct GraphEdge {
  EdgeId id = 0;
  FlowletId src = 0;
  FlowletId dst = 0;
  EdgeOptions options;
};

struct GraphNode {
  FlowletId id = 0;
  std::string name;
  FlowletKind kind = FlowletKind::kMap;
  FlowletFactory factory;
  TypeTag in;   // record type accepted (loaders: ignored)
  TypeTag out;  // record type emitted on every out-port
  // Externally observable side effects (writes files, publishes datasets,
  // mutates the KV store). Effect flowlets are the roots dead-flowlet
  // elimination keeps alive; a sink is a map with effect set.
  bool effect = false;
  // Partial reduces only: opt-in for sender-side combining (the
  // place_combiner pass). Off by default so apps keep the combiner as an
  // explicit knob.
  bool combinable = false;
  // Loaders only: input splits that ir::lower() moves into the JobInputs.
  // Engine::run reads its splits from JobInputs, never from here.
  std::vector<InputSplit> splits;
  std::vector<EdgeId> out_edges;  // ordered by port
  std::vector<EdgeId> in_edges;
};

struct FlowletGraph {
  std::vector<GraphNode> flowlets;
  std::vector<GraphEdge> edges;

  FlowletId add_loader(std::string name, FlowletFactory factory,
                       TypeTag out = {}) {
    return add(FlowletKind::kLoader, std::move(name), std::move(factory), {},
               std::move(out));
  }
  FlowletId add_map(std::string name, FlowletFactory factory, TypeTag in = {},
                    TypeTag out = {}) {
    return add(FlowletKind::kMap, std::move(name), std::move(factory),
               std::move(in), std::move(out));
  }
  FlowletId add_reduce(std::string name, FlowletFactory factory,
                       TypeTag in = {}, TypeTag out = {}) {
    return add(FlowletKind::kReduce, std::move(name), std::move(factory),
               std::move(in), std::move(out));
  }
  FlowletId add_partial_reduce(std::string name, FlowletFactory factory,
                               TypeTag in = {}, TypeTag out = {}) {
    return add(FlowletKind::kPartialReduce, std::move(name), std::move(factory),
               std::move(in), std::move(out));
  }

  // Connects src -> dst; returns the edge id. The edge becomes src's next
  // out-port (emit(port, ...) indexes them in connect order).
  EdgeId connect(FlowletId src, FlowletId dst, EdgeOptions options = {});

  size_t num_flowlets() const { return flowlets.size(); }
  size_t num_edges() const { return edges.size(); }
  const GraphNode& flowlet(FlowletId id) const { return flowlets.at(id); }
  GraphNode& flowlet(FlowletId id) { return flowlets.at(id); }
  const GraphEdge& edge(EdgeId id) const { return edges.at(id); }
  GraphEdge& edge(EdgeId id) { return edges.at(id); }

  // Flowlet ids in a topological order. Throws std::invalid_argument on a
  // cycle.
  std::vector<FlowletId> topological_order() const;

 private:
  FlowletId add(FlowletKind kind, std::string name, FlowletFactory factory,
                TypeTag in, TypeTag out);
};

// Structural + typing checks, run by Engine::run and between every IR pass:
//   * flowlet/edge ids are dense and cross-referenced consistently
//   * the graph is acyclic
//   * every flowlet has a factory
//   * loaders have no in-edges; every other flowlet has at least one (no
//     dangling flowlets); splits appear only on loaders
//   * type tags match across every edge (empty component = wildcard)
//   * combine edges target partial reduces, and never carry a tap (combined
//     records fold before routing, so a tap would never see a per-record
//     destination)
// Throws std::invalid_argument with the offending flowlet/edge named.
// `context` prefixes the message (e.g. "after pass fuse_maps").
void verify(const FlowletGraph& graph, const std::string& context = {});

// Deterministic textual form (--dump_ir, tests, golden files).
std::string dump(const FlowletGraph& graph);

}  // namespace hamr::engine
