// IR optimization passes (DESIGN.md §16). The IR is the engine's own
// FlowletGraph: each pass is a pure graph -> graph function, and optimize()
// verifies the graph before the first pass and after every pass, so an
// invariant-breaking pass fails loudly at compile time of the job, not
// inside the engine. Every job runs all four (ir::run in lower.h).
//
// Order:
//   1. place_combiner    - enable sender-side combining on every eligible
//                          shuffle edge into an opted-in (combinable)
//                          partial reduce: the combiner sinks below the
//                          shuffle, folding records on the sending node
//                          before bins are packed.
//   2. fuse_map_combine  - a map whose single out-edge is a combine edge is
//                          fused into its local upstream producer, so
//                          produce -> transform -> combine-fold all run in
//                          one task body with zero intermediate bins.
//   3. fuse_maps         - collapse remaining producer -> map chains across
//                          local, untapped, partitioner-free, non-combine
//                          edges (single-out producer, single-in map
//                          consumer; sinks are maps, so they fuse too).
//   4. eliminate_dead    - drop nodes with no path to an effect node,
//                          keeping any whose removal would renumber a
//                          surviving producer's emit ports.
#pragma once

#include "engine/graph.h"

namespace hamr::ir {

using Graph = engine::FlowletGraph;  // the IR is the engine's job graph

Graph place_combiner(const Graph& graph);
Graph fuse_map_combine(const Graph& graph);
Graph fuse_maps(const Graph& graph);
Graph eliminate_dead(const Graph& graph);

// Runs the four passes in the order above: verify(g); then for each pass
// g = pass(g); verify(g, "after pass <name>").
Graph optimize(Graph graph);

}  // namespace hamr::ir
