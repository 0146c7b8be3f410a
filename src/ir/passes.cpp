#include "ir/passes.h"

#include <algorithm>
#include <deque>

#include "ir/fused.h"

namespace hamr::ir {

namespace {

using engine::EdgeId;
using engine::FlowletId;
using engine::FlowletKind;
using engine::GraphEdge;
using engine::GraphNode;

// Mutable working copy of a graph: passes mark nodes/edges dead and rewire
// the survivors, then compact() renumbers everything densely (preserving
// node order and per-node out-edge/port order) into a fresh Graph.
struct Work {
  std::vector<GraphNode> nodes;
  std::vector<GraphEdge> edges;
  std::vector<bool> node_dead;
  std::vector<bool> edge_dead;

  explicit Work(const Graph& graph)
      : nodes(graph.flowlets),
        edges(graph.edges),
        node_dead(graph.flowlets.size(), false),
        edge_dead(graph.edges.size(), false) {}

  size_t live_out_edges(const GraphNode& node) const {
    size_t count = 0;
    for (EdgeId e : node.out_edges) count += edge_dead[e] ? 0 : 1;
    return count;
  }

  Graph compact() {
    std::vector<FlowletId> node_map(nodes.size(), 0);
    std::vector<EdgeId> edge_map(edges.size(), 0);
    FlowletId next_node = 0;
    for (size_t i = 0; i < nodes.size(); ++i) {
      if (!node_dead[i]) node_map[i] = next_node++;
    }
    EdgeId next_edge = 0;
    for (size_t i = 0; i < edges.size(); ++i) {
      if (!edge_dead[i]) edge_map[i] = next_edge++;
    }
    Graph out;
    out.flowlets.reserve(next_node);
    out.edges.reserve(next_edge);
    for (size_t i = 0; i < nodes.size(); ++i) {
      if (node_dead[i]) continue;
      GraphNode node = std::move(nodes[i]);
      node.id = node_map[i];
      auto remap = [&](std::vector<EdgeId>& list) {
        std::vector<EdgeId> mapped;
        mapped.reserve(list.size());
        for (EdgeId e : list) {
          if (!edge_dead[e]) mapped.push_back(edge_map[e]);
        }
        list = std::move(mapped);
      };
      remap(node.out_edges);
      remap(node.in_edges);
      out.flowlets.push_back(std::move(node));
    }
    for (size_t i = 0; i < edges.size(); ++i) {
      if (edge_dead[i]) continue;
      GraphEdge edge = std::move(edges[i]);
      edge.id = edge_map[i];
      edge.src = node_map[edge.src];
      edge.dst = node_map[edge.dst];
      out.edges.push_back(std::move(edge));
    }
    return out;
  }
};

// Is `edge` a fusion-crossable hop? Fusion runs the consumer inline in the
// producer's task, so the edge must move nothing and observe nothing: local
// (same-node) routing, no tap, no sender-side combining, no custom
// partitioner.
bool fusion_crossable(const GraphEdge& edge) {
  return edge.options.local && !edge.options.tap && !edge.options.combine &&
         !edge.options.partitioner;
}

// Fuses map `m` into its single producer across edge `pe`, in place: the
// producer takes over m's body, out-edges (ports preserved in order), type
// and effect; m and the hop edge die.
void fuse_into_producer(Work& work, FlowletId producer_id, EdgeId pe,
                        FlowletId m_id) {
  GraphNode& producer = work.nodes[producer_id];
  GraphNode& m = work.nodes[m_id];
  producer.factory =
      fuse_factories(producer.kind, std::move(producer.factory), m.factory);
  producer.name += "+" + m.name;
  producer.out = m.out;
  producer.effect = producer.effect || m.effect;
  producer.out_edges = m.out_edges;
  for (EdgeId e : producer.out_edges) work.edges[e].src = producer_id;
  work.edge_dead[pe] = true;
  work.node_dead[m_id] = true;
}

// Shared driver for the two fusion passes: repeatedly fuse the first
// (lowest-edge-id) producer -> map pair accepted by `eligible(consumer)`
// until none remains. The consumer must be a map with a single in-edge; the
// producer must have that edge as its only live out-edge (its emit(0)
// stream is exactly the consumer's input).
Graph fuse_pass(
    const Graph& graph,
    const std::function<bool(const Work&, const GraphNode&)>& eligible) {
  Work work(graph);
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t e = 0; e < work.edges.size() && !changed; ++e) {
      if (work.edge_dead[e]) continue;
      const GraphEdge& edge = work.edges[e];
      if (!fusion_crossable(edge)) continue;
      const GraphNode& producer = work.nodes[edge.src];
      const GraphNode& consumer = work.nodes[edge.dst];
      if (work.node_dead[producer.id] || work.node_dead[consumer.id]) continue;
      if (consumer.kind != FlowletKind::kMap) continue;
      if (consumer.in_edges.size() != 1) continue;
      if (work.live_out_edges(producer) != 1) continue;
      if (!eligible(work, consumer)) continue;
      fuse_into_producer(work, edge.src, static_cast<EdgeId>(e), edge.dst);
      changed = true;
    }
  }
  return work.compact();
}

}  // namespace

Graph place_combiner(const Graph& graph) {
  Work work(graph);
  for (GraphEdge& edge : work.edges) {
    const GraphNode& dst = work.nodes[edge.dst];
    if (dst.kind != FlowletKind::kPartialReduce || !dst.combinable) continue;
    // Local edges skip the shuffle already; tapped edges need per-record
    // destinations, which combining erases (verify() enforces the same).
    if (edge.options.local || edge.options.tap) continue;
    edge.options.combine = true;
  }
  return work.compact();
}

Graph fuse_map_combine(const Graph& graph) {
  // A map whose single out-edge carries the combiner: fusing it upstream
  // puts produce -> transform -> combine-fold in one task body (the engine
  // folds combine edges sender-side, inside the emitting task).
  return fuse_pass(graph, [](const Work& work, const GraphNode& consumer) {
    if (consumer.out_edges.size() != 1) return false;
    const GraphEdge& out = work.edges[consumer.out_edges[0]];
    return !work.edge_dead[out.id] && out.options.combine;
  });
}

Graph fuse_maps(const Graph& graph) {
  return fuse_pass(graph,
                   [](const Work&, const GraphNode&) { return true; });
}

Graph eliminate_dead(const Graph& graph) {
  Work work(graph);
  // Dead = no path to an effect node (its output is dropped on the floor).
  std::vector<bool> live(work.nodes.size(), false);
  std::deque<FlowletId> frontier;
  for (const GraphNode& node : work.nodes) {
    if (node.effect) {
      live[node.id] = true;
      frontier.push_back(node.id);
    }
  }
  while (!frontier.empty()) {
    const FlowletId id = frontier.front();
    frontier.pop_front();
    for (EdgeId e : work.nodes[id].in_edges) {
      const FlowletId src = work.edges[e].src;
      if (!live[src]) {
        live[src] = true;
        frontier.push_back(src);
      }
    }
  }
  // Removing an edge renumbers every later out-port of its producer, which
  // would break the producer's emit(port, ...) indexing - so only trailing
  // runs of dead out-edges may go. A dead node forced to stay (a live or
  // kept producer still feeds it mid-port-list) keeps constraining its own
  // targets, hence the fixpoint.
  std::vector<bool> removable(work.nodes.size());
  for (const GraphNode& node : work.nodes) removable[node.id] = !live[node.id];
  bool changed = true;
  while (changed) {
    changed = false;
    for (const GraphNode& node : work.nodes) {
      if (removable[node.id]) continue;
      bool trailing = true;
      for (auto it = node.out_edges.rbegin(); it != node.out_edges.rend();
           ++it) {
        const FlowletId dst = work.edges[*it].dst;
        if (!removable[dst]) {
          trailing = false;
        } else if (!trailing) {
          removable[dst] = false;
          changed = true;
        }
      }
    }
  }
  for (const GraphNode& node : work.nodes) {
    if (!removable[node.id]) continue;
    work.node_dead[node.id] = true;
    for (EdgeId e : node.out_edges) work.edge_dead[e] = true;
    for (EdgeId e : node.in_edges) work.edge_dead[e] = true;
  }
  return work.compact();
}

PassPipeline PassPipeline::standard() {
  PassPipeline pipeline;
  pipeline.passes = {
      {"place_combiner", place_combiner},
      {"fuse_map_combine", fuse_map_combine},
      {"fuse_maps", fuse_maps},
      {"eliminate_dead", eliminate_dead},
  };
  return pipeline;
}

PassPipeline PassPipeline::no_fusion() {
  PassPipeline pipeline;
  pipeline.passes = {
      {"place_combiner", place_combiner},
      {"eliminate_dead", eliminate_dead},
  };
  return pipeline;
}

Graph PassPipeline::run(Graph graph) const {
  engine::verify(graph);
  for (const auto& [name, pass] : passes) {
    graph = pass(graph);
    engine::verify(graph, "after pass " + name);
  }
  return graph;
}

Graph optimize(Graph graph) {
  return PassPipeline::standard().run(std::move(graph));
}

}  // namespace hamr::ir
