#include "engine/graph.h"

#include <sstream>
#include <stdexcept>

namespace hamr::engine {

const char* flowlet_kind_name(FlowletKind kind) {
  switch (kind) {
    case FlowletKind::kLoader:
      return "loader";
    case FlowletKind::kMap:
      return "map";
    case FlowletKind::kReduce:
      return "reduce";
    case FlowletKind::kPartialReduce:
      return "partial_reduce";
  }
  return "?";
}

void PartialReduceFlowlet::emit_result(std::string_view key, std::string_view acc,
                                       Context& ctx) {
  if (ctx.num_out_ports() > 0) ctx.emit(0, key, acc);
}

bool tags_compatible(const TypeTag& out, const TypeTag& in) {
  const bool key_ok = out.key.empty() || in.key.empty() || out.key == in.key;
  const bool value_ok =
      out.value.empty() || in.value.empty() || out.value == in.value;
  return key_ok && value_ok;
}

FlowletId FlowletGraph::add(FlowletKind kind, std::string name,
                            FlowletFactory factory, TypeTag in, TypeTag out) {
  GraphNode node;
  node.id = static_cast<FlowletId>(flowlets.size());
  node.name = std::move(name);
  node.kind = kind;
  node.factory = std::move(factory);
  node.in = std::move(in);
  node.out = std::move(out);
  flowlets.push_back(std::move(node));
  return flowlets.back().id;
}

EdgeId FlowletGraph::connect(FlowletId src, FlowletId dst, EdgeOptions options) {
  if (src >= flowlets.size() || dst >= flowlets.size()) {
    throw std::invalid_argument("connect: unknown flowlet id");
  }
  GraphEdge edge;
  edge.id = static_cast<EdgeId>(edges.size());
  edge.src = src;
  edge.dst = dst;
  edge.options = std::move(options);
  edges.push_back(std::move(edge));
  flowlets[src].out_edges.push_back(edges.back().id);
  flowlets[dst].in_edges.push_back(edges.back().id);
  return edges.back().id;
}

std::vector<FlowletId> FlowletGraph::topological_order() const {
  std::vector<uint32_t> indegree(flowlets.size(), 0);
  for (const GraphEdge& edge : edges) ++indegree[edge.dst];

  std::vector<FlowletId> order;
  order.reserve(flowlets.size());
  std::vector<FlowletId> frontier;
  for (const GraphNode& node : flowlets) {
    if (indegree[node.id] == 0) frontier.push_back(node.id);
  }
  while (!frontier.empty()) {
    const FlowletId id = frontier.back();
    frontier.pop_back();
    order.push_back(id);
    for (EdgeId eid : flowlets[id].out_edges) {
      const GraphEdge& edge = edges[eid];
      if (--indegree[edge.dst] == 0) frontier.push_back(edge.dst);
    }
  }
  if (order.size() != flowlets.size()) {
    throw std::invalid_argument("flowlet graph has a cycle");
  }
  return order;
}

namespace {

std::string node_ref(const GraphNode& node) {
  return "n" + std::to_string(node.id) + " '" + node.name + "'";
}

std::string edge_ref(const FlowletGraph& graph, const GraphEdge& edge) {
  return "edge e" + std::to_string(edge.id) + " (" +
         node_ref(graph.flowlet(edge.src)) + " -> " +
         node_ref(graph.flowlet(edge.dst)) + ")";
}

[[noreturn]] void fail(const std::string& context, const std::string& what) {
  throw std::invalid_argument(context.empty() ? "graph: " + what
                                              : "graph: " + context + ": " + what);
}

}  // namespace

void verify(const FlowletGraph& graph, const std::string& context) {
  // Dense, self-consistent ids and edge cross-references.
  for (size_t i = 0; i < graph.flowlets.size(); ++i) {
    if (graph.flowlets[i].id != i) {
      fail(context, "flowlet at index " + std::to_string(i) + " has id " +
                        std::to_string(graph.flowlets[i].id));
    }
  }
  std::vector<uint32_t> seen_out(graph.edges.size(), 0);
  std::vector<uint32_t> seen_in(graph.edges.size(), 0);
  for (const GraphNode& node : graph.flowlets) {
    for (EdgeId e : node.out_edges) {
      if (e >= graph.edges.size() || graph.edges[e].src != node.id) {
        fail(context, node_ref(node) + " lists a bad out-edge");
      }
      ++seen_out[e];
    }
    for (EdgeId e : node.in_edges) {
      if (e >= graph.edges.size() || graph.edges[e].dst != node.id) {
        fail(context, node_ref(node) + " lists a bad in-edge");
      }
      ++seen_in[e];
    }
  }
  for (size_t i = 0; i < graph.edges.size(); ++i) {
    const GraphEdge& edge = graph.edges[i];
    if (edge.id != i) {
      fail(context, "edge at index " + std::to_string(i) + " has id " +
                        std::to_string(edge.id));
    }
    if (edge.src >= graph.flowlets.size() ||
        edge.dst >= graph.flowlets.size()) {
      fail(context, "edge e" + std::to_string(edge.id) +
                        " references an unknown flowlet");
    }
    if (edge.src == edge.dst) {
      fail(context, edge_ref(graph, edge) + " is a self-loop");
    }
    if (seen_out[i] != 1 || seen_in[i] != 1) {
      fail(context, "edge e" + std::to_string(i) +
                        " is not cross-referenced exactly once");
    }
  }

  graph.topological_order();  // throws on a cycle

  for (const GraphNode& node : graph.flowlets) {
    const bool is_loader = node.kind == FlowletKind::kLoader;
    if (is_loader && !node.in_edges.empty()) {
      fail(context, "loader " + node_ref(node) + " has inputs");
    }
    if (!is_loader && node.in_edges.empty()) {
      fail(context, "dangling flowlet " + node_ref(node) +
                        ": a non-loader flowlet with no inputs never runs");
    }
    if (!is_loader && !node.splits.empty()) {
      fail(context, node_ref(node) + " carries input splits but is not a loader");
    }
    if (!node.factory) {
      fail(context, node_ref(node) + " has no flowlet factory");
    }
  }

  for (const GraphEdge& edge : graph.edges) {
    const GraphNode& src = graph.flowlet(edge.src);
    const GraphNode& dst = graph.flowlet(edge.dst);
    if (edge.options.combine) {
      if (dst.kind != FlowletKind::kPartialReduce) {
        fail(context, "combine " + edge_ref(graph, edge) +
                          " targets a non-partial-reduce flowlet: sender-side "
                          "combining needs the destination's fold()");
      }
      if (edge.options.tap) {
        fail(context,
             "tap on combine " + edge_ref(graph, edge) +
                 ": combined records fold before routing, so a tap would "
                 "never observe per-record destinations; remove the tap or "
                 "disable combining on this edge");
      }
    }
    if (!tags_compatible(src.out, dst.in)) {
      fail(context, "type mismatch on " + edge_ref(graph, edge) + ": producer "
                        "emits (" + src.out.key + "," + src.out.value +
                        ") but consumer accepts (" + dst.in.key + "," +
                        dst.in.value + ")");
    }
  }
}

std::string dump(const FlowletGraph& graph) {
  std::ostringstream out;
  out << "FlowletGraph {\n";
  for (const GraphNode& node : graph.flowlets) {
    out << "  n" << node.id << ": " << flowlet_kind_name(node.kind) << " \""
        << node.name << "\"";
    if (node.kind != FlowletKind::kLoader &&
        (!node.in.key.empty() || !node.in.value.empty())) {
      out << " in=(" << node.in.key << "," << node.in.value << ")";
    }
    if (!node.out.key.empty() || !node.out.value.empty()) {
      out << " out=(" << node.out.key << "," << node.out.value << ")";
    }
    if (node.effect) out << " effect";
    if (node.combinable) out << " combinable";
    if (!node.splits.empty()) out << " splits=" << node.splits.size();
    out << "\n";
  }
  for (const GraphEdge& edge : graph.edges) {
    out << "  e" << edge.id << ": n" << edge.src << " -> n" << edge.dst;
    std::string flags;
    const auto flag = [&flags](const char* name) {
      flags += flags.empty() ? "" : ",";
      flags += name;
    };
    if (edge.options.local) flag("local");
    if (edge.options.combine) flag("combine");
    if (edge.options.partitioner) flag("partitioner");
    if (edge.options.tap) flag("tap");
    if (!flags.empty()) out << " [" << flags << "]";
    out << "\n";
  }
  out << "}\n";
  return out.str();
}

}  // namespace hamr::engine
