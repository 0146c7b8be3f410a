#include "ir/lower.h"

namespace hamr::ir {

Lowered lower(engine::FlowletGraph graph) {
  engine::verify(graph);
  Lowered lowered;
  for (engine::GraphNode& node : graph.flowlets) {
    for (engine::InputSplit& split : node.splits) {
      lowered.inputs.add(node.id, std::move(split));
    }
    node.splits.clear();
  }
  lowered.graph = std::move(graph);
  return lowered;
}

}  // namespace hamr::ir
