#include "ir/lower.h"

#include "ir/passes.h"

namespace hamr::ir {

engine::JobResult run(engine::Engine& engine, engine::FlowletGraph graph,
                      Duration stream_duration) {
  const engine::FlowletGraph optimized = optimize(std::move(graph));
  return stream_duration > Duration::zero()
             ? engine.run_streaming(optimized, stream_duration)
             : engine.run(optimized);
}

engine::FlowletGraph lower(engine::FlowletGraph graph) {
  engine::verify(graph);
  return graph;
}

}  // namespace hamr::ir
