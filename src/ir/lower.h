// Backend: hands an optimized graph to the engine.
//
// ir::run is the one way a job reaches the engine: every front-end builds a
// FlowletGraph with its splits on the loader nodes, and run() optimizes it
// (passes.h) and executes it. The passes rewrite the same FlowletGraph the
// engine runs, so there is nothing left to translate.
#pragma once

#include "common/clock.h"
#include "engine/engine.h"
#include "engine/graph.h"

namespace hamr::ir {

// Optimizes `graph`, then runs it on `engine`: a batch job when
// `stream_duration` is zero, else a streaming job whose sources stop after
// `stream_duration` (Engine::run_streaming).
engine::JobResult run(engine::Engine& engine, engine::FlowletGraph graph,
                      Duration stream_duration = Duration::zero());

// Verifies the graph and returns it. Lowering needs no rewrite any more;
// the function stays as the timed "ir.lower" stage of the repository
// benchmark's query workload, which calls it on a planned graph.
engine::FlowletGraph lower(engine::FlowletGraph graph);

}  // namespace hamr::ir
