// Backend: hands a verified graph to the engine's execution layer.
//
// The passes rewrite the same engine::FlowletGraph the engine runs, so
// lowering is only verify() plus moving each loader's InputSplits off the
// graph into the JobInputs. Flowlet ids and out-ports are untouched: an
// unfused graph runs with exactly the ids the front-end built.
#pragma once

#include "engine/graph.h"
#include "engine/split.h"

namespace hamr::ir {

struct Lowered {
  engine::FlowletGraph graph;
  engine::JobInputs inputs;
};

// Verifies, then moves splits into the inputs. Throws std::invalid_argument
// on a malformed graph.
Lowered lower(engine::FlowletGraph graph);

}  // namespace hamr::ir
