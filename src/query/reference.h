// Reference evaluator: the trivially-correct, single-threaded oracle for the
// query layer (DESIGN.md §13).
//
// It evaluates the same logical plan tree the planner lowers to flowlet
// DAGs, using the most obvious implementation of each operator - row loops,
// a hash multimap for the join build side, a hash map of accumulators for
// group-by. It is both the spec readers consult for operator semantics and
// the oracle the differential suite compares the engine path against:
// canonical(schema, engine_rows) must equal canonical(schema, reference
// rows) byte-for-byte.
//
// Semantics pinned here (and matched exactly by the flowlet operators):
//   * join / group keys match iff their encode_key() bytes are equal, so an
//     i64 never matches an f64 of the same magnitude;
//   * i64 sums accumulate as wrapping uint64 (deterministic overflow);
//   * f64 sums add in IEEE double. Addition order differs between the two
//     paths, so byte-identical results require inputs whose sums are exact
//     (the test generators emit f64 on a 1/16 grid well inside 2^53 - see
//     tests/query_testgen.h); count/min/max are order-independent for any
//     input;
//   * group_by emits one row per key that had at least one input row (an
//     empty input produces an empty result, never a global-aggregate row).
#pragma once

#include <string>
#include <vector>

#include "query/plan.h"

namespace hamr::query {

// Evaluates the plan over in-memory catalog tables. The plan must pass
// output_schema() validation (this calls it and so throws the same errors).
std::vector<Row> reference_eval(const Plan& plan, const Catalog& catalog);

// Canonical form for differential comparison: every row encoded with the
// schema, sorted lexicographically as byte strings.
std::vector<std::string> canonical(const Schema& schema,
                                   const std::vector<Row>& rows);

}  // namespace hamr::query
