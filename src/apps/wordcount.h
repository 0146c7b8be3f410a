// WordCount (paper §4): loader -> splitter map -> partial reduce.
//
// The HAMR version uses a PARTIAL reduce - counts increase the moment a word
// arrives, with no aggregation barrier. The baseline is the classic Hadoop
// job with a sum combiner. Both write "word\tcount".
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "apps/common.h"
#include "engine/graph.h"

namespace hamr::apps::wordcount {

struct RunInfo {
  double seconds = 0;
  engine::JobResult engine_result;   // HAMR runs only
  mapreduce::MrResult baseline_result;  // baseline runs only
};

// The unoptimized job, without splits: loader TextLoader -> map Splitter ->
// partial reduce Counter (or reduce CountReducer under ablation A2).
// `combine` opts the Counter into sender-side combining (Table 3) - the
// place_combiner pass turns it into the combine edge. The passes fuse the
// loader and the splitter into one stage, "TextLoader+Splitter".
engine::FlowletGraph build_ir(bool combine = false,
                              bool use_full_reduce = false);

// Runs build_ir() over `input` through ir::run; output in node-local
// "out/wordcount/" files.
RunInfo run_hamr(BenchEnv& env, const StagedInput& input, bool combine = false,
                 bool use_full_reduce = false);

// Runs on the baseline; output in DFS "/out/wordcount/".
RunInfo run_baseline(BenchEnv& env, const StagedInput& input,
                     bool use_combiner = true);

std::map<std::string, uint64_t> hamr_output(BenchEnv& env);
std::map<std::string, uint64_t> baseline_output(BenchEnv& env);

// Sequential reference for correctness checks.
std::map<std::string, uint64_t> reference(const std::vector<std::string>& shards);

}  // namespace hamr::apps::wordcount
