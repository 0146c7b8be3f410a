// Reproduces Table 2: execution time of all eight benchmarks on the Hadoop
// baseline (IDH 3.0 analog) and on HAMR, plus the measured speedups next to
// the paper's reference numbers.
#include <cstdio>

#include "apps/wordcount.h"
#include "bench/harness.h"
#include "engine/graph.h"
#include "ir/passes.h"

using namespace hamr;
using namespace hamr::bench;

int main(int argc, char** argv) {
  Flags flags(argc, argv,
              std::string("table2_benchmarks - Table 2 of the paper\n") +
                  kUsage +
                  "  --dump_ir            print the WordCount flowlet IR "
                  "before/after the pass pipeline, then exit\n");
  if (flags.get_bool("dump_ir", false)) {
    // The combiner-enabled WordCount exercises every standard pass:
    // place_combiner turns the shuffle edge into a combine edge,
    // fuse_map_combine folds the splitter into the loader below it.
    const ir::Graph built = apps::wordcount::build_ir(/*combine=*/true);
    std::printf("WordCount IR, as built by the front-end:\n%s\n",
                engine::dump(built).c_str());
    const ir::Graph optimized = ir::optimize(built);
    std::printf("WordCount IR, after the standard pass pipeline:\n%s",
                engine::dump(optimized).c_str());
    return 0;
  }
  const BenchSetup setup = BenchSetup::from_flags(flags);
  setup.print_cluster_info("Table 2: baseline vs HAMR, all eight benchmarks");
  init_observability(setup);

  std::vector<Row> rows;
  rows.push_back(bench_kmeans(setup));
  rows.push_back(bench_classification(setup));
  rows.push_back(bench_pagerank(setup));
  rows.push_back(bench_kcliques(setup));
  rows.push_back(bench_wordcount(setup));
  rows.push_back(bench_histogram_movies(setup));
  rows.push_back(bench_histogram_ratings(setup));
  rows.push_back(bench_naive_bayes(setup));

  print_table("Table 2 (reproduced, scaled)", rows);
  finish_observability(setup);
  return 0;
}
