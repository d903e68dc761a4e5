// Figure 5 reproduction: effect of the relative reorganization cost alpha on
// OREO's total cost and switch count (TPC-H, Qd-tree, logical simulation).
//
// Expected shape: total cost grows with alpha while the number of layout
// changes falls (paper: 35 changes at alpha=10 down to 18 at alpha=300);
// the growth is non-monotone in places because the algorithm switches
// strategy regimes as alpha crosses thresholds.
//
// Flags: --alphas=10,50,80,100,150,200,250,300 --rows --queries --segments
//        --seed --full
#include <cstdio>
#include <sstream>

#include "common.h"
#include "layout/qdtree_layout.h"

namespace oreo {
namespace bench {

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  Scale scale = Scale::FromFlags(flags);

  std::vector<double> alphas;
  {
    std::stringstream ss(
        flags.GetString("alphas", "10,50,80,100,150,200,250,300"));
    std::string item;
    while (std::getline(ss, item, ',')) alphas.push_back(std::stod(item));
  }

  std::printf("=== Figure 5: impact of reorganization cost alpha ===\n");
  std::printf("TPC-H, qd-tree layouts, rows=%zu queries=%zu segments=%zu\n\n",
              scale.rows, scale.queries, scale.segments);

  Fixture f = MakeFixture("tpch", scale);
  QdTreeGenerator gen;

  std::printf("%8s %12s %12s %12s %10s\n", "alpha", "query_cost", "reorg_cost",
              "total", "switches");
  for (double alpha : alphas) {
    core::OreoOptions opts = DefaultOreoOptions(scale);
    opts.alpha = alpha;
    core::SimResult r = RunMethod("oreo", f, gen, opts);
    std::printf("%8.0f %12.1f %12.1f %12.1f %10lld\n", alpha, r.query_cost,
                r.reorg_cost, r.total_cost(),
                static_cast<long long>(r.num_switches));
  }
  std::printf(
      "\nExpected shape (paper Fig. 5): switches decrease as alpha grows; "
      "total cost\nrises overall but not monotonically (strategy shifts near "
      "alpha~80 and ~170).\n");
  return 0;
}

}  // namespace bench
}  // namespace oreo

int main(int argc, char** argv) { return oreo::bench::Main(argc, argv); }
