// Figure 4 reproduction: cumulative total cost (logical simulation) over the
// query stream for Offline-Optimal, OREO, MTS-Optimal, and Static on TPC-H
// and TPC-DS. Prints the cumulative-cost series (one sample every
// --trace_every queries) plus the final gap percentages and switch counts
// the paper quotes (OREO within 74% / 44% of Offline Optimal; ~20-30 layout
// changes per method).
//
// Expected shape: Offline Optimal < MTS-Optimal <~ OREO < Static, with the
// gray template-switch boundaries visible as slope changes.
//
// Flags: --datasets=tpch,tpcds --rows --queries --segments --seed
//        --trace_every=N --full
#include <cstdio>
#include <sstream>

#include "common.h"
#include "layout/qdtree_layout.h"

namespace oreo {
namespace bench {
namespace {

std::vector<std::string> Split(const std::string& s) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) out.push_back(item);
  return out;
}

}  // namespace

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  Scale scale = Scale::FromFlags(flags);
  size_t trace_every = static_cast<size_t>(
      flags.GetInt("trace_every", static_cast<int64_t>(scale.queries / 20)));

  std::printf("=== Figure 4: gap to optimal algorithms (logical costs) ===\n");
  std::printf("rows=%zu queries=%zu segments=%zu alpha=80 qd-tree layouts\n\n",
              scale.rows, scale.queries, scale.segments);

  QdTreeGenerator gen;
  for (const std::string& dataset :
       Split(flags.GetString("datasets", "tpch,tpcds"))) {
    Fixture f = MakeFixture(dataset, scale);
    core::OreoOptions opts = DefaultOreoOptions(scale);

    core::SimResult offline = RunMethod("offline_optimal", f, gen, opts, true);
    core::SimResult oreo = RunMethod("oreo", f, gen, opts, true);
    core::SimResult mts_opt = RunMethod("mts_optimal", f, gen, opts, true);
    core::SimResult sta = RunMethod("static", f, gen, opts, true);

    std::printf("--- %s ---\n", dataset.c_str());
    std::printf("template switch points:");
    for (size_t i = 1; i < f.wl.segment_starts.size(); ++i) {
      std::printf(" %zu", f.wl.segment_starts[i]);
    }
    std::printf("\n\n%10s %16s %12s %14s %12s\n", "query#", "offline_optimal",
                "oreo", "mts_optimal", "static");
    for (size_t t = trace_every - 1; t < f.wl.queries.size();
         t += trace_every) {
      std::printf("%10zu %16.1f %12.1f %14.1f %12.1f\n", t + 1,
                  offline.cumulative[t], oreo.cumulative[t],
                  mts_opt.cumulative[t], sta.cumulative[t]);
    }
    std::printf("\n");
    PrintRow("offline_optimal", offline);
    PrintRow("oreo", oreo);
    PrintRow("mts_optimal", mts_opt);
    PrintRow("static", sta);
    std::printf(
        "\nOREO total is %+.1f%% vs Offline Optimal, %+.1f%% vs MTS Optimal, "
        "%+.1f%% vs Static\n(paper: +74%%/+44%% vs offline; within 14-17%% of "
        "MTS Optimal query costs; 20/22-29/27-30 switches)\n\n",
        100.0 * (oreo.total_cost() - offline.total_cost()) /
            offline.total_cost(),
        100.0 * (oreo.total_cost() - mts_opt.total_cost()) /
            mts_opt.total_cost(),
        100.0 * (oreo.total_cost() - sta.total_cost()) / sta.total_cost());
  }
  return 0;
}

}  // namespace bench
}  // namespace oreo

int main(int argc, char** argv) { return oreo::bench::Main(argc, argv); }
