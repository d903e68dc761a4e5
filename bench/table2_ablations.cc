// Table II reproduction: ablations over the transition-bias exponent gamma,
// the candidate-generation sample (sliding window vs reservoir vs both), and
// the background-reorganization delay Delta. Logical costs in units of 10^3,
// for TPC-H, TPC-DS and Telemetry, matching the paper's table layout.
//
// Expected shape: gamma > 0 cuts reorganization cost by ~17-28% with little
// query-cost change; reservoir sampling (RS) raises query cost up to ~22%
// and reorg cost up to ~47%; SW+RS matches SW on query cost but pays more
// reorganization; Delta = alpha raises query costs by ~7-12%.
//
// Flags: --rows --queries --segments --seed --full
#include <cstdio>
#include <vector>

#include "common.h"
#include "layout/qdtree_layout.h"

namespace oreo {
namespace bench {
namespace {

struct Cell {
  double query_k;
  double reorg_k;
};

Cell RunConfig(const Fixture& f, const core::OreoOptions& opts) {
  QdTreeGenerator gen;
  core::SimResult r = RunMethod("oreo", f, gen, opts);
  return Cell{r.query_cost / 1e3, r.reorg_cost / 1e3};
}

}  // namespace

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  Scale scale = Scale::FromFlags(flags);

  std::printf("=== Table II: gamma / sampling strategy / reorg delay ===\n");
  std::printf("logical costs in units of 10^3; rows=%zu queries=%zu "
              "segments=%zu\n(bold row in the paper = gamma=1, SW, Delta=0 "
              "-> first row of each block)\n\n",
              scale.rows, scale.queries, scale.segments);

  std::vector<std::string> datasets = {"tpch", "tpcds", "telemetry"};
  std::vector<Fixture> fixtures;
  fixtures.reserve(datasets.size());
  for (const std::string& d : datasets) fixtures.push_back(MakeFixture(d, scale));

  auto print_header = [&]() {
    std::printf("%-12s", "");
    for (const std::string& d : datasets) std::printf(" %9s_q", d.c_str());
    for (const std::string& d : datasets) std::printf(" %9s_r", d.c_str());
    std::printf("\n");
  };
  auto print_line = [&](const std::string& label,
                        const std::vector<Cell>& cells) {
    std::printf("%-12s", label.c_str());
    for (const Cell& c : cells) std::printf(" %11.2f", c.query_k);
    for (const Cell& c : cells) std::printf(" %11.2f", c.reorg_k);
    std::printf("\n");
  };
  auto run_row = [&](const std::string& label,
                     const std::function<void(core::OreoOptions*)>& tweak) {
    std::vector<Cell> cells;
    for (const Fixture& f : fixtures) {
      core::OreoOptions opts = DefaultOreoOptions(scale);
      tweak(&opts);
      cells.push_back(RunConfig(f, opts));
    }
    print_line(label, cells);
  };

  std::printf("-- transition distribution (gamma) --\n");
  print_header();
  for (double gamma : {1.0, 0.0, 2.0, 3.0}) {
    run_row("gamma=" + std::to_string(static_cast<int>(gamma)),
            [gamma](core::OreoOptions* o) { o->gamma = gamma; });
  }

  std::printf("\n-- candidate generation sample (SVI-D4) --\n");
  print_header();
  run_row("SW", [](core::OreoOptions* o) {
    o->source = core::CandidateSource::kSlidingWindow;
  });
  run_row("RS", [](core::OreoOptions* o) {
    o->source = core::CandidateSource::kReservoir;
  });
  run_row("SW+RS", [](core::OreoOptions* o) {
    o->source = core::CandidateSource::kBoth;
  });

  std::printf("\n-- reorganization delay Delta (SVI-D5) --\n");
  print_header();
  for (size_t delta : {size_t{0}, size_t{40}, size_t{80}}) {
    run_row("delta=" + std::to_string(delta),
            [delta](core::OreoOptions* o) { o->reorg_delay = delta; });
  }

  std::printf(
      "\nExpected shape (paper Table II): gamma>0 cuts reorg cost vs gamma=0; "
      "RS raises\nboth costs vs SW; SW+RS matches SW on query cost but pays "
      "more reorg; larger\nDelta raises query cost only.\n");
  return 0;
}

}  // namespace bench
}  // namespace oreo

int main(int argc, char** argv) { return oreo::bench::Main(argc, argv); }
