// Quickstart: run OREO over a drifting query stream and compare against a
// single static layout.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <cstdio>

#include "core/engine.h"
#include "core/oreo.h"
#include "core/strategy.h"
#include "layout/qdtree_layout.h"
#include "workloads/dataset.h"
#include "workloads/workload_gen.h"

using namespace oreo;

int main() {
  // 1. A telemetry-style table: 60k ingestion-log rows.
  workloads::WorkloadDataset ds = workloads::MakeTelemetry(60000, /*seed=*/1);

  // 2. A drifting workload: 6000 queries that switch template every ~900.
  workloads::WorkloadOptions wopts;
  wopts.num_queries = 6000;
  wopts.num_segments = 7;
  wopts.seed = 3;
  workloads::Workload wl = workloads::GenerateWorkload(ds.templates, wopts);

  // 3. OREO with Qd-tree as the layout-generation mechanism, through the
  //    unified engine factory. (This walkthrough reads per-step layout
  //    names from the single shard's core registry; see sharded_quickstart /
  //    backend_quickstart for the num_shards and storage_backend knobs.)
  QdTreeGenerator generator;
  core::OreoOptions opts;
  opts.alpha = 80.0;
  opts.target_partitions = 24;
  auto oreo = core::MakeEngine(&ds.table, &generator, ds.time_column, opts);

  // Stream the queries through the framework.
  for (const Query& q : wl.queries) {
    core::OreoEngine::StepResult step = oreo->Step(q);
    if (step.reorganized) {
      std::printf("  query %5lld: reorganize -> %s\n",
                  static_cast<long long>(q.id),
                  oreo->core(0).registry().Get(step.state).name().c_str());
    }
  }

  // 4. Baseline: the best single layout, built with knowledge of the whole
  //    workload (the paper's Static baseline). A baseline is just another
  //    strategy for the same engine: the factory registers its layout.
  core::OreoOptions static_opts = opts;
  static_opts.strategy = [&](const Table& table, core::StateRegistry* registry,
                             const core::LayoutManager*, int, double) {
    Rng rng(99);
    Table sample = table.SampleRows(2000, &rng);
    // Static sees the full workload; subsample to keep construction fast.
    std::vector<Query> wl_sample;
    for (size_t i = 0; i < wl.queries.size(); i += 10) {
      wl_sample.push_back(wl.queries[i]);
    }
    auto layout = generator.Generate(sample, wl_sample, opts.target_partitions);
    int id = registry->Add(Materialize(
        "static:qdtree", std::shared_ptr<const Layout>(std::move(layout)),
        table));
    return std::make_unique<core::StaticStrategy>(id);
  };
  core::SimResult static_result =
      core::MakeEngine(&ds.table, &generator, ds.time_column, static_opts)
          ->RunTrace(wl.queries)
          .shards.front();

  // 5. Report.
  double oreo_total = oreo->total_cost();
  std::printf("\n%-22s %12s %12s %12s %10s\n", "method", "query_cost",
              "reorg_cost", "total", "switches");
  std::printf("%-22s %12.1f %12.1f %12.1f %10lld\n", "oreo",
              oreo->total_query_cost(), oreo->total_reorg_cost(), oreo_total,
              static_cast<long long>(oreo->num_switches()));
  std::printf("%-22s %12.1f %12.1f %12.1f %10d\n", "static (whole workload)",
              static_result.query_cost, static_result.reorg_cost,
              static_result.total_cost(), 0);
  std::printf("\nOREO total = %.1f%% of the static layout's total cost.\n",
              100.0 * oreo_total / static_result.total_cost());
  return 0;
}
