// Cloud-warehouse scenario: a denormalized TPC-H-like fact table under a
// template-switching analyst workload. Compares every reorganization policy
// the paper evaluates — Static, OREO, Greedy, Regret, MTS-Optimal,
// Offline-Optimal — on logical costs (fraction of data scanned + alpha per
// reorganization), reproducing the Section VI ordering at example scale.
//
// Run: ./build/examples/warehouse_comparison
#include <cstdio>

#include "core/engine.h"
#include "core/oreo.h"
#include "core/strategy.h"
#include "layout/qdtree_layout.h"
#include "workloads/dataset.h"
#include "workloads/workload_gen.h"

using namespace oreo;
using core::SimResult;

namespace {

void Report(const char* name, const SimResult& r, double static_total) {
  std::printf("%-16s query=%8.1f reorg=%7.1f total=%8.1f switches=%3lld",
              name, r.query_cost, r.reorg_cost, r.total_cost(),
              static_cast<long long>(r.num_switches));
  if (static_total > 0) {
    std::printf("  (%+.1f%% vs static)",
                100.0 * (r.total_cost() - static_total) / static_total);
  }
  std::printf("\n");
}

}  // namespace

int main() {
  // Segment length relative to alpha follows the paper's regime (~1400
  // queries per segment at alpha=80) so reorganizations can amortize.
  std::printf("Building TPC-H-like table (50k rows) and workload "
              "(20k queries, 14 segments)...\n\n");
  workloads::WorkloadDataset ds = workloads::MakeTpchLike(50000, 31);
  workloads::WorkloadOptions wopts;
  wopts.num_queries = 20000;
  wopts.num_segments = 14;
  wopts.seed = 32;
  workloads::Workload wl = workloads::GenerateWorkload(ds.templates, wopts);

  QdTreeGenerator gen;
  core::OreoOptions opts;
  opts.target_partitions = 24;
  opts.seed = 33;

  // Every method runs through the same engine; a baseline is just the
  // strategy its factory builds (null = OREO).
  auto run = [&](core::StrategyFactory strategy) {
    core::OreoOptions method_opts = opts;
    method_opts.strategy = std::move(strategy);
    return core::MakeEngine(&ds.table, &gen, ds.time_column, method_opts)
        ->RunTrace(wl.queries)
        .shards.front();
  };
  using Made = std::unique_ptr<core::Strategy>;

  // --- Static: one layout optimized for the whole (known) workload. ---
  Rng rng(34);
  Table sample = ds.table.SampleRows(2000, &rng);
  std::vector<Query> wl_sample;
  for (size_t i = 0; i < wl.queries.size(); i += 10) {
    wl_sample.push_back(wl.queries[i]);
  }
  SimResult r_static = run([&](const Table& table, core::StateRegistry* reg,
                               const core::LayoutManager*, int,
                               double) -> Made {
    int id = reg->Add(Materialize(
        "static",
        std::shared_ptr<const Layout>(gen.Generate(sample, wl_sample, 24)),
        table));
    return std::make_unique<core::StaticStrategy>(id);
  });

  // --- OREO. ---
  SimResult r_oreo = run(nullptr);

  // --- Greedy & Regret (same candidate pipeline as OREO). ---
  SimResult r_greedy = run([](const Table&, core::StateRegistry* reg,
                              const core::LayoutManager* mgr, int def,
                              double) -> Made {
    return std::make_unique<core::GreedyStrategy>(reg, mgr, def);
  });
  SimResult r_regret = run([](const Table&, core::StateRegistry* reg,
                              const core::LayoutManager*, int def,
                              double alpha) -> Made {
    return std::make_unique<core::RegretStrategy>(reg, alpha, def);
  });

  // --- Oracles with precomputed per-template layouts (SVI-C). ---
  auto template_states = [&](const Table& table, core::StateRegistry* reg) {
    return core::BuildPerTemplateStates(table, sample, ds.templates, gen, 24,
                                        200, 35, reg);
  };
  SimResult r_mts = run([&](const Table& table, core::StateRegistry* reg,
                            const core::LayoutManager*, int,
                            double alpha) -> Made {
    std::vector<int> tpl_states = template_states(table, reg);
    mts::DumtsOptions dopts;
    dopts.alpha = alpha;
    dopts.gamma = 1.0;
    dopts.seed = 36;
    const int initial =
        tpl_states[static_cast<size_t>(wl.queries.front().template_id)];
    return std::make_unique<core::MtsOptimalStrategy>(
        reg, std::move(tpl_states), initial, dopts);
  });
  SimResult r_offline = run([&](const Table& table, core::StateRegistry* reg,
                                const core::LayoutManager*, int,
                                double) -> Made {
    return std::make_unique<core::OfflineOptimalStrategy>(
        template_states(table, reg), &wl);
  });

  std::printf("Logical costs (fraction of table scanned per query; "
              "alpha=%.0f per reorganization):\n\n", opts.alpha);
  double st = r_static.total_cost();
  Report("static", r_static, 0);
  Report("oreo", r_oreo, st);
  Report("greedy", r_greedy, st);
  Report("regret", r_regret, st);
  Report("mts_optimal*", r_mts, st);
  Report("offline_optimal*", r_offline, st);
  std::printf("\n(*) oracles use workload knowledge unavailable to online "
              "methods.\nExpected ordering (paper SVI): offline < mts/oreo < "
              "static; greedy reorganizes most,\nregret least.\n");
  return 0;
}
