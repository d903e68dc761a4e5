// Figure 3 reproduction: end-to-end query + reorganization time for
// {Static, OREO, Greedy, Regret} x {Qd-tree, Z-order} x {TPC-H, TPC-DS,
// Telemetry}. The paper measures wall-clock in a shallow Spark integration;
// we replay each method's decision trace on the bundled columnar engine
// (partition block files on local disk; see "Substitutions" in
// docs/ARCHITECTURE.md) and, like the paper, estimate total query time from
// a ~10% query sample.
//
// Expected shape (paper SVI-B): OREO beats Static by up to ~32% with
// Qd-tree layouts; Greedy pays the most reorganization, Regret the least;
// Z-order layouts skip less than Qd-tree, shrinking everyone's gains.
//
// Flags: --datasets=tpch,tpcds,telemetry --generators=qdtree,zorder
//        --rows=N --queries=N --segments=N --seed=N --stride=N --full
#include <cstdio>
#include <filesystem>
#include <sstream>

#include "common.h"
#include "core/physical.h"
#include "layout/qdtree_layout.h"
#include "layout/zorder_layout.h"

namespace oreo {
namespace bench {
namespace {

namespace fs = std::filesystem;

struct PhysicalRun {
  core::PhysicalReplayResult replay;
  core::SimResult sim;
};

// Runs a method logically (to obtain the decision trace), then replays it
// physically to measure wall-clock seconds.
PhysicalRun RunPhysical(const std::string& method, const Fixture& f,
                        const LayoutGenerator& gen,
                        const core::OreoOptions& opts, size_t stride,
                        const std::string& dir) {
  core::SimResult sim;
  core::StateRegistry static_reg;
  // Each branch must keep its registry alive through the replay.
  std::unique_ptr<core::StateRegistry> reg;
  std::unique_ptr<core::LayoutManager> mgr;
  std::unique_ptr<core::Oreo> oreo;

  auto manager_opts = [&]() {
    core::LayoutManagerOptions m;
    m.window_size = opts.window_size;
    m.generate_every = opts.generate_every;
    m.epsilon = opts.epsilon;
    m.max_states = opts.max_states;
    m.target_partitions = opts.target_partitions;
    m.dataset_sample_rows = opts.dataset_sample_rows;
    m.seed = opts.seed ^ 0x9e3779b9;
    return m;
  };

  const core::StateRegistry* replay_reg = nullptr;
  if (method == "static") {
    Rng rng(opts.seed + 17);
    Table sample = f.ds.table.SampleRows(opts.dataset_sample_rows, &rng);
    std::vector<Query> wl_sample;
    size_t s = std::max<size_t>(1, f.wl.queries.size() / 1500);
    for (size_t i = 0; i < f.wl.queries.size(); i += s) {
      wl_sample.push_back(f.wl.queries[i]);
    }
    auto layout = gen.Generate(sample, wl_sample, opts.target_partitions);
    int id = static_reg.Add(
        Materialize("static", std::shared_ptr<const Layout>(std::move(layout)),
                    f.ds.table));
    core::StaticStrategy strategy(id);
    core::SimOptions so;
    so.alpha = opts.alpha;
    so.record_trace = true;
    sim = core::RunSimulation(&strategy, nullptr, &static_reg, f.wl.queries, so);
    replay_reg = &static_reg;
  } else if (method == "oreo") {
    oreo = std::make_unique<core::Oreo>(&f.ds.table, &gen, f.ds.time_column,
                                        opts);
    sim = oreo->Run(f.wl.queries, /*record_trace=*/true);
    replay_reg = &oreo->registry();
  } else {
    reg = std::make_unique<core::StateRegistry>();
    mgr = std::make_unique<core::LayoutManager>(&f.ds.table, &gen, reg.get(),
                                                manager_opts());
    int def = mgr->InitDefaultState(f.ds.time_column);
    std::unique_ptr<core::Strategy> strategy;
    if (method == "greedy") {
      strategy = std::make_unique<core::GreedyStrategy>(reg.get(), mgr.get(), def);
    } else {
      strategy = std::make_unique<core::RegretStrategy>(reg.get(), opts.alpha, def);
    }
    core::SimOptions so;
    so.alpha = opts.alpha;
    so.record_trace = true;
    sim = core::RunSimulation(strategy.get(), mgr.get(), reg.get(),
                              f.wl.queries, so);
    replay_reg = reg.get();
  }

  auto replay = core::ReplayPhysical(f.ds.table, *replay_reg, sim,
                                     f.wl.queries, stride, dir);
  OREO_CHECK(replay.ok()) << replay.status().ToString();
  return PhysicalRun{*replay, std::move(sim)};
}

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
  size_t stride = static_cast<size_t>(flags.GetInt("stride", 15));
  std::string dir = flags.GetString("dir", DefaultScratchDir("fig3"));

  std::printf("=== Figure 3: end-to-end query + reorganization time ===\n");
  std::printf("rows=%zu queries=%zu segments=%zu stride=%zu (query seconds "
              "scaled from a 1/%zu sample, as in the paper)\n\n",
              scale.rows, scale.queries, scale.segments, stride, stride);

  for (const std::string& dataset :
       Split(flags.GetString("datasets", "tpch,tpcds,telemetry"))) {
    Fixture f = MakeFixture(dataset, scale);
    for (const std::string& gname :
         Split(flags.GetString("generators", "qdtree,zorder"))) {
      std::unique_ptr<LayoutGenerator> gen;
      if (gname == "qdtree") {
        gen = std::make_unique<QdTreeGenerator>();
      } else {
        gen = std::make_unique<ZOrderGenerator>();
      }
      std::printf("--- %s / %s ---\n", dataset.c_str(), gname.c_str());
      std::printf("%-8s %12s %12s %12s %9s\n", "method", "query(s)",
                  "reorg(s)", "total(s)", "switches");
      double static_total = 0.0;
      for (const char* method : {"static", "oreo", "greedy", "regret"}) {
        fs::remove_all(dir);
        core::OreoOptions opts = DefaultOreoOptions(scale);
        PhysicalRun run = RunPhysical(method, f, *gen, opts, stride, dir);
        double total = run.replay.query_seconds + run.replay.reorg_seconds;
        if (method == std::string("static")) static_total = total;
        std::printf("%-8s %12.2f %12.2f %12.2f %9lld", method,
                    run.replay.query_seconds, run.replay.reorg_seconds, total,
                    static_cast<long long>(run.replay.num_switches));
        if (method != std::string("static") && static_total > 0) {
          std::printf("   (%+.1f%% vs static)",
                      100.0 * (total - static_total) / static_total);
        }
        std::printf("\n");
      }
      std::printf("\n");
    }
  }
  fs::remove_all(dir);
  return 0;
}

}  // namespace bench
}  // namespace oreo

int main(int argc, char** argv) { return oreo::bench::Main(argc, argv); }
