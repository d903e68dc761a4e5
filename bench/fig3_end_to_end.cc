// Figure 3 reproduction: end-to-end query + reorganization time for
// {Static, OREO, Greedy, Regret} x {Qd-tree, Z-order} x {TPC-H, TPC-DS,
// Telemetry}. The paper measures wall-clock in a shallow Spark integration;
// we run every method through the engine's live loop on the bundled
// columnar engine (partition block files on local disk; see "Substitutions"
// in docs/ARCHITECTURE.md). Every query executes: each batch of 64 is
// decided (RunBatch) and scanned against the pinned snapshot
// (ExecuteBatchPhysical), then the rewrites it triggered are drained
// (WaitForReorgs). query(s) sums the batch scans, reorg(s) the drains.
//
// Expected shape (paper SVI-B): OREO beats Static by up to ~32% with
// Qd-tree layouts; Greedy pays the most reorganization, Regret the least;
// Z-order layouts skip less than Qd-tree, shrinking everyone's gains.
//
// Flags: --datasets=tpch,tpcds,telemetry --generators=qdtree,zorder
//        --rows=N --queries=N --segments=N --seed=N --full --dir=PATH
#include <cstdio>
#include <filesystem>
#include <sstream>

#include "common.h"
#include "common/stopwatch.h"
#include "core/engine.h"
#include "layout/qdtree_layout.h"
#include "layout/zorder_layout.h"

namespace oreo {
namespace bench {
namespace {

namespace fs = std::filesystem;

constexpr size_t kBatchSize = 64;

struct LiveRun {
  double query_seconds = 0.0;
  double reorg_seconds = 0.0;
  int64_t switches = 0;
};

// Runs `method` through the live engine loop over the whole workload. The
// initial materialization is not measured: the system starts with its first
// layout already on disk.
LiveRun RunLive(const std::string& method, const Fixture& f,
                const LayoutGenerator& gen, const core::OreoOptions& base,
                const std::string& dir) {
  core::OreoOptions opts = base;
  opts.strategy = MethodStrategy(method, f, gen, base);
  std::unique_ptr<core::OreoEngine> engine =
      core::MakeEngine(&f.ds.table, &gen, f.ds.time_column, opts);
  Status attached = engine->AttachPhysical(dir, /*store_threads=*/0);
  OREO_CHECK(attached.ok()) << attached.ToString();
  LiveRun run;
  for (const QueryBatch& batch : MakeBatches(f.wl.queries, kBatchSize)) {
    engine->RunBatch(batch);
    auto exec = engine->ExecuteBatchPhysical(batch.queries);
    OREO_CHECK(exec.ok()) << exec.status().ToString();
    run.query_seconds += exec->seconds;
    Stopwatch drain;
    engine->WaitForReorgs();
    run.reorg_seconds += drain.ElapsedSeconds();
  }
  run.switches = engine->num_switches();
  return run;
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
  std::string dir = flags.GetString("dir", DefaultScratchDir("fig3"));

  std::printf("=== Figure 3: end-to-end query + reorganization time ===\n");
  std::printf("rows=%zu queries=%zu segments=%zu (live engine loop, batches "
              "of %zu, every query executed)\n\n",
              scale.rows, scale.queries, scale.segments, kBatchSize);

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
        LiveRun run =
            RunLive(method, f, *gen, DefaultOreoOptions(scale), dir);
        double total = run.query_seconds + run.reorg_seconds;
        if (method == std::string("static")) static_total = total;
        std::printf("%-8s %12.2f %12.2f %12.2f %9lld", method,
                    run.query_seconds, run.reorg_seconds, total,
                    static_cast<long long>(run.switches));
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
