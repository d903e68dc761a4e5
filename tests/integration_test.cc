// End-to-end integration tests: the full OREO loop (layout manager +
// D-UMTS reorganizer) and every baseline, all run through the engine's one
// decision loop on the paper's workload shapes, at reduced scale. Verifies
// the headline qualitative results: OREO adapts to drift, beats the static
// layout on drifting workloads, stays between Greedy and Regret in
// reorganization aggressiveness, and the live physical loop agrees with the
// logical trace. The baselines' traces are pinned to golden values.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "core/background.h"
#include "core/engine.h"
#include "core/oreo.h"
#include "core/physical.h"
#include "core/strategy.h"
#include "layout/qdtree_layout.h"
#include "test_util.h"
#include "workloads/dataset.h"
#include "workloads/workload_gen.h"

namespace oreo {
namespace core {
namespace {

struct Fixture {
  workloads::WorkloadDataset ds;
  workloads::Workload wl;
};

Fixture MakeFixture(const std::string& dataset, size_t rows, size_t queries,
                    size_t segments, uint64_t seed) {
  Fixture f{workloads::MakeDataset(dataset, rows, seed), {}};
  workloads::WorkloadOptions wopts;
  wopts.num_queries = queries;
  wopts.num_segments = segments;
  wopts.seed = seed + 1;
  f.wl = workloads::GenerateWorkload(f.ds.templates, wopts);
  return f;
}

OreoOptions SmallOpts(double alpha = 40.0) {
  OreoOptions o;
  o.alpha = alpha;
  o.window_size = 100;
  o.generate_every = 100;
  o.target_partitions = 16;
  o.dataset_sample_rows = 800;
  o.max_states = 8;
  o.seed = 5;
  return o;
}

// One recorded run in a golden-comparable form: costs as hex floats, every
// switch event with layout names (ids shift with the registry's contents),
// and an FNV-1a hash of the cumulative-cost trace's bits.
std::string TraceSummary(const Oreo& oreo, const SimResult& r) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "query=%a reorg=%a switches=%lld events=",
                r.query_cost, r.reorg_cost,
                static_cast<long long>(r.num_switches));
  std::string out = buf;
  for (const auto& [t, from, to] : r.switch_events) {
    out += std::to_string(t) + ":" + oreo.registry().Get(from).name() + ">" +
           oreo.registry().Get(to).name() + ",";
  }
  uint64_t hash = 1469598103934665603ULL;
  for (double d : r.cumulative) {
    uint64_t bits;
    std::memcpy(&bits, &d, sizeof(bits));
    for (int i = 0; i < 8; ++i) {
      hash ^= (bits >> (8 * i)) & 0xff;
      hash *= 1099511628211ULL;
    }
  }
  std::snprintf(buf, sizeof(buf), " cumulative=%016" PRIx64, hash);
  return out + buf;
}

// Runs `strategy` through Oreo::Run with a recorded trace and returns its
// golden-comparable summary; `out` (optional) receives the result.
std::string RunSummary(const Fixture& f, const LayoutGenerator& gen,
                       OreoOptions opts, StrategyFactory strategy,
                       SimResult* out = nullptr) {
  opts.strategy = std::move(strategy);
  Oreo oreo(&f.ds.table, &gen, f.ds.time_column, opts);
  SimResult r = oreo.Run(f.wl.queries, /*record_trace=*/true);
  std::string summary = TraceSummary(oreo, r);
  if (out != nullptr) *out = std::move(r);
  return summary;
}

// The Static baseline: one layout built with whole-workload knowledge.
StrategyFactory StaticFactory(const Fixture& f, const LayoutGenerator& gen,
                              const OreoOptions& opts) {
  return [&f, &gen, opts](const Table& table, StateRegistry* reg,
                          const LayoutManager*, int, double) {
    Rng rng(17);
    Table sample = table.SampleRows(opts.dataset_sample_rows, &rng);
    std::vector<Query> wl_sample;
    for (size_t i = 0; i < f.wl.queries.size(); i += 10) {
      wl_sample.push_back(f.wl.queries[i]);
    }
    auto layout = gen.Generate(sample, wl_sample, opts.target_partitions);
    int id = reg->Add(Materialize(
        "static", std::shared_ptr<const Layout>(std::move(layout)), table));
    return std::make_unique<StaticStrategy>(id);
  };
}

TEST(IntegrationTest, OreoBeatsStaticOnDriftingTpch) {
  // Segment lengths relative to alpha mirror the paper's regime (30k queries
  // over 21 segments at alpha=80): switches must have room to amortize.
  Fixture f = MakeFixture("tpch", 20000, 6000, 10, 11);
  QdTreeGenerator gen;
  OreoOptions opts = SmallOpts();

  Oreo oreo(&f.ds.table, &gen, f.ds.time_column, opts);
  SimResult oreo_result = oreo.Run(f.wl.queries);
  SimResult static_result;
  EXPECT_EQ(RunSummary(f, gen, opts, StaticFactory(f, gen, opts),
                       &static_result),
            "query=0x1.ccbfc361133a3p+10 reorg=0x0p+0 switches=0 events= "
            "cumulative=46b532e0df578e7f");

  EXPECT_LT(oreo_result.total_cost(), static_result.total_cost());
  EXPECT_GE(oreo_result.num_switches, 1);
}

TEST(IntegrationTest, OreoAdaptsOnTelemetry) {
  Fixture f = MakeFixture("telemetry", 20000, 3000, 6, 13);
  QdTreeGenerator gen;
  OreoOptions opts = SmallOpts();
  Oreo oreo(&f.ds.table, &gen, f.ds.time_column, opts);
  SimResult r = oreo.Run(f.wl.queries);
  // Sanity: costs are positive and bounded by a full scan per query.
  EXPECT_GT(r.query_cost, 0.0);
  EXPECT_LT(r.query_cost, static_cast<double>(f.wl.queries.size()));
}

TEST(IntegrationTest, GreedySwitchesAtLeastAsOftenAsOreoWhichBeatsRegret) {
  // Paper SVI-B: Greedy is the most aggressive reorganizer, Regret the most
  // conservative, OREO in between.
  Fixture f = MakeFixture("tpch", 15000, 2500, 5, 17);
  QdTreeGenerator gen;
  OreoOptions opts = SmallOpts(60.0);

  // All three share the engine's candidate pipeline (the manager OREO
  // runs); Greedy and Regret differ only in the strategy.
  SimResult greedy;
  EXPECT_EQ(
      RunSummary(f, gen, opts,
                 [](const Table&, StateRegistry* reg, const LayoutManager* mgr,
                    int def, double) {
                   return std::make_unique<GreedyStrategy>(reg, mgr, def);
                 },
                 &greedy),
      "query=0x1.07ebc131d5ac5p+10 reorg=0x1.a4p+8 switches=7 "
      "events=100:default:sort(l_shipdate, k=16)>qdtree@q100,"
      "200:qdtree@q100>qdtree@q200,300:qdtree@q200>qdtree@q300,"
      "600:qdtree@q300>qdtree@q600,1100:qdtree@q600>qdtree@q1100,"
      "1300:qdtree@q1100>qdtree@q1300,2300:qdtree@q1300>qdtree@q2300, "
      "cumulative=355b041e321b8288");
  SimResult regret;
  EXPECT_EQ(
      RunSummary(f, gen, opts,
                 [](const Table&, StateRegistry* reg, const LayoutManager*,
                    int def, double alpha) {
                   return std::make_unique<RegretStrategy>(reg, alpha, def);
                 },
                 &regret),
      "query=0x1.0a5794f536bf7p+10 reorg=0x0p+0 switches=0 events= "
      "cumulative=9bd9f85a0dbf1de7");
  Oreo oreo(&f.ds.table, &gen, f.ds.time_column, opts);
  SimResult oreo_result = oreo.Run(f.wl.queries);

  EXPECT_GE(greedy.num_switches, oreo_result.num_switches);
  EXPECT_LE(regret.query_cost, regret.total_cost());
  // Greedy pays the least query cost among strategies sharing candidates.
  EXPECT_LE(greedy.query_cost, regret.query_cost * 1.2);
}

TEST(IntegrationTest, MtsOptimalAndOfflineOptimalOrdering) {
  // Offline Optimal (full workload knowledge, instant switches) lower-bounds
  // the query cost of MTS-Optimal over the same per-template state space.
  Fixture f = MakeFixture("tpch", 15000, 2000, 5, 19);
  QdTreeGenerator gen;
  OreoOptions opts = SmallOpts(40.0);
  auto template_states = [&](const Table& table, StateRegistry* reg) {
    Rng rng(23);
    Table sample = table.SampleRows(800, &rng);
    return BuildPerTemplateStates(table, sample, f.ds.templates, gen, 16, 100,
                                  29, reg);
  };

  SimResult off;
  EXPECT_EQ(
      RunSummary(f, gen, opts,
                 [&](const Table& table, StateRegistry* reg,
                     const LayoutManager*, int, double) {
                   return std::make_unique<OfflineOptimalStrategy>(
                       template_states(table, reg), &f.wl);
                 },
                 &off),
      "query=0x1.800e78f7f1cep+7 reorg=0x1.4p+7 switches=4 "
      "events=574:template:q14:qdtree>template:q4:qdtree,"
      "856:template:q4:qdtree>template:q6:qdtree,"
      "1321:template:q6:qdtree>template:q14:qdtree,"
      "1696:template:q14:qdtree>template:q3:qdtree, "
      "cumulative=ba28d8175e8116f6");

  SimResult mts_result;
  EXPECT_EQ(
      RunSummary(f, gen, opts,
                 [&](const Table& table, StateRegistry* reg,
                     const LayoutManager*, int, double alpha) {
                   std::vector<int> states = template_states(table, reg);
                   mts::DumtsOptions dopts;
                   dopts.alpha = alpha;
                   dopts.gamma = 1.0;
                   dopts.seed = 31;
                   const int initial = states[static_cast<size_t>(
                       f.wl.queries.front().template_id)];
                   return std::make_unique<MtsOptimalStrategy>(
                       reg, std::move(states), initial, dopts);
                 },
                 &mts_result),
      "query=0x1.e1af57ca7a9d8p+7 reorg=0x1.4p+7 switches=4 "
      "events=818:template:q14:qdtree>template:q4:qdtree,"
      "1042:template:q4:qdtree>template:q14:qdtree,"
      "1058:template:q14:qdtree>template:q6:qdtree,"
      "1491:template:q6:qdtree>template:q14:qdtree, "
      "cumulative=fb55abb470b78a39");

  EXPECT_LE(off.query_cost, mts_result.query_cost * 1.05);
  // Offline switches exactly at template changes: segments - 1.
  EXPECT_EQ(off.num_switches,
            static_cast<int64_t>(f.wl.segment_starts.size()) - 1);
}

TEST(IntegrationTest, PhysicalReplayAgreesWithLogicalTrace) {
  // The live loop executes every query of the logical run physically, in
  // batches of 64, draining rewrites after each batch. Its decisions are the
  // logical run's, its matches are ground truth, and its counters and final
  // partition files are pinned.
  namespace fs = std::filesystem;
  Fixture f = MakeFixture("telemetry", 8000, 1200, 4, 37);
  QdTreeGenerator gen;
  OreoOptions opts = SmallOpts();
  opts.max_states = 6;
  Oreo oreo(&f.ds.table, &gen, f.ds.time_column, opts);
  SimResult sim = oreo.Run(f.wl.queries, /*record_trace=*/true);

  opts.storage_backend = MakeInMemoryBackend();
  std::unique_ptr<OreoEngine> engine =
      MakeEngine(&f.ds.table, &gen, f.ds.time_column, opts);
  std::string dir = testutil::ScratchDir("integration_live");
  ASSERT_TRUE(engine->AttachPhysical(dir).ok());
  std::vector<uint64_t> matches;
  testutil::LiveLoopRun live =
      testutil::RunLiveLoop(engine.get(), f.wl.queries, 64, &matches);
  EXPECT_EQ(live.states, sim.serving_state);
  EXPECT_EQ(live.num_switches, sim.num_switches);
  EXPECT_EQ(live.total_cost, sim.total_cost());
  ASSERT_EQ(matches.size(), f.wl.queries.size());
  for (size_t i = 0; i < matches.size(); i += 50) {
    EXPECT_EQ(matches[i], CountMatches(f.ds.table, f.wl.queries[i]));
  }
  EXPECT_EQ(live.Summary(),
            "partitions_read=3398 rows_scanned=2030623 matches=147882 "
            "bytes_read=135891108 total_cost=0x1.4249eb851eb99p+8 switches=2 "
            "crcs=7839b323,ebc695ad,7628a00e,0352b4fa,2db901e7,b5de9fa0,"
            "a4e68da5,6ee903b9,4592e538,805af09f,73249585,62b99b52,aa867119,"
            "427b68d1,4a41ba60,7094c1d3");
  fs::remove_all(dir);
}

TEST(IntegrationTest, StreamingWithBackgroundPhysicalReorganization) {
  // The full production loop: OREO makes decisions online; a background
  // worker rewrites the table into each adopted layout while queries keep
  // being served (correctly) from a snapshot of whatever is on disk.
  namespace fs = std::filesystem;
  Fixture f = MakeFixture("telemetry", 6000, 900, 3, 47);
  QdTreeGenerator gen;
  OreoOptions opts = SmallOpts();
  opts.max_states = 6;
  Oreo oreo(&f.ds.table, &gen, f.ds.time_column, opts);

  std::string dir = testutil::ScratchDir("integration_bg");
  PhysicalStore store(dir);
  ASSERT_TRUE(store
                  .MaterializeLayout(f.ds.table,
                                     oreo.registry().Get(oreo.default_state()))
                  .ok());
  ReorgPool pool(1);  // one background process for the single store

  int64_t reorgs_submitted = 0;
  for (const Query& q : f.wl.queries) {
    Oreo::StepResult step = oreo.Step(q);
    if (step.reorganized) {
      // One background rewrite at a time: drain the previous one first.
      pool.Wait(0);
      store.Vacuum();
      ReorgPool::Job job;
      job.store = &store;
      job.table = &f.ds.table;
      job.target = &oreo.registry().Get(step.state);
      ASSERT_TRUE(pool.Submit(std::move(job)));
      ++reorgs_submitted;
    }
    if (q.id % 60 == 0) {
      // Queries are served from the current on-disk snapshot, which may lag
      // the logical decision — results must be exact either way.
      PhysicalStore::Snapshot snap = store.GetSnapshot();
      auto exec = store.ExecuteQueryOnSnapshot(snap, q);
      ASSERT_TRUE(exec.ok()) << exec.status().ToString();
      EXPECT_EQ(exec->matches, CountMatches(f.ds.table, q));
    }
  }
  pool.Wait(0);
  store.Vacuum();
  EXPECT_TRUE(pool.last_status(0).ok() || reorgs_submitted == 0);
  EXPECT_EQ(pool.stats().completed, reorgs_submitted);
  fs::remove_all(dir);
}

TEST(IntegrationTest, HigherAlphaNeverIncreasesSwitchCount) {
  // Figure 5's monotone trend: more expensive reorganization -> fewer (or
  // equal) layout changes.
  Fixture f = MakeFixture("tpch", 12000, 2000, 5, 41);
  QdTreeGenerator gen;
  auto switches_at = [&](double alpha) {
    OreoOptions opts = SmallOpts(alpha);
    Oreo oreo(&f.ds.table, &gen, f.ds.time_column, opts);
    return oreo.Run(f.wl.queries).num_switches;
  };
  int64_t low = switches_at(10.0);
  int64_t high = switches_at(400.0);
  EXPECT_GE(low, high);
}

TEST(IntegrationTest, DeterministicAcrossRuns) {
  Fixture f = MakeFixture("tpcds", 10000, 1500, 4, 43);
  QdTreeGenerator gen;
  OreoOptions opts = SmallOpts();
  Oreo a(&f.ds.table, &gen, f.ds.time_column, opts);
  Oreo b(&f.ds.table, &gen, f.ds.time_column, opts);
  SimResult ra = a.Run(f.wl.queries);
  SimResult rb = b.Run(f.wl.queries);
  EXPECT_DOUBLE_EQ(ra.query_cost, rb.query_cost);
  EXPECT_EQ(ra.num_switches, rb.num_switches);
}

}  // namespace
}  // namespace core
}  // namespace oreo
