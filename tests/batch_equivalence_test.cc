// The batched==serial equivalence wall for PR 3's batching + incremental
// statistics work. Three contracts are pinned here, for batch sizes
// {1, 7, 64} × thread counts {1, 8}:
//
//   1. Oreo::RunBatch produces bit-identical costs, switch decisions and
//      serving-state traces to feeding the same stream through Step one
//      query at a time.
//   2. PhysicalStore::ExecuteQueryBatch produces bit-identical per-query
//      counters to per-query ExecuteQuery, and the live loop replaying a
//      scripted decision trace leaves pinned counters and partition files
//      (CRCs) at every batch size and thread count.
//   3. The Layout Manager's incremental per-(state, chunk) cost cache
//      changes no admission, eviction, pruning or switch decision versus
//      from-scratch re-evaluation — while measurably reducing the number of
//      cost evaluations actually executed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "core/background.h"
#include "core/oreo.h"
#include "core/physical.h"
#include "layout/qdtree_layout.h"
#include "layout/sorted_layout.h"
#include "sampling/workload_stats.h"
#include "test_util.h"

namespace oreo {
namespace core {
namespace {

namespace fs = std::filesystem;

constexpr size_t kBatchSizes[] = {1, 7, 64};
constexpr size_t kThreadCounts[] = {1, 8};

// ------------------------------------------------- Oreo::RunBatch wall ----

OreoOptions SmallOreoOptions(uint64_t seed, size_t num_threads) {
  OreoOptions opts;
  opts.seed = seed;
  opts.num_threads = num_threads;
  opts.window_size = 60;
  opts.generate_every = 60;
  opts.max_states = 4;  // small cap: exercise eviction + pruning paths
  opts.target_partitions = 8;
  opts.dataset_sample_rows = 400;
  return opts;
}

// Two workload phases so the manager admits states and D-UMTS switches.
std::vector<Query> TwoPhaseStream(uint64_t seed) {
  std::vector<Query> stream =
      testutil::MakeRangeWorkload(0, 3000, 150, 150, seed + 1);
  std::vector<Query> phase2 =
      testutil::MakeRangeWorkload(1, 1000, 50, 150, seed + 2);
  stream.insert(stream.end(), phase2.begin(), phase2.end());
  return stream;
}

struct LogicalFingerprint {
  std::vector<int> states;
  std::vector<double> costs;
  std::vector<bool> reorganized;
  double query_cost = 0.0;
  double reorg_cost = 0.0;
  int64_t num_switches = 0;
  size_t num_total_states = 0;

  bool operator==(const LogicalFingerprint& o) const {
    return states == o.states && costs == o.costs &&
           reorganized == o.reorganized && query_cost == o.query_cost &&
           reorg_cost == o.reorg_cost && num_switches == o.num_switches &&
           num_total_states == o.num_total_states;
  }
};

void RecordStep(const Oreo::StepResult& step, LogicalFingerprint* fp) {
  fp->states.push_back(step.state);
  fp->costs.push_back(step.query_cost);
  fp->reorganized.push_back(step.reorganized);
}

void FinishFingerprint(const Oreo& oreo, LogicalFingerprint* fp) {
  fp->query_cost = oreo.total_query_cost();
  fp->reorg_cost = oreo.total_reorg_cost();
  fp->num_switches = oreo.num_switches();
  fp->num_total_states = oreo.registry().num_total();
}

TEST(BatchEquivalenceTest, RunBatchMatchesStepAtEveryBatchSizeAndThreadCount) {
  QdTreeGenerator gen;
  const uint64_t seed = 5;
  Table t = testutil::MakeEventTable(3000, seed);
  std::vector<Query> stream = TwoPhaseStream(seed);

  for (size_t threads : kThreadCounts) {
    LogicalFingerprint serial;
    {
      Oreo oreo(&t, &gen, /*time_column=*/0,
                SmallOreoOptions(seed, threads));
      for (const Query& q : stream) RecordStep(oreo.Step(q), &serial);
      FinishFingerprint(oreo, &serial);
    }
    ASSERT_GT(serial.num_switches, 0) << "fixture too tame to test switches";

    for (size_t batch_size : kBatchSizes) {
      LogicalFingerprint batched;
      Oreo oreo(&t, &gen, /*time_column=*/0, SmallOreoOptions(seed, threads));
      double batch_cost_total = 0.0;
      for (const QueryBatch& b : MakeBatches(stream, batch_size)) {
        Oreo::BatchResult result = oreo.RunBatch(b);
        ASSERT_EQ(result.steps.size(), b.size());
        batch_cost_total += result.query_cost;
        for (const Oreo::StepResult& step : result.steps) {
          RecordStep(step, &batched);
        }
      }
      FinishFingerprint(oreo, &batched);
      EXPECT_TRUE(serial == batched)
          << "logical fingerprint diverged at batch_size=" << batch_size
          << " threads=" << threads;
      // The per-batch accounting must add up to the global accounting.
      EXPECT_DOUBLE_EQ(batch_cost_total, oreo.total_query_cost());
    }
  }
}

// ------------------------------------- physical batched-execution wall ----

TEST(BatchEquivalenceTest, ExecuteQueryBatchMatchesPerQueryExecution) {
  const uint64_t seed = 77;
  Table t = testutil::MakeEventTable(4000, seed);
  LayoutInstance by_ts =
      testutil::MakeSortedInstance(t, 0, 16, "by_ts", /*sample_seed=*/3);

  // Mixed selectivity plus a full scan: batches must interleave wide and
  // narrow fan-outs without perturbing any per-query counter.
  std::vector<Query> queries =
      testutil::MakeRangeWorkload(0, 4000, 300, 40, seed + 1);
  std::vector<Query> narrow =
      testutil::MakeRangeWorkload(1, 1000, 30, 23, seed + 2);
  queries.insert(queries.end(), narrow.begin(), narrow.end());
  queries.push_back(Query{});  // conjunct-free full scan

  for (size_t threads : kThreadCounts) {
    std::string dir = testutil::ScratchDir("batch_eq_exec_" +
                                           std::to_string(threads));
    PhysicalStore store(dir, threads, testutil::TestBackend("inmem"));
    auto mat = store.MaterializeLayout(t, by_ts);
    ASSERT_TRUE(mat.ok()) << mat.status().ToString();

    std::vector<PhysicalStore::QueryExec> serial;
    for (const Query& q : queries) {
      auto exec = store.ExecuteQuery(q);
      ASSERT_TRUE(exec.ok()) << exec.status().ToString();
      serial.push_back(*exec);
    }

    for (size_t batch_size : kBatchSizes) {
      std::vector<PhysicalStore::QueryExec> batched;
      for (const QueryBatch& b : MakeBatches(queries, batch_size)) {
        auto result = store.ExecuteQueryBatch(b.queries);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        ASSERT_EQ(result->per_query.size(), b.size());
        for (const auto& exec : result->per_query) batched.push_back(exec);
      }
      ASSERT_EQ(batched.size(), serial.size());
      for (size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].partitions_read, batched[i].partitions_read)
            << "query " << i << " batch_size " << batch_size;
        EXPECT_EQ(serial[i].rows_scanned, batched[i].rows_scanned);
        EXPECT_EQ(serial[i].matches, batched[i].matches);
        EXPECT_EQ(serial[i].bytes_read, batched[i].bytes_read);
      }
    }
    fs::remove_all(dir);
  }
}

TEST(BatchEquivalenceTest, BatchedReplayMatchesCountersAndFileCrcs) {
  // s0 -> s1 at query 20 -> s0 at query 44, through the live loop. A batch
  // scans the snapshot it started on and rewrites are drained after it, so
  // scan counters depend on the batch size (at 64 both switches fall inside
  // one batch and nothing is rewritten) but never on the thread count;
  // matches are ground truth at every batch size.
  Table t = testutil::MakeEventTable(2000, 31);
  std::vector<Query> queries =
      testutil::MakeRangeWorkload(1, 1000, 100, 60, 32, /*assign_ids=*/true);
  const std::string kCost = " total_cost=0x1.927df3b645a1cp+7 switches=2 ";
  const std::string kRewrittenCrcs =
      "crcs=ceb8bb6b,cc6b7f76,ab727713,2faadde2,7009b039,1f791f4d,4f475b9c,"
      "fa07aa3e";
  const std::vector<std::pair<size_t, std::string>> kGolden = {
      {1, "partitions_read=330 rows_scanned=82492 matches=12052 "
          "bytes_read=1308283" + kCost + kRewrittenCrcs},
      {7, "partitions_read=304 rows_scanned=76200 matches=12052 "
          "bytes_read=1168459" + kCost + kRewrittenCrcs},
      {64, "partitions_read=480 rows_scanned=120000 matches=12052 "
           "bytes_read=1597860" + kCost +
           "crcs=30841389,f5a83a31,da06dcc7,b57515a4,b898e3d3,a9e75faa,"
           "26be0e99,a09c340c"},
  };
  QdTreeGenerator gen;
  for (const auto& [batch_size, golden] : kGolden) {
    for (size_t threads : kThreadCounts) {
      OreoOptions opts = SmallOreoOptions(31, threads);
      opts.storage_backend = testutil::TestBackend("inmem");
      opts.strategy =
          testutil::ScriptedSortFactory({0, 1}, 8, 3, {{20, 1}, {44, 0}});
      std::unique_ptr<OreoEngine> engine = MakeEngine(&t, &gen, 0, opts);
      std::string dir = testutil::ScratchDir(
          "batch_eq_live_" + std::to_string(threads) + "_" +
          std::to_string(batch_size));
      ASSERT_TRUE(engine->AttachPhysical(dir, threads).ok());
      EXPECT_EQ(testutil::RunLiveLoop(engine.get(), queries, batch_size)
                    .Summary(),
                golden)
          << "threads=" << threads << " batch_size=" << batch_size;
      fs::remove_all(dir);
    }
  }
}

// -------------------------------- incremental layout-generation wall ----

TEST(BatchEquivalenceTest, IncrementalCostCacheChangesNoDecision) {
  QdTreeGenerator gen;
  for (uint64_t seed : {5u, 6u}) {
    Table t = testutil::MakeEventTable(3000, seed);
    std::vector<Query> stream = TwoPhaseStream(seed);

    OreoOptions scratch_opts = SmallOreoOptions(seed, /*num_threads=*/8);
    scratch_opts.incremental_cost_cache = false;
    Oreo scratch(&t, &gen, 0, scratch_opts);
    SimResult rs = scratch.Run(stream, /*record_trace=*/true);

    OreoOptions cached_opts = SmallOreoOptions(seed, /*num_threads=*/8);
    cached_opts.incremental_cost_cache = true;
    Oreo cached(&t, &gen, 0, cached_opts);
    SimResult rc = cached.Run(stream, /*record_trace=*/true);

    // Bit-identical decisions and accounting: exact equality intentional.
    EXPECT_EQ(rs.query_cost, rc.query_cost);
    EXPECT_EQ(rs.reorg_cost, rc.reorg_cost);
    EXPECT_EQ(rs.num_switches, rc.num_switches);
    EXPECT_EQ(rs.serving_state, rc.serving_state);
    EXPECT_EQ(rs.switch_events, rc.switch_events);
    EXPECT_EQ(rs.cumulative, rc.cumulative);
    EXPECT_EQ(rs.final_live_states, rc.final_live_states);

    // Identical candidates: every generated state, admitted or not.
    const auto& ms = scratch.manager();
    const auto& mc = cached.manager();
    EXPECT_EQ(ms.generations_attempted(), mc.generations_attempted());
    EXPECT_EQ(ms.candidates_admitted(), mc.candidates_admitted());
    EXPECT_EQ(ms.candidates_rejected(), mc.candidates_rejected());
    ASSERT_EQ(scratch.registry().num_total(), cached.registry().num_total());
    for (size_t id = 0; id < scratch.registry().num_total(); ++id) {
      EXPECT_EQ(scratch.registry().Get(static_cast<int>(id)).name(),
                cached.registry().Get(static_cast<int>(id)).name());
    }

    // ... while doing measurably less cost-evaluation work.
    EXPECT_GT(mc.cost_evals_reused(), 0u) << "cache never hit";
    EXPECT_LT(mc.cost_evals_computed(), ms.cost_evals_computed())
        << "cache did not reduce work";
    EXPECT_EQ(ms.cost_evals_reused(), 0u);
    // Scratch and cached paths answer the same total evaluation demand.
    EXPECT_EQ(ms.cost_evals_computed(),
              mc.cost_evals_computed() + mc.cost_evals_reused());
  }
}

// ------------------------------------ high-throughput client scenario ----

// Many queries arrive between reorganization cadences: the foreground
// executes whole batches against a snapshot while the background rewrites
// the layout; generation() tells the client when to refresh its snapshot.
// Counters must match a fully serial execution of the same plan.
TEST(BatchEquivalenceTest, HighThroughputClientOverlapsBatchesWithReorg) {
  Table t = testutil::MakeEventTable(3000, 91);
  LayoutInstance by_ts =
      testutil::MakeSortedInstance(t, 0, 12, "by_ts", /*sample_seed=*/3);
  LayoutInstance by_qty =
      testutil::MakeSortedInstance(t, 1, 12, "by_qty", /*sample_seed=*/3);

  std::vector<Query> stream =
      testutil::MakeRangeWorkload(1, 1000, 120, 96, 92);
  const size_t batch_size = 16;

  // Serial reference: all batches on the initial layout (snapshot shields
  // the foreground from the concurrent rewrite until it opts in).
  std::vector<uint64_t> expected;
  {
    std::string dir = testutil::ScratchDir("batch_eq_client_ref");
    PhysicalStore store(dir, 1);
    ASSERT_TRUE(store.MaterializeLayout(t, by_ts).ok());
    for (const Query& q : stream) {
      auto exec = store.ExecuteQuery(q);
      ASSERT_TRUE(exec.ok());
      expected.push_back(exec->matches);
    }
    fs::remove_all(dir);
  }

  std::string dir = testutil::ScratchDir("batch_eq_client");
  PhysicalStore store(dir, 4);
  ASSERT_TRUE(store.MaterializeLayout(t, by_ts).ok());
  ReorgPool pool(1);
  const uint64_t gen_before = pool.generation(0);

  PhysicalStore::Snapshot snap = store.GetSnapshot();
  ReorgPool::Job job;
  job.store = &store;
  job.table = &t;
  job.target = &by_qty;
  ASSERT_TRUE(pool.Submit(std::move(job)));

  std::vector<uint64_t> got;
  bool refreshed = false;
  for (const QueryBatch& b : MakeBatches(stream, batch_size)) {
    auto result = store.ExecuteQueryBatchOnSnapshot(snap, b.queries);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    for (const auto& exec : result->per_query) got.push_back(exec.matches);
    // Between batches: adopt the new layout once the background rewrite is
    // done. (For the counter comparison we keep querying the *old* snapshot
    // until then — exactly what a real client sees mid-rewrite.)
    if (!refreshed && pool.generation(0) > gen_before) {
      ASSERT_TRUE(pool.last_status(0).ok()) << pool.last_status(0).ToString();
      refreshed = true;
    }
  }
  EXPECT_EQ(got, expected)
      << "snapshot isolation broke under background reorganization";

  pool.Wait(0);
  EXPECT_EQ(pool.generation(0), gen_before + 1);
  EXPECT_EQ(store.current_instance(), &by_qty);
  store.Vacuum();  // no snapshot readers remain

  // After adopting the new layout, batched results must equal per-query
  // results on the reorganized files too.
  PhysicalStore::Snapshot fresh = store.GetSnapshot();
  auto batched = store.ExecuteQueryBatchOnSnapshot(
      fresh, {stream[0], stream[1], Query{}});
  ASSERT_TRUE(batched.ok());
  for (size_t i = 0; i < 2; ++i) {
    auto single = store.ExecuteQueryOnSnapshot(fresh, stream[i]);
    ASSERT_TRUE(single.ok());
    EXPECT_EQ(single->matches, batched->per_query[i].matches);
  }
  EXPECT_EQ(batched->per_query[2].matches, t.num_rows());
  fs::remove_all(dir);
}

// -------------------------------------------- WorkloadStatistics unit ----

TEST(BatchEquivalenceTest, WorkloadStatisticsChunkVersionsTrackMutations) {
  WorkloadStatistics::Options opt;
  opt.sample_capacity = 16;
  opt.lambda = 0.05;
  opt.chunk_size = 4;
  WorkloadStatistics stats(opt, Rng(7));

  std::vector<Query> queries =
      testutil::MakeRangeWorkload(0, 1000, 50, 400, 8, /*assign_ids=*/true);
  for (size_t i = 0; i < 16; ++i) stats.Observe(queries[i]);
  EXPECT_EQ(stats.sample_size(), 16u);
  EXPECT_EQ(stats.queries_seen(), 16u);

  auto chunks = stats.SampleChunks();
  ASSERT_EQ(chunks.size(), 4u);
  uint64_t version_sum = 0;
  for (const auto& c : chunks) {
    EXPECT_EQ(c.queries.size(), 4u);
    version_sum += c.version;
  }
  // Filling bumps each slot's chunk exactly once.
  EXPECT_EQ(version_sum, 16u);
  EXPECT_EQ(stats.sample_version(), 16u);

  // Feed the rest: every further mutation must bump exactly one chunk
  // version, and the flattened chunks must equal SampleItems().
  for (size_t i = 16; i < queries.size(); ++i) {
    const uint64_t before = stats.sample_version();
    auto chunks_before = stats.SampleChunks();
    stats.Observe(queries[i]);
    const uint64_t delta = stats.sample_version() - before;
    ASSERT_LE(delta, 1u);
    auto chunks_after = stats.SampleChunks();
    size_t bumped = 0;
    for (size_t c = 0; c < chunks_after.size(); ++c) {
      bumped += chunks_after[c].version != chunks_before[c].version ? 1 : 0;
    }
    EXPECT_EQ(bumped, delta);
  }
  EXPECT_GT(stats.sample_version(), 16u) << "no replacement ever happened";

  std::vector<Query> flat;
  for (const auto& c : stats.SampleChunks()) {
    EXPECT_EQ(c.first_slot, c.index * opt.chunk_size);
    for (const Query& q : c.queries) flat.push_back(q);
  }
  std::vector<Query> items = stats.SampleItems();
  ASSERT_EQ(flat.size(), items.size());
  for (size_t i = 0; i < flat.size(); ++i) {
    EXPECT_EQ(flat[i].id, items[i].id);
  }

  // Aggregates: one Between predicate per query, all on column 0.
  EXPECT_EQ(stats.queries_seen(), queries.size());
  EXPECT_EQ(stats.template_counts().at(-1), queries.size());
  ASSERT_EQ(stats.column_predicate_counts().size(), 1u);
  EXPECT_EQ(stats.column_predicate_counts()[0], queries.size());
  EXPECT_DOUBLE_EQ(stats.mean_conjuncts(), 1.0);
}

TEST(BatchEquivalenceTest, MakeBatchesCoversStreamInOrder) {
  std::vector<Query> stream =
      testutil::MakeRangeWorkload(0, 100, 10, 10, 3, /*assign_ids=*/true);
  for (size_t batch_size : {1u, 3u, 10u, 64u}) {
    auto batches = MakeBatches(stream, batch_size);
    size_t total = 0;
    int64_t next_id = 0;
    for (const QueryBatch& b : batches) {
      EXPECT_LE(b.size(), batch_size);
      EXPECT_FALSE(b.empty());
      for (const Query& q : b.queries) {
        EXPECT_EQ(q.id, next_id++);
      }
      total += b.size();
    }
    EXPECT_EQ(total, stream.size());
    EXPECT_EQ(batches.size(), (stream.size() + batch_size - 1) / batch_size);
  }
  EXPECT_TRUE(MakeBatches({}, 4).empty());
}

}  // namespace
}  // namespace core
}  // namespace oreo
