// Tests for the physical execution substrate: materialization, query
// execution with pruning, full reorganization (row preservation), and the
// engine's live loop that the Figure 3 benchmark runs every method through.
#include <gtest/gtest.h>

#include <filesystem>
#include <set>

#include "core/background.h"
#include "core/physical.h"
#include "core/sharded_oreo.h"
#include "core/strategy.h"
#include "layout/qdtree_layout.h"
#include "layout/sorted_layout.h"
#include "test_util.h"

namespace oreo {
namespace core {
namespace {

namespace fs = std::filesystem;

Table MakeTable(size_t rows, uint64_t seed) {
  return testutil::MakeEventTable(rows, seed);
}

LayoutInstance SortedInstance(const Table& t, int col, uint32_t k,
                              const std::string& name) {
  return testutil::MakeSortedInstance(t, col, k, name, /*sample_seed=*/3);
}

std::string TempDir(const std::string& tag) {
  return testutil::ScratchDir("phys_" + tag);
}

TEST(PhysicalStoreTest, MaterializeWritesAllPartitions) {
  Table t = MakeTable(2000, 1);
  LayoutInstance inst = SortedInstance(t, 0, 8, "by_ts");
  PhysicalStore store(TempDir("mat"));
  auto timing = store.MaterializeLayout(t, inst);
  ASSERT_TRUE(timing.ok()) << timing.status().ToString();
  EXPECT_EQ(timing->partitions, inst.partitioning().num_partitions());
  EXPECT_GT(timing->bytes, 0u);
  EXPECT_EQ(store.MaterializedBytes(), timing->bytes);
}

TEST(PhysicalStoreTest, FullScanReadsEverything) {
  Table t = MakeTable(2000, 2);
  LayoutInstance inst = SortedInstance(t, 0, 8, "by_ts");
  PhysicalStore store(TempDir("scan"));
  ASSERT_TRUE(store.MaterializeLayout(t, inst).ok());
  Query q;  // full scan
  auto exec = store.ExecuteQuery(q);
  ASSERT_TRUE(exec.ok());
  EXPECT_EQ(exec->rows_scanned, 2000u);
  EXPECT_EQ(exec->matches, 2000u);
  EXPECT_EQ(exec->partitions_read, inst.partitioning().num_partitions());
}

TEST(PhysicalStoreTest, PruningSkipsPartitionsAndMatchesLogicalCount) {
  Table t = MakeTable(4000, 3);
  LayoutInstance inst = SortedInstance(t, 0, 16, "by_ts");
  PhysicalStore store(TempDir("prune"));
  ASSERT_TRUE(store.MaterializeLayout(t, inst).ok());
  Query q;
  q.conjuncts = {Predicate::Between(0, Value(int64_t{100}), Value(int64_t{300}))};
  auto exec = store.ExecuteQuery(q);
  ASSERT_TRUE(exec.ok());
  // Physical matches == logical matches.
  EXPECT_EQ(exec->matches, CountMatches(t, q));
  // Narrow ts range on the ts-sorted layout: most partitions skipped.
  EXPECT_LT(exec->partitions_read, 5u);
  EXPECT_LT(exec->rows_scanned, 4000u);
}

// A batch fetches, checksums and decodes each surviving partition once,
// however many of its queries share it: `blocks_fetched` equals the number
// of distinct surviving partitions and the base backend agrees, at any
// thread count, while per-query counters equal one-at-a-time execution.
// Without a full scan, partitions decode the union of their queries'
// columns and predicates are remapped into it; a full scan touches every
// partition, so with one every partition decodes all columns.
TEST(PhysicalStoreTest, BatchFetchesEachSurvivingPartitionOnce) {
  Table t = MakeTable(4000, 12);
  LayoutInstance inst = SortedInstance(t, 0, 16, "by_ts");
  // Overlapping ts ranges, plus queries on other and several columns, so
  // the decoded union differs between partitions.
  std::vector<Query> queries = testutil::MakeRangeWorkload(0, 4000, 900, 12, 7);
  {
    Query q;
    q.conjuncts = {Predicate::Le(1, Value(int64_t{300}))};
    queries.push_back(q);
    q.conjuncts = {Predicate::Eq(2, Value("b")),
                   Predicate::Between(0, Value(int64_t{1000}),
                                      Value(int64_t{2500}))};
    queries.push_back(q);
    q.conjuncts = {Predicate::Ge(1, Value(int64_t{200})),
                   Predicate::Lt(0, Value(int64_t{700}))};
    queries.push_back(q);
  }
  for (bool full_scan : {false, true}) {
    SCOPED_TRACE(full_scan ? "with a full scan" : "without a full scan");
    if (full_scan) queries.insert(queries.begin() + 5, Query{});
    std::set<uint32_t> distinct;
    for (const Query& q : queries) {
      for (uint32_t pid : PartitionsToRead(inst.partitioning(), q)) {
        distinct.insert(pid);
      }
    }

    std::vector<PhysicalStore::BatchExec> execs;
    for (size_t threads : {size_t{1}, size_t{8}}) {
      auto backend = MakeInMemoryBackend();
      PhysicalStore store(TempDir("once_" + std::to_string(threads)), threads,
                          backend);
      ASSERT_TRUE(store.MaterializeLayout(t, inst).ok());
      const PhysicalStore::Snapshot snap = store.GetSnapshot();
      uint64_t distinct_bytes = 0;
      for (uint32_t pid : distinct) distinct_bytes += snap.file_bytes[pid];

      const uint64_t reads_before = backend->stats().reads;
      auto exec = store.ExecuteQueryBatch(queries);
      ASSERT_TRUE(exec.ok()) << exec.status().ToString();
      EXPECT_EQ(exec->blocks_fetched, distinct.size());
      EXPECT_EQ(backend->stats().reads - reads_before, distinct.size());
      EXPECT_EQ(exec->bytes_verified, distinct_bytes);

      ASSERT_EQ(exec->per_query.size(), queries.size());
      for (size_t qi = 0; qi < queries.size(); ++qi) {
        auto one = store.ExecuteQuery(queries[qi]);
        ASSERT_TRUE(one.ok());
        const PhysicalStore::QueryExec& batched = exec->per_query[qi];
        EXPECT_EQ(batched.partitions_read, one->partitions_read) << qi;
        EXPECT_EQ(batched.bytes_read, one->bytes_read) << qi;
        EXPECT_EQ(batched.rows_scanned, one->rows_scanned) << qi;
        EXPECT_EQ(batched.matches, one->matches) << qi;
        EXPECT_EQ(batched.matches, CountMatches(t, queries[qi])) << qi;
      }
      execs.push_back(std::move(*exec));
    }
    EXPECT_EQ(execs[0].blocks_fetched, execs[1].blocks_fetched);
    EXPECT_EQ(execs[0].bytes_verified, execs[1].bytes_verified);
  }
}

TEST(PhysicalStoreTest, ReorganizePreservesRowsExactly) {
  Table t = MakeTable(3000, 4);
  LayoutInstance a = SortedInstance(t, 0, 8, "by_ts");
  LayoutInstance b = SortedInstance(t, 1, 8, "by_qty");
  PhysicalStore store(TempDir("reorg"));
  ASSERT_TRUE(store.MaterializeLayout(t, a).ok());
  auto timing = store.Reorganize(t, b);
  ASSERT_TRUE(timing.ok()) << timing.status().ToString();
  EXPECT_GT(timing->seconds, 0.0);
  // After reorg, any query must see the same matches as before.
  for (int64_t lo : {0, 250, 500, 750}) {
    Query q;
    q.conjuncts = {Predicate::Between(1, Value(lo), Value(lo + 100))};
    auto exec = store.ExecuteQuery(q);
    ASSERT_TRUE(exec.ok());
    EXPECT_EQ(exec->matches, CountMatches(t, q));
  }
  EXPECT_EQ(store.current_instance(), &b);
}

TEST(PhysicalStoreTest, ReorganizeImprovesSkippingForNewWorkload) {
  Table t = MakeTable(4000, 5);
  LayoutInstance by_ts = SortedInstance(t, 0, 16, "by_ts");
  LayoutInstance by_qty = SortedInstance(t, 1, 16, "by_qty");
  PhysicalStore store(TempDir("improve"));
  ASSERT_TRUE(store.MaterializeLayout(t, by_ts).ok());
  Query q;
  q.conjuncts = {Predicate::Between(1, Value(int64_t{400}), Value(int64_t{450}))};
  auto before = store.ExecuteQuery(q);
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(store.Reorganize(t, by_qty).ok());
  auto after = store.ExecuteQuery(q);
  ASSERT_TRUE(after.ok());
  EXPECT_LT(after->partitions_read, before->partitions_read);
  EXPECT_EQ(after->matches, before->matches);
}

// The live loop follows a scripted decision trace: the batch that decides
// the switch still scans the old layout, and the rewrite drained after it
// serves every later batch. Counters and final files are pinned.
TEST(LiveLoopTest, FollowsScriptedDecisionTrace) {
  Table t = MakeTable(3000, 6);
  std::vector<Query> queries;
  Rng rng(7);
  for (int i = 0; i < 30; ++i) {
    Query q;
    q.id = i;
    int64_t lo = rng.UniformInt(0, 900);
    q.conjuncts = {Predicate::Between(1, Value(lo), Value(lo + 100))};
    queries.push_back(q);
  }
  QdTreeGenerator gen;
  OreoOptions opts;
  opts.dataset_sample_rows = 400;
  opts.storage_backend = testutil::TestBackend();
  opts.strategy = testutil::ScriptedSortFactory({0, 1}, 8, 3, {{10, 1}});
  ShardedOreo engine(&t, &gen, 0, opts);
  ASSERT_TRUE(engine.AttachPhysical(TempDir("live_scripted")).ok());
  testutil::LiveLoopRun run =
      testutil::RunLiveLoop(&engine, queries, /*batch_size=*/3);
  EXPECT_EQ(engine.reorg_pool()->stats().completed, 1);
  EXPECT_EQ(engine.core(0).registry().Get(engine.engine(0).materialized_state())
                .name(),
            "s1");
  EXPECT_EQ(run.Summary(),
            "partitions_read=127 rows_scanned=47642 matches=9058 "
            "bytes_read=629344 total_cost=0x1.79a06d3a06d3ap+6 switches=1 "
            "crcs=3a9400d7,9fb5768a,5f7e378e,5a28e272,bcb92e2a,5b1b7674,"
            "2db909cd,29e553a1");
}

// Options for the baseline live-loop runs below.
OreoOptions BaselineOpts() {
  OreoOptions opts;
  opts.alpha = 5.0;
  opts.window_size = 50;
  opts.generate_every = 50;
  opts.max_states = 4;
  opts.target_partitions = 8;
  opts.dataset_sample_rows = 400;
  opts.storage_backend = testutil::TestBackend();
  return opts;
}

// Two workload phases (ts ranges, then qty ranges) so candidates change.
std::vector<Query> BaselineStream() {
  std::vector<Query> stream =
      testutil::MakeRangeWorkload(0, 3000, 150, 150, 12, true);
  std::vector<Query> qty = testutil::MakeRangeWorkload(1, 1000, 50, 150, 13);
  stream.insert(stream.end(), qty.begin(), qty.end());
  return stream;
}

// Static starts on its own layout, so the live loop materializes it once and
// never rewrites.
TEST(LiveLoopTest, StaticSubmitsNoRewrites) {
  Table t = MakeTable(3000, 8);
  QdTreeGenerator gen;
  OreoOptions opts = BaselineOpts();
  int static_state = -1;
  opts.strategy = [&static_state](const Table& table, StateRegistry* reg,
                                  const LayoutManager*, int, double) {
    static_state = reg->Add(SortedInstance(table, 1, 8, "static"));
    return std::make_unique<StaticStrategy>(static_state);
  };
  ShardedOreo engine(&t, &gen, 0, opts);
  ASSERT_TRUE(engine.AttachPhysical(TempDir("live_static")).ok());
  testutil::LiveLoopRun run =
      testutil::RunLiveLoop(&engine, BaselineStream(), /*batch_size=*/16);
  EXPECT_EQ(engine.num_switches(), 0);
  EXPECT_EQ(engine.reorg_pool()->stats().completed, 0);
  EXPECT_EQ(engine.engine(0).materialized_state(), static_state);

  PhysicalStore fresh(TempDir("live_static_fresh"), 1,
                      testutil::TestBackend());
  ASSERT_TRUE(fresh
                  .MaterializeLayout(
                      t, engine.core(0).registry().Get(static_state))
                  .ok());
  ASSERT_EQ(run.crcs.size(), 1u);
  EXPECT_EQ(run.crcs[0], testutil::PartitionCrcs(fresh));
}

// Greedy through the live loop decides exactly what the same engine decides
// logically: physical execution never feeds back into decisions.
TEST(LiveLoopTest, GreedyLiveLoopMatchesLogicalRunTrace) {
  Table t = MakeTable(3000, 9);
  QdTreeGenerator gen;
  OreoOptions opts = BaselineOpts();
  opts.strategy = [](const Table&, StateRegistry* reg,
                     const LayoutManager* mgr, int def, double) {
    return std::make_unique<GreedyStrategy>(reg, mgr, def);
  };
  std::vector<Query> stream = BaselineStream();
  ShardedOreo logical(&t, &gen, 0, opts);
  EngineSimResult sim = logical.RunTrace(stream);
  ASSERT_GT(sim.num_switches, 0) << "fixture too tame";

  ShardedOreo live(&t, &gen, 0, opts);
  ASSERT_TRUE(live.AttachPhysical(TempDir("live_greedy")).ok());
  testutil::RunLiveLoop(&live, stream, /*batch_size=*/16);
  EXPECT_EQ(live.total_cost(), sim.total_cost());
  EXPECT_EQ(live.num_switches(), sim.num_switches);
  EXPECT_GT(live.reorg_pool()->stats().completed, 0);
}

// A rewrite of `store` into `target` under shard id 0: the one-store use of
// the per-shard pool (one worker = the paper's single background process).
bool SubmitRewrite(ReorgPool* pool, PhysicalStore* store, const Table* table,
                   const LayoutInstance* target) {
  ReorgPool::Job job;
  job.shard = 0;
  job.store = store;
  job.table = table;
  job.target = target;
  return pool->Submit(std::move(job));
}

TEST(ReorgPoolTest, CompletesAndSwaps) {
  Table t = MakeTable(5000, 10);
  LayoutInstance a = SortedInstance(t, 0, 8, "a");
  LayoutInstance b = SortedInstance(t, 1, 8, "b");
  PhysicalStore store(TempDir("bg_swap"));
  ASSERT_TRUE(store.MaterializeLayout(t, a).ok());
  {
    ReorgPool pool(1);
    EXPECT_FALSE(pool.busy(0));
    ASSERT_TRUE(SubmitRewrite(&pool, &store, &t, &b));
    pool.Wait(0);
    EXPECT_FALSE(pool.busy(0));
    EXPECT_TRUE(pool.last_status(0).ok()) << pool.last_status(0).ToString();
    EXPECT_EQ(pool.generation(0), 1u);
    EXPECT_EQ(pool.stats().completed, 1);
    EXPECT_GT(pool.stats().total_seconds, 0.0);
  }
  // The store now serves the new layout with all rows intact.
  EXPECT_EQ(store.current_instance(), &b);
  Query q;
  auto exec = store.ExecuteQuery(q);
  ASSERT_TRUE(exec.ok());
  EXPECT_EQ(exec->matches, 5000u);
  store.Vacuum();
}

TEST(ReorgPoolTest, SnapshotServesDuringReorganization) {
  Table t = MakeTable(20000, 11);
  LayoutInstance a = SortedInstance(t, 0, 16, "a");
  LayoutInstance b = SortedInstance(t, 1, 16, "b");
  PhysicalStore store(TempDir("bg_snap"));
  ASSERT_TRUE(store.MaterializeLayout(t, a).ok());

  PhysicalStore::Snapshot snap = store.GetSnapshot();
  Query q;
  q.conjuncts = {Predicate::Between(1, Value(int64_t{100}), Value(int64_t{300}))};
  uint64_t expected = CountMatches(t, q);

  ReorgPool pool(1);
  ASSERT_TRUE(SubmitRewrite(&pool, &store, &t, &b));
  // Keep querying the old snapshot while the rewrite runs; results must be
  // correct throughout (outgoing files stay on disk until Vacuum).
  int during = 0;
  do {
    auto exec = store.ExecuteQueryOnSnapshot(snap, q);
    ASSERT_TRUE(exec.ok()) << exec.status().ToString();
    EXPECT_EQ(exec->matches, expected);
    ++during;
  } while (pool.busy(0));
  EXPECT_GE(during, 1);
  pool.Wait(0);
  ASSERT_TRUE(pool.last_status(0).ok());
  // And the snapshot still works after the swap, until Vacuum.
  auto exec = store.ExecuteQueryOnSnapshot(snap, q);
  ASSERT_TRUE(exec.ok());
  EXPECT_EQ(exec->matches, expected);
  // After Vacuum, fresh snapshots serve the new layout correctly.
  store.Vacuum();
  auto fresh = store.ExecuteQuery(q);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh->matches, expected);
}

TEST(ReorgPoolTest, RejectsConcurrentSubmit) {
  Table t = MakeTable(30000, 12);
  LayoutInstance a = SortedInstance(t, 0, 16, "a");
  LayoutInstance b = SortedInstance(t, 1, 16, "b");
  LayoutInstance c = SortedInstance(t, 0, 8, "c");
  PhysicalStore store(TempDir("bg_reject"));
  ASSERT_TRUE(store.MaterializeLayout(t, a).ok());
  ReorgPool pool(1);
  ASSERT_TRUE(SubmitRewrite(&pool, &store, &t, &b));
  // While busy, further submissions for the shard bounce (one background
  // process per shard).
  bool rejected = false;
  while (pool.busy(0)) {
    if (!SubmitRewrite(&pool, &store, &t, &c)) {
      rejected = true;
      break;
    }
  }
  pool.Wait(0);
  EXPECT_TRUE(rejected || pool.stats().completed >= 1);
}

TEST(PhysicalStoreTest, VacuumReclaimsOutgoingFiles) {
  namespace fs2 = std::filesystem;
  Table t = MakeTable(2000, 13);
  LayoutInstance a = SortedInstance(t, 0, 8, "a");
  LayoutInstance b = SortedInstance(t, 1, 8, "b");
  std::string dir = TempDir("vacuum");
  PhysicalStore store(dir);
  ASSERT_TRUE(store.MaterializeLayout(t, a).ok());
  ASSERT_TRUE(store.Reorganize(t, b).ok());
  size_t before = std::distance(fs2::directory_iterator(dir),
                                fs2::directory_iterator{});
  store.Vacuum();
  size_t after = std::distance(fs2::directory_iterator(dir),
                               fs2::directory_iterator{});
  EXPECT_LT(after, before);
  EXPECT_EQ(after, b.partitioning().num_partitions());
}

TEST(PhysicalStoreTest, EmptyPartitionListHandled) {
  // A table where one layout partition ends up empty after routing must not
  // break materialization (BuildPartitioning drops empties).
  Table t = MakeTable(100, 8);
  LayoutInstance inst = SortedInstance(t, 0, 64, "tiny");
  PhysicalStore store(TempDir("tiny"));
  auto timing = store.MaterializeLayout(t, inst);
  ASSERT_TRUE(timing.ok());
  Query q;
  auto exec = store.ExecuteQuery(q);
  ASSERT_TRUE(exec.ok());
  EXPECT_EQ(exec->matches, 100u);
}

}  // namespace
}  // namespace core
}  // namespace oreo
