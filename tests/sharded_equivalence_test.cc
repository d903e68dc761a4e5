// The sharded==unsharded equivalence wall for PR 4's ShardedOreo refactor.
// Pinned contracts:
//
//   1. A 1-shard ShardedOreo is bit-identical to a bare Oreo: per-query
//      serving states, costs, switch decisions and run traces; its live
//      loop serves the bare Oreo's trace and leaves pinned partition files.
//   2. N-shard runs are bit-identical across thread counts {1, 8} — logical
//      fingerprints, and the live loop's counters and per-shard partition
//      CRCs (pinned).
//   3. The router never drops a matching row: for random tables and random
//      conjunctive queries of every operator shape, the matches found on
//      the routed shards equal the matches on the whole table (property
//      test, hash and range routing).
//   4. Theorem IV.1 survives sharding shard-by-shard: every shard engine's
//      total cost stays within 2*H(|S_max|) of its own offline optimum
//      (the competitive_ratio_test machinery applied per shard).
//
// Runs under the TSan CI job (the physical streaming test overlaps batched
// execution with concurrent per-shard background rewrites).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "core/engine.h"
#include "core/oreo.h"
#include "core/sharded_oreo.h"
#include "layout/qdtree_layout.h"
#include "mts/offline.h"
#include "storage/shard_router.h"
#include "test_util.h"

namespace oreo {
namespace core {
namespace {

namespace fs = std::filesystem;

constexpr size_t kThreadCounts[] = {1, 8};

OreoOptions ShardedOpts(uint64_t seed, size_t num_threads, size_t num_shards,
                        ShardRouting routing = ShardRouting::kRange) {
  OreoOptions opts;
  opts.seed = seed;
  opts.num_threads = num_threads;
  opts.num_shards = num_shards;
  opts.shard_routing = routing;
  opts.window_size = 60;
  opts.generate_every = 60;
  opts.max_states = 4;
  opts.target_partitions = 8;
  opts.dataset_sample_rows = 400;
  return opts;
}

// Two workload phases (ts ranges, then qty ranges) so managers admit states
// and D-UMTS switches; the ts phase exercises range-shard pruning.
std::vector<Query> TwoPhaseStream(size_t rows, uint64_t seed) {
  std::vector<Query> stream = testutil::MakeRangeWorkload(
      0, static_cast<int64_t>(rows), 150, 150, seed + 1);
  std::vector<Query> phase2 =
      testutil::MakeRangeWorkload(1, 1000, 50, 150, seed + 2);
  stream.insert(stream.end(), phase2.begin(), phase2.end());
  for (size_t i = 0; i < stream.size(); ++i) {
    stream[i].id = static_cast<int64_t>(i);
  }
  return stream;
}

struct ShardedFingerprint {
  std::vector<int> states;        // serving state per (query, touched shard)
  std::vector<uint32_t> shards;   // the touched shard of each entry
  std::vector<double> costs;      // merged per-query costs
  std::vector<bool> reorganized;  // merged per-query switch flags
  double query_cost = 0.0;
  double reorg_cost = 0.0;
  int64_t num_switches = 0;

  bool operator==(const ShardedFingerprint& o) const {
    return states == o.states && shards == o.shards && costs == o.costs &&
           reorganized == o.reorganized && query_cost == o.query_cost &&
           reorg_cost == o.reorg_cost && num_switches == o.num_switches;
  }
};

ShardedFingerprint RunSharded(const Table& t, const LayoutGenerator& gen,
                              const OreoOptions& opts,
                              const std::vector<Query>& stream,
                              size_t batch_size) {
  ShardedOreo sharded(&t, &gen, /*time_column=*/0, opts);
  ShardedFingerprint fp;
  for (const QueryBatch& b : MakeBatches(stream, batch_size)) {
    ShardedOreo::ShardedBatchResult result = sharded.RunBatchSharded(b);
    EXPECT_EQ(result.steps.size(), b.size());
    for (const ShardedOreo::ShardedStepResult& step : result.steps) {
      for (const ShardedOreo::ShardStep& ss : step.shard_steps) {
        fp.states.push_back(ss.step.state);
        fp.shards.push_back(ss.shard);
      }
      fp.costs.push_back(step.query_cost);
      fp.reorganized.push_back(step.reorganized);
    }
  }
  fp.query_cost = sharded.total_query_cost();
  fp.reorg_cost = sharded.total_reorg_cost();
  fp.num_switches = sharded.num_switches();
  return fp;
}

// ----------------------------- 1-shard == legacy Oreo (logical) ----------

TEST(ShardedEquivalenceTest, OneShardMatchesLegacyOreoStepByStep) {
  const uint64_t seed = 5;
  const size_t kRows = 3000;
  QdTreeGenerator gen;
  Table t = testutil::MakeEventTable(kRows, seed);
  std::vector<Query> stream = TwoPhaseStream(kRows, seed);

  for (size_t threads : kThreadCounts) {
    OreoOptions opts = ShardedOpts(seed, threads, /*num_shards=*/1);

    // Legacy fingerprint through Step.
    std::vector<int> legacy_states;
    std::vector<double> legacy_costs;
    std::vector<bool> legacy_reorg;
    Oreo legacy(&t, &gen, /*time_column=*/0, opts);
    for (const Query& q : stream) {
      Oreo::StepResult step = legacy.Step(q);
      legacy_states.push_back(step.state);
      legacy_costs.push_back(step.query_cost);
      legacy_reorg.push_back(step.reorganized);
    }
    ASSERT_GT(legacy.num_switches(), 0) << "fixture too tame";

    for (size_t batch_size : {size_t{1}, size_t{16}}) {
      ShardedFingerprint sharded = RunSharded(t, gen, opts, stream, batch_size);
      ASSERT_EQ(sharded.states.size(), stream.size())
          << "a 1-shard router must route every query to shard 0";
      EXPECT_EQ(sharded.states, legacy_states)
          << "threads=" << threads << " batch_size=" << batch_size;
      EXPECT_EQ(sharded.costs, legacy_costs);
      EXPECT_EQ(sharded.reorganized, legacy_reorg);
      EXPECT_TRUE(std::all_of(sharded.shards.begin(), sharded.shards.end(),
                              [](uint32_t s) { return s == 0; }));
      EXPECT_EQ(sharded.query_cost, legacy.total_query_cost());
      EXPECT_EQ(sharded.reorg_cost, legacy.total_reorg_cost());
      EXPECT_EQ(sharded.num_switches, legacy.num_switches());
    }

    // Run() traces must agree too (serving states, switch events, totals).
    Oreo legacy_runner(&t, &gen, 0, opts);
    SimResult legacy_sim = legacy_runner.Run(stream, /*record_trace=*/true);
    ShardedOreo sharded_runner(&t, &gen, 0, opts);
    ShardedSimResult sharded_sim =
        sharded_runner.Run(stream, /*record_trace=*/true);
    ASSERT_EQ(sharded_sim.shards.size(), 1u);
    EXPECT_EQ(sharded_sim.shards[0].query_cost, legacy_sim.query_cost);
    EXPECT_EQ(sharded_sim.shards[0].reorg_cost, legacy_sim.reorg_cost);
    EXPECT_EQ(sharded_sim.shards[0].serving_state, legacy_sim.serving_state);
    EXPECT_EQ(sharded_sim.shards[0].switch_events, legacy_sim.switch_events);
    EXPECT_EQ(sharded_sim.shards[0].cumulative, legacy_sim.cumulative);
    EXPECT_EQ(sharded_sim.query_cost, legacy_sim.query_cost);
    EXPECT_EQ(sharded_sim.reorg_cost, legacy_sim.reorg_cost);
    EXPECT_EQ(sharded_sim.num_switches, legacy_sim.num_switches);
  }
}

// ----------------------------- 1-shard == legacy replay (physical) -------

TEST(ShardedEquivalenceTest, OneShardReplayLeavesIdenticalPartitionFiles) {
  // The 1-shard engine's live loop (drained after every batch) serves the
  // bare Oreo's decision trace query for query and leaves pinned partition
  // files.
  const uint64_t seed = 9;
  const size_t kRows = 2000;
  QdTreeGenerator gen;
  Table t = testutil::MakeEventTable(kRows, seed);
  std::vector<Query> stream = TwoPhaseStream(kRows, seed);
  OreoOptions opts = ShardedOpts(seed, /*num_threads=*/2, /*num_shards=*/1);

  Oreo legacy(&t, &gen, 0, opts);
  SimResult legacy_sim = legacy.Run(stream, /*record_trace=*/true);
  ASSERT_GT(legacy_sim.num_switches, 0);

  opts.storage_backend = testutil::TestBackend("inmem");
  std::unique_ptr<OreoEngine> sharded = MakeEngine(&t, &gen, 0, opts);
  std::string dir = testutil::ScratchDir("sharded_eq_one");
  ASSERT_TRUE(sharded->AttachPhysical(dir, /*store_threads=*/2).ok());
  testutil::LiveLoopRun run = testutil::RunLiveLoop(sharded.get(), stream, 16);
  EXPECT_EQ(run.states, legacy_sim.serving_state);
  EXPECT_EQ(run.total_cost, legacy_sim.total_cost());
  EXPECT_EQ(run.num_switches, legacy_sim.num_switches);
  EXPECT_EQ(run.Summary(),
            "partitions_read=1369 rows_scanned=343013 matches=37937 "
            "bytes_read=4567149 total_cost=0x1.ed3ae147ae14bp+7 switches=1 "
            "crcs=138bd979,8ae6166e,85cd186a,807d757a,4e87eda8,0db9971c,"
            "ff2114cc,9399e6cc");
  fs::remove_all(dir);
}

// ----------------------------- N shards: thread-count invariance ---------

TEST(ShardedEquivalenceTest, NShardRunsAreThreadCountInvariant) {
  const uint64_t seed = 11;
  const size_t kRows = 3000;
  QdTreeGenerator gen;
  Table t = testutil::MakeEventTable(kRows, seed);
  std::vector<Query> stream = TwoPhaseStream(kRows, seed);

  for (ShardRouting routing : {ShardRouting::kRange, ShardRouting::kHash}) {
    ShardedFingerprint baseline;
    bool have_baseline = false;
    for (size_t threads : kThreadCounts) {
      OreoOptions opts = ShardedOpts(seed, threads, /*num_shards=*/4, routing);
      ShardedFingerprint fp = RunSharded(t, gen, opts, stream, /*batch=*/16);
      EXPECT_GT(fp.num_switches, 0) << "no shard ever switched";
      if (!have_baseline) {
        baseline = fp;
        have_baseline = true;
        if (routing == ShardRouting::kRange) {
          // Range routing must actually prune: fewer (query, shard) steps
          // than queries × shards.
          EXPECT_LT(fp.states.size(), stream.size() * 4)
              << "range routing never pruned a shard";
        }
        continue;
      }
      EXPECT_TRUE(fp == baseline)
          << "N-shard fingerprint diverged at threads=" << threads
          << " routing=" << ShardRoutingName(routing);
    }
  }

  // Live loop: counters and per-shard partition files are identical across
  // thread counts and pinned.
  for (size_t threads : kThreadCounts) {
    OreoOptions opts = ShardedOpts(seed, threads, /*num_shards=*/4);
    opts.storage_backend = testutil::TestBackend("inmem");
    ShardedOreo sharded(&t, &gen, 0, opts);
    std::string dir = testutil::ScratchDir("sharded_eq_threads_" +
                                           std::to_string(threads));
    ASSERT_TRUE(sharded.AttachPhysical(dir, threads).ok());
    EXPECT_EQ(testutil::RunLiveLoop(&sharded, stream, 16).Summary(),
              "partitions_read=5193 rows_scanned=486788 matches=45387 "
              "bytes_read=6738336 total_cost=0x1.6bddddddddddep+7 switches=1 "
              "crcs=53e2b9c7,ccfd8ef8,e125a840,6b32b7d9,cf7a3bd2,7d975d75,"
              "fd40a48f,a3b9a23a|35a6cfc2,9756a195,4b30fcc5,74871edd,"
              "65be0b6b,b25d6777,02a41279,73f157d1|b42733ff,6aaf167f,"
              "46f8955a,f2eb41b1,0e0905ff,ed960506,ff3ebfb3,a1326b8c|"
              "a808e518,80c1f58d,1b4e34cf,fde38563,d52e2636,4b1bd75a,"
              "708a1322,ae37af37")
        << "threads=" << threads;
    fs::remove_all(dir);
  }
}

// ----------------------------- router: completeness property -------------

// Random conjunctive queries of every operator shape over every column,
// with literals matching each column's type.
Query RandomQuery(Rng* rng, const Schema& schema, size_t rows) {
  Query q;
  const size_t num_conjuncts = 1 + rng->Uniform(2);
  const char* cats[] = {"a", "b", "c", "d", "e", "f"};
  auto random_literal = [&](DataType type) {
    switch (type) {
      case DataType::kInt64:
        return rng->Uniform(2) == 0
                   ? Value(rng->UniformInt(0, static_cast<int64_t>(rows)))
                   : Value(rng->UniformInt(0, 1000));
      case DataType::kDouble:
        return Value(rng->UniformDouble(0, 100));
      case DataType::kString:
        return Value(cats[rng->Uniform(6)]);
    }
    return Value();
  };
  for (size_t c = 0; c < num_conjuncts; ++c) {
    const int column = static_cast<int>(rng->Uniform(schema.num_fields()));
    const DataType type = schema.field(static_cast<size_t>(column)).type;
    Value v = random_literal(type);
    switch (rng->Uniform(7)) {
      case 0:
        q.conjuncts.push_back(Predicate::Eq(column, v));
        break;
      case 1:
        q.conjuncts.push_back(Predicate::Lt(column, v));
        break;
      case 2:
        q.conjuncts.push_back(Predicate::Le(column, v));
        break;
      case 3:
        q.conjuncts.push_back(Predicate::Gt(column, v));
        break;
      case 4:
        q.conjuncts.push_back(Predicate::Ge(column, v));
        break;
      case 5: {
        Value hi = type == DataType::kInt64 ? Value(v.AsInt64() + 200)
                   : type == DataType::kDouble ? Value(v.AsDouble() + 20.0)
                                               : random_literal(type);
        if (hi < v) std::swap(v, hi);
        q.conjuncts.push_back(Predicate::Between(column, v, hi));
        break;
      }
      default: {
        std::vector<Value> in_list = {v, random_literal(type)};
        q.conjuncts.push_back(Predicate::In(column, std::move(in_list)));
        break;
      }
    }
  }
  return q;
}

TEST(ShardedEquivalenceTest, RouterNeverDropsMatchingRows) {
  const size_t kRows = 2500;
  for (uint64_t seed : {3u, 4u}) {
    Table t = testutil::MakeEventTable(kRows, seed);
    for (ShardRouting routing : {ShardRouting::kHash, ShardRouting::kRange}) {
      // Route on every column type: int64 ts, int64 qty (duplicate-heavy),
      // string cat (hash only — 4 distinct values cannot fill range shards).
      for (int column : {0, 1, 2}) {
        if (column == 2 && routing == ShardRouting::kRange) continue;
        const size_t shards = column == 2 ? 2 : 4;
        ShardRouterOptions opts;
        opts.num_shards = shards;
        opts.column = column;
        opts.routing = routing;
        ShardRouter router = ShardRouter::Build(t, opts);
        std::vector<Table> shard_tables = router.SplitTable(t);

        // The split covers every row exactly once.
        size_t total_rows = 0;
        for (const Table& st : shard_tables) total_rows += st.num_rows();
        ASSERT_EQ(total_rows, t.num_rows());

        Rng rng(seed * 101 + static_cast<uint64_t>(column));
        for (int i = 0; i < 120; ++i) {
          Query q = RandomQuery(&rng, t.schema(), kRows);
          std::vector<uint32_t> routed = router.ShardsForQuery(q);
          uint64_t routed_matches = 0;
          for (uint32_t s : routed) {
            routed_matches += CountMatches(shard_tables[s], q);
          }
          EXPECT_EQ(routed_matches, CountMatches(t, q))
              << "router dropped matching rows: routing="
              << ShardRoutingName(routing) << " column=" << column
              << " query=" << q.ToString();
        }
      }
    }
  }
}

// Degenerate predicates that provably match nothing (empty IN list on the
// routing column) may prune every shard of an N-shard router — no rows can
// match, so zero routed shards is consistent — but a 1-shard router must
// still route to its only shard, or the 1-shard facade would diverge from
// an unsharded engine (which admits every query to its window and cadence).
TEST(ShardedEquivalenceTest, EmptyInListKeepsSingleShardButMayPruneMany) {
  Table t = testutil::MakeEventTable(500, 19);
  Query empty_in;
  empty_in.conjuncts = {Predicate::In(0, {})};
  ASSERT_EQ(CountMatches(t, empty_in), 0u);
  for (ShardRouting routing : {ShardRouting::kHash, ShardRouting::kRange}) {
    ShardRouterOptions opts;
    opts.column = 0;
    opts.routing = routing;
    opts.num_shards = 1;
    EXPECT_EQ(ShardRouter::Build(t, opts).ShardsForQuery(empty_in),
              std::vector<uint32_t>{0});
    opts.num_shards = 4;
    EXPECT_TRUE(ShardRouter::Build(t, opts).ShardsForQuery(empty_in).empty());
  }
}

// ----------------------------- router: serialization ---------------------

TEST(ShardedEquivalenceTest, RouterSerializationRoundTrips) {
  Table t = testutil::MakeWideEventTable(1200, 17);
  // Routing columns of all three value types (string uses hash).
  struct Case {
    int column;
    ShardRouting routing;
    size_t shards;
  };
  for (const Case& c : {Case{0, ShardRouting::kRange, 4},
                        Case{2, ShardRouting::kRange, 3},
                        Case{1, ShardRouting::kHash, 5},
                        Case{3, ShardRouting::kHash, 2}}) {
    ShardRouterOptions opts;
    opts.num_shards = c.shards;
    opts.column = c.column;
    opts.routing = c.routing;
    ShardRouter router = ShardRouter::Build(t, opts);
    Result<ShardRouter> parsed = ShardRouter::Deserialize(router.Serialize());
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString()
                             << " text=" << router.Serialize();
    EXPECT_EQ(parsed->Serialize(), router.Serialize());
    // The parsed router is the same routing function.
    for (uint32_t r = 0; r < t.num_rows(); r += 7) {
      ASSERT_EQ(parsed->ShardOfRow(t, r), router.ShardOfRow(t, r));
    }
    Rng rng(23);
    for (int i = 0; i < 40; ++i) {
      Query q = RandomQuery(&rng, t.schema(), 1200);
      ASSERT_EQ(parsed->ShardsForQuery(q), router.ShardsForQuery(q));
    }
  }
  // Malformed inputs are rejected, not crashed on.
  for (const char* bad :
       {"", "shards=0 column=1 routing=hash bounds=[]",
        "shards=2 column=-5 routing=hash bounds=[]",
        "shards=2 column=1 routing=zorder bounds=[]",
        "shards=3 column=1 routing=range bounds=[i:1]",
        "shards=2 column=1 routing=range bounds=[i:1",
        "shards=2 column=1 routing=range bounds=[x:1]",
        "shards=2 column=1 routing=range bounds=[i:1]garbage",
        "shards=-1 column=0 routing=hash bounds=[]",
        "shards=3 column=0 routing=range bounds=[i:20,i:10]",
        "shards=3 column=0 routing=range bounds=[i:20,i:20]",
        "shards=3 column=0 routing=range bounds=[i:20,s:1:a]",
        "shards=2 column=1 routing=hash bounds=[i:1]"}) {
    EXPECT_FALSE(ShardRouter::Deserialize(bad).ok()) << bad;
  }
}

// A skewed (duplicate-heavy) routing column must not produce structurally
// empty range shards: boundaries snap to distinct values, so any column
// with >= num_shards distinct values fills every shard.
TEST(ShardedEquivalenceTest, SkewedRangeColumnFillsEveryShard) {
  Table t(Schema({{"v", DataType::kInt64}}));
  for (int64_t v : {1, 1, 1, 1, 1, 2, 3, 4}) t.AppendRow({Value(v)});
  ShardRouterOptions opts;
  opts.num_shards = 4;
  opts.column = 0;
  opts.routing = ShardRouting::kRange;
  ShardRouter router = ShardRouter::Build(t, opts);
  std::vector<Table> shards = router.SplitTable(t);
  size_t total = 0;
  for (const Table& shard : shards) {
    EXPECT_GT(shard.num_rows(), 0u) << "structurally empty shard";
    total += shard.num_rows();
  }
  EXPECT_EQ(total, t.num_rows());
  // Completeness still holds on the skewed split.
  for (int64_t v : {0, 1, 2, 3, 4, 5}) {
    Query q;
    q.conjuncts = {Predicate::Eq(0, Value(v))};
    uint64_t routed = 0;
    for (uint32_t s : router.ShardsForQuery(q)) {
      routed += CountMatches(shards[s], q);
    }
    EXPECT_EQ(routed, CountMatches(t, q)) << "v=" << v;
  }
}

// Pruning must agree with routing *exactly*: int64 routing values above
// 2^53 are not representable in double, so a lossy numeric comparison
// would prune the shard that exactly-routed rows live in.
TEST(ShardedEquivalenceTest, RangePruningIsExactBeyondDoublePrecision) {
  const int64_t big = int64_t{1} << 53;
  Table t(Schema({{"ts", DataType::kInt64}}));
  // Quantile boundary lands exactly on 2^53; odd neighbors above it are not
  // representable in double.
  for (int64_t v : {big - 3, big - 2, big - 1, big, big + 1, big + 2}) {
    t.AppendRow({Value(v)});
  }
  ShardRouterOptions opts;
  opts.num_shards = 2;
  opts.column = 0;
  opts.routing = ShardRouting::kRange;
  ShardRouter router = ShardRouter::Build(t, opts);
  std::vector<Table> shards = router.SplitTable(t);
  for (int64_t v : {big - 3, big - 2, big - 1, big, big + 1, big + 2}) {
    for (const Predicate& pred :
         {Predicate::Eq(0, Value(v)), Predicate::Le(0, Value(v)),
          Predicate::Gt(0, Value(v)),
          Predicate::Between(0, Value(v), Value(v + 1)),
          Predicate::In(0, {Value(v)})}) {
      Query q;
      q.conjuncts = {pred};
      uint64_t routed = 0;
      for (uint32_t s : router.ShardsForQuery(q)) {
        routed += CountMatches(shards[s], q);
      }
      EXPECT_EQ(routed, CountMatches(t, q))
          << "lossy pruning dropped rows for " << q.ToString();
    }
  }
}

// ----------------------------- per-shard competitive ratio ---------------

TEST(ShardedEquivalenceTest, EveryShardStaysWithinPaperBoundOfItsOptimum) {
  const uint64_t seed = 7;
  const double alpha = 25.0;
  const size_t kRows = 3000;
  QdTreeGenerator gen;
  Table t = testutil::MakeEventTable(kRows, seed);
  std::vector<Query> stream = TwoPhaseStream(kRows, seed);

  OreoOptions opts = ShardedOpts(seed, /*num_threads=*/2, /*num_shards=*/2);
  opts.alpha = alpha;
  opts.max_states = 6;
  ShardedOreo sharded(&t, &gen, /*time_column=*/0, opts);

  // Drive Step() to record each shard's per-query state availability (the
  // oblivious-adversary reconstruction of competitive_ratio_test, per
  // shard).
  const size_t n = sharded.num_shards();
  std::vector<std::vector<std::vector<int>>> live_at(n);
  std::vector<std::vector<Query>> sub_streams(n);
  for (const Query& q : stream) {
    ShardedOreo::ShardedStepResult step = sharded.StepSharded(q);
    for (const ShardedOreo::ShardStep& ss : step.shard_steps) {
      live_at[ss.shard].push_back(
          sharded.engine(ss.shard).oreo().registry().live());
      sub_streams[ss.shard].push_back(q);
    }
  }

  for (size_t s = 0; s < n; ++s) {
    const Oreo& engine = sharded.engine(s).oreo();
    ASSERT_FALSE(sub_streams[s].empty());
    const double alg_cost =
        engine.total_query_cost() + engine.total_reorg_cost();
    const size_t num_states = engine.registry().num_total();
    size_t max_live = 1;
    std::vector<std::vector<double>> costs(
        sub_streams[s].size(), std::vector<double>(num_states, 0.0));
    std::vector<std::vector<bool>> avail(
        sub_streams[s].size(), std::vector<bool>(num_states, false));
    for (size_t qi = 0; qi < sub_streams[s].size(); ++qi) {
      for (size_t st = 0; st < num_states; ++st) {
        costs[qi][st] =
            engine.registry().Cost(static_cast<int>(st), sub_streams[s][qi]);
      }
      for (int st : live_at[s][qi]) avail[qi][static_cast<size_t>(st)] = true;
      max_live = std::max(max_live, live_at[s][qi].size());
    }
    mts::OfflineResult opt =
        mts::SolveOfflineUniformDynamic(costs, avail, alpha);
    EXPECT_GE(alg_cost, opt.total_cost - 1e-9) << "shard " << s;
    const double bound =
        2.0 * testutil::Harmonic(max_live) * (opt.total_cost + alpha);
    EXPECT_LE(alg_cost, bound)
        << "shard " << s << " broke the per-shard bound: ALG=" << alg_cost
        << " OPT=" << opt.total_cost << " |S_max|=" << max_live;
  }
}

// ----------------------------- physical streaming end-to-end -------------

// Batches stream through the logical facade while per-shard background
// rewrites overlap; every batch's physical matches must equal the
// whole-table ground truth at all times (snapshot isolation per shard).
TEST(ShardedEquivalenceTest, PhysicalStreamingStaysCorrectAcrossShardReorgs) {
  const uint64_t seed = 21;
  const size_t kRows = 3000;
  QdTreeGenerator gen;
  Table t = testutil::MakeEventTable(kRows, seed);
  std::vector<Query> stream = TwoPhaseStream(kRows, seed);

  OreoOptions opts = ShardedOpts(seed, /*num_threads=*/4, /*num_shards=*/4);
  opts.storage_backend = testutil::TestBackend("inmem");
  ShardedOreo sharded(&t, &gen, /*time_column=*/0, opts);
  std::string dir = testutil::ScratchDir("sharded_eq_stream");
  ASSERT_TRUE(sharded.AttachPhysical(dir).ok());

  std::vector<uint64_t> expected;
  for (const Query& q : stream) expected.push_back(CountMatches(t, q));

  size_t total_submitted = 0;
  size_t qi = 0;
  for (const QueryBatch& b : MakeBatches(stream, /*batch_size=*/32)) {
    sharded.RunBatch(b);
    auto exec = sharded.ExecuteBatchPhysical(b.queries);
    ASSERT_TRUE(exec.ok()) << exec.status().ToString();
    for (const auto& per_query : exec->per_query) {
      EXPECT_EQ(per_query.matches, expected[qi]) << "query " << qi;
      ++qi;
    }
    total_submitted += sharded.SyncPhysical();
  }
  sharded.WaitForReorgs();
  EXPECT_GT(total_submitted, 0u) << "no background rewrite ever started";

  // Quiescent: every shard's store serves the final layout correctly.
  for (size_t s = 0; s < sharded.num_shards(); ++s) {
    EXPECT_FALSE(sharded.reorg_pool()->busy(static_cast<uint32_t>(s)));
    EXPECT_EQ(sharded.engine(s).materialized_state(),
              sharded.engine(s).oreo().physical_state());
  }
  auto final_exec = sharded.ExecuteBatchPhysical({stream[0], Query{}});
  ASSERT_TRUE(final_exec.ok());
  EXPECT_EQ(final_exec->per_query[0].matches, expected[0]);
  EXPECT_EQ(final_exec->per_query[1].matches, t.num_rows());
  fs::remove_all(dir);
}

}  // namespace
}  // namespace core
}  // namespace oreo
