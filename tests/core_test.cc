// Tests for src/core: StateRegistry, LayoutManager (Algorithm 5 admission,
// eviction, generation cadence), strategies, and the engine's cost
// accounting for every strategy run through Oreo::Run (including
// reorganization-delay semantics).
#include <gtest/gtest.h>

#include "core/layout_manager.h"
#include "core/oreo.h"
#include "core/state_registry.h"
#include "core/strategy.h"
#include "layout/qdtree_layout.h"
#include "layout/sorted_layout.h"
#include "test_util.h"

namespace oreo {
namespace core {
namespace {

Table MakeTable(size_t rows, uint64_t seed) {
  return testutil::MakeEventTable(rows, seed);
}

LayoutInstance MakeSortedInstance(const Table& t, int column, uint32_t k,
                                  const std::string& name) {
  return testutil::MakeSortedInstance(t, column, k, name, /*sample_seed=*/5);
}

std::vector<Query> QtyRangeQueries(size_t n, int64_t width, uint64_t seed) {
  return testutil::MakeRangeWorkload(/*column=*/1, /*domain=*/1000, width, n,
                                     seed, /*assign_ids=*/true);
}

// ------------------------------------------------------ StateRegistry ----

TEST(StateRegistryTest, AddGetRemove) {
  Table t = MakeTable(500, 1);
  StateRegistry reg;
  int a = reg.Add(MakeSortedInstance(t, 0, 4, "a"));
  int b = reg.Add(MakeSortedInstance(t, 1, 4, "b"));
  EXPECT_EQ(a, 0);
  EXPECT_EQ(b, 1);
  EXPECT_EQ(reg.num_live(), 2u);
  EXPECT_EQ(reg.Get(a).name(), "a");
  reg.Remove(a);
  EXPECT_FALSE(reg.IsLive(a));
  EXPECT_TRUE(reg.IsLive(b));
  EXPECT_EQ(reg.Get(a).name(), "a");  // still readable
  EXPECT_EQ(reg.live(), std::vector<int>{b});
}

TEST(StateRegistryTest, CostDelegates) {
  Table t = MakeTable(500, 2);
  StateRegistry reg;
  int a = reg.Add(MakeSortedInstance(t, 1, 8, "by_qty"));
  Query q;
  q.conjuncts = {Predicate::Between(1, Value(int64_t{0}), Value(int64_t{100}))};
  double c = reg.Cost(a, q);
  EXPECT_GT(c, 0.0);
  EXPECT_LT(c, 0.5);  // narrow range on the sort column
  EXPECT_NEAR(reg.MeanCost(a, {q, q}), c, 1e-12);
}

// ------------------------------------------------------ LayoutManager ----

LayoutManagerOptions ManagerOpts(size_t gen_every = 50, double epsilon = 0.05,
                                 size_t max_states = 4) {
  LayoutManagerOptions o;
  o.window_size = 50;
  o.generate_every = gen_every;
  o.epsilon = epsilon;
  o.max_states = max_states;
  o.target_partitions = 8;
  o.dataset_sample_rows = 400;
  o.admission_sample_size = 30;
  return o;
}

TEST(LayoutManagerTest, InitCreatesDefaultState) {
  Table t = MakeTable(2000, 3);
  StateRegistry reg;
  QdTreeGenerator gen;
  LayoutManager mgr(&t, &gen, &reg, ManagerOpts());
  int def = mgr.InitDefaultState(0);
  EXPECT_EQ(def, 0);
  EXPECT_EQ(reg.num_live(), 1u);
  EXPECT_NE(reg.Get(def).name().find("default"), std::string::npos);
}

TEST(LayoutManagerTest, GeneratesAtCadence) {
  Table t = MakeTable(2000, 4);
  StateRegistry reg;
  QdTreeGenerator gen;
  LayoutManager mgr(&t, &gen, &reg, ManagerOpts(/*gen_every=*/50));
  int def = mgr.InitDefaultState(0);
  std::vector<Query> queries = QtyRangeQueries(120, 50, 5);
  size_t events_seen = 0;
  for (const Query& q : queries) {
    events_seen += mgr.Observe(q, def).size();
  }
  // Generation fires at query 50 and 100.
  EXPECT_EQ(mgr.generations_attempted(), 2u);
  EXPECT_GT(events_seen, 0u);  // the qty layout differs from the default
}

TEST(LayoutManagerTest, EpsilonOneRejectsEverything) {
  Table t = MakeTable(2000, 6);
  StateRegistry reg;
  QdTreeGenerator gen;
  LayoutManagerOptions opts = ManagerOpts(50, /*epsilon=*/1.0);
  LayoutManager mgr(&t, &gen, &reg, opts);
  int def = mgr.InitDefaultState(0);
  for (const Query& q : QtyRangeQueries(200, 50, 7)) mgr.Observe(q, def);
  EXPECT_GT(mgr.generations_attempted(), 0u);
  EXPECT_EQ(mgr.candidates_admitted(), 0u);
  EXPECT_EQ(reg.num_live(), 1u);
}

TEST(LayoutManagerTest, DuplicateCandidatesRejected) {
  // A stable workload generates near-identical candidates; after the first
  // admission the rest should be rejected by the distance test.
  Table t = MakeTable(2000, 8);
  StateRegistry reg;
  QdTreeGenerator gen;
  LayoutManager mgr(&t, &gen, &reg, ManagerOpts(50, 0.05));
  int def = mgr.InitDefaultState(0);
  for (const Query& q : QtyRangeQueries(500, 50, 9)) mgr.Observe(q, def);
  EXPECT_GE(mgr.candidates_admitted(), 1u);
  EXPECT_GE(mgr.candidates_rejected(), 3u);
  EXPECT_EQ(mgr.candidates_admitted() + mgr.candidates_rejected(),
            mgr.generations_attempted());
}

TEST(LayoutManagerTest, MaxStatesEnforced) {
  Table t = MakeTable(2000, 10);
  StateRegistry reg;
  QdTreeGenerator gen;
  LayoutManagerOptions opts = ManagerOpts(40, 0.01, /*max_states=*/2);
  opts.window_size = 40;
  LayoutManager mgr(&t, &gen, &reg, opts);
  int def = mgr.InitDefaultState(0);
  // Alternate between two very different workloads to force admissions.
  Rng rng(11);
  const char* cats[] = {"a", "b", "c", "d"};
  for (int i = 0; i < 600; ++i) {
    Query q;
    q.id = i;
    if ((i / 80) % 2 == 0) {
      int64_t lo = rng.UniformInt(0, 950);
      q.conjuncts = {Predicate::Between(1, Value(lo), Value(lo + 50))};
    } else {
      q.conjuncts = {Predicate::Eq(2, Value(cats[rng.Uniform(4)]))};
    }
    mgr.Observe(q, def);
    EXPECT_LE(reg.num_live(), 2u);
  }
}

TEST(LayoutManagerTest, CurrentStateNeverEvicted) {
  Table t = MakeTable(2000, 12);
  StateRegistry reg;
  QdTreeGenerator gen;
  LayoutManagerOptions opts = ManagerOpts(40, 0.01, /*max_states=*/1);
  LayoutManager mgr(&t, &gen, &reg, opts);
  int def = mgr.InitDefaultState(0);
  for (const Query& q : QtyRangeQueries(400, 40, 13)) {
    for (const ManagerEvent& e : mgr.Observe(q, def)) {
      EXPECT_FALSE(e.kind == ManagerEvent::Kind::kRemoved && e.state == def);
    }
    EXPECT_TRUE(reg.IsLive(def));
  }
}

TEST(LayoutManagerTest, AdmitStateHonorsEpsilonBoundary) {
  Table t = MakeTable(1000, 14);
  StateRegistry reg;
  QdTreeGenerator gen;
  LayoutManager mgr(&t, &gen, &reg, ManagerOpts(50, 0.5));
  mgr.InitDefaultState(0);
  // A candidate identical to the default has distance 0 -> rejected.
  LayoutInstance dup = MakeSortedInstance(t, 0, 8, "dup");
  std::vector<Query> sample = QtyRangeQueries(20, 100, 15);
  EXPECT_FALSE(mgr.AdmitState(dup, sample));
  // Empty sample: nothing to compare on -> rejected (conservative).
  EXPECT_FALSE(mgr.AdmitState(dup, {}));
}

// ---------------------------------------------------------- Simulator ----

// Oreo options for the fixed-state-space runs below: the Layout Manager only
// supplies the default layout, which the scripted strategies never use.
OreoOptions FixedOpts(double alpha, size_t reorg_delay = 0) {
  OreoOptions o;
  o.alpha = alpha;
  o.reorg_delay = reorg_delay;
  o.dataset_sample_rows = 400;
  return o;
}

// The name of the layout that served query `t` of a recorded run.
std::string ServedBy(const Oreo& oreo, const SimResult& r, size_t t) {
  return oreo.registry().Get(r.serving_state[t]).name();
}

TEST(SimulatorTest, StaticAccountingIsExact) {
  Table t = MakeTable(1000, 16);
  QdTreeGenerator gen;
  OreoOptions opts = FixedOpts(80);
  int s = -1;
  opts.strategy = [&s](const Table& table, StateRegistry* reg,
                       const LayoutManager*, int, double) {
    s = reg->Add(MakeSortedInstance(table, 1, 8, "by_qty"));
    return std::make_unique<StaticStrategy>(s);
  };
  Oreo oreo(&t, &gen, 0, opts);
  std::vector<Query> queries = QtyRangeQueries(50, 100, 17);
  SimResult r = oreo.Run(queries, /*record_trace=*/true);
  EXPECT_EQ(r.method, "static");
  EXPECT_EQ(r.num_switches, 0);
  EXPECT_DOUBLE_EQ(r.reorg_cost, 0.0);
  double manual = 0;
  for (const Query& q : queries) manual += oreo.registry().Cost(s, q);
  EXPECT_NEAR(r.query_cost, manual, 1e-9);
  ASSERT_EQ(r.cumulative.size(), queries.size());
  EXPECT_NEAR(r.cumulative.back(), r.total_cost(), 1e-9);
  for (int st : r.serving_state) EXPECT_EQ(st, s);
}

// A generator that counts its calls.
class CountingGenerator : public LayoutGenerator {
 public:
  std::string name() const override { return "counting"; }
  std::unique_ptr<Layout> Generate(const Table& sample,
                                   const std::vector<Query>& workload,
                                   uint32_t target_partitions) const override {
    ++calls;
    return inner_.Generate(sample, workload, target_partitions);
  }
  mutable size_t calls = 0;

 private:
  QdTreeGenerator inner_;
};

TEST(SimulatorTest, FixedStateSpaceMakesNoGeneratorCalls) {
  Table t = MakeTable(2000, 40);
  std::vector<Query> queries = QtyRangeQueries(300, 50, 41);
  OreoOptions opts = FixedOpts(5.0);
  opts.generate_every = 50;
  opts.window_size = 50;
  opts.target_partitions = 8;

  // Control: OREO's dynamic state space generates at every cadence.
  CountingGenerator oreo_gen;
  Oreo dynamic(&t, &oreo_gen, 0, opts);
  const size_t before = oreo_gen.calls;
  dynamic.Run(queries);
  EXPECT_GT(oreo_gen.calls, before);

  CountingGenerator gen;
  int s = -1;
  opts.strategy = [&s](const Table& table, StateRegistry* reg,
                       const LayoutManager*, int, double) {
    s = reg->Add(MakeSortedInstance(table, 1, 8, "by_qty"));
    return std::make_unique<StaticStrategy>(s);
  };
  Oreo fixed(&t, &gen, 0, opts);
  const size_t at_start = gen.calls;
  SimResult r = fixed.Run(queries);
  EXPECT_EQ(gen.calls, at_start) << "a fixed state space generated layouts";
  EXPECT_EQ(fixed.registry().num_total(), 2u);  // default + static
  double manual = 0;
  for (const Query& q : queries) manual += fixed.registry().Cost(s, q);
  EXPECT_EQ(r.query_cost, manual);
  EXPECT_EQ(r.total_cost(), manual);
}

TEST(SimulatorTest, SwitchChargesAlphaImmediately) {
  Table t = MakeTable(1000, 18);
  QdTreeGenerator gen;
  OreoOptions opts = FixedOpts(7.5);
  opts.strategy = testutil::ScriptedSortFactory({0, 1}, 8, 5, {{10, 1}});
  Oreo oreo(&t, &gen, 0, opts);
  SimResult r = oreo.Run(QtyRangeQueries(30, 100, 19), /*record_trace=*/true);
  EXPECT_EQ(r.num_switches, 1);
  EXPECT_DOUBLE_EQ(r.reorg_cost, 7.5);
  // Delta = 0: the switch takes effect for the deciding query itself.
  EXPECT_EQ(ServedBy(oreo, r, 0), "s0");  // starts on the script's layout
  EXPECT_EQ(ServedBy(oreo, r, 9), "s0");
  EXPECT_EQ(ServedBy(oreo, r, 10), "s1");
}

TEST(SimulatorTest, DelayPostponesServingSwitchButNotCharge) {
  Table t = MakeTable(1000, 20);
  QdTreeGenerator gen;
  OreoOptions opts = FixedOpts(5.0, /*reorg_delay=*/8);
  opts.strategy = testutil::ScriptedSortFactory({0, 1}, 8, 5, {{10, 1}});
  Oreo oreo(&t, &gen, 0, opts);
  SimResult r = oreo.Run(QtyRangeQueries(30, 100, 21), /*record_trace=*/true);
  EXPECT_DOUBLE_EQ(r.reorg_cost, 5.0);  // charged at decision time
  // Old layout serves through the delay window.
  for (size_t tq = 10; tq < 18; ++tq) EXPECT_EQ(ServedBy(oreo, r, tq), "s0");
  EXPECT_EQ(ServedBy(oreo, r, 18), "s1");
}

TEST(SimulatorTest, DelayIncreasesQueryCostWhenNewLayoutBetter) {
  // The paper's Delta ablation: with the same decisions, larger Delta must
  // produce >= query cost (savings arrive later).
  Table t = MakeTable(4000, 22);
  QdTreeGenerator gen;
  std::vector<Query> queries = QtyRangeQueries(200, 60, 23);
  auto run = [&](size_t delay) {
    OreoOptions opts = FixedOpts(80, delay);
    opts.strategy = testutil::ScriptedSortFactory({0, 1}, 16, 5, {{20, 1}});
    return Oreo(&t, &gen, 0, opts).Run(queries);
  };
  SimResult d0 = run(0);
  SimResult d40 = run(40);
  SimResult d80 = run(80);
  EXPECT_LE(d0.query_cost, d40.query_cost + 1e-9);
  EXPECT_LE(d40.query_cost, d80.query_cost + 1e-9);
  EXPECT_DOUBLE_EQ(d0.reorg_cost, d80.reorg_cost);
}

// ---------------------------------------------------------- Strategies ----

// The manager settings of the LayoutManager suite above, as engine options.
OreoOptions ManagedOpts(size_t gen_every, double epsilon, size_t max_states) {
  OreoOptions o;
  o.window_size = 50;
  o.generate_every = gen_every;
  o.epsilon = epsilon;
  o.max_states = max_states;
  o.target_partitions = 8;
  o.dataset_sample_rows = 400;
  o.admission_sample_size = 30;
  return o;
}

TEST(StrategyTest, GreedySwitchesToBetterCandidateIgnoringAlpha) {
  Table t = MakeTable(3000, 24);
  QdTreeGenerator gen;
  OreoOptions opts = ManagedOpts(50, 0.02, 8);
  opts.alpha = 1e6;  // Greedy must ignore this
  opts.strategy = [](const Table&, StateRegistry* reg,
                     const LayoutManager* mgr, int def, double) {
    return std::make_unique<GreedyStrategy>(reg, mgr, def);
  };
  Oreo oreo(&t, &gen, 0, opts);
  SimResult r = oreo.Run(QtyRangeQueries(300, 50, 25));
  EXPECT_EQ(r.method, "greedy");
  EXPECT_GE(r.num_switches, 1);
}

TEST(StrategyTest, RegretWaitsForAlphaWorthOfSavings) {
  Table t = MakeTable(3000, 26);
  QdTreeGenerator gen;
  auto run = [&](double alpha) {
    OreoOptions opts = ManagedOpts(50, 0.02, 8);
    opts.alpha = alpha;
    opts.strategy = [](const Table&, StateRegistry* reg, const LayoutManager*,
                       int def, double a) {
      return std::make_unique<RegretStrategy>(reg, a, def);
    };
    return Oreo(&t, &gen, 0, opts).Run(QtyRangeQueries(400, 50, 27));
  };
  SimResult cheap = run(1.0);
  SimResult pricey = run(1e6);
  EXPECT_GE(cheap.num_switches, 1);
  EXPECT_EQ(pricey.num_switches, 0);
}

TEST(StrategyTest, OreoSwitchesUnderDriftAndRespectsRegistry) {
  Table t = MakeTable(3000, 28);
  QdTreeGenerator gen;
  OreoOptions opts = ManagedOpts(40, 0.02, 8);
  opts.alpha = 3.0;
  opts.seed = 3;
  Oreo oreo(&t, &gen, 0, opts);
  SimResult r = oreo.Run(QtyRangeQueries(400, 50, 29), /*record_trace=*/true);
  EXPECT_GE(r.num_switches, 1);
  // Serving states must always be registered.
  for (int s : r.serving_state) {
    EXPECT_NO_FATAL_FAILURE(oreo.registry().Get(s));
  }
}

TEST(StrategyTest, OfflineOptimalSwitchesExactlyAtTemplateChanges) {
  // Two fake templates served by two states.
  Table t = MakeTable(1000, 30);
  workloads::Workload wl;
  for (int i = 0; i < 40; ++i) {
    Query q;
    q.id = i;
    q.template_id = (i < 20) ? 0 : 1;
    q.conjuncts = {Predicate::Between(1, Value(int64_t{0}), Value(int64_t{100}))};
    wl.queries.push_back(q);
  }
  wl.segment_starts = {0, 20};
  wl.segment_templates = {0, 1};
  QdTreeGenerator gen;
  OreoOptions opts = FixedOpts(10);
  opts.strategy = [&wl](const Table& table, StateRegistry* reg,
                        const LayoutManager*, int, double) {
    int s0 = reg->Add(MakeSortedInstance(table, 0, 8, "s0"));
    int s1 = reg->Add(MakeSortedInstance(table, 1, 8, "s1"));
    return std::make_unique<OfflineOptimalStrategy>(std::vector<int>{s0, s1},
                                                    &wl);
  };
  SimResult r = Oreo(&t, &gen, 0, opts).Run(wl.queries);
  EXPECT_EQ(r.num_switches, 1);
  EXPECT_DOUBLE_EQ(r.reorg_cost, 10.0);
}

// --------------------------------------------------------- Oreo facade ----

TEST(OreoFacadeTest, StepMatchesBatchRun) {
  Table t = MakeTable(2000, 31);
  QdTreeGenerator gen;
  OreoOptions opts;
  opts.alpha = 5.0;
  opts.generate_every = 50;
  opts.window_size = 50;
  opts.target_partitions = 8;
  opts.dataset_sample_rows = 400;
  opts.seed = 7;
  std::vector<Query> queries = QtyRangeQueries(300, 50, 32);

  core::Oreo streaming(&t, &gen, 0, opts);
  double step_query_cost = 0;
  for (const Query& q : queries) {
    step_query_cost += streaming.Step(q).query_cost;
  }
  EXPECT_NEAR(streaming.total_query_cost(), step_query_cost, 1e-9);

  core::Oreo batch(&t, &gen, 0, opts);
  SimResult r = batch.Run(queries);
  EXPECT_NEAR(r.query_cost, streaming.total_query_cost(), 1e-9);
  EXPECT_EQ(r.num_switches, streaming.num_switches());
}

TEST(StrategyTest, ReplayAdmissionFillsCountersFromPhaseHistory) {
  // With kReplay, a newly admitted state's counter equals the sum of its
  // costs over the queries processed so far in the current phase.
  Table t = MakeTable(2000, 50);
  StateRegistry reg;
  int s0 = reg.Add(MakeSortedInstance(t, 0, 8, "s0"));
  mts::DumtsOptions dopts;
  dopts.alpha = 1e6;  // no phase ends during the test
  OreoStrategy strategy(&reg, s0, dopts, MidPhasePolicy::kReplay);

  std::vector<Query> history = QtyRangeQueries(25, 80, 51);
  bool switched;
  for (const Query& q : history) strategy.OnQuery(q, &switched);
  EXPECT_EQ(strategy.phase_history_size(), history.size());

  int s1 = reg.Add(MakeSortedInstance(t, 1, 8, "s1"));
  strategy.ApplyEvents({ManagerEvent{ManagerEvent::Kind::kAdded, s1}});
  double expected = 0.0;
  for (const Query& q : history) expected += reg.Cost(s1, q);
  EXPECT_NEAR(strategy.dumts().Counter(s1), expected, 1e-9);
  EXPECT_TRUE(strategy.dumts().IsActive(s1));
}

TEST(StrategyTest, ReplayHistoryClearsOnPhaseReset) {
  Table t = MakeTable(2000, 52);
  StateRegistry reg;
  int s0 = reg.Add(MakeSortedInstance(t, 0, 4, "s0"));
  mts::DumtsOptions dopts;
  dopts.alpha = 0.5;  // tiny: every query ends the phase
  OreoStrategy strategy(&reg, s0, dopts, MidPhasePolicy::kReplay);
  bool switched;
  for (const Query& q : QtyRangeQueries(20, 500, 53)) {
    strategy.OnQuery(q, &switched);
    // Wide queries cost ~1.0 > alpha, so each query resets the phase and the
    // history never accumulates.
    EXPECT_LE(strategy.phase_history_size(), 1u);
  }
}

TEST(OreoFacadeTest, PruningCanBeDisabled) {
  Table t = MakeTable(2000, 54);
  QdTreeGenerator gen;
  OreoOptions opts;
  opts.generate_every = 40;
  opts.window_size = 40;
  opts.target_partitions = 8;
  opts.dataset_sample_rows = 400;
  opts.epsilon = 0.01;
  opts.prune_similar_states = false;
  core::Oreo oreo(&t, &gen, 0, opts);
  for (const Query& q : QtyRangeQueries(400, 50, 55)) oreo.Step(q);
  // Without pruning, only the max_states cap bounds the space.
  EXPECT_LE(oreo.registry().num_live(), opts.max_states);
}

TEST(OreoFacadeTest, ReorganizedFlagConsistentWithCosts) {
  Table t = MakeTable(2000, 33);
  QdTreeGenerator gen;
  OreoOptions opts;
  opts.alpha = 2.0;
  opts.generate_every = 40;
  opts.window_size = 40;
  opts.target_partitions = 8;
  opts.dataset_sample_rows = 400;
  core::Oreo oreo(&t, &gen, 0, opts);
  int64_t reorgs = 0;
  for (const Query& q : QtyRangeQueries(300, 50, 34)) {
    if (oreo.Step(q).reorganized) ++reorgs;
  }
  EXPECT_EQ(reorgs, oreo.num_switches());
  EXPECT_NEAR(oreo.total_reorg_cost(), 2.0 * static_cast<double>(reorgs), 1e-9);
}

}  // namespace
}  // namespace core
}  // namespace oreo
