// Reorganization strategies: OREO's D-UMTS REORGANIZER and the baselines of
// paper SVI-A3 / SVI-C (Static, Greedy, Regret, MTS-Optimal,
// Offline-Optimal). All strategies consume the same state registry. Each
// one runs inside the engine: OreoOptions::strategy builds it per shard, and
// Oreo::Step drives it over the query stream and accounts its costs.
#ifndef OREO_CORE_STRATEGY_H_
#define OREO_CORE_STRATEGY_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/layout_manager.h"
#include "core/state_registry.h"
#include "mts/dumts.h"
#include "workloads/workload_gen.h"

namespace oreo {
namespace core {

/// Decides which layout state serves each query.
class Strategy {
 public:
  virtual ~Strategy() = default;
  virtual std::string name() const = 0;

  /// Applies state-space changes from the Layout Manager. Returns the number
  /// of *forced* reorganizations triggered (e.g. the occupied state was
  /// deleted); the engine charges alpha for each.
  virtual int ApplyEvents(const std::vector<ManagerEvent>& events) {
    (void)events;
    return 0;
  }

  /// Chooses the state to serve `query`. Sets *switched when the strategy
  /// initiates a reorganization for this query (the engine charges alpha
  /// and applies the configured delay).
  virtual int OnQuery(const Query& query, bool* switched) = 0;

  /// The state the strategy currently occupies.
  virtual int current_state() const = 0;

  /// True for strategies over a precomputed state space (Static,
  /// MTS-Optimal, Offline-Optimal): the engine then never feeds queries to
  /// the Layout Manager, so such runs do no candidate generation.
  virtual bool fixed_state_space() const { return false; }
};

/// Builds one shard's strategy (see OreoOptions::strategy). Called once per
/// shard with the shard's table, its state registry (register any
/// precomputed states here), its Layout Manager, the registry id of the
/// default layout and alpha.
using StrategyFactory = std::function<std::unique_ptr<Strategy>(
    const Table& table, StateRegistry* registry, const LayoutManager* manager,
    int default_state, double alpha)>;

/// How OREO handles states admitted in the middle of a D-UMTS phase
/// (paper Algorithm 4 defers; SIV-C sketches the two immediate options).
enum class MidPhasePolicy {
  kDefer,          ///< state joins at the next phase reset (Algorithm 4)
  kMedianCounter,  ///< immediate, counter = median of active counters
  kReplay,         ///< immediate, counter = replayed cost of this phase's
                   ///< queries on the new state (SIV-C)
};

/// OREO: the D-UMTS reorganizer over the dynamic state space.
class OreoStrategy : public Strategy {
 public:
  /// `initial_state` is the default layout's registry id.
  OreoStrategy(const StateRegistry* registry, int initial_state,
               const mts::DumtsOptions& options,
               MidPhasePolicy mid_phase = MidPhasePolicy::kDefer);

  std::string name() const override { return "oreo"; }
  int ApplyEvents(const std::vector<ManagerEvent>& events) override;
  int OnQuery(const Query& query, bool* switched) override;
  int current_state() const override { return dumts_.current_state(); }

  /// Overrides the c(s, q) matrix D-UMTS decides on. The live-ingest path
  /// injects the engine's live cost (base cost adjusted for un-folded delta
  /// chunks), so decisions and the charged costs come from one matrix and
  /// Theorem IV.1 applies to it verbatim — D-UMTS is 2·H(|S_max|)-competitive
  /// for *any* cost matrix in [0, 1]. Null (the default) means the pure
  /// registry cost; with no pending mutations the live cost equals it
  /// exactly, so pre-ingest runs stay bit-identical.
  void set_cost_fn(std::function<double(int, const Query&)> cost_fn) {
    cost_fn_ = std::move(cost_fn);
  }

  const mts::DynamicUmts& dumts() const { return dumts_; }
  /// Queries processed so far in the current phase (replay history).
  size_t phase_history_size() const { return phase_queries_.size(); }

 private:
  double StateCost(int state, const Query& query) const {
    return cost_fn_ ? cost_fn_(state, query) : registry_->Cost(state, query);
  }

  const StateRegistry* registry_;
  MidPhasePolicy mid_phase_;
  mts::DynamicUmts dumts_;
  std::vector<Query> phase_queries_;
  std::function<double(int, const Query&)> cost_fn_;
};

/// Greedy baseline: whenever a new candidate is admitted, switch to it if it
/// beats the current layout on the sliding window — ignoring alpha.
class GreedyStrategy : public Strategy {
 public:
  GreedyStrategy(const StateRegistry* registry, const LayoutManager* manager,
                 int initial_state);

  std::string name() const override { return "greedy"; }
  int ApplyEvents(const std::vector<ManagerEvent>& events) override;
  int OnQuery(const Query& query, bool* switched) override;
  int current_state() const override { return current_; }

 private:
  const StateRegistry* registry_;
  const LayoutManager* manager_;
  int current_;
  bool pending_switch_ = false;
};

/// Regret baseline (after TASM [23]): tracks the cumulative query-cost
/// difference between the current layout and every alternative since the
/// last switch; switches when the best cumulative saving exceeds alpha.
class RegretStrategy : public Strategy {
 public:
  RegretStrategy(const StateRegistry* registry, double alpha,
                 int initial_state);

  std::string name() const override { return "regret"; }
  int ApplyEvents(const std::vector<ManagerEvent>& events) override;
  int OnQuery(const Query& query, bool* switched) override;
  int current_state() const override { return current_; }

 private:
  void ResetHistory();

  const StateRegistry* registry_;
  double alpha_;
  int current_;
  std::vector<Query> history_;  ///< queries served on the current layout
  // Cumulative saving vs current, per live alternative id.
  std::map<int, double> savings_;
};

/// Static baseline: one precomputed layout, never switches.
class StaticStrategy : public Strategy {
 public:
  explicit StaticStrategy(int state) : state_(state) {}
  std::string name() const override { return "static"; }
  int OnQuery(const Query& query, bool* switched) override {
    (void)query;
    *switched = false;
    return state_;
  }
  int current_state() const override { return state_; }
  bool fixed_state_space() const override { return true; }

 private:
  int state_;
};

/// MTS-Optimal (paper SVI-C): D-UMTS over a *fixed* precomputed state space
/// (the best layout per query template), no on-the-fly generation.
class MtsOptimalStrategy : public Strategy {
 public:
  MtsOptimalStrategy(const StateRegistry* registry, std::vector<int> states,
                     int initial_state, const mts::DumtsOptions& options);

  std::string name() const override { return "mts_optimal"; }
  int OnQuery(const Query& query, bool* switched) override;
  int current_state() const override { return dumts_.current_state(); }
  bool fixed_state_space() const override { return true; }

 private:
  const StateRegistry* registry_;
  std::vector<int> states_;
  mts::DynamicUmts dumts_;
};

/// Offline-Optimal (paper SVI-C): sees the whole workload; switches to the
/// per-template best layout the moment the template changes. Lower-bounds the
/// query cost of any online solution.
class OfflineOptimalStrategy : public Strategy {
 public:
  /// `template_state[t]` maps template id -> registry state id.
  OfflineOptimalStrategy(std::vector<int> template_state,
                         const workloads::Workload* workload);

  std::string name() const override { return "offline_optimal"; }
  int OnQuery(const Query& query, bool* switched) override;
  int current_state() const override { return current_; }
  bool fixed_state_space() const override { return true; }

 private:
  std::vector<int> template_state_;
  const workloads::Workload* workload_;
  int current_ = -1;
};

/// Builds one optimized layout per query template (the fixed state space of
/// MTS-Optimal / Offline-Optimal). For each template, `queries_per_template`
/// instantiations are drawn and fed to `generator`. Returns registry ids
/// indexed by template id.
std::vector<int> BuildPerTemplateStates(
    const Table& table, const Table& dataset_sample,
    const std::vector<workloads::QueryTemplate>& templates,
    const LayoutGenerator& generator, uint32_t target_partitions,
    size_t queries_per_template, uint64_t seed, StateRegistry* registry);

}  // namespace core
}  // namespace oreo

#endif  // OREO_CORE_STRATEGY_H_
