// OREO's logical core: wires together the LAYOUT MANAGER and the
// REORGANIZER (paper Figure 1) for one table (or one shard of it). `Oreo`
// decides — it tracks layout states, costs and switch decisions, and the
// live-ingest overlay — but owns no physical store. Clients drive the engine
// through `OreoEngine` (core::MakeEngine), whose `ShardedOreo` facade runs
// one `Oreo` per shard and owns the stores, pinned snapshots and background
// rewrites; the lower-level pieces (LayoutManager, DynamicUmts, strategies)
// remain available for composition. `Step` is the one per-query decision
// loop: OREO and every baseline (OreoOptions::strategy) run through it.
//
// Direct logical use:
//   QdTreeGenerator gen;
//   Oreo oreo(&table, &gen, /*time_column=*/5, OreoOptions{});
//   for (const Query& q : stream) {
//     auto step = oreo.Step(q);
//     // serve q on layout `step.state`; if step.reorganized, a background
//     // rewrite into oreo.registry().Get(step.state) is due
//   }
// or whole batches (bit-identical to stepping per query):
//   for (const QueryBatch& b : MakeBatches(stream, 64)) oreo.RunBatch(b);
#ifndef OREO_CORE_OREO_H_
#define OREO_CORE_OREO_H_

#include <deque>
#include <functional>
#include <memory>

#include "core/engine.h"
#include "core/layout_manager.h"
#include "core/state_registry.h"
#include "core/strategy.h"
#include "ingest/live_table.h"
#include "ingest/mutation_log.h"
#include "storage/backend.h"
#include "storage/shard_router.h"

namespace oreo {

class SharedBlockCache;  // storage/shared_cache.h

namespace core {

/// All tuning knobs of the framework, with the paper's defaults.
struct OreoOptions {
  double alpha = 80.0;        ///< relative reorganization cost
  double epsilon = 0.08;      ///< layout admission distance threshold
  double gamma = 1.0;         ///< predictor transition-bias exponent
  size_t window_size = 200;   ///< sliding window of recent queries
  size_t generate_every = 200;  ///< generation cadence (queries)
  uint32_t target_partitions = 32;  ///< partitions per layout (k)
  size_t max_states = 16;     ///< dynamic state-space cap (0 = unbounded)
  size_t reorg_delay = 0;     ///< Delta: queries served on the old layout
  size_t dataset_sample_rows = 2000;  ///< sample for generate_layout
  size_t admission_sample_size = 50;  ///< time-biased query sample size
  CandidateSource source = CandidateSource::kSlidingWindow;
  MidPhasePolicy mid_phase_policy = MidPhasePolicy::kDefer;
  /// The reorganization method: null = OREO (D-UMTS over the dynamic state
  /// space); otherwise called once per shard to build a baseline (Static,
  /// Greedy, Regret, MTS-Optimal, Offline-Optimal; see core/strategy.h).
  /// Every method runs through the same Step loop, so costs, switches,
  /// batching, sharding and the physical live loop mean the same for all.
  /// Only OREO decides on the live-ingest cost matrix; baselines decide on
  /// registry costs. Every method is charged live costs.
  StrategyFactory strategy;
  /// §V-B periodic pruning of redundant (epsilon-similar) states.
  bool prune_similar_states = true;
  /// §IV-A stay-in-place optimization at phase resets.
  bool stay_at_phase_start = true;
  /// Reuse cached per-(state, sample-chunk) cost contributions across
  /// generation cadences (see LayoutManagerOptions::incremental_cost_cache).
  /// Decisions are bit-identical with the cache on or off.
  bool incremental_cost_cache = true;
  /// Worker threads for the parallel hot paths. 0 = one per hardware core,
  /// 1 = serial. The engine's thread model: `num_threads` fans work out
  /// *across* shards (capped at num_shards) and, with one shard, also
  /// parallelizes candidate cost evaluation; AttachPhysical's
  /// `store_threads` parallelizes foreground scans and materialization
  /// *within* a shard, while each background rewrite runs serially on a
  /// ReorgPool worker.
  /// Determinism contract: costs, switch decisions, traces and scan
  /// counters are bit-identical at any thread count.
  size_t num_threads = 0;
  /// --- sharding (routing knobs of the ShardedOreo facade) ---
  /// Number of horizontal shards; each shard runs its own independent
  /// engine (LayoutManager + D-UMTS + PhysicalStore), preserving the
  /// per-shard competitive guarantee. 1 = one shard over the whole table.
  size_t num_shards = 1;
  /// Routing column for the shard split (-1 = the time column).
  int shard_column = -1;
  /// Row→shard routing function (see storage/shard_router.h).
  ShardRouting shard_routing = ShardRouting::kHash;
  /// Physical byte store for AttachPhysical (see storage/backend.h):
  /// nullptr = local posix files; MakeInMemoryBackend() serves disklessly;
  /// `shared_cache` below puts a bounded block cache in front of it. The
  /// determinism contract extends to backends: costs, switches, traces and
  /// partition bytes are backend-invariant.
  std::shared_ptr<StorageBackend> storage_backend;
  /// Cross-shard tiered block cache (see storage/shared_cache.h). When set,
  /// every shard's store wraps `storage_backend` (or posix when null) in a
  /// shard-charged SharedCacheBackend view: one global memory budget,
  /// single-flight dedup across shards, and async prefetch of the
  /// zone-map-surviving partitions of a batch's later queries. Serving
  /// results stay bit-identical with the cache on or off.
  std::shared_ptr<SharedBlockCache> shared_cache;
  /// Compaction trigger for live ingest: fold delta chunks and tombstones
  /// into a fresh base (and rematerialize the physical layout) when the
  /// mutation debt — (delta rows + tombstoned base rows) / physical rows —
  /// reaches this fraction at an Ingest boundary. Bounds both the delta-scan
  /// overhead and the memory held by dead rows; <= 0 folds after every
  /// mutating batch, > 1 never folds automatically.
  double fold_threshold = 0.25;
  uint64_t seed = 42;  ///< master seed; sub-components derive their own
};

/// Online data-layout reorganization with worst-case guarantees — the
/// logical engine of one table or shard. The sharded facade (ShardedOreo,
/// built by MakeEngine for every shard count) owns one Oreo per shard and
/// pairs it with the shard's PhysicalStore.
class Oreo {
 public:
  using StepResult = OreoEngine::StepResult;
  using BatchResult = OreoEngine::BatchResult;

  /// `table` and `generator` must outlive this object. `time_column` defines
  /// the initial default layout (sort by arrival time).
  Oreo(const Table* table, const LayoutGenerator* generator, int time_column,
       const OreoOptions& options);
  ~Oreo();

  /// Streaming API: observe one query, get the serving layout and any
  /// reorganization decision.
  StepResult Step(const Query& query);

  /// Batched streaming API: admits a vector of queries in one step. The
  /// online algorithm is inherently sequential (every arrival updates the
  /// window, the samples and the D-UMTS counters), so decisions are made in
  /// stream order through the exact Step code path — results are
  /// bit-identical to calling Step per query. Batching buys amortized
  /// dispatch and hands the caller per-batch switch points.
  ///
  /// External-synchronization contract: Step / RunBatch / Run assume a
  /// single caller — concurrent entry from two threads corrupts the
  /// sequential decision state and is a programmer error (aborted by a debug
  /// assert, see internal::SingleCallerGuard). Multiplexing front ends must
  /// serialize submission through a core::BatchSubmitter.
  BatchResult RunBatch(const QueryBatch& batch);

  /// Runs a stream through Step and returns its cost accounting, plus — with
  /// `record_trace` — the cumulative cost and serving state per query and
  /// the (query index, from, to) switch events. Exactly the Step loop:
  /// the same live costs are charged and the engine ends in the same state.
  SimResult Run(const std::vector<Query>& queries, bool record_trace = false);

  // --- live ingest (see OreoEngine::Ingest) --------------------------------

  /// Applies one mutation batch. Deletes tombstone the visible rows their
  /// predicates match (same-batch appends exempt); appended rows become a
  /// zone-mapped delta chunk, visible to every subsequent query. While
  /// mutations are pending, D-UMTS decides on — and the engine charges — the
  /// live cost
  ///   c_live(s, q) = (c_base(s, q) * B + D(q)) / (B + Delta)
  /// (B = physical base rows, Delta = physical delta rows, D(q) = zone-map-
  /// surviving delta rows): the true scanned-fraction of the mutated store.
  /// Theorem IV.1 holds verbatim on this matrix — D-UMTS is 2·H(|S_max|)-
  /// competitive for any cost matrix in [0, 1] — and with no pending
  /// mutations c_live is exactly c_base, so pre-ingest runs are bit-identical
  /// to builds without this subsystem. Crossing fold_threshold triggers the
  /// compaction fold (tombstones drop, deltas merge into a fresh base, every
  /// registry state rematerializes, the manager's dataset sample redraws;
  /// the facade then rebuilds the shard's physical layout). `before_fold`,
  /// when set, runs after the batch is committed and right before a fold,
  /// and only then: the facade quiesces the background rewrites that read
  /// the base table and registry instances a fold replaces. Single-caller
  /// contract applies, like Step/RunBatch.
  Result<IngestResult> Ingest(
      IngestBatch batch, const std::function<void()>& before_fold = nullptr);

  /// The mutable logical table (base + deltas + tombstone masks).
  const ingest::LiveTable& live() const { return live_; }
  /// Rows currently visible to queries.
  uint64_t visible_rows() const { return live_.visible_rows(); }
  /// Version of the last committed ingest batch (0 before any ingest).
  uint64_t data_version() const { return mutation_log_.version(); }
  /// The current physical base table: the engine's original table until the
  /// first fold, the owned fold result afterwards. Background rewrites and
  /// store (re)materialization must read this, never the construction-time
  /// table.
  const Table& base_table() const { return live_.base(); }
  /// Number of compaction folds performed so far.
  uint64_t folds() const { return folds_; }
  /// The tombstone/delta overlay for snapshot scans, or nullptr when no
  /// mutation is pending (ShardedOreo threads this into its per-shard
  /// ExecuteQueryBatchOnSnapshot calls). Rebuilt at ingest and
  /// snapshot-refresh boundaries, never mid-batch.
  const PhysicalStore::LiveScanView* live_scan_view() const {
    return live_view_active_ ? &live_view_ : nullptr;
  }
  /// Rebuilds the overlay against `instance`'s partitioning — the layout the
  /// caller's snapshot serves. The store and pinned snapshot live outside
  /// the Oreo (ShardEngine owns them), so the facade calls this after every
  /// ingest and snapshot refresh; Ingest itself rebuilds against the last
  /// instance supplied. Passing nullptr deactivates the view.
  void RebuildLiveView(const LayoutInstance* instance);

  // --- introspection ------------------------------------------------------

  const OreoOptions& options() const { return options_; }

  const StateRegistry& registry() const { return registry_; }
  const LayoutManager& manager() const { return *manager_; }
  /// The OREO strategy; only valid when OreoOptions::strategy is null.
  const OreoStrategy& strategy() const;
  int current_state() const { return strategy_->current_state(); }
  int default_state() const { return default_state_; }
  /// Layout that physically serves queries right now (trails current_state
  /// by `reorg_delay` queries after a switch decision).
  int physical_state() const { return physical_state_; }

  double total_query_cost() const { return query_cost_; }
  double total_reorg_cost() const { return reorg_cost_; }
  double total_cost() const { return query_cost_ + reorg_cost_; }
  int64_t num_switches() const { return num_switches_; }

 private:
  /// The live cost c_live(s, q) D-UMTS decides on and Step charges; equals
  /// the registry's base cost exactly when no mutations are pending.
  double LiveCost(int state, const Query& query) const;
  /// The compaction fold (see Ingest): logical only — the facade quiesces
  /// background rewrites first (Ingest's `before_fold`) and rematerializes
  /// the shard's store after.
  void Fold();

  OreoOptions options_;
  ingest::LiveTable live_;
  ingest::MutationLog mutation_log_;
  uint64_t folds_ = 0;
  mutable internal::SingleCallerGuard caller_guard_;
  StateRegistry registry_;
  std::unique_ptr<LayoutManager> manager_;
  std::unique_ptr<Strategy> strategy_;
  OreoStrategy* oreo_strategy_ = nullptr;  // strategy_, when it is OREO
  int default_state_;
  int physical_state_;
  std::deque<std::pair<size_t, int>> pending_;
  size_t queries_seen_ = 0;
  double query_cost_ = 0.0;
  double reorg_cost_ = 0.0;
  int64_t num_switches_ = 0;

  PhysicalStore::LiveScanView live_view_;
  bool live_view_active_ = false;
  const LayoutInstance* live_view_instance_ = nullptr;  // masks' partitioning
};

}  // namespace core
}  // namespace oreo

#endif  // OREO_CORE_OREO_H_
