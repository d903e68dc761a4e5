// The sharded OREO facade: N independent per-shard engines behind one
// router — the only physical engine (MakeEngine builds it for every shard
// count, one included).
//
// A ShardedOreo splits the table into `OreoOptions::num_shards` horizontal
// shards (ShardRouter over `shard_column`, hash or range routing), runs one
// full engine per shard (its own LayoutManager, D-UMTS instance and state
// registry — see ShardEngine), and routes every query to exactly the shards
// its routing-column predicates can touch. Range routing prunes shards like
// a coarse zone map, so a selective query often runs on a single shard.
//
// Determinism contract (pinned by tests/sharded_equivalence_test.cc and
// tests/engine_golden_test.cc):
//   - a 1-shard ShardedOreo is bit-identical to a bare Oreo — costs,
//     switch decisions and decision traces — and serves the caller's table
//     in place (no shard copy);
//   - N-shard runs are bit-identical across thread counts: decisions inside
//     a shard are sequential in sub-stream order, shards are independent,
//     and every fan-out stages per-slot results reduced serially in stream
//     order.
//
// Cost accounting: shard costs are row-weighted. c(s, q) is the *fraction*
// of a table's rows a query must touch, so the merged per-query cost is
//   sum over touched shards of (shard rows / total rows) * c_shard(q),
// and each shard switch charges (shard rows / total rows) * alpha — pruned
// shards contribute zero, exactly like partitions skipped by a zone map.
// With one shard the weight is 1 and the accounting collapses to Oreo's.
// Theorem IV.1 holds per shard in shard-local units; scaling a shard's ALG
// and OPT by the same weight preserves every ratio, so the worst-case
// guarantee survives sharding shard by shard.
//
// Physical mode: AttachPhysical gives every engine a store under
// `base_dir/shard_NNN`. A batch splits into per-shard sub-batches, each
// executed by its shard's store against the shard's pinned snapshot
// (PhysicalStore::ExecuteQueryBatchOnSnapshot, with its built-in prefetch);
// a shared ReorgPool runs at most one background rewrite per shard
// (concurrent across shards), and SyncPhysical reconciles snapshots and
// submits newly needed rewrites at batch boundaries.
//
// Thread model: see OreoOptions::num_threads (across shards) and
// AttachPhysical's `store_threads` (within a shard).
#ifndef OREO_CORE_SHARDED_OREO_H_
#define OREO_CORE_SHARDED_OREO_H_

#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "core/background.h"
#include "core/engine.h"
#include "core/shard_engine.h"
#include "storage/shard_router.h"

namespace oreo {
namespace core {

/// Per-shard traces plus merged accounting from ShardedOreo::Run — the
/// engine-level result shape.
using ShardedSimResult = EngineSimResult;

/// Online data-layout reorganization over a horizontally sharded table,
/// behind the OreoEngine interface.
class ShardedOreo : public OreoEngine {
 public:
  /// `table` and `generator` must outlive this object. Shard engines are
  /// configured from `options` with per-shard derived seeds (shard 0 keeps
  /// the master seed). `options.shard_column == -1` routes on `time_column`.
  /// Several shards each own a copy of their rows; a single shard reads
  /// `table` in place.
  ShardedOreo(const Table* table, const LayoutGenerator* generator,
              int time_column, const OreoOptions& options);

  /// One shard's step outcome for a routed query.
  struct ShardStep {
    uint32_t shard;
    Oreo::StepResult step;  ///< shard-local (unweighted) cost
  };

  /// Merged outcome of one streamed query, with per-shard detail.
  struct ShardedStepResult {
    double query_cost = 0.0;  ///< row-weighted across touched shards
    bool reorganized = false;  ///< some touched shard initiated a rewrite
    std::vector<ShardStep> shard_steps;  ///< ascending shard id
  };

  /// Merged outcome of one batched step, with per-shard detail.
  struct ShardedBatchResult {
    std::vector<ShardedStepResult> steps;  ///< stream order
    double query_cost = 0.0;  ///< row-weighted sum over the batch
    int64_t num_switches = 0;  ///< queries that initiated a rewrite
  };

  /// Streaming API; routes the query and steps every touched shard.
  ShardedStepResult StepSharded(const Query& query);

  /// Batched streaming API: routes each query in stream order, fans the
  /// per-shard sub-batches out across the pool (decisions stay sequential
  /// within a shard), and merges per-query results serially in stream order.
  ///
  /// External-synchronization contract: like Oreo::RunBatch, the facade
  /// assumes a single caller — concurrent StepSharded / RunBatchSharded /
  /// Run callers would interleave routing and per-shard decision state and
  /// abort under the debug assert (internal::SingleCallerGuard). Serialize
  /// multi-producer submission through a core::BatchSubmitter.
  ShardedBatchResult RunBatchSharded(const QueryBatch& batch);

  /// OreoEngine flat views of StepSharded / RunBatchSharded: `state` is the
  /// serving layout when exactly one shard served the query, -1 otherwise
  /// (per-shard states live in the detailed results / core(s)).
  StepResult Step(const Query& query) override;
  BatchResult RunBatch(const QueryBatch& batch) override;

  /// Convenience API: routes the whole stream, runs every shard engine's
  /// Oreo::Run over its sub-stream, and returns per-shard traces plus merged
  /// accounting.
  ShardedSimResult Run(const std::vector<Query>& queries,
                       bool record_trace = false);

  EngineSimResult RunTrace(const std::vector<Query>& queries,
                           bool record_trace = false) override {
    return Run(queries, record_trace);
  }

  // --- live ingest ---------------------------------------------------------

  /// Applies one mutation batch across the shards: appended rows are routed
  /// by the routing column (ShardRouter::SplitRows), every delete query goes
  /// to each shard it can touch (ShardsForQuery, conservative-complete), and
  /// the per-shard sub-batches are applied serially in ascending shard order
  /// — so the sequence of mutations a shard sees is a deterministic function
  /// of the batch stream, independent of threads. The whole batch is
  /// validated up front (schema + delete columns) so a rejected batch leaves
  /// no shard partially applied. With one shard the split (SplitIngest)
  /// hands shard 0 a copy of every row and every delete, so a 1-shard
  /// facade applies the same mutations as a bare Oreo.
  ///
  /// Row weights are recomputed from the shards' post-ingest physical scan
  /// sizes (base + delta rows), keeping the merged cost accounting
  /// consistent with what each shard's LiveCost normalizes by. With a
  /// physical layer attached, in-flight rewrites are quiesced (as by
  /// WaitForReorgs) right before a shard folds, and only when one
  /// does: a fold replaces the base table and registry layouts a running
  /// rewrite reads. Folded shards are re-materialized from their folded
  /// base, and every mutated shard's scan overlay is rebuilt against its
  /// pinned snapshot.
  ///
  /// The returned version is a facade-level batch counter; per-shard
  /// versions advance only on shards the batch touched (idle shards see no
  /// batch boundary).
  Result<IngestResult> Ingest(IngestBatch batch) override;

  // --- physical execution -------------------------------------------------

  /// Creates one PhysicalStore per shard under `base_dir/shard_NNN` (through
  /// OreoOptions::storage_backend, `store_threads` workers each),
  /// materializes every engine's current layout, and starts the shared
  /// reorganization pool (`reorg_workers` threads, 0 = one per shard).
  Status AttachPhysical(const std::string& base_dir, size_t store_threads = 1,
                        size_t reorg_workers = 0) override;
  bool has_physical() const override { return reorg_pool_ != nullptr; }

  /// Executes a batch against the pinned per-shard snapshots: every touched
  /// shard runs its sub-batch (stream order) through
  /// PhysicalStore::ExecuteQueryBatchOnSnapshot, shards fan out across the
  /// facade pool, and per-query counters are summed across touched shards
  /// serially in stream order. Counter totals (matches above all) are
  /// layout- and thread-count-invariant; an error is reported from the
  /// lowest failing shard.
  Result<PhysicalStore::BatchExec> ExecuteBatchPhysical(
      const std::vector<Query>& queries) override;

  /// Batch-boundary reconciliation: adopts finished background rewrites
  /// (refresh snapshot, vacuum superseded files, update the materialized
  /// state) and submits a rewrite for every shard whose logical serving
  /// layout moved ahead of its materialized one. At most one rewrite is in
  /// flight per shard; shards rewrite concurrently on the pool. Returns the
  /// number of rewrites submitted.
  size_t SyncPhysical() override;

  /// Blocks until no shard has a rewrite queued or running, then reconciles.
  void WaitForReorgs() override;

  ReorgPool* reorg_pool() { return reorg_pool_.get(); }

  // --- introspection ------------------------------------------------------

  const ShardRouter& router() const { return router_; }
  size_t num_shards() const override { return engines_.size(); }
  ShardEngine& engine(size_t shard) { return *engines_[shard]; }
  const ShardEngine& engine(size_t shard) const { return *engines_[shard]; }
  Oreo& core(size_t shard) override { return engines_[shard]->oreo(); }
  const Oreo& core(size_t shard) const override {
    return engines_[shard]->oreo();
  }
  PhysicalStore* store(size_t shard) override {
    return engines_[shard]->store();
  }
  /// Row weight of a shard: shard rows / total rows (0 for an empty table).
  double shard_weight(size_t shard) const { return weights_[shard]; }

  /// Row-weighted totals across shards (1 shard: identical to Oreo's).
  double total_query_cost() const override;
  double total_reorg_cost() const override;
  /// Total shard switches across all engines.
  int64_t num_switches() const override;

 private:
  /// A batch routed to the shards, serially in stream order.
  struct RoutedBatch {
    /// The shards query qi touches, ascending, are
    /// shards[first[qi]] .. shards[first[qi + 1] - 1] (one flat array, so
    /// routing a long stream allocates nothing per query).
    std::vector<uint32_t> shards;
    std::vector<size_t> first;
    /// Per shard: its sub-batch in stream order. Left empty for a shard
    /// every query touches (always the case with one shard) — that shard
    /// runs the caller's batch itself; see whole().
    std::vector<std::vector<Query>> sub;
    /// Per shard: number of queries routed to it.
    std::vector<size_t> counts;
    bool whole(size_t shard) const {
      return counts[shard] == first.size() - 1;
    }
  };
  RoutedBatch Route(const std::vector<Query>& queries) const;

  /// Re-materializes a folded shard's store from its folded base and adopts
  /// the fresh snapshot (fold = compaction: same layout, fewer rows).
  Status RematerializeShard(ShardEngine& engine);

  ShardRouter router_;
  mutable internal::SingleCallerGuard caller_guard_;
  std::vector<std::unique_ptr<ShardEngine>> engines_;
  std::vector<double> weights_;
  uint64_t ingest_version_ = 0;  ///< facade-level ingest batch counter
  std::unique_ptr<ThreadPool> pool_;  // fan-out across shards (<= num_shards)
  // Declared after the engines so it is destroyed first: in-flight rewrite
  // callbacks touch engines/stores and must never outlive them.
  std::unique_ptr<ReorgPool> reorg_pool_;
};

/// Shard subdirectory name used by AttachPhysical.
std::string ShardDirName(const std::string& base_dir, uint32_t shard);

}  // namespace core
}  // namespace oreo

#endif  // OREO_CORE_SHARDED_OREO_H_
