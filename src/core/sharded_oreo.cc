#include "core/sharded_oreo.h"

#include <algorithm>
#include <cstdio>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "ingest/coordinator.h"

namespace oreo {
namespace core {

namespace {

// Per-shard seed derivation. Shard 0 keeps the master seed, so a 1-shard
// facade drives an engine bit-identical to a bare Oreo.
uint64_t ShardSeed(uint64_t master, uint32_t shard) {
  return master + static_cast<uint64_t>(shard) * 0x9e3779b97f4a7c15ULL;
}

// First (lowest-index) non-OK status of a parallel stage, so the reported
// error does not depend on task scheduling.
Status FirstError(const std::vector<Status>& statuses) {
  for (const Status& st : statuses) {
    if (!st.ok()) return st;
  }
  return Status::OK();
}

ShardRouter BuildRouterFor(const Table* table, int time_column,
                           const OreoOptions& options) {
  OREO_CHECK(table != nullptr);
  OREO_CHECK_GT(options.num_shards, 0u);
  ShardRouterOptions router_opts;
  router_opts.num_shards = options.num_shards;
  router_opts.column =
      options.shard_column < 0 ? time_column : options.shard_column;
  router_opts.routing = options.shard_routing;
  return ShardRouter::Build(*table, router_opts);
}

}  // namespace

std::string ShardDirName(const std::string& base_dir, uint32_t shard) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "/shard_%03u", shard);
  return base_dir + buf;
}

ShardedOreo::ShardedOreo(const Table* table, const LayoutGenerator* generator,
                         int time_column, const OreoOptions& options)
    : router_(BuildRouterFor(table, time_column, options)) {
  OREO_CHECK(generator != nullptr);
  const size_t n = options.num_shards;
  // One shard is the whole table: its engine reads the caller's table in
  // place instead of a copy.
  std::vector<std::vector<uint32_t>> shard_rows;
  if (n > 1) shard_rows = router_.SplitRows(*table);
  engines_.reserve(n);
  weights_.reserve(n);
  const double total_rows = static_cast<double>(table->num_rows());
  for (uint32_t s = 0; s < n; ++s) {
    OreoOptions shard_opts = options;
    shard_opts.seed = ShardSeed(options.seed, s);
    const Table* shard_table = table;
    std::unique_ptr<const Table> owned;
    if (n > 1) {
      // Empty shards cannot bootstrap a default layout; the routing column
      // must spread values across every shard (pick a higher-cardinality
      // column or fewer shards otherwise).
      OREO_CHECK(!shard_rows[s].empty())
          << "shard " << s << " is empty: routing column " << router_.column()
          << " cannot fill " << n << " shards";
      owned = std::make_unique<const Table>(table->Take(shard_rows[s]));
      shard_table = owned.get();
      // With several shards, parallelism comes from the facade's fan-out
      // *across* engines; per-engine internals run serial so N engines do
      // not multiply persistent thread pools and oversubscribe the host.
      // Results are unchanged either way (the determinism contract is
      // thread-count invariant). A 1-shard facade passes the knob through,
      // keeping its engine configured exactly like a bare Oreo.
      shard_opts.num_threads = 1;
    }
    weights_.push_back(total_rows > 0
                           ? static_cast<double>(shard_table->num_rows()) /
                                 total_rows
                           : 0.0);
    engines_.push_back(std::make_unique<ShardEngine>(
        s, shard_table, std::move(owned), generator, time_column, shard_opts));
  }
  // Every fan-out is across shards, so more workers than shards would idle.
  pool_ = std::make_unique<ThreadPool>(
      std::min(ThreadPool::ResolveThreads(options.num_threads), n));
}

ShardedOreo::RoutedBatch ShardedOreo::Route(
    const std::vector<Query>& queries) const {
  const size_t n = engines_.size();
  RoutedBatch routed;
  routed.counts.assign(n, 0);
  routed.first.reserve(queries.size() + 1);
  routed.first.push_back(0);
  for (const Query& query : queries) {
    for (uint32_t s : router_.ShardsForQuery(query)) {
      routed.shards.push_back(s);
      ++routed.counts[s];
    }
    routed.first.push_back(routed.shards.size());
  }
  routed.sub.resize(n);
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    for (size_t i = routed.first[qi]; i < routed.first[qi + 1]; ++i) {
      const uint32_t s = routed.shards[i];
      if (!routed.whole(s)) routed.sub[s].push_back(queries[qi]);
    }
  }
  return routed;
}

ShardedOreo::ShardedStepResult ShardedOreo::StepSharded(const Query& query) {
  QueryBatch batch;
  batch.queries.push_back(query);
  ShardedBatchResult result = RunBatchSharded(batch);
  return std::move(result.steps.front());
}

ShardedOreo::ShardedBatchResult ShardedOreo::RunBatchSharded(
    const QueryBatch& batch) {
  internal::SingleCallerGuard::Scope single_caller(&caller_guard_);
  const size_t n = engines_.size();
  RoutedBatch routed = Route(batch.queries);
  // Shard fan-out: each engine makes its (inherently sequential) decisions
  // over its own sub-stream, independent of every other shard.
  std::vector<Oreo::BatchResult> results(n);
  pool_->ParallelFor(n, [&](size_t s) {
    if (routed.counts[s] == 0) return;
    Oreo& core = engines_[s]->oreo();
    results[s] = routed.whole(s)
                     ? core.RunBatch(batch)
                     : core.RunBatch(QueryBatch(std::move(routed.sub[s])));
  });
  // Serial merge in stream order; within a query, shards ascend.
  ShardedBatchResult out;
  out.steps.reserve(batch.size());
  std::vector<size_t> cursor(n, 0);
  for (size_t qi = 0; qi < batch.size(); ++qi) {
    ShardedStepResult step;
    for (size_t i = routed.first[qi]; i < routed.first[qi + 1]; ++i) {
      const uint32_t s = routed.shards[i];
      const Oreo::StepResult& shard_step = results[s].steps[cursor[s]++];
      step.query_cost += weights_[s] * shard_step.query_cost;
      step.reorganized = step.reorganized || shard_step.reorganized;
      step.shard_steps.push_back(ShardStep{s, shard_step});
    }
    out.query_cost += step.query_cost;
    if (step.reorganized) ++out.num_switches;
    out.steps.push_back(std::move(step));
  }
  return out;
}

namespace {

// Flattens a detailed sharded step into the engine-level shape: the serving
// state is only meaningful when exactly one shard served the query.
OreoEngine::StepResult FlattenStep(
    const ShardedOreo::ShardedStepResult& step) {
  return OreoEngine::StepResult{
      step.shard_steps.size() == 1 ? step.shard_steps.front().step.state : -1,
      step.reorganized, step.query_cost};
}

}  // namespace

OreoEngine::StepResult ShardedOreo::Step(const Query& query) {
  return FlattenStep(StepSharded(query));
}

OreoEngine::BatchResult ShardedOreo::RunBatch(const QueryBatch& batch) {
  ShardedBatchResult detailed = RunBatchSharded(batch);
  BatchResult out;
  out.query_cost = detailed.query_cost;
  out.num_switches = detailed.num_switches;
  out.steps.reserve(detailed.steps.size());
  for (const ShardedStepResult& step : detailed.steps) {
    out.steps.push_back(FlattenStep(step));
  }
  return out;
}

ShardedSimResult ShardedOreo::Run(const std::vector<Query>& queries,
                                  bool record_trace) {
  internal::SingleCallerGuard::Scope single_caller(&caller_guard_);
  const size_t n = engines_.size();
  RoutedBatch routed = Route(queries);
  ShardedSimResult result;
  result.shards.resize(n);
  pool_->ParallelFor(n, [&](size_t s) {
    result.shards[s] = engines_[s]->oreo().Run(
        routed.whole(s) ? queries : routed.sub[s], record_trace);
  });
  for (size_t s = 0; s < n; ++s) {
    result.query_cost += weights_[s] * result.shards[s].query_cost;
    result.reorg_cost += weights_[s] * result.shards[s].reorg_cost;
    result.num_switches += result.shards[s].num_switches;
  }
  return result;
}

Result<IngestResult> ShardedOreo::Ingest(IngestBatch batch) {
  internal::SingleCallerGuard::Scope single_caller(&caller_guard_);
  // Validate the whole batch up front: every shard's Oreo::Ingest
  // re-validates, but by the time shard s rejected the batch, shards < s
  // would already have committed their slices.
  const Schema& schema = engines_.front()->oreo().base_table().schema();
  if (batch.rows.num_rows() > 0 && !batch.rows.schema().Equals(schema)) {
    return Status::InvalidArgument(
        "ingest rows do not match the table schema: expected " +
        schema.ToString() + ", got " + batch.rows.schema().ToString());
  }
  for (const Query& q : batch.deletes) {
    for (const Predicate& p : q.conjuncts) {
      if (p.column < 0 ||
          static_cast<size_t>(p.column) >= schema.num_fields()) {
        return Status::InvalidArgument(
            "delete predicate references column " + std::to_string(p.column) +
            " of a " + std::to_string(schema.num_fields()) + "-column table");
      }
    }
  }
  std::vector<ingest::ShardIngest> split =
      ingest::SplitIngest(router_, batch.rows, batch.deletes);
  IngestResult out;
  out.version = ++ingest_version_;
  // A fold replaces the shard's base table and rematerializes its registry
  // instances in place, and background rewrites read both. So the rewrites
  // are quiesced right before a shard folds, and only then: a batch that
  // folds no shard leaves them running.
  std::function<void()> quiesce;
  if (reorg_pool_ != nullptr) quiesce = [this] { WaitForReorgs(); };
  // Serial application in ascending shard order: each shard's mutation
  // sequence is a deterministic function of the batch stream alone.
  for (size_t s = 0; s < engines_.size(); ++s) {
    ingest::ShardIngest& slice = split[s];
    if (slice.rows.num_rows() == 0 && slice.deletes.empty()) continue;
    ShardEngine& engine = *engines_[s];
    IngestBatch shard_batch;
    shard_batch.rows = std::move(slice.rows);
    shard_batch.deletes = std::move(slice.deletes);
    OREO_ASSIGN_OR_RETURN(
        IngestResult shard_result,
        engine.oreo().Ingest(std::move(shard_batch), quiesce));
    out.rows_appended += shard_result.rows_appended;
    out.rows_deleted += shard_result.rows_deleted;
    if (shard_result.folded) {
      out.folded = true;
      // The shard's Oreo has no store of its own; compact its files here.
      if (engine.has_physical()) {
        OREO_RETURN_NOT_OK(RematerializeShard(engine));
      }
    }
    if (engine.has_physical()) {
      engine.oreo().RebuildLiveView(engine.snapshot().instance);
    }
  }
  // Row weights track the shards' physical scan sizes — LiveCost normalizes
  // a shard's cost by its base + delta rows, so weighting by the same
  // denominator keeps the merged accounting row-weighted (pre-ingest this
  // reproduces the construction-time weights exactly).
  std::vector<double> scan_rows(engines_.size());
  double total_rows = 0.0;
  for (size_t s = 0; s < engines_.size(); ++s) {
    const ingest::LiveTable& live = engines_[s]->oreo().live();
    scan_rows[s] = static_cast<double>(live.base().num_rows()) +
                   static_cast<double>(live.delta_rows());
    total_rows += scan_rows[s];
    out.visible_rows += engines_[s]->oreo().visible_rows();
  }
  for (size_t s = 0; s < engines_.size(); ++s) {
    weights_[s] = total_rows > 0 ? scan_rows[s] / total_rows : 0.0;
  }
  return out;
}

Status ShardedOreo::RematerializeShard(ShardEngine& engine) {
  // A fold is compaction, not a switch: the shard's current physical layout
  // is rebuilt over its folded base (registry instances were already
  // rematerialized by Oreo::Fold), so no alpha is charged anywhere.
  const int current = engine.oreo().physical_state();
  Result<PhysicalStore::Timing> timing = engine.store()->MaterializeLayout(
      engine.oreo().base_table(), engine.oreo().registry().Get(current));
  if (!timing.ok()) return timing.status();
  engine.set_materialized_state(current);
  engine.set_pending_target(std::nullopt);
  engine.set_failed_target(std::nullopt);
  engine.RefreshSnapshot();
  engine.store()->Vacuum();
  return Status::OK();
}

Status ShardedOreo::AttachPhysical(const std::string& base_dir,
                                   size_t store_threads,
                                   size_t reorg_workers) {
  OREO_CHECK(reorg_pool_ == nullptr) << "physical layer already attached";
  for (auto& engine : engines_) {
    Status status = engine->AttachPhysical(
        ShardDirName(base_dir, engine->shard_id()), store_threads);
    if (!status.ok()) {
      // All or nothing: the shards that did attach drop their stores too,
      // so the engine is cleanly unattached and a retry starts afresh.
      for (auto& attached : engines_) attached->DetachPhysical();
      return status;
    }
  }
  reorg_pool_ = std::make_unique<ReorgPool>(
      reorg_workers == 0 ? engines_.size() : reorg_workers);
  return Status::OK();
}

Result<PhysicalStore::BatchExec> ShardedOreo::ExecuteBatchPhysical(
    const std::vector<Query>& queries) {
  OREO_CHECK(reorg_pool_ != nullptr) << "call AttachPhysical first";
  PhysicalStore::BatchExec batch;
  Stopwatch sw;
  const size_t n = engines_.size();
  RoutedBatch routed = Route(queries);
  // Shard fan-out: every touched shard scans its sub-batch against its
  // pinned snapshot and scan overlay, staging the result in its own slot.
  std::vector<PhysicalStore::BatchExec> execs(n);
  std::vector<Status> statuses(n);
  pool_->ParallelFor(n, [&](size_t s) {
    if (routed.counts[s] == 0) return;
    ShardEngine& engine = *engines_[s];
    Result<PhysicalStore::BatchExec> exec =
        engine.store()->ExecuteQueryBatchOnSnapshot(
            engine.snapshot(), routed.whole(s) ? queries : routed.sub[s],
            engine.oreo().live_scan_view());
    if (!exec.ok()) {
      statuses[s] = exec.status();
      return;
    }
    execs[s] = std::move(*exec);
  });
  OREO_RETURN_NOT_OK(FirstError(statuses));
  // Serial reduction in stream order, shards ascending within a query.
  for (const PhysicalStore::BatchExec& exec : execs) {
    batch.blocks_fetched += exec.blocks_fetched;
    batch.bytes_verified += exec.bytes_verified;
  }
  batch.per_query.resize(queries.size());
  std::vector<size_t> cursor(n, 0);
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    PhysicalStore::QueryExec& agg = batch.per_query[qi];
    for (size_t i = routed.first[qi]; i < routed.first[qi + 1]; ++i) {
      const uint32_t s = routed.shards[i];
      const PhysicalStore::QueryExec& exec = execs[s].per_query[cursor[s]++];
      agg.partitions_read += exec.partitions_read;
      agg.rows_scanned += exec.rows_scanned;
      agg.matches += exec.matches;
      agg.bytes_read += exec.bytes_read;
    }
  }
  batch.seconds = sw.ElapsedSeconds();
  return batch;
}

size_t ShardedOreo::SyncPhysical() {
  OREO_CHECK(reorg_pool_ != nullptr) << "call AttachPhysical first";
  size_t submitted = 0;
  for (auto& engine_ptr : engines_) {
    ShardEngine& engine = *engine_ptr;
    const uint32_t shard = engine.shard_id();
    // A still-running rewrite keeps serving from the pinned snapshot.
    if (reorg_pool_->busy(shard)) continue;
    if (engine.pending_target().has_value()) {
      // The rewrite finished since the last reconciliation: adopt it. The
      // facade holds the only snapshots, so superseded files are
      // reclaimable right here at the batch boundary.
      if (reorg_pool_->last_status(shard).ok()) {
        engine.set_materialized_state(*engine.pending_target());
        engine.set_failed_target(std::nullopt);
      } else {
        // Remember the failed target: it is not resubmitted until the
        // desired state moves on, so reconciliation always terminates and
        // last_status(shard) keeps reporting the failure.
        engine.set_failed_target(engine.pending_target());
      }
      engine.set_pending_target(std::nullopt);
      engine.RefreshSnapshot();
      engine.store()->Vacuum();
      // The snapshot moved to a new partitioning; tombstone masks are
      // indexed by partition, so rebuild the shard's overlay against it.
      engine.oreo().RebuildLiveView(engine.snapshot().instance);
    }
    const int desired = engine.oreo().physical_state();
    if (desired != engine.materialized_state() &&
        engine.failed_target() != std::optional<int>(desired)) {
      ReorgPool::Job job;
      job.shard = shard;
      job.store = engine.store();
      // base_table(), not the construction-time table: after a fold the
      // registry's partitionings cover the folded row set.
      job.table = &engine.oreo().base_table();
      job.target = &engine.oreo().registry().Get(desired);
      if (reorg_pool_->Submit(std::move(job))) {
        engine.set_pending_target(desired);
        ++submitted;
      }
    }
  }
  return submitted;
}

void ShardedOreo::WaitForReorgs() {
  OREO_CHECK(reorg_pool_ != nullptr) << "call AttachPhysical first";
  // Reconciliation can queue follow-up rewrites (the logical state may have
  // moved again mid-rewrite); loop until the store is quiescent.
  for (;;) {
    reorg_pool_->WaitAll();
    if (SyncPhysical() == 0) break;
  }
}

double ShardedOreo::total_query_cost() const {
  double total = 0.0;
  for (size_t s = 0; s < engines_.size(); ++s) {
    total += weights_[s] * engines_[s]->oreo().total_query_cost();
  }
  return total;
}

double ShardedOreo::total_reorg_cost() const {
  double total = 0.0;
  for (size_t s = 0; s < engines_.size(); ++s) {
    total += weights_[s] * engines_[s]->oreo().total_reorg_cost();
  }
  return total;
}

int64_t ShardedOreo::num_switches() const {
  int64_t total = 0;
  for (const auto& engine : engines_) {
    total += engine->oreo().num_switches();
  }
  return total;
}

}  // namespace core
}  // namespace oreo
