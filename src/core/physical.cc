#include "core/physical.h"

#include <set>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "query/kernels.h"
#include "storage/block.h"
#include "storage/shared_cache.h"

namespace oreo {
namespace core {

namespace {

// Returns the first (lowest-index) non-OK status of a parallel stage, so
// the reported error does not depend on task scheduling.
Status FirstError(const std::vector<Status>& statuses) {
  for (const Status& st : statuses) {
    if (!st.ok()) return st;
  }
  return Status::OK();
}

// Best-effort removal for failure-path cleanup and garbage reclamation.
// A flaky backend may answer NotFound (a doomed write that never published,
// or a remove whose earlier attempt already won) or a transient IoError;
// cleanup absorbs both so the ORIGINAL failure — the write error that
// aborted the operation — is what the caller sees, never a secondary
// cleanup status. Empty entries (slots whose write never happened) are
// skipped.
void BestEffortRemoveAll(StorageBackend* backend,
                         const std::vector<std::string>& paths) {
  for (const std::string& path : paths) {
    if (path.empty()) continue;
    backend->Remove(path).ok();  // NotFound / IoError intentionally ignored
  }
}

}  // namespace

PhysicalStore::PhysicalStore(std::string dir, size_t num_threads,
                             std::shared_ptr<StorageBackend> backend)
    : dir_(std::move(dir)),
      backend_(backend != nullptr ? std::move(backend) : MakePosixBackend()),
      prefetcher_(dynamic_cast<BlockPrefetcher*>(backend_.get())),
      pool_(std::make_unique<ThreadPool>(num_threads)) {
  // Spill runs are written once and read once, so they bypass a block
  // cache: caching one would only evict partitions and then invalidate it.
  auto* cached = dynamic_cast<SharedCacheBackend*>(backend_.get());
  spill_backend_ = cached != nullptr ? cached->base() : backend_.get();
  Status st = backend_->CreateDir(dir_);
  OREO_CHECK(st.ok()) << st.ToString();
}

std::string PhysicalStore::PartitionPath(size_t epoch, size_t pid) const {
  return dir_ + "/part_e" + std::to_string(epoch) + "_p" +
         std::to_string(pid) + ".blk";
}

void PhysicalStore::DeleteCurrentFiles() {
  BestEffortRemoveAll(backend_.get(), files_);
  files_.clear();
  file_bytes_.clear();
}

Result<PhysicalStore::Timing> PhysicalStore::MaterializeLayout(
    const Table& table, const LayoutInstance& instance) {
  // Full (re)initialization: not safe against concurrent snapshot readers;
  // use Reorganize for live layout changes.
  DeleteCurrentFiles();
  Vacuum();
  ++epoch_;
  Timing timing;
  Stopwatch sw;
  const Partitioning& parts = instance.partitioning();
  const size_t n = parts.num_partitions();
  // Parallel fan-out: each partition compresses and writes its own file, so
  // tasks touch disjoint outputs; the byte totals are reduced in pid order.
  std::vector<std::string> new_files(n);
  std::vector<uint64_t> new_bytes(n);
  std::vector<Status> statuses(n);
  const size_t epoch = epoch_;
  pool_->ParallelFor(n, [&](size_t pid) {
    Table part = table.Take(parts.partitions[pid]);
    std::string path = PartitionPath(epoch, pid);
    Result<uint64_t> bytes =
        WriteBlockTo(backend_.get(), path, part, /*sync=*/true);
    if (!bytes.ok()) {
      statuses[pid] = bytes.status();
      return;
    }
    new_files[pid] = path;
    new_bytes[pid] = *bytes;
  });
  {
    // Partial-write cleanup: a failed materialization must not leave the
    // successfully written sibling partitions behind as orphans, and the
    // removals are best-effort — the write error is returned, never masked
    // by a cleanup status. The old files were already deleted on entry, so
    // the store is left explicitly empty rather than pointing at a
    // vanished instance.
    Status first = FirstError(statuses);
    if (!first.ok()) {
      BestEffortRemoveAll(backend_.get(), new_files);
      std::lock_guard<std::mutex> lock(mu_);
      instance_ = nullptr;
      schema_ = Schema();
      return first;
    }
  }
  for (size_t pid = 0; pid < n; ++pid) {
    timing.bytes += new_bytes[pid];
    ++timing.partitions;
  }
  timing.seconds = sw.ElapsedSeconds();
  {
    std::lock_guard<std::mutex> lock(mu_);
    files_ = std::move(new_files);
    file_bytes_ = std::move(new_bytes);
    instance_ = &instance;
    schema_ = table.schema();
  }
  return timing;
}

PhysicalStore::Snapshot PhysicalStore::GetSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  Snapshot snap;
  snap.instance = instance_;
  snap.schema = schema_;
  snap.files = files_;
  snap.file_bytes = file_bytes_;
  return snap;
}

Result<PhysicalStore::QueryExec> PhysicalStore::ExecuteQuery(
    const Query& query) {
  return ExecuteQueryOnSnapshot(GetSnapshot(), query);
}

Result<PhysicalStore::BatchExec> PhysicalStore::ExecuteQueryBatch(
    const std::vector<Query>& queries) {
  return ExecuteQueryBatchOnSnapshot(GetSnapshot(), queries);
}

Result<PhysicalStore::QueryExec> PhysicalStore::ExecuteQueryOnSnapshot(
    const Snapshot& snapshot, const Query& query,
    const LiveScanView* live) const {
  OREO_ASSIGN_OR_RETURN(BatchExec batch,
                        ExecuteQueryBatchOnSnapshot(snapshot, {query}, live));
  QueryExec exec = batch.per_query.front();
  exec.seconds = batch.seconds;
  return exec;
}

Result<PhysicalStore::BatchExec> PhysicalStore::ExecuteQueryBatchOnSnapshot(
    const Snapshot& snapshot, const std::vector<Query>& queries,
    const LiveScanView* live) const {
  OREO_CHECK(snapshot.instance != nullptr) << "no layout materialized";
  BatchExec batch;
  Stopwatch sw;
  const Partitioning& parts = snapshot.instance->partitioning();
  const bool masked = live != nullptr && !live->partition_masks.empty();
  if (masked) {
    OREO_CHECK_EQ(live->partition_masks.size(), parts.num_partitions())
        << "live view does not match the snapshot's partitioning";
  }

  // Serial per-query pruning, in stream order: zone maps are metadata only,
  // so the work list of (query, surviving partition) pairs — and its order —
  // never depends on the pool.
  const size_t num_fields = snapshot.schema.num_fields();
  std::vector<std::vector<uint32_t>> survivors(queries.size());
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    for (const Predicate& p : queries[qi].conjuncts) {
      OREO_CHECK(p.column >= 0 && static_cast<size_t>(p.column) < num_fields);
    }
    survivors[qi] = PartitionsToRead(parts, queries[qi]);
  }

  // The flat work list of (query, surviving partition) pairs in stream
  // order, grouped by partition in first-appearance order: each surviving
  // partition is fetched, checksummed and decoded once per batch, however
  // many of the batch's queries it serves. First-appearance order puts the
  // first query's partitions first, where the pool claims them first. A
  // group decodes the columns its queries' conjuncts reference, or every
  // column when one of them is a conjunct-free full scan (it represents
  // e.g. the paper's full-table-scan measurement in Table I).
  struct Item {
    size_t index;  // slot in the flat (stream order, partition order) list
    size_t qi;     // query index in the batch
  };
  struct Group {
    size_t pid = 0;
    std::vector<Item> items;    // stream order
    bool all_columns = false;   // some query of the group has no conjuncts
    std::vector<bool> wanted;   // per schema field: referenced by a conjunct
  };
  std::vector<Group> groups;
  size_t num_items = 0;
  {
    std::vector<size_t> group_of(parts.num_partitions(), SIZE_MAX);
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      for (size_t pid : survivors[qi]) {
        if (group_of[pid] == SIZE_MAX) {
          group_of[pid] = groups.size();
          groups.emplace_back();
          groups.back().pid = pid;
          groups.back().wanted.assign(num_fields, false);
        }
        Group& group = groups[group_of[pid]];
        group.items.push_back(Item{num_items++, qi});
        if (queries[qi].conjuncts.empty()) group.all_columns = true;
        for (const Predicate& p : queries[qi].conjuncts) {
          group.wanted[static_cast<size_t>(p.column)] = true;
        }
      }
    }
  }
  std::vector<uint64_t> matches(num_items);
  std::vector<Status> statuses(groups.size());

  // Async prefetch tier: while the first query's survivors (the first
  // groups, claimed first by the pool) are scanning, warm the partitions
  // the LATER queries of the batch will need. Partitions the first query
  // touches are excluded — a demand fetch for them is already imminent.
  // Advisory only: counters and results are identical with prefetch off.
  if (prefetcher_ != nullptr && queries.size() > 1) {
    std::set<std::string> scanning;
    for (size_t pid : survivors[0]) {
      scanning.insert(snapshot.files[pid]);
    }
    std::set<std::string> requested;
    for (size_t qi = 1; qi < queries.size(); ++qi) {
      for (size_t pid : survivors[qi]) {
        const std::string& file = snapshot.files[pid];
        if (scanning.count(file) == 0 && requested.insert(file).second) {
          prefetcher_->StartPrefetch(file);
        }
      }
    }
  }

  // One ParallelFor over the groups: a task reads its partition once
  // (ReadBlockFrom checksums the whole block every time), decodes the union
  // of the columns its queries reference, and stages every item's match
  // count in the item's own slot.
  pool_->ParallelFor(groups.size(), [&](size_t g) {
    const Group& group = groups[g];
    // The decoded columns in schema (= block) order, and each column's rank
    // among them — the column index a remapped predicate reads.
    std::vector<std::string> needed;
    std::vector<int> rank(num_fields, -1);
    if (!group.all_columns) {
      for (size_t col = 0; col < num_fields; ++col) {
        if (!group.wanted[col]) continue;
        rank[col] = static_cast<int>(needed.size());
        needed.push_back(snapshot.schema.field(col).name);
      }
    }
    BlockReadOptions read_opts;
    if (!group.all_columns) read_opts.columns = &needed;
    Result<Table> part =
        ReadBlockFrom(backend_.get(), snapshot.files[group.pid], read_opts);
    if (!part.ok()) {
      statuses[g] = part.status();
      return;
    }
    for (const Item& item : group.items) {
      const Query& query = queries[item.qi];
      // A full decode keeps schema positions, so the query applies as is;
      // otherwise its conjuncts are remapped to ranks in the decoded union.
      Query remapped;
      if (!group.all_columns) {
        remapped = query;
        for (Predicate& p : remapped.conjuncts) {
          p.column = rank[static_cast<size_t>(p.column)];
        }
      }
      const Query& projected = group.all_columns ? query : remapped;
      if (masked) {
        // Tombstone-respecting count: the partition's live mask word-ANDs
        // the query bitmap (conjunct-free queries count the mask directly).
        matches[item.index] = KernelCountMatchesMasked(
            *part, projected, live->partition_masks[group.pid]);
      } else if (query.conjuncts.empty()) {
        matches[item.index] = part->num_rows();
      } else {
        // Vectorized predicate kernels (query/kernels.h): each projected
        // column is touched once per conjunct as a flat array, not
        // dereferenced per row.
        matches[item.index] = CountMatches(*part, projected);
      }
    }
  });
  // Groups are ordered by their first item, and a failed read fails every
  // item of its group, so the first failed group holds the first failed
  // item in (stream order, partition order): the error the per-query path
  // would return.
  OREO_RETURN_NOT_OK(FirstError(statuses));
  batch.blocks_fetched = groups.size();
  for (const Group& group : groups) {
    batch.bytes_verified += snapshot.file_bytes[group.pid];
  }

  // Serial reduction in stream order, partitions in pid order within each
  // query — the exact sequence a one-at-a-time execution accumulates.
  batch.per_query.resize(queries.size());
  size_t item = 0;
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    QueryExec& exec = batch.per_query[qi];
    for (size_t pid : survivors[qi]) {
      ++exec.partitions_read;
      exec.bytes_read += snapshot.file_bytes[pid];
      exec.rows_scanned += parts.zones[pid].num_rows;
      exec.matches += matches[item++];
    }
    if (live != nullptr) {
      // Delta chunks after the base partitions, serially in chunk order:
      // in-memory scans bounded by the engine's fold threshold, so the
      // serial pass stays cheap and trivially thread-count-invariant. The
      // un-projected query applies — chunks carry the full schema.
      for (const LiveScanView::Delta& delta : live->deltas) {
        if (queries[qi].CanSkipPartition(*delta.zones)) continue;
        exec.rows_scanned += delta.rows->num_rows();
        exec.matches +=
            KernelCountMatchesMasked(*delta.rows, queries[qi], *delta.live);
      }
    }
  }
  batch.seconds = sw.ElapsedSeconds();
  return batch;
}

void PhysicalStore::Vacuum() {
  std::vector<std::string> victims;
  {
    std::lock_guard<std::mutex> lock(mu_);
    victims = std::move(garbage_);
    garbage_.clear();
  }
  BestEffortRemoveAll(backend_.get(), victims);
}

Result<PhysicalStore::Timing> PhysicalStore::Reorganize(
    const Table& table, const LayoutInstance& to) {
  // Runs against a snapshot of the current files; concurrent snapshot
  // readers are unaffected. Only the final swap takes the lock.
  Snapshot source = GetSnapshot();
  OREO_CHECK(source.instance != nullptr) << "no layout materialized";
  Timing timing;
  Stopwatch sw;

  const uint32_t raw_partitions = to.layout().NumPartitionsUpperBound();
  size_t epoch;
  {
    std::lock_guard<std::mutex> lock(mu_);
    epoch = epoch_;
  }

  // Both passes run on the calling thread (a ReorgPool worker for the
  // engine), never on the store pool: that pool serves foreground scans, and
  // a rewrite that took its workers would stall them.
  //
  // Pass 1 — shuffle: read and decompress every current partition, route its
  // rows through the new layout (the "update the BID column" step), and
  // spill one run file per (source, target) pair, in source order. Real
  // systems repartition out-of-core exactly like this; the table cannot be
  // assumed to fit in memory. Spill runs go beneath any block cache.
  uint64_t rows_read = 0;
  std::vector<std::vector<std::string>> spills(raw_partitions);
  // Partial-write cleanup on failure: drop every spill run written so far;
  // the source layout is untouched and keeps serving.
  auto drop_spills = [&] {
    for (const auto& per_target : spills) {
      BestEffortRemoveAll(spill_backend_, per_target);
    }
  };
  for (size_t src = 0; src < source.files.size(); ++src) {
    Result<Table> part = ReadBlockFrom(backend_.get(), source.files[src]);
    if (!part.ok()) {
      drop_spills();
      return part.status();
    }
    rows_read += part->num_rows();
    std::vector<uint32_t> assignment = to.layout().Assign(*part);
    std::vector<std::vector<uint32_t>> rows_per_target(raw_partitions);
    for (uint32_t r = 0; r < assignment.size(); ++r) {
      rows_per_target[assignment[r]].push_back(r);
    }
    for (uint32_t tgt = 0; tgt < raw_partitions; ++tgt) {
      if (rows_per_target[tgt].empty()) continue;
      Table run = part->Take(rows_per_target[tgt]);
      std::string path = dir_ + "/spill_e" + std::to_string(epoch) + "_s" +
                         std::to_string(src) + "_t" + std::to_string(tgt) +
                         ".blk";
      Status st =
          WriteBlockTo(spill_backend_, path, run, /*sync=*/false).status();
      if (!st.ok()) {
        drop_spills();
        return st;
      }
      spills[tgt].push_back(std::move(path));
    }
  }
  OREO_CHECK_EQ(rows_read, table.num_rows());

  // Pass 2 — merge: per target partition, read its runs back, concatenate,
  // compress and durably write the final partition file. Raw target ids with
  // no rows are dropped, mirroring BuildPartitioning's compaction, so file
  // order lines up with `to.partitioning()`'s zone maps.
  size_t next_epoch = epoch + 1;
  const Partitioning& parts = to.partitioning();
  std::vector<uint32_t> surviving;  // raw target ids with rows, ascending
  for (uint32_t tgt = 0; tgt < raw_partitions; ++tgt) {
    if (!spills[tgt].empty()) surviving.push_back(tgt);
  }
  OREO_CHECK_EQ(surviving.size(), parts.num_partitions())
      << "shuffle partition count diverged from the canonical partitioning";
  std::vector<std::string> new_files;
  std::vector<uint64_t> new_bytes;
  new_files.reserve(surviving.size());
  new_bytes.reserve(surviving.size());
  // Partial-write cleanup on merge failure: remove the new-epoch files and
  // every spill run not yet reclaimed; the source layout keeps serving.
  auto fail_merge = [&](const Status& st) {
    BestEffortRemoveAll(backend_.get(), new_files);
    drop_spills();
    return st;
  };
  for (size_t pid = 0; pid < surviving.size(); ++pid) {
    std::vector<std::string>& runs = spills[surviving[pid]];
    Table merged(table.schema());
    for (const std::string& spill : runs) {
      Result<Table> run = ReadBlockFrom(spill_backend_, spill);
      if (!run.ok()) return fail_merge(run.status());
      merged.Append(*run);
    }
    OREO_CHECK_EQ(merged.num_rows(), parts.zones[pid].num_rows)
        << "shuffle row count diverged from the canonical partitioning";
    std::string path = PartitionPath(next_epoch, pid);
    // Durable write: the swap must not expose a layout that could vanish.
    Result<uint64_t> bytes =
        WriteBlockTo(backend_.get(), path, merged, /*sync=*/true);
    if (!bytes.ok()) return fail_merge(bytes.status());
    new_files.push_back(std::move(path));
    new_bytes.push_back(*bytes);
    BestEffortRemoveAll(spill_backend_, runs);
    runs.clear();
  }
  for (size_t pid = 0; pid < new_files.size(); ++pid) {
    timing.bytes += new_bytes[pid];
    ++timing.partitions;
  }
  timing.seconds = sw.ElapsedSeconds();

  // Swap (brief, under the lock): outgoing files become garbage so snapshot
  // readers opened before the swap keep working; Vacuum() reclaims them.
  {
    std::lock_guard<std::mutex> lock(mu_);
    epoch_ = next_epoch;
    for (std::string& f : files_) garbage_.push_back(std::move(f));
    files_ = std::move(new_files);
    file_bytes_ = std::move(new_bytes);
    instance_ = &to;
  }
  return timing;
}

uint64_t PhysicalStore::MaterializedBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (uint64_t b : file_bytes_) total += b;
  return total;
}

Result<PhysicalReplayResult> ReplayPhysical(
    const Table& table, const StateRegistry& registry, const SimResult& sim,
    const std::vector<Query>& queries, size_t stride, const std::string& dir,
    size_t num_threads, size_t batch_size,
    std::shared_ptr<StorageBackend> backend) {
  OREO_CHECK_EQ(sim.serving_state.size(), queries.size())
      << "simulation must be run with record_trace=true";
  OREO_CHECK_GT(stride, 0u);
  OREO_CHECK_GT(batch_size, 0u);
  PhysicalReplayResult result;
  PhysicalStore store(dir, num_threads, std::move(backend));

  // Sampled queries awaiting execution on the current layout; flushed when
  // full and before every reorganization, so every query runs against the
  // exact layout its trace entry recorded.
  std::vector<Query> pending;
  pending.reserve(batch_size);
  auto flush = [&]() -> Status {
    if (pending.empty()) return Status::OK();
    auto batch = store.ExecuteQueryBatch(pending);
    if (!batch.ok()) return batch.status();
    result.query_seconds += batch->seconds * static_cast<double>(stride);
    for (const PhysicalStore::QueryExec& exec : batch->per_query) {
      ++result.queries_executed;
      result.partitions_read += exec.partitions_read;
      result.matches += exec.matches;
    }
    pending.clear();
    return Status::OK();
  };

  int current = sim.serving_state.empty() ? 0 : sim.serving_state.front();
  {
    // Initial materialization is not part of the measured costs (the system
    // starts with the default layout already on disk).
    auto st = store.MaterializeLayout(table, registry.Get(current));
    if (!st.ok()) return st.status();
  }
  for (size_t t = 0; t < queries.size(); ++t) {
    int state = sim.serving_state[t];
    if (state != current) {
      OREO_RETURN_NOT_OK(flush());
      OREO_ASSIGN_OR_RETURN(PhysicalStore::Timing timing,
                            store.Reorganize(table, registry.Get(state)));
      store.Vacuum();  // replay is single-threaded: no snapshot readers
      result.reorg_seconds += timing.seconds;
      ++result.num_switches;
      current = state;
    }
    if (t % stride == 0) {
      pending.push_back(queries[t]);
      if (pending.size() >= batch_size) OREO_RETURN_NOT_OK(flush());
    }
  }
  OREO_RETURN_NOT_OK(flush());
  return result;
}

}  // namespace core
}  // namespace oreo
