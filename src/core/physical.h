// Physical execution substrate for the end-to-end experiments (Figure 3,
// Table I). This replaces the paper's shallow Spark integration (see
// "Substitutions" in docs/ARCHITECTURE.md): partitions live as compressed
// block files on local disk; a query prunes partitions via zone maps and
// scans the survivors; a reorganization reads every partition, re-assigns
// rows under the new layout, and compresses + writes the new partition files.
#ifndef OREO_CORE_PHYSICAL_H_
#define OREO_CORE_PHYSICAL_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/bitvector.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/state_registry.h"
#include "layout/layout.h"
#include "query/query.h"
#include "storage/backend.h"
#include "storage/table.h"

namespace oreo {
namespace core {

/// On-disk partition store for one table under one layout at a time.
///
/// Threading model: the foreground paths (ExecuteQuery scans and
/// MaterializeLayout writes) fan out across an internal thread pool of
/// `num_threads` workers (0 = one per hardware core, 1 = fully serial).
/// Reorganize runs its shuffle and merge passes on the calling thread — a
/// ReorgPool worker in the engine — so a background rewrite never takes the
/// pool's workers from the scans it overlaps; rewrite parallelism comes from
/// ReorgPool running shards side by side. Determinism contract: counts,
/// bytes, statuses and on-disk file contents are bit-identical for any
/// thread count — every parallel path stages per-partition outputs and
/// reduces them in partition order. Only the wall-clock `seconds` fields
/// vary with the pool size.
class PhysicalStore {
 public:
  /// Files are created under `dir` (created if missing) through `backend`
  /// (nullptr = a fresh MakePosixBackend()). Failure contract: a
  /// MaterializeLayout or Reorganize that returns non-OK has removed every
  /// object it wrote (no torn or orphaned partition files) and left the
  /// previously materialized layout fully readable.
  explicit PhysicalStore(std::string dir, size_t num_threads = 0,
                         std::shared_ptr<StorageBackend> backend = nullptr);

  /// Wall-clock result of a physical operation.
  struct Timing {
    double seconds = 0.0;
    uint64_t bytes = 0;
    uint64_t partitions = 0;
  };

  /// Writes all partitions of `instance` (rows taken from `table`).
  /// Replaces any previously materialized layout (old files deleted,
  /// untimed). Returns write timing.
  Result<Timing> MaterializeLayout(const Table& table,
                                   const LayoutInstance& instance);

  /// Result of one physical query execution.
  struct QueryExec {
    double seconds = 0.0;
    uint64_t partitions_read = 0;
    uint64_t rows_scanned = 0;
    uint64_t matches = 0;
    uint64_t bytes_read = 0;
  };

  /// Executes `query` against the materialized layout: zone-map pruning,
  /// then scan of the surviving partition files.
  Result<QueryExec> ExecuteQuery(const Query& query);

  /// Result of one batched execution: per-query counters (stream order) and
  /// the batch's wall clock. Per-query `seconds` fields are zero — scan work
  /// from the whole batch interleaves on the pool, so only the batch total
  /// is meaningful. Per-query counters are logical: a partition two queries
  /// share counts in both. The batch-level counters are physical: each
  /// surviving partition is fetched once per batch.
  struct BatchExec {
    double seconds = 0.0;
    std::vector<QueryExec> per_query;
    /// Distinct partition blocks fetched, checksummed and decoded.
    uint64_t blocks_fetched = 0;
    /// Bytes of those blocks; the checksum covers each block whole.
    uint64_t bytes_verified = 0;
  };

  /// Executes a whole batch against one snapshot of the materialized layout:
  /// per-query zone-map pruning runs serially (metadata only), and the
  /// (query, surviving partition) pairs are grouped by partition in order of
  /// first appearance. One ParallelFor over the groups then fetches each
  /// partition once, verifies its whole-block checksum, decodes the union of
  /// the columns its queries reference, and evaluates every query of the
  /// group against it; per-query counters are reduced serially in stream
  /// order. Per-query counters and the first error reported are
  /// bit-identical to executing the queries one at a time, and the batch
  /// counters are identical at any thread count.
  Result<BatchExec> ExecuteQueryBatch(const std::vector<Query>& queries);

  /// Full reorganization into `to`: reads every current partition file
  /// (decompression included), re-partitions `table` rows, writes the new
  /// files. The returned timing covers read + assign + compress + write.
  /// Runs serially on the calling thread. Its spill runs are written and
  /// read beneath a SharedCacheBackend (straight to the view's base), so
  /// they are neither cached nor charged to the cache's budget.
  Result<Timing> Reorganize(const Table& table, const LayoutInstance& to);

  /// Total bytes of the currently materialized files.
  uint64_t MaterializedBytes() const;

  const LayoutInstance* current_instance() const { return instance_; }

  /// An immutable view of one materialized layout: queries executed against
  /// a snapshot keep working while a background reorganization swaps the
  /// store to a new layout (paper SIII-B). Outgoing files are kept as
  /// garbage until Vacuum(), so snapshot readers never lose their files.
  struct Snapshot {
    const LayoutInstance* instance = nullptr;
    Schema schema;
    std::vector<std::string> files;
    std::vector<uint64_t> file_bytes;
  };

  /// Current layout as a snapshot (thread-safe).
  Snapshot GetSnapshot() const;

  /// Live-ingest overlay for snapshot scans: per-partition tombstone masks
  /// over the materialized base plus the un-folded delta chunks (see
  /// src/ingest/live_table.h). The engine rebuilds the view at every ingest
  /// and snapshot-refresh boundary, never mid-batch, so a batch executes
  /// against one frozen (snapshot, view) pair.
  struct LiveScanView {
    /// Live-row mask per partition, indexed like the snapshot instance's
    /// partitioning: bit j of partition_masks[pid] covers the row stored at
    /// parts.partitions[pid][j] — exactly the row order of the partition's
    /// block file. Empty means no base row is tombstoned (every partition
    /// fully live); otherwise the size must equal the partition count.
    std::vector<BitVector> partition_masks;
    /// One un-folded append chunk: rows + zone map (pruned like a
    /// partition) + live-row bitmap. Pointers are borrowed from the
    /// engine's LiveTable and stay valid for the batch.
    struct Delta {
      const Table* rows = nullptr;
      const ZoneMap* zones = nullptr;
      const BitVector* live = nullptr;
    };
    std::vector<Delta> deltas;
  };

  /// Executes `query` against a snapshot (thread-safe, read-only).
  /// Implemented as a single-element batch, so the per-query and batched
  /// paths cannot diverge. `live` follows the batched contract below.
  Result<QueryExec> ExecuteQueryOnSnapshot(
      const Snapshot& snapshot, const Query& query,
      const LiveScanView* live = nullptr) const;

  /// Batch execution against an explicit snapshot (thread-safe, read-only);
  /// see ExecuteQueryBatch for the determinism contract. When the backend
  /// implements BlockPrefetcher, partitions later queries of the batch need
  /// are prefetched asynchronously while the earlier ones scan.
  ///
  /// With a non-null `live` view, every partition's match count is masked by
  /// its tombstone bitmap (one word-AND per 64 rows) and the view's delta
  /// chunks are counted after the base partitions, serially in chunk order —
  /// trivially thread-count-invariant, and bounded because the engine folds
  /// deltas at its mutation threshold. Delta scans contribute to `matches`
  /// and `rows_scanned` only; `partitions_read`/`bytes_read` stay file-level
  /// counters (delta chunks live in memory, not in partition files).
  Result<BatchExec> ExecuteQueryBatchOnSnapshot(
      const Snapshot& snapshot, const std::vector<Query>& queries,
      const LiveScanView* live = nullptr) const;

  /// Deletes files superseded by completed reorganizations. Call when no
  /// snapshot readers can still reference them.
  void Vacuum();

  /// Resolved worker count of the internal pool (>= 1).
  size_t num_threads() const { return pool_->num_threads(); }

  /// The byte store partitions live in (never null).
  StorageBackend* backend() const { return backend_.get(); }
  const std::string& dir() const { return dir_; }

 private:
  std::string PartitionPath(size_t epoch, size_t pid) const;
  void DeleteCurrentFiles();

  std::string dir_;
  std::shared_ptr<StorageBackend> backend_;
  BlockPrefetcher* prefetcher_ = nullptr;  // backend_'s, when it has one
  StorageBackend* spill_backend_ = nullptr;  // backend_, beneath any cache
  std::unique_ptr<ThreadPool> pool_;
  mutable std::mutex mu_;  // guards the members below
  const LayoutInstance* instance_ = nullptr;  // not owned
  Schema schema_;                             // of the materialized table
  std::vector<std::string> files_;            // per partition id
  std::vector<uint64_t> file_bytes_;
  std::vector<std::string> garbage_;          // outgoing files awaiting Vacuum
  size_t epoch_ = 0;
};

}  // namespace core
}  // namespace oreo

#endif  // OREO_CORE_PHYSICAL_H_
