// Seeded input generation for the three workloads, and the reference
// answers each run is checked against. Everything here is a pure function
// of the seed; the engine only ever sees the generated tables, queries and
// mutation batches.
#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <vector>

#include "core/engine.h"
#include "query/query.h"
#include "storage/table.h"
#include "workloads/dataset.h"

namespace perfbench {

/// The paper's template-switching stream (§VI-A2) with fresh parameters per
/// query, on a fixed balanced schedule: segments walk permutations of the
/// whole template family drawn from `schedule_seed`, every segment
/// `per_segment` queries long, and no template follows itself. The
/// per-query parameters come from `seed`. A workload keeps its schedule
/// constant and varies only the parameters (and data) with the run's seed,
/// so runs on different seeds do the same kind of work in the same order.
std::vector<oreo::Query> SwitchingStream(
    const std::vector<oreo::workloads::QueryTemplate>& templates,
    size_t segments, size_t per_segment, uint64_t schedule_seed,
    uint64_t seed);

/// Match count of every query over one static table (the logical table the
/// query saw), evaluated with the predicate kernels on the unpartitioned
/// table — no zone maps, blocks, codecs or layouts involved. Every
/// `spot_every`-th query is re-counted row by row with Query::Matches (the
/// kernel-free reference); a disagreement aborts.
std::vector<uint64_t> ReferenceCounts(const oreo::Table& table,
                                      const std::vector<oreo::Query>& queries,
                                      size_t spot_every);

/// One step of a library workload's stream: a query batch, or (on
/// telemetry-ingest) a mutation batch.
struct IngestStep {
  bool mutation = false;
  std::vector<oreo::Query> queries;  // query step
  oreo::core::IngestBatch batch;     // mutation step

  // Expected results, from the reference counts or the benchmark's own
  // mirror of the logical table — never from the engine.
  std::vector<uint64_t> expected_matches;  // query step, per query
  uint64_t expected_appended = 0;          // mutation step
  uint64_t expected_deleted = 0;
  uint64_t expected_visible = 0;
};

/// Sizing of the telemetry-ingest stream.
struct IngestShape {
  size_t mutation_batches = 0;
  size_t rows_per_batch = 0;
  size_t queries_per_batch = 0;  // in the query step before each mutation
};

/// Builds the telemetry-ingest stream over `base` (the telemetry dataset,
/// 180 days of arrivals): mutation batch b appends rows_per_batch rows
/// whose arrival times cover the next 8 hours past the current maximum, and
/// every third batch purges the oldest remaining day. Query steps draw from
/// the telemetry templates that look at hours to days (balanced switching
/// stream), their time windows shifted onto the currently visible range.
/// Expected answers are left empty.
std::vector<IngestStep> MakeIngestStream(
    const oreo::workloads::WorkloadDataset& base, const IngestShape& shape,
    uint64_t seed);

/// Fills the expected answers of `steps` from a mirror of the logical
/// table kept with the benchmark's own bookkeeping (per-chunk live bitmaps
/// over `base` and every appended chunk), never from the engine. Every
/// delete and every 13th count is re-checked row by row with
/// Query::Matches; a disagreement aborts.
void ExpectIngestAnswers(const oreo::Table& base,
                         std::vector<IngestStep>* steps);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
