#include "inputs.h"

#include <algorithm>

#include "common/bitvector.h"
#include "common/logging.h"
#include "common/rng.h"
#include "query/kernels.h"

namespace perfbench {

using oreo::BitVector;
using oreo::Query;
using oreo::Table;
using oreo::Value;

std::vector<Query> SwitchingStream(
    const std::vector<oreo::workloads::QueryTemplate>& templates,
    size_t segments, size_t per_segment, uint64_t schedule_seed,
    uint64_t seed) {
  OREO_CHECK_GE(templates.size(), 2u);
  oreo::Rng schedule(schedule_seed);
  oreo::Rng rng(seed);
  std::vector<int> order;
  std::vector<Query> out;
  out.reserve(segments * per_segment);
  int previous = -1;
  for (size_t s = 0; s < segments; ++s) {
    if (order.empty()) {
      for (size_t t = 0; t < templates.size(); ++t) {
        order.push_back(static_cast<int>(t));
      }
      schedule.Shuffle(&order);
      // Never repeat a template across a permutation boundary.
      if (order.back() == previous) std::swap(order.front(), order.back());
    }
    const int tmpl = order.back();
    order.pop_back();
    previous = tmpl;
    for (size_t i = 0; i < per_segment; ++i) {
      Query q = templates[static_cast<size_t>(tmpl)].instantiate(&rng);
      q.id = static_cast<int64_t>(out.size());
      q.template_id = tmpl;
      out.push_back(std::move(q));
    }
  }
  return out;
}

std::vector<uint64_t> ReferenceCounts(const Table& table,
                                      const std::vector<Query>& queries,
                                      size_t spot_every) {
  std::vector<uint64_t> counts;
  counts.reserve(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    const uint64_t count = oreo::KernelCountMatches(table, queries[i]);
    if (spot_every > 0 && i % spot_every == 0) {
      uint64_t rows = 0;
      for (uint32_t r = 0; r < table.num_rows(); ++r) {
        rows += queries[i].Matches(table, r) ? 1 : 0;
      }
      OREO_CHECK_EQ(rows, count) << "kernel and row-by-row references "
                                    "disagree on query "
                                 << queries[i].id;
    }
    counts.push_back(count);
  }
  return counts;
}

namespace {

constexpr uint64_t kScheduleSeed = 2024;
constexpr size_t kSpotEvery = 13;  // mirror counts re-checked row by row
constexpr int64_t kDay = 24 * 3600;
constexpr int64_t kBaseSpan = 180 * kDay;  // the telemetry dataset's span
constexpr int64_t kBatchSpan = 8 * 3600;   // arrival time one batch covers

// Rows for mutation batch `b` (1-based): a fresh telemetry draw with its
// arrival times squeezed into the batch's 8 hours past the base span.
Table AppendedRows(size_t rows, size_t b, uint64_t seed) {
  oreo::workloads::WorkloadDataset draw =
      oreo::workloads::MakeDataset("telemetry", rows, seed);
  const Table& src = draw.table;
  Table out(src.schema());
  out.Reserve(rows);
  const int64_t origin = kBaseSpan + static_cast<int64_t>(b - 1) * kBatchSpan;
  const double squeeze = static_cast<double>(kBatchSpan) /
                         static_cast<double>(kBaseSpan + 3600);
  std::vector<Value> row(src.num_columns());
  for (uint32_t r = 0; r < src.num_rows(); ++r) {
    for (size_t c = 0; c < src.num_columns(); ++c) {
      row[c] = src.column(c).GetValue(r);
    }
    row[0] = Value(origin + static_cast<int64_t>(
                                static_cast<double>(row[0].AsInt64()) * squeeze));
    out.AppendRow(row);
  }
  return out;
}

// Moves every time window of `q` forward by `shift` seconds, onto the
// currently visible time range.
Query ShiftTime(Query q, int64_t shift, int time_column) {
  for (oreo::Predicate& p : q.conjuncts) {
    if (p.column != time_column || p.op != oreo::CompareOp::kBetween) continue;
    p.value = Value(p.value.AsInt64() + shift);
    p.value2 = Value(p.value2.AsInt64() + shift);
  }
  return q;
}

// The benchmark's own copy of the logical table: every chunk ever
// appended (the base first) with a live-row bitmap per chunk. Counts and
// deletes use the masked predicate kernels; every kSpotEvery-th count and
// every delete is re-done row by row with Query::Matches over the live
// rows, so a kernel bug shared with the engine's scans cannot pass.
class Mirror {
 public:
  explicit Mirror(const Table& base) {
    chunks_.push_back(&base);
    live_.emplace_back(base.num_rows());
    live_.back().SetAll();
  }

  uint64_t Count(const Query& q) {
    uint64_t n = 0;
    for (size_t i = 0; i < chunks_.size(); ++i) {
      n += oreo::KernelCountMatchesMasked(*chunks_[i], q, live_[i]);
    }
    if (counts_++ % kSpotEvery == 0) {
      OREO_CHECK_EQ(CountRowByRow(q), n)
          << "masked kernel and row-by-row mirror counts disagree on query "
          << q.id;
    }
    return n;
  }

  // Applies deletes to the rows visible now; returns rows newly deleted.
  uint64_t Delete(const Query& q) {
    const uint64_t expected = CountRowByRow(q);
    uint64_t deleted = 0;
    for (size_t i = 0; i < chunks_.size(); ++i) {
      BitVector hit = oreo::EvalQueryBitmap(*chunks_[i], q);
      hit.AndAssign(live_[i]);
      deleted += hit.Count();
      BitVector kept(live_[i].size());
      live_[i].AndNotInto(hit, &kept);
      live_[i] = std::move(kept);
    }
    OREO_CHECK_EQ(deleted, expected)
        << "delete bitmap and row-by-row mirror counts disagree";
    return deleted;
  }

  // `chunk` must outlive the mirror.
  void Append(const Table* chunk) {
    chunks_.push_back(chunk);
    live_.emplace_back(chunk->num_rows());
    live_.back().SetAll();
  }

  uint64_t Visible() const {
    uint64_t n = 0;
    for (const BitVector& l : live_) n += l.Count();
    return n;
  }

 private:
  uint64_t CountRowByRow(const Query& q) const {
    uint64_t n = 0;
    for (size_t i = 0; i < chunks_.size(); ++i) {
      for (uint32_t r = 0; r < chunks_[i]->num_rows(); ++r) {
        n += live_[i].Get(r) && q.Matches(*chunks_[i], r) ? 1 : 0;
      }
    }
    return n;
  }

  std::vector<const Table*> chunks_;
  std::vector<BitVector> live_;
  size_t counts_ = 0;
};

}  // namespace

std::vector<IngestStep> MakeIngestStream(
    const oreo::workloads::WorkloadDataset& base, const IngestShape& shape,
    uint64_t seed) {
  // The templates that look at hours to days: a query that scans months
  // of history would make the scan path, not the write path, dominate.
  std::vector<oreo::workloads::QueryTemplate> templates;
  for (const auto& t : base.templates) {
    const bool long_range = t.name == "month_range" ||
                            t.name == "collector_week" ||
                            t.name == "collector_in" ||
                            t.name == "team_fortnight";
    if (!long_range) templates.push_back(t);
  }
  const size_t total_queries = shape.mutation_batches * shape.queries_per_batch;
  const size_t per_segment =
      std::max<size_t>(1, total_queries / (2 * templates.size()));
  const size_t segments = (total_queries + per_segment - 1) / per_segment;
  std::vector<Query> stream =
      SwitchingStream(templates, segments, per_segment, kScheduleSeed, seed);

  std::vector<IngestStep> steps;
  size_t next_query = 0;
  for (size_t b = 1; b <= shape.mutation_batches; ++b) {
    const int64_t shift = static_cast<int64_t>(b - 1) * kBatchSpan;
    IngestStep read;
    for (size_t i = 0; i < shape.queries_per_batch; ++i) {
      read.queries.push_back(
          ShiftTime(stream[next_query++], shift, base.time_column));
    }
    steps.push_back(std::move(read));

    IngestStep write;
    write.mutation = true;
    write.batch.rows = AppendedRows(shape.rows_per_batch, b, seed * 7919 + b);
    if (b % 3 == 0) {
      const int64_t day = static_cast<int64_t>(b / 3 - 1);
      Query purge;
      purge.conjuncts = {oreo::Predicate::Lt(base.time_column,
                                             Value((day + 1) * kDay))};
      write.batch.deletes.push_back(std::move(purge));
    }
    steps.push_back(std::move(write));
  }
  return steps;
}

void ExpectIngestAnswers(const Table& base, std::vector<IngestStep>* steps) {
  Mirror mirror(base);
  for (IngestStep& step : *steps) {
    if (!step.mutation) {
      step.expected_matches.clear();
      for (const Query& q : step.queries) {
        step.expected_matches.push_back(mirror.Count(q));
      }
      continue;
    }
    step.expected_deleted = 0;
    for (const Query& d : step.batch.deletes) {
      step.expected_deleted += mirror.Delete(d);
    }
    step.expected_appended = step.batch.rows.num_rows();
    mirror.Append(&step.batch.rows);
    step.expected_visible = mirror.Visible();
  }
}

}  // namespace perfbench
