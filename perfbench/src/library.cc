// The library workloads: tpch-drift and telemetry-ingest drive one
// OreoEngine (core::MakeEngine) through the batch loop
//   RunBatch -> ExecuteBatchPhysical -> SyncPhysical
// with mutation batches (Ingest -> SyncPhysical) in between on
// telemetry-ingest, and a final WaitForReorgs.
#include <filesystem>
#include <sstream>

#include "common/logging.h"
#include "core/oreo.h"
#include "inputs.h"
#include "layout/qdtree_layout.h"
#include "runner.h"
#include "storage/block.h"
#include "storage/shard_router.h"

namespace perfbench {

using oreo::Query;
using oreo::core::OreoEngine;

void Mismatch(RepResult* r, const std::string& what) {
  if (r->correct) r->mismatch = what;
  r->correct = false;
}

const std::vector<LayerMetric>& PerLayerMetrics() {
  static const std::vector<LayerMetric> metrics = {
      {"core.decide_s", "s"},
      {"core.scan_s", "s"},
      {"core.sync_s", "s"},
      {"core.ingest_s", "s"},
      {"core.fold_s", "s"},
      {"layout.generate_calls", "count"},
      {"layout.generate_s", "s"},
      {"layout.cost_evals_computed", "count"},
      {"layout.cost_evals_reused", "count"},
      {"mts.switches", "count"},
      {"mts.phases", "count"},
      {"mts.max_state_space", "count"},
      {"scan.partitions_read", "count"},
      {"scan.bytes_read", "B"},
      {"scan.rows_scanned", "count"},
      {"scan.prune_frac", "ratio"},
      {"scan.self_s", "s"},
      {"block.verify_s", "s"},
      {"block.decode_s", "s"},
      {"query.predicate_s", "s"},
      {"storage.read_calls", "count"},
      {"storage.read_bytes", "B"},
      {"storage.read_s", "s"},
      {"storage.write_calls", "count"},
      {"storage.write_bytes", "B"},
      {"storage.write_s", "s"},
      {"storage.synced_writes", "count"},
      {"storage.write_amp", "ratio"},
      {"cache.hit_rate", "ratio"},
      {"cache.evictions", "count"},
      {"cache.prefetch_fetches", "count"},
      {"remote.retries", "count"},
      {"remote.faults", "count"},
      {"remote.charged_s", "s"},
      {"server.batches", "count"},
      {"server.mean_batch", "count"},
      {"server.max_batch", "count"},
      {"server.rejected", "count"},
      {"ingest.rows_appended", "count"},
      {"ingest.rows_deleted", "count"},
      {"ingest.folds", "count"},
      {"ingest.rows_per_s", "rows/s"},
      {"ingest.p90_ms", "ms"},
      {"trace.stream_s_untraced", "s"},
      {"trace.stream_s_traced", "s"},
      {"trace.overhead_frac", "ratio"},
  };
  return metrics;
}

namespace {

constexpr uint64_t kScheduleSeed = 2024;  // the fixed template schedule
constexpr size_t kProbeEvery = 4;  // the traced run probes every 4th step
constexpr size_t kBatchSize = 64;  // tpch-drift's queries per batch

/// Everything that differs between the two library workloads.
struct LibraryConfig {
  std::string name;
  std::string dataset;
  size_t rows = 0;
  // Independent inputs per repetition, each generated from its own seed
  // derived from the run's seed (run seed x inputs + i). The repetition
  // drives them one after another, each on a fresh engine, and pools their
  // samples.
  size_t inputs = 1;
  // Query-only stream (tpch-drift), run in batches of kBatchSize.
  size_t segments = 0;
  size_t per_segment = 0;
  // Mutation stream (telemetry-ingest); mutation_batches == 0 disables it.
  IngestShape ingest;
  // Engine.
  size_t shards = 1;
  size_t num_threads = 1;
  size_t store_threads = 1;
  size_t reorg_workers = 0;
  // The traced run stores partitions as posix files (with the store's
  // per-partition sync=true) instead of in RAM, so the storage layer's
  // durable write path is measured.
  bool durable_when_traced = false;
};

// Where durable stores live: beside the benchmark binary, in its build
// directory.
std::filesystem::path ScratchDir() {
  return std::filesystem::read_symlink("/proc/self/exe").parent_path() /
         "work";
}

struct Inputs {
  oreo::workloads::WorkloadDataset ds;
  std::vector<IngestStep> steps;
};

/// What one input must produce, computed once per process.
struct Expected {
  bool ready = false;
  std::vector<IngestStep> steps;  // answers only; no rows kept
  double cost = 0.0;              // the logical-only reference run
  int64_t switches = 0;
  double ingested_bytes = 0.0;
};

/// Sums over a repetition's inputs, turned into ratios at its end.
struct RepSums {
  double bytes = 0.0;    // materialized
  double visible = 0.0;  // rows
  // Traced repetitions only.
  BlockTimes probed;  // re-timed per-block layers of the probed batches
  double partitions_seen = 0.0;
  double ingest_s = 0.0;
  double ingested_bytes = 0.0;
  uint64_t appended = 0;
  uint64_t deleted = 0;
};

class LibraryRunner : public WorkloadRunner {
 public:
  LibraryRunner(LibraryConfig config, const RunOptions& options)
      : config_(std::move(config)),
        options_(options),
        expected_(config_.inputs) {}

  RepResult Run(bool traced, bool setup_only) override;

  Meta meta() const override {
    return {{"backend", durable() ? "posix" : "inmem"},
            {"flush", durable() ? "per-partition sync=true" : "none (RAM)"},
            {"shards", std::to_string(config_.shards)},
            {"rows", std::to_string(config_.rows)},
            {"inputs", std::to_string(config_.inputs) + " per repetition"},
            {"steps", std::to_string(steps_) + " per input"}};
  }

  bool deterministic_cost() const override { return true; }

 private:
  bool durable() const { return config_.durable_when_traced && options_.trace; }
  uint64_t InputSeed(size_t input) const {
    return options_.seed * config_.inputs + input;
  }
  Inputs MakeInputs(uint64_t seed) const;
  oreo::core::OreoOptions EngineOptions(uint64_t seed) const;
  /// Fills expected_[input]: the expected answers and the logical-only
  /// reference run of that input.
  void Expect(size_t input, Inputs* in, const oreo::LayoutGenerator* generator);
  /// Sets up and drives one input, adding its samples and checks to `r`.
  /// False when the set-up failed.
  bool RunInput(size_t input, bool traced, bool setup_only, RepResult* r,
                RepSums* sums);

  LibraryConfig config_;
  RunOptions options_;
  size_t steps_ = 0;
  std::vector<Expected> expected_;  // per input
};

Inputs LibraryRunner::MakeInputs(uint64_t seed) const {
  Inputs in;
  in.ds = oreo::workloads::MakeDataset(config_.dataset, config_.rows, seed);
  if (config_.ingest.mutation_batches > 0) {
    in.steps = MakeIngestStream(in.ds, config_.ingest, seed);
  } else {
    std::vector<Query> stream =
        SwitchingStream(in.ds.templates, config_.segments, config_.per_segment,
                        kScheduleSeed, seed);
    for (oreo::QueryBatch& b : oreo::MakeBatches(stream, kBatchSize)) {
      IngestStep step;
      step.queries = std::move(b.queries);
      in.steps.push_back(std::move(step));
    }
  }
  return in;
}

oreo::core::OreoOptions LibraryRunner::EngineOptions(uint64_t seed) const {
  oreo::core::OreoOptions opts;  // the paper's alpha, epsilon and W
  opts.seed = seed;
  opts.num_threads = config_.num_threads;
  opts.num_shards = config_.shards;
  if (config_.shards > 1) opts.shard_routing = oreo::ShardRouting::kRange;
  return opts;
}

void LibraryRunner::Expect(size_t input, Inputs* in,
                           const oreo::LayoutGenerator* generator) {
  Expected& e = expected_[input];
  const bool ingest = config_.ingest.mutation_batches > 0;
  std::vector<Query> stream;  // the query-only stream, flattened
  if (ingest) {
    ExpectIngestAnswers(in->ds.table, &in->steps);
  } else {
    for (const IngestStep& s : in->steps) {
      stream.insert(stream.end(), s.queries.begin(), s.queries.end());
    }
    std::vector<uint64_t> counts =
        ReferenceCounts(in->ds.table, stream, /*spot_every=*/97);
    size_t next = 0;
    for (IngestStep& s : in->steps) {
      s.expected_matches.assign(counts.begin() + next,
                                counts.begin() + next + s.queries.size());
      next += s.queries.size();
    }
  }
  for (const IngestStep& s : in->steps) {
    IngestStep answers;
    answers.mutation = s.mutation;
    answers.expected_matches = s.expected_matches;
    answers.expected_appended = s.expected_appended;
    answers.expected_deleted = s.expected_deleted;
    answers.expected_visible = s.expected_visible;
    e.steps.push_back(std::move(answers));
    if (s.mutation) {
      e.ingested_bytes += static_cast<double>(
          oreo::SerializedBlockSize(s.batch.rows));
    }
  }
  steps_ = in->steps.size();

  // Logical-only reference: a fresh engine without a physical store, fed
  // the same stream. Its cost and switches are what the physical loop must
  // reproduce exactly (decisions never depend on the physical layer).
  std::unique_ptr<OreoEngine> logical =
      oreo::core::MakeEngine(&in->ds.table, generator, in->ds.time_column,
                             EngineOptions(InputSeed(input)));
  if (!ingest) {
    oreo::core::EngineSimResult sim = logical->RunTrace(stream);
    e.cost = sim.total_cost();
    e.switches = sim.num_switches;
  } else {
    for (const IngestStep& s : in->steps) {
      if (s.mutation) {
        OREO_CHECK(logical->Ingest(s.batch).ok());
      } else {
        logical->RunBatch(oreo::QueryBatch(s.queries));
      }
    }
    e.cost = logical->total_cost();
    e.switches = logical->num_switches();
  }
  e.ready = true;
}

RepResult LibraryRunner::Run(bool traced, bool setup_only) {
  RepResult r;
  RepSums sums;
  for (size_t input = 0; input < config_.inputs; ++input) {
    if (!RunInput(input, traced, setup_only, &r, &sums)) return r;
  }
  if (setup_only) return r;
  r.total_cost /= static_cast<double>(config_.inputs);
  r.bytes_per_row = sums.visible > 0 ? sums.bytes / sums.visible : 0.0;
  if (!traced) return r;

  LayerTotals& L = r.layers;
  // The scan's self time, split between verify, decode and predicate in
  // the proportions the probe re-timed on the same blocks.
  const BlockTimes& probed = sums.probed;
  const double probed_s = probed.verify_s + probed.decode_s + probed.predicate_s;
  if (probed_s > 0) {
    const double self = L["scan.self_s"];
    L["block.verify_s"] = self * probed.verify_s / probed_s;
    L["block.decode_s"] = self * probed.decode_s / probed_s;
    L["query.predicate_s"] = self * probed.predicate_s / probed_s;
  }
  L["scan.prune_frac"] =
      sums.partitions_seen > 0
          ? 1.0 - L["scan.partitions_read"] / sums.partitions_seen
          : 0.0;
  L["storage.write_amp"] = sums.ingested_bytes > 0
                               ? L["storage.write_bytes"] / sums.ingested_bytes
                               : 0.0;
  L["ingest.rows_appended"] = static_cast<double>(sums.appended);
  L["ingest.rows_deleted"] = static_cast<double>(sums.deleted);
  L["ingest.rows_per_s"] =
      sums.ingest_s > 0 ? static_cast<double>(sums.appended) / sums.ingest_s
                        : 0.0;
  return r;
}

bool LibraryRunner::RunInput(size_t input, bool traced, bool setup_only,
                             RepResult* out, RepSums* sums) {
  RepResult& r = *out;
  const uint64_t seed = InputSeed(input);
  const std::string dir =
      durable() ? (ScratchDir() / config_.name).string() : config_.name;
  if (durable()) std::filesystem::remove_all(dir);

  oreo::QdTreeGenerator qdtree;
  TracingGenerator traced_generator(&qdtree);
  const oreo::LayoutGenerator* generator =
      traced ? static_cast<const oreo::LayoutGenerator*>(&traced_generator)
             : &qdtree;
  std::shared_ptr<oreo::StorageBackend> base =
      durable() ? oreo::MakePosixBackend() : oreo::MakeInMemoryBackend();
  std::shared_ptr<TracingBackend> tracing;
  if (traced) tracing = std::make_shared<TracingBackend>(base, /*capture=*/true);

  // --- set-up: inputs, engine, physical store --------------------------
  const double setup_start = Now();
  Inputs in = MakeInputs(seed);
  oreo::core::OreoOptions opts = EngineOptions(seed);
  opts.storage_backend = traced ? tracing : base;
  std::unique_ptr<OreoEngine> engine = oreo::core::MakeEngine(
      &in.ds.table, generator, in.ds.time_column, opts);
  oreo::Status attached =
      engine->AttachPhysical(dir, config_.store_threads, config_.reorg_workers);
  r.setup_s.push_back(Now() - setup_start);
  if (!attached.ok()) {
    Mismatch(&r, "AttachPhysical: " + attached.ToString());
    ++r.failed;
    ++r.attempted;
    return false;
  }
  if (setup_only) {
    engine.reset();
    if (durable()) std::filesystem::remove_all(dir);
    return true;
  }
  if (!expected_[input].ready) Expect(input, &in, &qdtree);
  const Expected& expected = expected_[input];
  if (tracing) {
    tracing->TakeFetchSpans();
    tracing->TakeCaptured();
  }

  // --- the timed stream -------------------------------------------------
  LayerTotals& L = r.layers;
  double probe_s = 0.0;
  std::vector<oreo::core::IngestResult> ingests;
  std::vector<std::vector<uint64_t>> step_matches(in.steps.size());
  const double stream_start = Now();
  for (size_t si = 0; si < in.steps.size(); ++si) {
    IngestStep& step = in.steps[si];
    if (step.mutation) {
      ++r.attempted;
      const double t0 = Now();
      oreo::Result<oreo::core::IngestResult> res =
          engine->Ingest(std::move(step.batch));
      const double t1 = Now();
      engine->SyncPhysical();
      const double t2 = Now();
      r.batch_ms.push_back((t2 - t0) * 1e3);
      r.ingest_ms.push_back((t1 - t0) * 1e3);
      sums->ingest_s += t1 - t0;
      if (!res.ok()) {
        ++r.failed;
        Mismatch(&r, "Ingest: " + res.status().ToString());
        continue;
      }
      ingests.push_back(*res);
      if (traced) {
        L["core.ingest_s"] += t1 - t0;
        L["core.sync_s"] += t2 - t1;
        if (res->folded) L["core.fold_s"] += t1 - t0;
        tracing->TakeFetchSpans();
        tracing->TakeCaptured();
      }
      continue;
    }

    r.attempted += step.queries.size();
    std::vector<oreo::core::PhysicalStore::Snapshot> snapshots;
    if (traced) {
      for (size_t s = 0; s < engine->num_shards(); ++s) {
        snapshots.push_back(engine->store(s)->GetSnapshot());
        if (snapshots.back().instance != nullptr) {
          sums->partitions_seen += static_cast<double>(
              snapshots.back().instance->partitioning().num_partitions() *
              step.queries.size());
        }
      }
    }
    const double t0 = Now();
    engine->RunBatch(oreo::QueryBatch(step.queries));
    const double t1 = Now();
    oreo::Result<oreo::core::PhysicalStore::BatchExec> exec =
        engine->ExecuteBatchPhysical(step.queries);
    const double t2 = Now();
    engine->SyncPhysical();
    const double t3 = Now();
    r.batch_ms.push_back((t3 - t0) * 1e3);
    r.request_us.push_back((t2 - t0) * 1e6);
    if (!exec.ok()) {
      r.failed += step.queries.size();
      Mismatch(&r, "ExecuteBatchPhysical: " + exec.status().ToString());
      continue;
    }
    for (const auto& q : exec->per_query) step_matches[si].push_back(q.matches);
    if (traced) {
      L["core.decide_s"] += t1 - t0;
      L["core.scan_s"] += t2 - t1;
      L["core.sync_s"] += t3 - t2;
      for (const auto& q : exec->per_query) {
        L["scan.partitions_read"] += static_cast<double>(q.partitions_read);
        L["scan.bytes_read"] += static_cast<double>(q.bytes_read);
        L["scan.rows_scanned"] += static_cast<double>(q.rows_scanned);
      }
      L["scan.self_s"] += SelfTime({t1, t2}, tracing->TakeFetchSpans());
      const double probe_start = Now();
      const auto captured = tracing->TakeCaptured();
      if (si % kProbeEvery == 0) {
        for (const auto& snapshot : snapshots) {
          const BlockTimes t = ProbeBlocks(snapshot, step.queries, captured);
          sums->probed.verify_s += t.verify_s;
          sums->probed.decode_s += t.decode_s;
          sums->probed.predicate_s += t.predicate_s;
        }
      }
      probe_s += Now() - probe_start;
    }
  }
  const double wait_start = Now();
  engine->WaitForReorgs();
  const double stream_end = Now();
  r.stream_s += stream_end - stream_start - probe_s;
  if (traced) L["core.sync_s"] += stream_end - wait_start;

  // --- checks, outside the timed region ---------------------------------
  const std::string who = "input " + std::to_string(input) + ", ";
  const uint64_t base_rows = in.ds.table.num_rows();
  uint64_t appended = 0;
  uint64_t deleted = 0;
  size_t ingest_index = 0;
  for (size_t si = 0; si < in.steps.size(); ++si) {
    const IngestStep& want = expected.steps[si];
    if (want.mutation) {
      if (ingest_index >= ingests.size()) break;  // already counted failed
      const oreo::core::IngestResult& got = ingests[ingest_index++];
      appended += got.rows_appended;
      deleted += got.rows_deleted;
      const std::string where = who + "ingest step " + std::to_string(si) + ": ";
      if (got.rows_appended != want.expected_appended ||
          got.rows_deleted != want.expected_deleted ||
          got.visible_rows != want.expected_visible) {
        Mismatch(&r, where + "appended/deleted/visible " +
                         std::to_string(got.rows_appended) + "/" +
                         std::to_string(got.rows_deleted) + "/" +
                         std::to_string(got.visible_rows) + " != mirror " +
                         std::to_string(want.expected_appended) + "/" +
                         std::to_string(want.expected_deleted) + "/" +
                         std::to_string(want.expected_visible));
      }
      if (got.visible_rows != base_rows + appended - deleted) {
        Mismatch(&r, where + "visible_rows != base + appended - deleted");
      }
      continue;
    }
    const std::vector<uint64_t>& got = step_matches[si];
    if (got.empty()) continue;  // the batch failed and was counted
    for (size_t i = 0; i < got.size(); ++i) {
      r.matches.push_back(got[i]);
      if (got[i] != want.expected_matches[i]) {
        ++r.failed;
        Mismatch(&r, who + "query " +
                         std::to_string(in.steps[si].queries[i].id) +
                         ": matches " + std::to_string(got[i]) +
                         " != reference " +
                         std::to_string(want.expected_matches[i]));
      }
    }
  }
  const double cost = engine->total_cost();
  const int64_t switches = engine->num_switches();
  if (cost != expected.cost || switches != expected.switches) {
    std::ostringstream msg;
    msg.precision(17);
    msg << who << "total_cost/switches " << cost << "/" << switches
        << " != logical-only reference " << expected.cost << "/"
        << expected.switches;
    Mismatch(&r, msg.str());
  }
  r.total_cost += cost;
  r.switches += switches;

  for (size_t s = 0; s < engine->num_shards(); ++s) {
    sums->bytes += static_cast<double>(engine->store(s)->MaterializedBytes());
    sums->visible += static_cast<double>(engine->core(s).visible_rows());
  }

  if (traced) {
    for (size_t s = 0; s < engine->num_shards(); ++s) {
      const oreo::core::Oreo& core = engine->core(s);
      const auto& mts = core.strategy().dumts().stats();
      L["mts.switches"] += static_cast<double>(mts.num_switches);
      L["mts.phases"] += static_cast<double>(mts.num_phases);
      L["mts.max_state_space"] =
          std::max(L["mts.max_state_space"],
                   static_cast<double>(mts.max_state_space));
      L["layout.cost_evals_computed"] +=
          static_cast<double>(core.manager().cost_evals_computed());
      L["layout.cost_evals_reused"] +=
          static_cast<double>(core.manager().cost_evals_reused());
      L["ingest.folds"] += static_cast<double>(core.folds());
    }
    tracing->Report(&L);
    traced_generator.Report(&L);
    sums->ingested_bytes += expected.ingested_bytes;
    sums->appended += appended;
    sums->deleted += deleted;
  }

  engine.reset();  // joins background rewrites before the dir goes
  if (durable()) std::filesystem::remove_all(dir);
  return true;
}

}  // namespace

std::unique_ptr<WorkloadRunner> MakeTpchDrift(const RunOptions& options) {
  LibraryConfig c;
  c.name = "tpch-drift";
  c.dataset = "tpch";
  c.rows = 20000;
  c.segments = 13;
  c.per_segment = 500;
  c.num_threads = 2;
  c.store_threads = 2;
  return std::make_unique<LibraryRunner>(c, options);
}

std::unique_ptr<WorkloadRunner> MakeTelemetryIngest(const RunOptions& options) {
  LibraryConfig c;
  c.name = "telemetry-ingest";
  c.dataset = "telemetry";
  // Appends arrive at the base table's own density (90k rows over 180 days
  // is 500 a day) and the purges drop a day per three batches, so the
  // table stays near its starting size and every query sees the same kind
  // of data whatever its window.
  c.rows = 90000;
  // The layouts, and with them the size of the few partitions a query's
  // window reaches, change with the data's seed: one input's median query
  // batch sat up to 25% from another's. Eight inputs per repetition keep
  // that out of the run-to-run spread.
  c.inputs = 8;
  c.ingest.mutation_batches = 180;
  c.ingest.rows_per_batch = 167;
  c.ingest.queries_per_batch = 8;
  c.shards = 4;
  c.num_threads = 1;
  c.store_threads = 1;
  c.reorg_workers = 2;
  c.durable_when_traced = true;
  return std::make_unique<LibraryRunner>(c, options);
}

}  // namespace perfbench
