// Golden wall for the one-shard physical engine loop. The values below were
// captured from the engine before the unsharded `Oreo` lost its own physical
// loop (store, pinned snapshot, background rewriter) to the sharded facade,
// so they pin the exact behaviour a one-shard `MakeEngine` must keep:
//
//   - per-batch scan counters (partitions read, rows scanned, matches,
//     bytes read) of RunBatch -> ExecuteBatchPhysical;
//   - the layout materialized in the store after every drain;
//   - the ingest outcome of an interleave that crosses exactly one fold;
//   - total cost, switch count and the final partition-file CRCs, keyed by
//     partition order (the store's directory is not part of the contract).
//
// Every configuration — base backend alone or behind a SharedBlockCache with
// async prefetch, at 1 and 4 threads — must reproduce the same golden
// values. WaitForReorgs runs after every batch, so adoption points are
// deterministic. The base backend follows OREO_TEST_BACKEND (default
// in-memory); bytes are backend-invariant, so both sides share the goldens.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/oreo.h"
#include "layout/qdtree_layout.h"
#include "storage/shared_cache.h"
#include "test_util.h"

namespace oreo {
namespace core {
namespace {

constexpr size_t kRows = 3000;
constexpr size_t kBatchSize = 16;
constexpr uint64_t kSeed = 11;

struct BatchCounters {
  uint64_t partitions_read = 0;
  uint64_t rows_scanned = 0;
  uint64_t matches = 0;
  uint64_t bytes_read = 0;

  bool operator==(const BatchCounters& o) const {
    return partitions_read == o.partitions_read &&
           rows_scanned == o.rows_scanned && matches == o.matches &&
           bytes_read == o.bytes_read;
  }
};

struct Golden {
  std::vector<BatchCounters> batches;
  std::vector<int> materialized;  // registry id in the store after each drain
  std::vector<bool> folded;       // per ingest batch
  std::vector<uint64_t> visible;  // per ingest batch
  double total_cost = 0.0;
  int64_t num_switches = 0;
  std::vector<uint32_t> crcs;  // final partition files, partition order
};

// --- golden values ----------------------------------------------------------

// Per batch: {partitions_read, rows_scanned, matches, bytes_read}.
const std::vector<BatchCounters> kGoldenBatches = {
    {23, 9053, 2416, 119504},   {22, 8574, 2416, 113200},
    {23, 9132, 2416, 120532},   {24, 9572, 2416, 126331},
    {19, 7621, 2416, 100572},   {25, 9661, 2416, 127567},
    {23, 8806, 2416, 116293},   {128, 52800, 2168, 634096},
    {128, 52800, 2172, 634096}, {128, 52800, 2127, 634096},
    {25, 15115, 2160, 136056},  {31, 16843, 2158, 158993},
    {31, 17449, 2131, 166872},  {33, 16380, 2011, 153130},
    {128, 48000, 4563, 932352}, {26, 13960, 4551, 183532},
    {30, 13025, 4547, 171694},  {29, 12959, 4566, 170756},
    {31, 12705, 4567, 167610},  {31, 12757, 4560, 168287},
};
const std::vector<int> kGoldenMaterialized = {0, 0, 0, 0, 0, 0, 0, 0, 0, 1,
                                              1, 1, 1, 2, 0, 0, 0, 0, 0, 0};
const std::vector<bool> kGoldenFolded = {false, false, true};
const std::vector<uint64_t> kGoldenVisible = {3300, 3128, 3728};
constexpr double kGoldenTotalCost = 0x1.d012a98a19acfp+6;
constexpr int64_t kGoldenSwitches = 3;
const std::vector<uint32_t> kGoldenCrcs = {
    0xf573c3c3u, 0x1b788b88u, 0x0e8935f2u, 0xfe52df96u,
    0x92db3a31u, 0xfa1604edu, 0x6a95ae3eu, 0x2da4b59du,
};

// ---------------------------------------------------------------------------

OreoOptions GoldenOpts(size_t threads) {
  OreoOptions opts;
  opts.seed = kSeed;
  opts.alpha = 4.0;
  opts.num_threads = threads;
  opts.num_shards = 1;
  opts.window_size = 48;
  opts.generate_every = 48;
  opts.max_states = 4;
  opts.target_partitions = 8;
  opts.dataset_sample_rows = 400;
  return opts;
}

// Three workload phases (ts ranges, qty ranges, ts ranges again) so the
// manager admits states and D-UMTS switches several times.
std::vector<Query> GoldenStream() {
  std::vector<Query> stream =
      testutil::MakeRangeWorkload(0, kRows, 150, 112, kSeed + 1);
  std::vector<Query> qty = testutil::MakeRangeWorkload(1, 1000, 40, 112,
                                                       kSeed + 2);
  std::vector<Query> ts = testutil::MakeRangeWorkload(0, kRows, 300, 96,
                                                      kSeed + 3);
  stream.insert(stream.end(), qty.begin(), qty.end());
  stream.insert(stream.end(), ts.begin(), ts.end());
  for (size_t i = 0; i < stream.size(); ++i) {
    stream[i].id = static_cast<int64_t>(i);
  }
  return stream;
}

// Appended rows continue the ts domain past the base table.
Table FeedRows(size_t first, size_t rows) {
  Table t(testutil::EventSchema());
  Rng rng(kSeed * 31 + first);
  const char* cats[] = {"a", "b", "c", "d"};
  for (size_t i = 0; i < rows; ++i) {
    t.AppendRow({Value(static_cast<int64_t>(kRows + first + i)),
                 Value(rng.UniformInt(0, 1000)), Value(cats[rng.Uniform(4)])});
  }
  return t;
}

// The interleave: after batch 5 an append (no fold), after batch 10 a
// qty-band purge (no fold), after batch 15 a large append that crosses the
// default fold threshold — so batches run on the base alone, on base +
// deltas + tombstones, and on the folded base.
bool IngestAfter(size_t batch_index, IngestBatch* out) {
  IngestBatch batch;
  if (batch_index == 5) {
    batch.rows = FeedRows(0, 300);
  } else if (batch_index == 10) {
    Query purge;
    purge.conjuncts = {Predicate::Between(1, Value(int64_t{0}),
                                          Value(int64_t{50}))};
    batch.deletes.push_back(std::move(purge));
  } else if (batch_index == 15) {
    batch.rows = FeedRows(300, 600);
  } else {
    return false;
  }
  *out = std::move(batch);
  return true;
}

// Registry id of the layout the store currently serves (-1 if none).
int MaterializedState(const OreoEngine& engine, PhysicalStore& store) {
  const LayoutInstance* current = store.current_instance();
  const StateRegistry& registry = engine.core(0).registry();
  for (size_t id = 0; id < registry.num_total(); ++id) {
    if (&registry.Get(static_cast<int>(id)) == current) {
      return static_cast<int>(id);
    }
  }
  return -1;
}

Golden RunGolden(size_t threads, bool shared_cache, const std::string& tag) {
  const Table table = testutil::MakeEventTable(kRows, kSeed);
  QdTreeGenerator gen;
  OreoOptions opts = GoldenOpts(threads);
  opts.storage_backend = testutil::TestBackend("inmem");
  if (shared_cache) {
    SharedBlockCacheOptions cache_opts;
    cache_opts.prefetch_threads = 2;
    opts.shared_cache = MakeSharedBlockCache(cache_opts);
  }
  std::unique_ptr<OreoEngine> engine =
      MakeEngine(&table, &gen, /*time_column=*/0, opts);
  EXPECT_EQ(engine->num_shards(), 1u);
  const std::string dir = testutil::ScratchDir(tag);
  EXPECT_TRUE(engine->AttachPhysical(dir, /*store_threads=*/threads).ok());

  Golden g;
  size_t batch_index = 0;
  for (const QueryBatch& b : MakeBatches(GoldenStream(), kBatchSize)) {
    engine->RunBatch(b);
    Result<PhysicalStore::BatchExec> exec =
        engine->ExecuteBatchPhysical(b.queries);
    EXPECT_TRUE(exec.ok()) << exec.status().ToString();
    if (!exec.ok()) return g;
    BatchCounters counters;
    for (const PhysicalStore::QueryExec& q : exec->per_query) {
      counters.partitions_read += q.partitions_read;
      counters.rows_scanned += q.rows_scanned;
      counters.matches += q.matches;
      counters.bytes_read += q.bytes_read;
    }
    g.batches.push_back(counters);
    engine->SyncPhysical();
    engine->WaitForReorgs();
    g.materialized.push_back(MaterializedState(*engine, *engine->store(0)));

    IngestBatch ingest;
    if (IngestAfter(++batch_index, &ingest)) {
      Result<IngestResult> r = engine->Ingest(std::move(ingest));
      EXPECT_TRUE(r.ok()) << r.status().ToString();
      if (!r.ok()) return g;
      g.folded.push_back(r->folded);
      g.visible.push_back(r->visible_rows);
    }
  }
  g.total_cost = engine->total_cost();
  g.num_switches = engine->num_switches();
  PhysicalStore& store = *engine->store(0);
  for (const std::string& file : store.GetSnapshot().files) {
    g.crcs.push_back(testutil::BackendCrc(*store.backend(), file));
  }
  return g;
}

// The run's values in the same source form as the goldens above, printed
// when a run diverges so the failure shows exactly what moved.
std::string Dump(const Golden& g) {
  std::string out = "kGoldenBatches = {";
  char buf[128];
  for (const BatchCounters& c : g.batches) {
    std::snprintf(buf, sizeof(buf),
                  "\n    {%" PRIu64 ", %" PRIu64 ", %" PRIu64 ", %" PRIu64 "},",
                  c.partitions_read, c.rows_scanned, c.matches, c.bytes_read);
    out += buf;
  }
  out += "};\nkGoldenMaterialized = {";
  for (int s : g.materialized) out += std::to_string(s) + ", ";
  out += "};\nkGoldenFolded = {";
  for (bool f : g.folded) out += f ? "true, " : "false, ";
  out += "};\nkGoldenVisible = {";
  for (uint64_t v : g.visible) out += std::to_string(v) + ", ";
  std::snprintf(buf, sizeof(buf), "};\nkGoldenTotalCost = %a;\n",
                g.total_cost);
  out += buf;
  out += "kGoldenSwitches = " + std::to_string(g.num_switches) + ";\n";
  out += "kGoldenCrcs = {";
  for (uint32_t crc : g.crcs) {
    std::snprintf(buf, sizeof(buf), "0x%08xu, ", crc);
    out += buf;
  }
  out += "};";
  return out;
}

void ExpectGolden(const Golden& g, const std::string& label) {
  const bool match =
      g.batches == kGoldenBatches && g.materialized == kGoldenMaterialized &&
      g.folded == kGoldenFolded && g.visible == kGoldenVisible &&
      g.total_cost == kGoldenTotalCost && g.num_switches == kGoldenSwitches &&
      g.crcs == kGoldenCrcs;
  EXPECT_TRUE(match) << label << " diverged from the golden values; got:\n"
                     << Dump(g);
}

TEST(OneShardGoldenTest, BaseBackendMatchesGolden) {
  for (size_t threads : {1, 4}) {
    ExpectGolden(RunGolden(threads, /*shared_cache=*/false, "golden_base"),
                 "base backend, threads=" + std::to_string(threads));
  }
}

TEST(OneShardGoldenTest, SharedCacheWithPrefetchMatchesGolden) {
  for (size_t threads : {1, 4}) {
    ExpectGolden(RunGolden(threads, /*shared_cache=*/true, "golden_cached"),
                 "shared cache + prefetch, threads=" +
                     std::to_string(threads));
  }
}

}  // namespace
}  // namespace core
}  // namespace oreo
