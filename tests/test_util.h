// Shared test fixtures. The seed suites grew identical copies of
// TestSchema()/MakeTable() and friends; the canonical versions live here.
// The table-building helpers are seed-stable: identical (rows, seed) inputs
// must keep producing bit-identical tables, because many suites pin
// expectations to the data these generate.
#ifndef OREO_TESTS_TEST_UTIL_H_
#define OREO_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "common/rng.h"
#include "core/engine.h"
#include "core/physical.h"
#include "core/strategy.h"
#include "layout/layout.h"
#include "layout/sorted_layout.h"
#include "query/query.h"
#include "storage/backend.h"
#include "storage/shared_cache.h"
#include "storage/table.h"

namespace oreo {
namespace testutil {

// {ts, qty, cat} — event stream used by the core / physical / integration
// style suites: ts is arrival order, qty uniform in [0, 1000], 4 categories.
inline Schema EventSchema() {
  return Schema({{"ts", DataType::kInt64},
                 {"qty", DataType::kInt64},
                 {"cat", DataType::kString}});
}

inline Table MakeEventTable(size_t rows, uint64_t seed) {
  Table t(EventSchema());
  Rng rng(seed);
  const char* cats[] = {"a", "b", "c", "d"};
  for (size_t i = 0; i < rows; ++i) {
    t.AppendRow({Value(static_cast<int64_t>(i)),
                 Value(rng.UniformInt(0, 1000)), Value(cats[rng.Uniform(4)])});
  }
  return t;
}

// {ts, qty, price, cat} — the wider variant the layout suite exercises
// (adds a double column and six categories).
inline Schema WideEventSchema() {
  return Schema({{"ts", DataType::kInt64},
                 {"qty", DataType::kInt64},
                 {"price", DataType::kDouble},
                 {"cat", DataType::kString}});
}

inline Table MakeWideEventTable(size_t rows, uint64_t seed) {
  Table t(WideEventSchema());
  Rng rng(seed);
  const char* cats[] = {"a", "b", "c", "d", "e", "f"};
  for (size_t i = 0; i < rows; ++i) {
    t.AppendRow({Value(static_cast<int64_t>(i)),  // ts: arrival order
                 Value(rng.UniformInt(0, 1000)),
                 Value(rng.UniformDouble(0, 100)),
                 Value(cats[rng.Uniform(6)])});
  }
  return t;
}

// {id, ts, score, tag} — block-format suite: ts is sorted so the serializer
// picks delta encoding, id spans negatives, tag has a tiny dictionary.
inline Schema BlockSchema() {
  return Schema({{"id", DataType::kInt64},
                 {"ts", DataType::kInt64},
                 {"score", DataType::kDouble},
                 {"tag", DataType::kString}});
}

inline Table MakeBlockTable(size_t rows, uint64_t seed) {
  Table t(BlockSchema());
  Rng rng(seed);
  const char* tags[] = {"red", "green", "blue"};
  for (size_t i = 0; i < rows; ++i) {
    t.AppendRow({Value(static_cast<int64_t>(rng.UniformInt(-1000, 1000))),
                 Value(static_cast<int64_t>(i)),  // sorted -> delta encoding
                 Value(rng.UniformDouble(-1, 1)),
                 Value(tags[rng.Uniform(3)])});
  }
  return t;
}

// {qty, price, region} — query suite's sales-style table.
inline Schema SalesSchema() {
  return Schema({{"qty", DataType::kInt64},
                 {"price", DataType::kDouble},
                 {"region", DataType::kString}});
}

inline Table MakeSalesTable(size_t rows, uint64_t seed) {
  Table t(SalesSchema());
  Rng rng(seed);
  const char* regions[] = {"asia", "europe", "america", "africa", "oceania"};
  for (size_t i = 0; i < rows; ++i) {
    t.AppendRow({Value(rng.UniformInt(0, 100)),
                 Value(rng.UniformDouble(0.0, 50.0)),
                 Value(regions[rng.Uniform(5)])});
  }
  return t;
}

// {id, score, tag} — storage suite's hand-written 4-row table.
inline Schema IdScoreTagSchema() {
  return Schema({{"id", DataType::kInt64},
                 {"score", DataType::kDouble},
                 {"tag", DataType::kString}});
}

inline Table SmallIdScoreTagTable() {
  Table t(IdScoreTagSchema());
  t.AppendRow({Value(int64_t{1}), Value(0.5), Value("a")});
  t.AppendRow({Value(int64_t{5}), Value(1.5), Value("b")});
  t.AppendRow({Value(int64_t{3}), Value(-2.0), Value("a")});
  t.AppendRow({Value(int64_t{9}), Value(0.0), Value("c")});
  return t;
}

// Materializes a single-column sort layout generated from a 300-row sample.
// `sample_seed` feeds the sampling Rng; suites pin different seeds, so it is
// part of the fixture contract.
inline LayoutInstance MakeSortedInstance(const Table& t, int column,
                                         uint32_t k, const std::string& name,
                                         uint64_t sample_seed) {
  Rng rng(sample_seed);
  Table sample = t.SampleRows(300, &rng);
  SortLayoutGenerator gen(column);
  return Materialize(
      name, std::shared_ptr<const Layout>(gen.Generate(sample, {}, k)), t);
}

// n BETWEEN-range queries of fixed `width` over [0, domain) on `column`.
// When `assign_ids` is set, query i gets id i (the core suite relies on it).
inline std::vector<Query> MakeRangeWorkload(int column, int64_t domain,
                                            int64_t width, size_t n,
                                            uint64_t seed,
                                            bool assign_ids = false) {
  Rng rng(seed);
  std::vector<Query> out;
  for (size_t i = 0; i < n; ++i) {
    Query q;
    if (assign_ids) q.id = static_cast<int64_t>(i);
    int64_t lo = rng.UniformInt(0, domain - width);
    q.conjuncts = {Predicate::Between(column, Value(lo), Value(lo + width))};
    out.push_back(std::move(q));
  }
  return out;
}

inline void ExpectTablesEqual(const Table& a, const Table& b) {
  ASSERT_TRUE(a.schema().Equals(b.schema()));
  ASSERT_EQ(a.num_rows(), b.num_rows());
  for (size_t c = 0; c < a.num_columns(); ++c) {
    for (uint32_t r = 0; r < a.num_rows(); ++r) {
      EXPECT_TRUE(a.column(c).GetValue(r) == b.column(c).GetValue(r))
          << "col " << c << " row " << r;
    }
  }
}

// Fresh scratch directory under the system temp dir; removes any leftover
// from a previous run so tests start clean.
inline std::string ScratchDir(const std::string& tag) {
  std::string dir =
      (std::filesystem::temp_directory_path() / ("oreo_" + tag)).string();
  std::filesystem::remove_all(dir);
  return dir;
}

// Storage backend selected by the OREO_TEST_BACKEND environment variable
// ("posix" or "inmem"); `def` names the suite's default when the variable is
// unset. Storage-level suites default to "posix" (they test the real file
// path); the heavy equivalence walls default to "inmem" (bit-identical
// bytes, no disk). CI runs both sides of the matrix.
inline std::string TestBackendName(const std::string& def = "posix") {
  const char* env = std::getenv("OREO_TEST_BACKEND");
  return (env != nullptr && *env != '\0') ? std::string(env) : def;
}

inline std::shared_ptr<StorageBackend> TestBackend(
    const std::string& def = "posix") {
  const std::string name = TestBackendName(def);
  if (name == "inmem") return MakeInMemoryBackend();
  if (name == "posix") return MakePosixBackend();
  ADD_FAILURE() << "unknown OREO_TEST_BACKEND value: " << name;
  return MakePosixBackend();
}

// CRC-32C of one block read through `backend`, over its bytes minus the
// 4-byte CRC trailer (0 plus a test failure if it cannot be read). Hashing
// the trailer too would be useless: CRC-32C over a message followed by its
// own CRC is the same constant for every message.
inline uint32_t BackendCrc(StorageBackend& backend, const std::string& path) {
  Result<std::string> data = backend.ReadBlock(path);
  EXPECT_TRUE(data.ok()) << "cannot read " << path << ": "
                         << data.status().ToString();
  if (!data.ok()) return 0;
  EXPECT_GE(data->size(), sizeof(uint32_t)) << path << " has no CRC trailer";
  if (data->size() < sizeof(uint32_t)) return 0;
  return Crc32c(data->data(), data->size() - sizeof(uint32_t));
}

// CRCs of the store's current partition files, in partition-id order, read
// through the store's own backend (works for posix and in-memory alike).
inline std::vector<uint32_t> PartitionCrcs(const core::PhysicalStore& store) {
  std::vector<uint32_t> crcs;
  for (const std::string& f : store.GetSnapshot().files) {
    crcs.push_back(BackendCrc(*store.backend(), f));
  }
  return crcs;
}

// What a drained live-loop run produces (see RunLiveLoop): per-query steps,
// scan counters summed over the stream, the engine's accounting, and each
// shard's final partition CRCs in partition order.
struct LiveLoopRun {
  std::vector<int> states;     // serving layout per query (-1: several shards)
  std::vector<double> costs;   // row-weighted cost per query
  uint64_t partitions_read = 0;
  uint64_t rows_scanned = 0;
  uint64_t matches = 0;
  uint64_t bytes_read = 0;
  double total_cost = 0.0;
  int64_t num_switches = 0;
  std::vector<std::vector<uint32_t>> crcs;  // per shard

  bool operator==(const LiveLoopRun& o) const {
    return states == o.states && costs == o.costs && Summary() == o.Summary();
  }

  // Counters, accounting and CRCs on one line: the form goldens pin.
  std::string Summary() const {
    char buf[96];
    std::snprintf(buf, sizeof(buf), " total_cost=%a switches=%lld crcs=",
                  total_cost, static_cast<long long>(num_switches));
    std::string out = "partitions_read=" + std::to_string(partitions_read) +
                      " rows_scanned=" + std::to_string(rows_scanned) +
                      " matches=" + std::to_string(matches) +
                      " bytes_read=" + std::to_string(bytes_read) + buf;
    for (size_t s = 0; s < crcs.size(); ++s) {
      if (s > 0) out += "|";
      for (size_t p = 0; p < crcs[s].size(); ++p) {
        std::snprintf(buf, sizeof(buf), "%s%08x", p > 0 ? "," : "",
                      crcs[s][p]);
        out += buf;
      }
    }
    return out;
  }
};

// Drives an attached engine through the live loop: per batch, RunBatch, then
// ExecuteBatchPhysical against the pinned snapshots, then WaitForReorgs. So
// every rewrite is adopted at a batch boundary the stream alone fixes, and
// the run is deterministic. `per_query_matches` (optional) receives every
// query's match count in stream order.
inline LiveLoopRun RunLiveLoop(core::OreoEngine* engine,
                               const std::vector<Query>& stream,
                               size_t batch_size,
                               std::vector<uint64_t>* per_query_matches =
                                   nullptr) {
  LiveLoopRun run;
  for (const QueryBatch& batch : MakeBatches(stream, batch_size)) {
    for (const core::OreoEngine::StepResult& step :
         engine->RunBatch(batch).steps) {
      run.states.push_back(step.state);
      run.costs.push_back(step.query_cost);
    }
    Result<core::PhysicalStore::BatchExec> exec =
        engine->ExecuteBatchPhysical(batch.queries);
    EXPECT_TRUE(exec.ok()) << exec.status().ToString();
    if (!exec.ok()) return run;
    for (const core::PhysicalStore::QueryExec& q : exec->per_query) {
      run.partitions_read += q.partitions_read;
      run.rows_scanned += q.rows_scanned;
      run.matches += q.matches;
      run.bytes_read += q.bytes_read;
      if (per_query_matches != nullptr) per_query_matches->push_back(q.matches);
    }
    engine->WaitForReorgs();
  }
  run.total_cost = engine->total_cost();
  run.num_switches = engine->num_switches();
  for (size_t s = 0; s < engine->num_shards(); ++s) {
    run.crcs.push_back(PartitionCrcs(*engine->store(s)));
  }
  return run;
}

// A strategy over a fixed, hand-built state space that switches at scripted
// query ids: it drives the engine through an exact decision trace.
class ScriptedStrategy : public core::Strategy {
 public:
  // Starts on `initial`; moves to `to` at the query whose id is `at`.
  ScriptedStrategy(std::vector<std::pair<int64_t, int>> switches, int initial)
      : switches_(std::move(switches)), current_(initial) {}
  std::string name() const override { return "scripted"; }
  int OnQuery(const Query& q, bool* switched) override {
    *switched = false;
    for (const auto& [at, to] : switches_) {
      if (at == q.id) {
        current_ = to;
        *switched = true;
      }
    }
    return current_;
  }
  int current_state() const override { return current_; }
  bool fixed_state_space() const override { return true; }

 private:
  std::vector<std::pair<int64_t, int>> switches_;
  int current_;
};

// OreoOptions::strategy for a scripted run over single-column sort layouts:
// registers one layout per entry of `columns` over the shard's table (named
// "s0", "s1", ...; k partitions, sampled with `sample_seed`), starts on the
// first, and moves to layout `to` at query id `at` for every (at, to) in
// `switches`.
inline core::StrategyFactory ScriptedSortFactory(
    std::vector<int> columns, uint32_t k, uint64_t sample_seed,
    std::vector<std::pair<int64_t, size_t>> switches) {
  return [=](const Table& table, core::StateRegistry* registry,
             const core::LayoutManager*, int,
             double) -> std::unique_ptr<core::Strategy> {
    std::vector<int> ids;
    for (size_t i = 0; i < columns.size(); ++i) {
      ids.push_back(registry->Add(MakeSortedInstance(
          table, columns[i], k, "s" + std::to_string(i), sample_seed)));
    }
    std::vector<std::pair<int64_t, int>> script;
    for (const auto& [at, to] : switches) script.emplace_back(at, ids[to]);
    return std::make_unique<ScriptedStrategy>(std::move(script), ids.front());
  };
}

// CRCs of every object under `dir`, in sorted path order.
inline std::vector<std::pair<std::string, uint32_t>> DirCrcs(
    StorageBackend& backend, const std::string& dir) {
  std::vector<std::pair<std::string, uint32_t>> crcs;
  Result<std::vector<std::string>> paths = backend.List(dir);
  EXPECT_TRUE(paths.ok()) << paths.status().ToString();
  if (!paths.ok()) return crcs;
  for (const std::string& path : *paths) {
    crcs.emplace_back(path, BackendCrc(backend, path));
  }
  return crcs;
}

// The exact counters a deterministic block-cache test pins, as one
// comparable line: the cache's accounting plus the bytes its base backend
// served.
inline std::string CacheCounters(const SharedCacheStats& s,
                                 uint64_t base_read_bytes) {
  return "hits=" + std::to_string(s.hits) +
         " misses=" + std::to_string(s.misses) +
         " coalesced=" + std::to_string(s.coalesced) +
         " evictions=" + std::to_string(s.evictions) +
         " invalidations=" + std::to_string(s.invalidations) +
         " hit_bytes=" + std::to_string(s.hit_bytes) +
         " base_read_bytes=" + std::to_string(base_read_bytes);
}

inline std::string CacheCounters(const SharedCacheBackend& cached) {
  return CacheCounters(cached.cache()->stats(),
                       cached.base()->stats().read_bytes);
}

// Harmonic number H(n) — the paper's competitive bounds are stated as
// 2*H(|S_max|) (Theorem IV.1).
inline double Harmonic(size_t n) {
  double h = 0;
  for (size_t i = 1; i <= n; ++i) h += 1.0 / static_cast<double>(i);
  return h;
}

}  // namespace testutil
}  // namespace oreo

#endif  // OREO_TESTS_TEST_UTIL_H_
