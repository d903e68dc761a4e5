// The backend-equivalence wall for the StorageBackend / OreoEngine
// redesign. Pinned contracts, all through the MakeEngine factory:
//
//   1. For a fixed seed and workload, (posix, in-memory) backends × thread
//      counts {1, 8} × shard counts {1, 4} produce bit-identical costs,
//      switch decisions, per-query decisions, live-loop scan counters and
//      final partition CRCs (read through each backend), pinned to golden
//      values.
//   2. Live streaming (AttachPhysical + RunBatch + ExecuteBatchPhysical +
//      SyncPhysical with background rewrites) returns ground-truth matches
//      on every backend and thread count.
//   3. OreoOptions::shared_cache on/off is result-identical while
//      measurably reducing the bytes fetched from the base backend (read
//      amplification), with pinned cache counters.
//
// Runs under the TSan CI job (label `slow`).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/oreo.h"
#include "core/sharded_oreo.h"
#include "layout/qdtree_layout.h"
#include "storage/shared_cache.h"
#include "test_util.h"

namespace oreo {
namespace core {
namespace {

constexpr uint64_t kSeed = 17;
constexpr size_t kRows = 3000;
constexpr size_t kBatchSize = 16;

OreoOptions BaseOpts(size_t num_threads, size_t num_shards,
                     std::shared_ptr<StorageBackend> backend) {
  OreoOptions opts;
  opts.seed = kSeed;
  opts.num_threads = num_threads;
  opts.num_shards = num_shards;
  opts.shard_routing = ShardRouting::kRange;
  opts.window_size = 60;
  opts.generate_every = 60;
  opts.max_states = 4;
  opts.target_partitions = 8;
  opts.dataset_sample_rows = 400;
  opts.storage_backend = std::move(backend);
  return opts;
}

// Two workload phases so managers admit states and D-UMTS switches.
std::vector<Query> TwoPhaseStream() {
  std::vector<Query> stream =
      testutil::MakeRangeWorkload(0, kRows, 150, 150, kSeed + 1);
  std::vector<Query> phase2 =
      testutil::MakeRangeWorkload(1, 1000, 50, 150, kSeed + 2);
  stream.insert(stream.end(), phase2.begin(), phase2.end());
  for (size_t i = 0; i < stream.size(); ++i) {
    stream[i].id = static_cast<int64_t>(i);
  }
  return stream;
}

std::shared_ptr<StorageBackend> MakeBackend(const std::string& kind) {
  return kind == "posix" ? MakePosixBackend() : MakeInMemoryBackend();
}

// The live loop's golden fingerprint at each shard count (batches of
// kBatchSize, drained after every batch): counters, accounting and final
// partition CRCs. Every backend, tier and thread count must reproduce it.
const char* GoldenSummary(size_t shards) {
  if (shards == 1) {
    return "partitions_read=1344 rows_scanned=505013 matches=45695 "
           "bytes_read=6671179 total_cost=0x1.ebd4d242e6bd8p+7 switches=1 "
           "crcs=08b465c0,e15f66cf,06e48d52,4588ebd1,353ac908,17739053,"
           "b2075097,7e0b11ce";
  }
  return "partitions_read=5186 rows_scanned=486100 matches=45695 "
         "bytes_read=6728838 total_cost=0x1.e23a5e353f7cfp+7 switches=4 "
         "crcs=1bd68db3,4d6fa992,198b48ab,f7b95fd2,a38a0c71,ffc497d5,"
         "3d6b8c63,d678af5e|65d4b272,a6182fdd,b927b747,3bf82355,883083b8,"
         "d1e085a6,b2d7e08d,948ac718|621562a9,60d7abe1,04c4a76e,95bd827a,"
         "cc9c666b,1c86b6e8,326c94fb,521a38fb|a4f79694,6ca7857b,1923d0b3,"
         "f237a64f,8433810b,b39109c6,c277c488,179a5d98";
}

// Runs the stream through one (backend, threads, shards) combo's live loop.
testutil::LiveLoopRun RunCombo(const Table& t, const LayoutGenerator& gen,
                               const std::vector<Query>& stream,
                               const std::string& backend_kind,
                               size_t threads, size_t shards) {
  OreoOptions opts = BaseOpts(threads, shards, MakeBackend(backend_kind));
  std::unique_ptr<OreoEngine> engine =
      MakeEngine(&t, &gen, /*time_column=*/0, opts);
  EXPECT_EQ(engine->num_shards(), shards);
  const std::string dir = testutil::ScratchDir(
      "backend_eq_" + backend_kind + "_t" + std::to_string(threads) + "_s" +
      std::to_string(shards));
  EXPECT_TRUE(engine->AttachPhysical(dir, threads).ok());
  return testutil::RunLiveLoop(engine.get(), stream, kBatchSize);
}

TEST(BackendEquivalenceTest, PosixAndInMemoryAreBitIdentical) {
  QdTreeGenerator gen;
  Table t = testutil::MakeEventTable(kRows, kSeed);
  std::vector<Query> stream = TwoPhaseStream();

  for (size_t shards : {size_t{1}, size_t{4}}) {
    testutil::LiveLoopRun baseline =
        RunCombo(t, gen, stream, "posix", /*threads=*/1, shards);
    EXPECT_EQ(baseline.Summary(), GoldenSummary(shards));
    for (const std::string backend_kind : {"posix", "inmem"}) {
      for (size_t threads : {size_t{1}, size_t{8}}) {
        if (backend_kind == "posix" && threads == 1) continue;  // baseline
        testutil::LiveLoopRun combo =
            RunCombo(t, gen, stream, backend_kind, threads, shards);
        EXPECT_TRUE(combo == baseline)
            << "fingerprint diverged: backend=" << backend_kind
            << " threads=" << threads << " shards=" << shards;
      }
    }
  }
}

// Live streaming through the unified handle: logical decisions, physical
// batches against pinned snapshots, background rewrites reconciled at batch
// boundaries. Matches are ground truth at all times; costs/switches are
// backend- and thread-count-invariant.
TEST(BackendEquivalenceTest, StreamingMatchesGroundTruthOnEveryBackend) {
  QdTreeGenerator gen;
  Table t = testutil::MakeEventTable(kRows, kSeed);
  std::vector<Query> stream = TwoPhaseStream();
  std::vector<uint64_t> expected;
  for (const Query& q : stream) expected.push_back(CountMatches(t, q));

  struct StreamingFingerprint {
    double query_cost = 0.0;
    double reorg_cost = 0.0;
    int64_t num_switches = 0;
  };
  for (size_t shards : {size_t{1}, size_t{4}}) {
    bool have_baseline = false;
    StreamingFingerprint baseline;
    for (const std::string backend_kind : {"posix", "inmem"}) {
      for (size_t threads : {size_t{1}, size_t{8}}) {
        OreoOptions opts =
            BaseOpts(threads, shards, MakeBackend(backend_kind));
        std::unique_ptr<OreoEngine> engine =
            MakeEngine(&t, &gen, /*time_column=*/0, opts);
        std::string dir = testutil::ScratchDir(
            "backend_eq_stream_" + backend_kind + "_t" +
            std::to_string(threads) + "_s" + std::to_string(shards));
        ASSERT_TRUE(
            engine->AttachPhysical(dir, /*store_threads=*/2).ok());
        ASSERT_TRUE(engine->has_physical());

        size_t qi = 0;
        for (const QueryBatch& b : MakeBatches(stream, /*batch_size=*/32)) {
          engine->RunBatch(b);
          auto exec = engine->ExecuteBatchPhysical(b.queries);
          ASSERT_TRUE(exec.ok()) << exec.status().ToString();
          for (const auto& per_query : exec->per_query) {
            ASSERT_EQ(per_query.matches, expected[qi])
                << "backend=" << backend_kind << " threads=" << threads
                << " shards=" << shards << " query " << qi;
            ++qi;
          }
          engine->SyncPhysical();
        }
        engine->WaitForReorgs();

        StreamingFingerprint fp{engine->total_query_cost(),
                                engine->total_reorg_cost(),
                                engine->num_switches()};
        if (!have_baseline) {
          baseline = fp;
          have_baseline = true;
          EXPECT_GT(fp.num_switches, 0) << "fixture too tame";
        } else {
          EXPECT_EQ(fp.query_cost, baseline.query_cost)
              << "backend=" << backend_kind << " threads=" << threads;
          EXPECT_EQ(fp.reorg_cost, baseline.reorg_cost);
          EXPECT_EQ(fp.num_switches, baseline.num_switches);
        }
      }
    }
  }
}

// The cache read-amplification contract. Draining rewrites after every
// batch fixes the operation sequence, and the default cache does no async
// prefetch, so the raw read totals are deterministic and pinned.
TEST(BackendEquivalenceTest, SharedCacheCutsBaseReadsWithoutChangingResults) {
  QdTreeGenerator gen;
  Table t = testutil::MakeEventTable(kRows, kSeed);
  std::vector<Query> stream = TwoPhaseStream();

  struct CacheRun {
    testutil::LiveLoopRun live;
    uint64_t base_read_bytes = 0;
  };
  // `cache` null = uncached. Either way the engine stores into a fresh
  // in-memory base, whose read counter measures what reached it.
  auto run = [&](std::shared_ptr<SharedBlockCache> cache,
                 const std::string& tag) {
    CacheRun r;
    std::shared_ptr<StorageBackend> base = MakeInMemoryBackend();
    OreoOptions opts = BaseOpts(/*num_threads=*/8, /*num_shards=*/1, base);
    opts.shared_cache = cache;
    std::unique_ptr<OreoEngine> engine =
        MakeEngine(&t, &gen, /*time_column=*/0, opts);
    std::string dir = testutil::ScratchDir("backend_eq_cache_" + tag);
    EXPECT_TRUE(engine->AttachPhysical(dir, /*store_threads=*/8).ok());
    r.live = testutil::RunLiveLoop(engine.get(), stream, kBatchSize);
    r.base_read_bytes = base->stats().read_bytes;
    return r;
  };

  CacheRun uncached = run(nullptr, "off");
  EXPECT_EQ(uncached.live.Summary(), GoldenSummary(1));

  std::shared_ptr<SharedBlockCache> cache = MakeSharedBlockCache();
  CacheRun with_cache = run(cache, "on");

  // Result-identical: decisions, counters and the final partition bytes
  // (read back through the cache) agree bit for bit.
  EXPECT_TRUE(uncached.live == with_cache.live);

  // And the cache actually absorbed reads: the base backend served
  // measurably fewer bytes than the uncached run's backend did for the
  // exact same (deterministic) operation sequence.
  SharedCacheStats stats = cache->stats();
  EXPECT_GT(stats.hits, 0u);
  EXPECT_LT(with_cache.base_read_bytes, uncached.base_read_bytes)
      << "the block cache never reduced base-backend read amplification";
  EXPECT_EQ(stats.hit_bytes,
            uncached.base_read_bytes - with_cache.base_read_bytes)
      << "every avoided base read must be accounted as hit bytes";
  EXPECT_EQ(uncached.base_read_bytes, 839508u);
  // Spill runs bypass the cache: they are neither misses nor
  // invalidations.
  EXPECT_EQ(testutil::CacheCounters(stats, with_cache.base_read_bytes),
            "hits=145 misses=16 coalesced=0 evictions=0 "
            "invalidations=8 hit_bytes=718960 base_read_bytes=120548");
}

}  // namespace
}  // namespace core
}  // namespace oreo
