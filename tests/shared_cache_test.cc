// SharedBlockCache contracts: the cross-shard tiered cache behind the
// per-shard SharedCacheBackend views (shard 0 alone is the single-tenant
// cache a bare PhysicalStore uses).
//
//   1. The doomed-fetch window is closed: a fetch that STARTS while a
//      mutation of the same path is active (Remove/AtomicWriteBlock still
//      inside the base backend) serves its bytes to the overlapping reader
//      but never repopulates the cache, so a read issued after the mutation
//      returns always observes the new bytes.
//   2. One global budget, per-shard accounting: per-shard resident sums
//      equal the global residency, never exceed capacity, and evictions are
//      charged to the victim's owner shard.
//   3. Single-flight dedup spans shards: concurrent readers of one path
//      through different shard views share one base fetch.
//   4. Async prefetch is advisory and invisible to correctness: it warms the
//      cache (demand reads become hits), failures never surface to later
//      demand reads, and PhysicalStore feeds it the zone-map survivors of
//      the *next* queries in a batch.
#include <gtest/gtest.h>

#include <condition_variable>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/physical.h"
#include "storage/backend.h"
#include "storage/shared_cache.h"
#include "test_util.h"

namespace oreo {
namespace {

// Blocks one class of ops against `gated_path` so tests can hold a base
// operation open while racing another. Reads gate AFTER the base read (the
// stale bytes are already in hand); writes/removes gate BEFORE the base op
// (the mutation has begun — the cache bracket is open — but the new bytes
// have not landed).
class GatedOpBackend : public StorageBackend {
 public:
  enum class Gate { kRead, kWrite, kRemove };

  GatedOpBackend(std::shared_ptr<StorageBackend> base, Gate gate,
                 std::string gated_path)
      : base_(std::move(base)), gate_(gate),
        gated_path_(std::move(gated_path)) {}

  std::string name() const override { return "gated(" + base_->name() + ")"; }
  Result<std::string> ReadBlock(const std::string& path) override {
    Result<std::string> result = base_->ReadBlock(path);
    if (gate_ == Gate::kRead && path == gated_path_) Park();
    return result;
  }
  Status AtomicWriteBlock(const std::string& path, const std::string& data,
                          bool sync) override {
    if (gate_ == Gate::kWrite && path == gated_path_) Park();
    return base_->AtomicWriteBlock(path, data, sync);
  }
  Result<std::vector<std::string>> List(const std::string& dir) override {
    return base_->List(dir);
  }
  Status Remove(const std::string& path) override {
    if (gate_ == Gate::kRemove && path == gated_path_) Park();
    return base_->Remove(path);
  }
  Status CreateDir(const std::string& dir) override {
    return base_->CreateDir(dir);
  }
  Status Sync() override { return base_->Sync(); }
  BackendStats stats() const override { return base_->stats(); }

  void WaitUntilBlocked() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return blocked_ > 0; });
  }
  void Open() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    cv_.notify_all();
  }

 private:
  void Park() {
    std::unique_lock<std::mutex> lock(mu_);
    ++blocked_;
    cv_.notify_all();
    cv_.wait(lock, [&] { return open_; });
  }

  std::shared_ptr<StorageBackend> base_;
  Gate gate_;
  std::string gated_path_;
  std::mutex mu_;
  std::condition_variable cv_;
  int blocked_ = 0;
  bool open_ = false;
};

// The doomed-fetch window, write flavor. Timeline forced by the gate:
//   writer:  BeginMutation ──── base write (parked) ──────── lands ── End
//   reader:              miss ── base read (OLD bytes) ── done
// The reader's fetch starts after BeginMutation dropped the entry and
// finishes while the write is still parked, so it holds the PRE-write
// bytes. Serving them to that reader is legal (its read overlapped the
// write); caching them is the bug: a read issued after the write returns
// would then hit stale bytes forever.
void RunWriteRaceRegression(uint32_t shard) {
  const std::string path = "race/w.blk";
  auto base = MakeInMemoryBackend();
  auto gated = std::make_shared<GatedOpBackend>(
      base, GatedOpBackend::Gate::kWrite, path);
  auto backend = MakeSharedCacheBackend(MakeSharedBlockCache(), gated, shard);
  ASSERT_TRUE(base->AtomicWriteBlock(path, "old", false).ok());

  std::thread writer([&] {
    EXPECT_TRUE(backend->AtomicWriteBlock(path, "new", false).ok());
  });
  gated->WaitUntilBlocked();

  // Overlapping reader: legitimately sees the old bytes...
  Result<std::string> overlapped = backend->ReadBlock(path);
  ASSERT_TRUE(overlapped.ok());
  EXPECT_EQ(*overlapped, "old");

  gated->Open();
  writer.join();

  // ...but its fetch was born doomed, so the post-write read goes back to
  // the base and sees the new bytes.
  Result<std::string> after = backend->ReadBlock(path);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, "new")
      << "a fetch overlapping the write repopulated the cache with stale "
         "bytes";
  EXPECT_EQ(testutil::CacheCounters(*backend),
            "hits=0 misses=2 coalesced=0 evictions=0 "
            "invalidations=0 hit_bytes=0 base_read_bytes=6");
}

// Remove flavor of the same window: the doomed fetch must not resurrect a
// deleted object.
void RunRemoveRaceRegression(uint32_t shard) {
  const std::string path = "race/d.blk";
  auto base = MakeInMemoryBackend();
  auto gated = std::make_shared<GatedOpBackend>(
      base, GatedOpBackend::Gate::kRemove, path);
  auto backend = MakeSharedCacheBackend(MakeSharedBlockCache(), gated, shard);
  ASSERT_TRUE(base->AtomicWriteBlock(path, "doomed", false).ok());

  std::thread remover(
      [&] { EXPECT_TRUE(backend->Remove(path).ok()); });
  gated->WaitUntilBlocked();

  Result<std::string> overlapped = backend->ReadBlock(path);
  ASSERT_TRUE(overlapped.ok());
  EXPECT_EQ(*overlapped, "doomed");

  gated->Open();
  remover.join();

  Result<std::string> after = backend->ReadBlock(path);
  EXPECT_FALSE(after.ok())
      << "a fetch overlapping the remove resurrected the deleted object";
  EXPECT_EQ(testutil::CacheCounters(*backend),
            "hits=0 misses=2 coalesced=0 evictions=0 "
            "invalidations=0 hit_bytes=0 base_read_bytes=6");
}

// Shard 0 is the single-tenant cached backend of a bare PhysicalStore;
// shard 3 is one view of a multi-shard engine. The window must be closed for
// both.
TEST(SharedCacheRaceTest, CachedBackendWriteRaceNeverCachesStaleBytes) {
  RunWriteRaceRegression(/*shard=*/0);
}

TEST(SharedCacheRaceTest, CachedBackendRemoveRaceNeverResurrectsObject) {
  RunRemoveRaceRegression(/*shard=*/0);
}

TEST(SharedCacheRaceTest, SharedViewWriteRaceNeverCachesStaleBytes) {
  RunWriteRaceRegression(/*shard=*/3);
}

TEST(SharedCacheRaceTest, SharedViewRemoveRaceNeverResurrectsObject) {
  RunRemoveRaceRegression(/*shard=*/3);
}

TEST(SharedBlockCacheTest, SingleFlightDedupSpansShards) {
  const std::string path = "dedup/p.blk";
  auto base = MakeInMemoryBackend();
  ASSERT_TRUE(base->AtomicWriteBlock(path, "payload", false).ok());
  auto gated = std::make_shared<GatedOpBackend>(
      base, GatedOpBackend::Gate::kRead, path);
  auto cache = MakeSharedBlockCache();
  auto view0 = MakeSharedCacheBackend(cache, gated, /*shard=*/0);
  auto view1 = MakeSharedCacheBackend(cache, gated, /*shard=*/1);

  // Shard 0's fetch parks inside the base; shard 1's read arrives while it
  // is in flight (or, at worst, just after insertion — either way the base
  // serves exactly one read).
  std::thread fetcher([&] {
    Result<std::string> r = view0->ReadBlock(path);
    EXPECT_TRUE(r.ok());
    if (r.ok()) {
      EXPECT_EQ(*r, "payload");
    }
  });
  gated->WaitUntilBlocked();
  std::thread rider([&] {
    Result<std::string> r = view1->ReadBlock(path);
    EXPECT_TRUE(r.ok());
    if (r.ok()) {
      EXPECT_EQ(*r, "payload");
    }
  });
  gated->Open();
  fetcher.join();
  rider.join();

  EXPECT_EQ(base->stats().reads, 1u)
      << "concurrent cross-shard readers did not share one base fetch";
  SharedCacheStats stats = cache->stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(cache->shard_stats(0).misses, 1u);
  EXPECT_EQ(cache->shard_stats(1).hits, 1u);
}

TEST(SharedBlockCacheTest, GlobalBudgetWithPerShardAccounting) {
  auto base = MakeInMemoryBackend();
  for (const char* p : {"a", "b", "c"}) {
    ASSERT_TRUE(base->AtomicWriteBlock(p, std::string(8, p[0]), false).ok());
  }
  SharedBlockCacheOptions options;
  options.capacity_bytes = 16;  // room for exactly two 8-byte objects
  auto cache = MakeSharedBlockCache(options);
  auto view0 = MakeSharedCacheBackend(cache, base, /*shard=*/0);
  auto view1 = MakeSharedCacheBackend(cache, base, /*shard=*/1);

  ASSERT_TRUE(view0->ReadBlock("a").ok());  // owner: shard 0
  ASSERT_TRUE(view1->ReadBlock("b").ok());  // owner: shard 1
  SharedCacheStats stats = cache->stats();
  EXPECT_EQ(stats.resident_bytes, 16u);
  EXPECT_EQ(stats.resident_objects, 2u);
  EXPECT_EQ(cache->shard_stats(0).resident_bytes, 8u);
  EXPECT_EQ(cache->shard_stats(1).resident_bytes, 8u);

  // Third insert evicts the LRU victim "a" — charged to shard 0, its
  // OWNER, even though shard 1 drove the insertion.
  ASSERT_TRUE(view1->ReadBlock("c").ok());
  stats = cache->stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(cache->shard_stats(0).evictions_charged, 1u);
  EXPECT_EQ(cache->shard_stats(1).evictions_charged, 0u);
  EXPECT_EQ(cache->shard_stats(0).resident_bytes, 0u);
  EXPECT_EQ(cache->shard_stats(1).resident_bytes, 16u);
  EXPECT_EQ(cache->shard_stats(1).resident_objects, 2u);

  // Invalidation is charged to the owner of the dropped object.
  ASSERT_TRUE(view0->AtomicWriteBlock("b", "bbbbbbbb", false).ok());
  EXPECT_EQ(cache->shard_stats(1).invalidations, 1u);
  EXPECT_EQ(cache->shard_stats(0).invalidations, 0u);

  // Oversized objects are served but never cached.
  ASSERT_TRUE(
      base->AtomicWriteBlock("huge", std::string(64, 'h'), false).ok());
  Result<std::string> huge = view0->ReadBlock("huge");
  ASSERT_TRUE(huge.ok());
  EXPECT_EQ(huge->size(), 64u);

  // Invariants under churn: the budget is never exceeded, and the global
  // residency always equals the sum of the per-shard slices.
  for (int round = 0; round < 3; ++round) {
    for (const char* p : {"a", "b", "c", "huge"}) {
      ASSERT_TRUE((round % 2 == 0 ? view0 : view1)->ReadBlock(p).ok());
      stats = cache->stats();
      EXPECT_LE(stats.resident_bytes, options.capacity_bytes);
      uint64_t shard_bytes = 0, shard_objects = 0;
      for (const auto& [shard, s] : cache->all_shard_stats()) {
        (void)shard;
        shard_bytes += s.resident_bytes;
        shard_objects += s.resident_objects;
      }
      EXPECT_EQ(shard_bytes, stats.resident_bytes);
      EXPECT_EQ(shard_objects, stats.resident_objects);
    }
  }
}

TEST(SharedBlockCacheTest, PrefetchWarmsTheCache) {
  auto base = MakeInMemoryBackend();
  ASSERT_TRUE(base->AtomicWriteBlock("p1", "11111", false).ok());
  ASSERT_TRUE(base->AtomicWriteBlock("p2", "222", false).ok());
  SharedBlockCacheOptions options;
  options.prefetch_threads = 2;
  auto cache = MakeSharedBlockCache(options);

  cache->RequestPrefetch(0, base, "p1");
  cache->RequestPrefetch(1, base, "p2");
  cache->DrainPrefetches();

  SharedCacheStats stats = cache->stats();
  EXPECT_EQ(stats.prefetch_requests, 2u);
  EXPECT_EQ(stats.prefetch_fetches, 2u);
  EXPECT_EQ(stats.prefetch_bytes, 8u);
  EXPECT_EQ(cache->shard_stats(0).prefetch_fetches, 1u);
  EXPECT_EQ(cache->shard_stats(1).prefetch_fetches, 1u);
  const uint64_t base_reads_after_warmup = base->stats().reads;

  // Demand reads are now hits: no further base traffic.
  Result<std::string> r = cache->Read(0, base.get(), "p1");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, "11111");
  EXPECT_EQ(cache->stats().hits, 1u);
  EXPECT_EQ(base->stats().reads, base_reads_after_warmup);

  // Prefetching an already-cached object is a counted no-op.
  cache->RequestPrefetch(0, base, "p1");
  cache->DrainPrefetches();
  EXPECT_GE(cache->stats().prefetch_noops, 1u);
}

TEST(SharedBlockCacheTest, PrefetchWithoutWorkersIsDropped) {
  auto base = MakeInMemoryBackend();
  ASSERT_TRUE(base->AtomicWriteBlock("p", "x", false).ok());
  auto cache = MakeSharedBlockCache();  // prefetch_threads = 0
  cache->RequestPrefetch(0, base, "p");
  cache->DrainPrefetches();
  SharedCacheStats stats = cache->stats();
  EXPECT_EQ(stats.prefetch_dropped, 1u);
  EXPECT_EQ(stats.prefetch_fetches, 0u);
  // Demand reads are unaffected.
  Result<std::string> r = cache->Read(0, base.get(), "p");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, "x");
}

TEST(SharedBlockCacheTest, FailedPrefetchIsInvisibleToDemandReads) {
  auto base = MakeInMemoryBackend();
  SharedBlockCacheOptions options;
  options.prefetch_threads = 1;
  auto cache = MakeSharedBlockCache(options);

  cache->RequestPrefetch(0, base, "late");  // does not exist yet
  cache->DrainPrefetches();

  ASSERT_TRUE(base->AtomicWriteBlock("late", "now it does", false).ok());
  Result<std::string> r = cache->Read(0, base.get(), "late");
  ASSERT_TRUE(r.ok()) << "a failed prefetch leaked its error into a later "
                         "demand read: "
                      << r.status().ToString();
  EXPECT_EQ(*r, "now it does");
}

// End-to-end plumbing: PhysicalStore discovers the BlockPrefetcher interface
// on its backend, and a batched scan warms the zone-map survivors of the
// batch's later queries while the first one scans; results stay ground
// truth.
// Holds demand reads of `first_paths` until the cache's prefetch queue has
// drained. A batch fetches each partition once and prefetches only what its
// first query does not scan, so parking the first query's reads lets every
// prefetch land before the scan reaches the partitions it warmed.
class DrainFirstBackend : public StorageBackend {
 public:
  DrainFirstBackend(std::shared_ptr<StorageBackend> base,
                    std::shared_ptr<SharedBlockCache> cache)
      : base_(std::move(base)), cache_(std::move(cache)) {}

  void set_first_paths(std::set<std::string> paths) {
    first_paths_ = std::move(paths);
  }

  std::string name() const override { return "drain(" + base_->name() + ")"; }
  Result<std::string> ReadBlock(const std::string& path) override {
    if (first_paths_.count(path) != 0) cache_->DrainPrefetches();
    return base_->ReadBlock(path);
  }
  Status AtomicWriteBlock(const std::string& path, const std::string& data,
                          bool sync) override {
    return base_->AtomicWriteBlock(path, data, sync);
  }
  Result<std::vector<std::string>> List(const std::string& dir) override {
    return base_->List(dir);
  }
  Status Remove(const std::string& path) override {
    return base_->Remove(path);
  }
  Status CreateDir(const std::string& dir) override {
    return base_->CreateDir(dir);
  }
  Status Sync() override { return base_->Sync(); }
  BackendStats stats() const override { return base_->stats(); }

 private:
  std::shared_ptr<StorageBackend> base_;
  std::shared_ptr<SharedBlockCache> cache_;
  std::set<std::string> first_paths_;  // set before the batch runs
};

TEST(SharedBlockCacheTest, PhysicalStorePrefetchesUpcomingQueries) {
  const uint64_t seed = 7;
  Table t = testutil::MakeEventTable(2000, seed);
  LayoutInstance by_ts = testutil::MakeSortedInstance(t, 0, 8, "by_ts", 3);
  std::vector<Query> queries =
      testutil::MakeRangeWorkload(0, 2000, 400, 6, seed + 1);

  SharedBlockCacheOptions options;
  options.prefetch_threads = 2;
  auto cache = MakeSharedBlockCache(options);
  auto base = std::make_shared<DrainFirstBackend>(MakeInMemoryBackend(), cache);
  auto backend = MakeSharedCacheBackend(cache, base, /*shard=*/0);
  std::string dir = testutil::ScratchDir("shared_prefetch");
  core::PhysicalStore store(dir, /*num_threads=*/2, backend);
  ASSERT_TRUE(store.MaterializeLayout(t, by_ts).ok());

  // Both scan threads start on the first query's partitions and park there
  // until the prefetches are in the cache.
  const std::vector<uint32_t> first =
      PartitionsToRead(by_ts.partitioning(), queries[0]);
  ASSERT_GE(first.size(), store.num_threads());
  std::set<std::string> first_paths;
  for (uint32_t pid : first) {
    first_paths.insert(store.GetSnapshot().files[pid]);
  }
  base->set_first_paths(std::move(first_paths));

  auto exec = store.ExecuteQueryBatch(queries);
  cache->DrainPrefetches();  // settle the advisory fetches before counting
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  EXPECT_GT(cache->stats().prefetch_requests, 0u)
      << "the batched scan never fed the prefetcher";
  ASSERT_EQ(exec->per_query.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(exec->per_query[i].matches, CountMatches(t, queries[i]))
        << "query " << i;
  }
  EXPECT_GT(cache->stats().hits, 0u)
      << "the warmed cache served nothing to the batch";
  // Every prefetched partition served exactly one demand read.
  EXPECT_EQ(cache->stats().hits, cache->stats().prefetch_fetches);
}

}  // namespace
}  // namespace oreo
