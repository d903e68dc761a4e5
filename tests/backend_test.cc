// StorageBackend unit wall: the interface contract (atomic publish, list,
// remove, stats) for the posix and in-memory implementations, the
// single-tenant block cache — a shard-0 SharedCacheBackend view (hit/miss
// determinism, LRU eviction, staleness after writes), and the failure
// contracts proved with a fault-injecting backend test double: a failed
// materialization or reorganization cleans up every object it wrote (no
// torn partition files), and a failed sharded attach leaves no shard
// attached.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/physical.h"
#include "core/sharded_oreo.h"
#include "layout/qdtree_layout.h"
#include "layout/sorted_layout.h"
#include "query/query.h"
#include "storage/backend.h"
#include "storage/block.h"
#include "storage/metadata_io.h"
#include "storage/shared_cache.h"
#include "test_util.h"

namespace oreo {
namespace {

TEST(StorageBackendTest, RoundTripListRemove) {
  for (const char* kind : {"posix", "inmem"}) {
    std::shared_ptr<StorageBackend> backend =
        kind == std::string("posix") ? MakePosixBackend()
                                     : MakeInMemoryBackend();
    std::string dir = testutil::ScratchDir(std::string("backend_rt_") + kind);
    ASSERT_TRUE(backend->CreateDir(dir).ok()) << kind;

    ASSERT_TRUE(backend->AtomicWriteBlock(dir + "/b.blk", "bravo", false).ok());
    ASSERT_TRUE(backend->AtomicWriteBlock(dir + "/a.blk", "alpha", true).ok());

    auto read = backend->ReadBlock(dir + "/a.blk");
    ASSERT_TRUE(read.ok()) << kind;
    EXPECT_EQ(*read, "alpha");

    // Overwrite is a whole-object swap.
    ASSERT_TRUE(
        backend->AtomicWriteBlock(dir + "/a.blk", "alpha2", false).ok());
    read = backend->ReadBlock(dir + "/a.blk");
    ASSERT_TRUE(read.ok());
    EXPECT_EQ(*read, "alpha2");

    // List: sorted, complete, no stray temp objects from the atomic writes.
    auto listed = backend->List(dir);
    ASSERT_TRUE(listed.ok()) << kind;
    EXPECT_EQ(*listed,
              (std::vector<std::string>{dir + "/a.blk", dir + "/b.blk"}));

    EXPECT_TRUE(backend->Remove(dir + "/a.blk").ok());
    EXPECT_EQ(backend->Remove(dir + "/a.blk").code(), StatusCode::kNotFound);
    EXPECT_FALSE(backend->ReadBlock(dir + "/a.blk").ok());
    listed = backend->List(dir);
    ASSERT_TRUE(listed.ok());
    EXPECT_EQ(*listed, (std::vector<std::string>{dir + "/b.blk"}));

    EXPECT_TRUE(backend->List(dir + "_does_not_exist")->empty());
    EXPECT_TRUE(backend->Sync().ok());

    BackendStats stats = backend->stats();
    EXPECT_EQ(stats.writes, 3u);
    EXPECT_EQ(stats.removes, 1u);
    EXPECT_GE(stats.reads, 2u);
  }
}

TEST(StorageBackendTest, BlockAndMetadataBytesAreBackendInvariant) {
  Table t = testutil::MakeBlockTable(500, 7);
  LayoutInstance inst = testutil::MakeSortedInstance(t, 1, 4, "by_ts", 3);
  PartitionMetadata meta =
      MetadataFrom(t.schema(), inst.partitioning(), "by_ts");

  std::shared_ptr<StorageBackend> posix = MakePosixBackend();
  std::shared_ptr<StorageBackend> inmem = MakeInMemoryBackend();
  std::string dir = testutil::ScratchDir("backend_invariant");
  ASSERT_TRUE(posix->CreateDir(dir).ok());

  for (auto& backend : {posix, inmem}) {
    ASSERT_TRUE(
        WriteBlockTo(backend.get(), dir + "/t.blk", t, /*sync=*/true).ok());
    ASSERT_TRUE(WriteMetadataTo(backend.get(), dir + "/t.meta", meta).ok());
  }
  EXPECT_EQ(testutil::BackendCrc(*posix, dir + "/t.blk"),
            testutil::BackendCrc(*inmem, dir + "/t.blk"))
      << "posix and in-memory block bytes diverged";
  EXPECT_EQ(testutil::BackendCrc(*posix, dir + "/t.meta"),
            testutil::BackendCrc(*inmem, dir + "/t.meta"));

  // Both round-trip to the same table / metadata.
  for (auto& backend : {posix, inmem}) {
    Result<Table> back = ReadBlockFrom(backend.get(), dir + "/t.blk");
    ASSERT_TRUE(back.ok());
    testutil::ExpectTablesEqual(t, *back);
    Result<PartitionMetadata> m =
        ReadMetadataFrom(backend.get(), dir + "/t.meta");
    ASSERT_TRUE(m.ok());
    EXPECT_EQ(m->total_rows, meta.total_rows);
    EXPECT_EQ(m->layout_name, "by_ts");
  }
}

// ------------------------------------------------------------ cached -----

// A single-tenant block cache in front of `base`: the shard-0 view of a
// private SharedBlockCache, the way a bare PhysicalStore reaches the cache.
std::shared_ptr<SharedCacheBackend> MakeShardZeroCache(
    std::shared_ptr<StorageBackend> base,
    SharedBlockCacheOptions options = {}) {
  return MakeSharedCacheBackend(MakeSharedBlockCache(options),
                                std::move(base), /*shard=*/0);
}

// Every cache test below pins its exact counters (testutil::CacheCounters):
// with no prefetching they are a deterministic function of the op sequence,
// whatever the thread interleaving.

TEST(SharedCacheBackendTest, HitMissAndInvalidation) {
  auto cached = MakeShardZeroCache(MakeInMemoryBackend());
  const std::string path = "cache_unit/a.blk";

  ASSERT_TRUE(cached->AtomicWriteBlock(path, "v1", false).ok());
  auto r1 = cached->ReadBlock(path);
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(*r1, "v1");
  auto r2 = cached->ReadBlock(path);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(*r2, "v1");
  SharedCacheStats stats = cached->cache()->stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.hit_bytes, 2u);
  EXPECT_EQ(testutil::CacheCounters(*cached),
            "hits=1 misses=1 coalesced=0 evictions=0 "
            "invalidations=0 hit_bytes=2 base_read_bytes=2");

  // A write invalidates: the next read must see the new bytes (a miss).
  ASSERT_TRUE(cached->AtomicWriteBlock(path, "v2!", false).ok());
  auto r3 = cached->ReadBlock(path);
  ASSERT_TRUE(r3.ok());
  EXPECT_EQ(*r3, "v2!") << "cache served stale bytes after a write";
  stats = cached->cache()->stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_GE(stats.invalidations, 1u);
  EXPECT_EQ(testutil::CacheCounters(*cached),
            "hits=1 misses=2 coalesced=0 evictions=0 "
            "invalidations=1 hit_bytes=2 base_read_bytes=5");

  // Remove invalidates too; the read then fails like the base would.
  ASSERT_TRUE(cached->Remove(path).ok());
  EXPECT_FALSE(cached->ReadBlock(path).ok());
  EXPECT_EQ(testutil::CacheCounters(*cached),
            "hits=1 misses=3 coalesced=0 evictions=0 "
            "invalidations=2 hit_bytes=2 base_read_bytes=5");
}

TEST(SharedCacheBackendTest, StrictLruEvictionNeverServesWrongBytes) {
  SharedBlockCacheOptions opts;
  opts.capacity_bytes = 8;  // fits exactly two 4-byte objects
  auto cached = MakeShardZeroCache(MakeInMemoryBackend(), opts);
  ASSERT_TRUE(cached->AtomicWriteBlock("ev/a", "aaaa", false).ok());
  ASSERT_TRUE(cached->AtomicWriteBlock("ev/b", "bbbb", false).ok());
  ASSERT_TRUE(cached->AtomicWriteBlock("ev/c", "cccc", false).ok());

  EXPECT_EQ(*cached->ReadBlock("ev/a"), "aaaa");  // miss, cache {a}
  EXPECT_EQ(*cached->ReadBlock("ev/b"), "bbbb");  // miss, cache {b, a}
  EXPECT_EQ(*cached->ReadBlock("ev/a"), "aaaa");  // hit, LRU order {a, b}
  EXPECT_EQ(*cached->ReadBlock("ev/c"), "cccc");  // miss, evicts b
  SharedCacheStats stats = cached->cache()->stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.resident_objects, 2u);
  EXPECT_EQ(stats.resident_bytes, 8u);
  EXPECT_EQ(testutil::CacheCounters(*cached),
            "hits=1 misses=3 coalesced=0 evictions=1 "
            "invalidations=0 hit_bytes=4 base_read_bytes=12");

  EXPECT_EQ(*cached->ReadBlock("ev/b"), "bbbb");  // miss again (was evicted)
  EXPECT_EQ(cached->cache()->stats().misses, 4u);
  EXPECT_EQ(cached->cache()->stats().hits, 1u);

  // An object larger than the whole cache is served but never cached.
  ASSERT_TRUE(
      cached->AtomicWriteBlock("ev/huge", "123456789", false).ok());
  EXPECT_EQ(*cached->ReadBlock("ev/huge"), "123456789");
  EXPECT_EQ(*cached->ReadBlock("ev/huge"), "123456789");
  EXPECT_EQ(cached->cache()->stats().misses, 6u) << "oversized object cached";
  EXPECT_LE(cached->cache()->stats().resident_bytes, 8u);
  EXPECT_EQ(testutil::CacheCounters(*cached),
            "hits=1 misses=6 coalesced=0 evictions=2 "
            "invalidations=0 hit_bytes=4 base_read_bytes=34");
}

// Hit/miss accounting is thread-count invariant: one miss per distinct
// partition, everything else hits (coalesced or cached), regardless of how
// the pool interleaves the scan fan-out. A batch fetches each partition
// once, so the hits come from running the batch a second time.
TEST(SharedCacheBackendTest, HitMissAccountingIsThreadCountInvariant) {
  const uint64_t seed = 19;
  Table t = testutil::MakeEventTable(3000, seed);
  LayoutInstance by_ts = testutil::MakeSortedInstance(t, 0, 12, "by_ts", 3);
  std::vector<Query> queries =
      testutil::MakeRangeWorkload(0, 3000, 400, 24, seed + 1);
  queries.push_back(Query{});  // full scan: touches every partition
  queries.push_back(Query{});

  struct Counts {
    uint64_t hits, misses, hit_bytes, miss_bytes;
  };
  std::vector<Counts> runs;
  for (size_t threads : {size_t{1}, size_t{8}}) {
    auto cached = MakeShardZeroCache(MakeInMemoryBackend());
    std::string dir =
        testutil::ScratchDir("cache_det_" + std::to_string(threads));
    core::PhysicalStore store(dir, threads, cached);
    ASSERT_TRUE(store.MaterializeLayout(t, by_ts).ok());
    auto exec = store.ExecuteQueryBatch(queries);
    ASSERT_TRUE(exec.ok()) << exec.status().ToString();
    SharedCacheStats stats = cached->cache()->stats();
    EXPECT_GT(stats.misses, 0u);
    // One miss per distinct partition: the full scans touch every
    // partition, and the batch never fetches one from the base twice.
    EXPECT_EQ(stats.misses, store.GetSnapshot().files.size());
    EXPECT_EQ(testutil::CacheCounters(*cached),
              "hits=0 misses=12 coalesced=0 evictions=0 "
              "invalidations=0 hit_bytes=0 base_read_bytes=39947");
    exec = store.ExecuteQueryBatch(queries);
    ASSERT_TRUE(exec.ok()) << exec.status().ToString();
    stats = cached->cache()->stats();
    EXPECT_GT(stats.hits, 0u);
    EXPECT_EQ(stats.misses, store.GetSnapshot().files.size());
    EXPECT_EQ(testutil::CacheCounters(*cached),
              "hits=12 misses=12 coalesced=0 evictions=0 "
              "invalidations=0 hit_bytes=39947 base_read_bytes=39947");
    runs.push_back(Counts{stats.hits, stats.misses, stats.hit_bytes,
                          stats.miss_bytes});
  }
  EXPECT_EQ(runs[0].hits, runs[1].hits) << "hit count depends on threads";
  EXPECT_EQ(runs[0].misses, runs[1].misses);
  EXPECT_EQ(runs[0].hit_bytes, runs[1].hit_bytes);
  EXPECT_EQ(runs[0].miss_bytes, runs[1].miss_bytes);
}

// Test double: forwards to a wrapped backend, but reads of `gated_path`
// fetch their bytes and then block until Open() — freezing an in-flight
// fetch at the point where it holds possibly-stale data.
class GatedReadBackend : public StorageBackend {
 public:
  GatedReadBackend(std::shared_ptr<StorageBackend> base,
                   std::string gated_path)
      : base_(std::move(base)), gated_path_(std::move(gated_path)) {}

  std::string name() const override { return "gated(" + base_->name() + ")"; }
  Result<std::string> ReadBlock(const std::string& path) override {
    Result<std::string> result = base_->ReadBlock(path);
    if (path == gated_path_) {
      std::unique_lock<std::mutex> lock(mu_);
      ++blocked_;
      cv_.notify_all();
      cv_.wait(lock, [&] { return open_; });
    }
    return result;
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
  std::shared_ptr<StorageBackend> base_;
  std::string gated_path_;
  std::mutex mu_;
  std::condition_variable cv_;
  int blocked_ = 0;
  bool open_ = false;
};

// A reader that coalesces onto a fetch doomed by a completed write must not
// be served the pre-write bytes (the fetcher itself may keep them: its read
// overlapped the write).
TEST(SharedCacheBackendTest, CoalescedReadAfterWriteNeverSeesStaleBytes) {
  const std::string path = "gate/p.blk";
  auto gated =
      std::make_shared<GatedReadBackend>(MakeInMemoryBackend(), path);
  auto cached = MakeShardZeroCache(gated);
  ASSERT_TRUE(cached->AtomicWriteBlock(path, "v1", false).ok());

  std::string first_read;
  std::thread fetcher([&] {
    auto r = cached->ReadBlock(path);
    ASSERT_TRUE(r.ok());
    first_read = *r;
  });
  gated->WaitUntilBlocked();  // the fetch holds "v1" and is in flight

  // The write completes while the fetch is frozen: it dooms the fetch.
  ASSERT_TRUE(cached->AtomicWriteBlock(path, "v2", false).ok());

  // A reader starting strictly after the write. Give it time to coalesce
  // onto the doomed fetch before the gate opens (if it arrives later it
  // reads fresh anyway — the assertion is valid either way).
  std::string second_read;
  std::thread late_reader([&] {
    auto r = cached->ReadBlock(path);
    ASSERT_TRUE(r.ok());
    second_read = *r;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  gated->Open();
  fetcher.join();
  late_reader.join();

  EXPECT_EQ(first_read, "v1");  // overlapped the write: old bytes are legal
  EXPECT_EQ(second_read, "v2")
      << "a read that began after the write was served stale bytes";
  // And the doomed bytes were never cached.
  auto r = cached->ReadBlock(path);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, "v2");
  EXPECT_EQ(testutil::CacheCounters(*cached),
            "hits=1 misses=2 coalesced=0 evictions=0 "
            "invalidations=0 hit_bytes=2 base_read_bytes=4");
}

// A reorganization swaps every partition; the cache must serve the new
// layout's bytes afterwards (on/off runs agree query by query).
TEST(SharedCacheBackendTest, CacheOnOffIsResultIdenticalAcrossReorganization) {
  const uint64_t seed = 23;
  Table t = testutil::MakeEventTable(2500, seed);
  LayoutInstance by_ts = testutil::MakeSortedInstance(t, 0, 10, "by_ts", 3);
  LayoutInstance by_qty = testutil::MakeSortedInstance(t, 1, 10, "by_qty", 3);
  std::vector<Query> queries =
      testutil::MakeRangeWorkload(1, 1000, 120, 20, seed + 1);
  queries.push_back(Query{});

  struct RunResult {
    std::vector<uint64_t> matches_before, matches_after;
    std::vector<uint32_t> crcs_after;
  };
  auto run = [&](std::shared_ptr<StorageBackend> backend,
                 const std::string& tag) {
    RunResult r;
    core::PhysicalStore store(testutil::ScratchDir(tag), /*num_threads=*/4,
                              std::move(backend));
    EXPECT_TRUE(store.MaterializeLayout(t, by_ts).ok());
    auto before = store.ExecuteQueryBatch(queries);
    EXPECT_TRUE(before.ok());
    for (const auto& exec : before->per_query) {
      r.matches_before.push_back(exec.matches);
    }
    EXPECT_TRUE(store.Reorganize(t, by_qty).ok());
    store.Vacuum();
    auto after = store.ExecuteQueryBatch(queries);
    EXPECT_TRUE(after.ok());
    for (const auto& exec : after->per_query) {
      r.matches_after.push_back(exec.matches);
    }
    r.crcs_after = testutil::PartitionCrcs(store);
    return r;
  };

  RunResult plain = run(MakeInMemoryBackend(), "cache_onoff_plain");
  auto cached = MakeShardZeroCache(MakeInMemoryBackend());
  RunResult with_cache = run(cached, "cache_onoff_cached");

  EXPECT_EQ(plain.matches_before, with_cache.matches_before);
  EXPECT_EQ(plain.matches_after, with_cache.matches_after)
      << "cache served stale partitions across the reorganization";
  EXPECT_EQ(plain.crcs_after, with_cache.crcs_after);
  EXPECT_GT(cached->cache()->stats().hits, 0u);
  EXPECT_GT(cached->cache()->stats().invalidations, 0u)
      << "the reorganization never invalidated a cached partition";
  // Spill runs bypass the cache, so every miss is a partition read and
  // every invalidation a superseded partition.
  EXPECT_EQ(testutil::CacheCounters(*cached),
            "hits=20 misses=20 coalesced=0 evictions=0 "
            "invalidations=10 hit_bytes=66573 base_read_bytes=106965");

  // The ground truth: every query's matches against the raw table.
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(plain.matches_after[i], CountMatches(t, queries[i]))
        << "query " << i;
  }
}

// ----------------------------------------------- failure propagation -----

// Test double: forwards to a wrapped backend but, once `fail_after` writes
// whose path contains `fail_substring` have succeeded, fails the next
// `max_failures` such writes (all of them by default).
class FaultInjectionBackend : public StorageBackend {
 public:
  FaultInjectionBackend(
      std::shared_ptr<StorageBackend> base, std::string fail_substring,
      int64_t fail_after,
      int64_t max_failures = std::numeric_limits<int64_t>::max())
      : base_(std::move(base)),
        fail_substring_(std::move(fail_substring)),
        remaining_(fail_after),
        failures_left_(max_failures) {}

  std::string name() const override { return "fault(" + base_->name() + ")"; }
  Result<std::string> ReadBlock(const std::string& path) override {
    return base_->ReadBlock(path);
  }
  Status AtomicWriteBlock(const std::string& path, const std::string& data,
                          bool sync) override {
    if (path.find(fail_substring_) != std::string::npos &&
        remaining_.fetch_sub(1) <= 0 && failures_left_.fetch_sub(1) > 0) {
      return Status::IoError("injected write failure: " + path);
    }
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
  std::string fail_substring_;
  std::atomic<int64_t> remaining_;
  std::atomic<int64_t> failures_left_;
};

TEST(PhysicalStoreFaultTest, FailedMaterializationLeavesNoTornFiles) {
  Table t = testutil::MakeEventTable(2000, 41);
  LayoutInstance by_ts = testutil::MakeSortedInstance(t, 0, 8, "by_ts", 3);
  auto base = MakeInMemoryBackend();
  // Fail the 4th partition write: earlier siblings succeed and must be
  // cleaned up.
  auto faulty = std::make_shared<FaultInjectionBackend>(base, "part_", 3);
  std::string dir = testutil::ScratchDir("fault_mat");
  core::PhysicalStore store(dir, /*num_threads=*/4, faulty);

  auto mat = store.MaterializeLayout(t, by_ts);
  ASSERT_FALSE(mat.ok());
  EXPECT_EQ(mat.status().code(), StatusCode::kIoError);
  auto leftover = base->List(dir);
  ASSERT_TRUE(leftover.ok());
  EXPECT_TRUE(leftover->empty())
      << leftover->size() << " torn partition files left behind, first: "
      << leftover->front();
}

TEST(PhysicalStoreFaultTest, FailedReorganizationKeepsServingOldLayout) {
  const uint64_t seed = 43;
  Table t = testutil::MakeEventTable(2000, seed);
  LayoutInstance by_ts = testutil::MakeSortedInstance(t, 0, 8, "by_ts", 3);
  LayoutInstance by_qty = testutil::MakeSortedInstance(t, 1, 8, "by_qty", 3);
  std::vector<Query> queries =
      testutil::MakeRangeWorkload(1, 1000, 100, 10, seed + 1);

  struct Phase {
    const char* tag;
    const char* substring;  // which write class the fault hits
    int64_t fail_after;
  };
  for (const Phase phase : {Phase{"shuffle", "spill_", 2},
                            Phase{"merge", "part_e2", 1}}) {
    auto base = MakeInMemoryBackend();
    auto faulty = std::make_shared<FaultInjectionBackend>(
        base, phase.substring, phase.fail_after);
    std::string dir =
        testutil::ScratchDir(std::string("faultreorg_") + phase.tag);
    core::PhysicalStore store(dir, /*num_threads=*/4, faulty);
    ASSERT_TRUE(store.MaterializeLayout(t, by_ts).ok());
    std::vector<std::string> old_files = store.GetSnapshot().files;

    auto reorg = store.Reorganize(t, by_qty);
    ASSERT_FALSE(reorg.ok()) << "fault " << phase.substring << " never fired";
    EXPECT_EQ(reorg.status().code(), StatusCode::kIoError);

    // No torn output: the directory holds exactly the old layout's files.
    auto listed = base->List(dir);
    ASSERT_TRUE(listed.ok());
    std::vector<std::string> expected = old_files;
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(*listed, expected)
        << "orphaned spill or partition objects after a failed "
        << phase.substring << " write";

    // The store still serves the old layout, correctly.
    for (const Query& q : queries) {
      auto exec = store.ExecuteQuery(q);
      ASSERT_TRUE(exec.ok()) << exec.status().ToString();
      EXPECT_EQ(exec->matches, CountMatches(t, q));
    }
  }
}

// AttachPhysical is all or nothing: when one shard's materialization fails,
// the shards that had already attached drop their stores too, so the engine
// is cleanly logical-only and a retry attaches every shard afresh.
TEST(PhysicalStoreFaultTest, FailedShardedAttachIsAllOrNothing) {
  const uint64_t seed = 27;
  Table t = testutil::MakeEventTable(3000, seed);
  QdTreeGenerator gen;
  QueryBatch batch = MakeBatches(
      testutil::MakeRangeWorkload(0, 3000, 150, 64, seed + 1), 64).front();

  core::OreoOptions opts;
  opts.seed = seed;
  opts.num_threads = 2;
  opts.num_shards = 3;
  opts.shard_routing = ShardRouting::kRange;
  opts.target_partitions = 8;
  opts.dataset_sample_rows = 400;
  auto run_batch = [&](core::ShardedOreo& engine) {
    std::vector<uint64_t> matches;
    engine.RunBatch(batch);
    auto exec = engine.ExecuteBatchPhysical(batch.queries);
    EXPECT_TRUE(exec.ok()) << exec.status().ToString();
    if (!exec.ok()) return matches;
    for (const auto& per_query : exec->per_query) {
      matches.push_back(per_query.matches);
    }
    return matches;
  };

  opts.storage_backend = MakeInMemoryBackend();
  core::ShardedOreo reference(&t, &gen, /*time_column=*/0, opts);
  ASSERT_TRUE(
      reference.AttachPhysical(testutil::ScratchDir("attach_retry_ref")).ok());
  std::vector<uint64_t> expected = run_batch(reference);

  // Fails the first write under shard_001, and only that one.
  opts.storage_backend = std::make_shared<FaultInjectionBackend>(
      MakeInMemoryBackend(), "shard_001", /*fail_after=*/0,
      /*max_failures=*/1);
  core::ShardedOreo engine(&t, &gen, /*time_column=*/0, opts);
  std::string dir = testutil::ScratchDir("attach_retry");
  Status first = engine.AttachPhysical(dir);
  EXPECT_EQ(first.code(), StatusCode::kIoError) << first.ToString();
  EXPECT_FALSE(engine.has_physical());
  for (size_t s = 0; s < engine.num_shards(); ++s) {
    EXPECT_EQ(engine.store(s), nullptr) << "shard " << s << " kept a store";
    EXPECT_FALSE(engine.engine(s).has_physical()) << "shard " << s;
  }

  Status retry = engine.AttachPhysical(dir);
  ASSERT_TRUE(retry.ok()) << retry.ToString();
  EXPECT_TRUE(engine.has_physical());
  std::vector<uint64_t> matches = run_batch(engine);
  EXPECT_EQ(matches, expected);
  ASSERT_EQ(matches.size(), batch.queries.size());
  for (size_t i = 0; i < matches.size(); ++i) {
    EXPECT_EQ(matches[i], CountMatches(t, batch.queries[i])) << "query " << i;
  }
}

}  // namespace
}  // namespace oreo
