// The remote-tier equivalence wall. The engine's determinism contract —
// bit-identical costs, switch decisions, per-query decisions, live-loop scan
// counters and partition CRCs for a fixed seed — must survive the storage
// moving to a slow, failure-prone remote tier, with and without the
// cross-shard SharedBlockCache (async prefetch on) in front of it:
//
//   remote(inmem) × {shared cache off, on} × {faults off, on}
//                 × threads {1, 8} × shards {1, 4}
//
// all equal the plain in-memory baseline, which is pinned to the same golden
// values as tests/backend_equivalence_test.cc. Injected transient faults are
// absorbed by the retry policy without touching any observable output, and
// the fault/retry accounting itself is run-invariant (the schedule is a
// pure function of the seed, not of thread timing).
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
#include "storage/remote_backend.h"
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

struct RemoteConfig {
  bool remote = false;        // wrap the in-memory base in RemoteBackend
  bool faults = false;        // inject seeded transient faults
  bool shared_cache = false;  // cross-shard cache + async prefetch
};

std::shared_ptr<RemoteBackend> MakeFaultyRemote(bool faults) {
  RemoteBackendOptions ro;
  ro.sleep_for_real = false;  // deterministic accounting, fast wall
  if (faults) {
    ro.fault_rate = 0.25;
    ro.max_faults_per_key = 2;
    ro.max_retries = 5;
    ro.fault_seed = kSeed;
  }
  return MakeRemoteBackend(MakeInMemoryBackend(), ro);
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

// Runs the stream through one combo's live loop. Nothing it returns may
// depend on the storage tier, the cache, injected faults, or the pool size.
testutil::LiveLoopRun RunCombo(const Table& t, const LayoutGenerator& gen,
                               const std::vector<Query>& stream,
                               const RemoteConfig& cfg, size_t threads,
                               size_t shards, const std::string& tag,
                               RemoteBackendStats* out_remote_stats =
                                   nullptr) {
  std::shared_ptr<RemoteBackend> remote;
  std::shared_ptr<StorageBackend> backend;
  if (cfg.remote) {
    remote = MakeFaultyRemote(cfg.faults);
    backend = remote;
  } else {
    backend = MakeInMemoryBackend();
  }
  OreoOptions opts = BaseOpts(threads, shards, backend);
  if (cfg.shared_cache) {
    SharedBlockCacheOptions cache_opts;
    cache_opts.prefetch_threads = 2;
    opts.shared_cache = MakeSharedBlockCache(cache_opts);
  }
  std::unique_ptr<OreoEngine> engine =
      MakeEngine(&t, &gen, /*time_column=*/0, opts);
  EXPECT_EQ(engine->num_shards(), shards);
  const std::string dir = testutil::ScratchDir("remote_eq_" + tag);
  EXPECT_TRUE(engine->AttachPhysical(dir, threads).ok());
  // CRCs are read back through the remote tier itself: retries must also
  // absorb faults on this verification path.
  testutil::LiveLoopRun fp =
      testutil::RunLiveLoop(engine.get(), stream, kBatchSize);
  if (out_remote_stats != nullptr && remote != nullptr) {
    *out_remote_stats = remote->remote_stats();
  }
  if (cfg.shared_cache) {
    // The tier was actually exercised, not bypassed.
    EXPECT_GT(opts.shared_cache->stats().hits, 0u)
        << "shared cache saw no traffic: " << tag;
  }
  return fp;
}

TEST(RemoteEquivalenceTest, RemoteTierIsBitIdenticalToLocalUnderFaults) {
  QdTreeGenerator gen;
  Table t = testutil::MakeEventTable(kRows, kSeed);
  std::vector<Query> stream = TwoPhaseStream();

  for (size_t shards : {size_t{1}, size_t{4}}) {
    testutil::LiveLoopRun baseline =
        RunCombo(t, gen, stream, RemoteConfig{}, /*threads=*/1, shards,
                 "base_s" + std::to_string(shards));
    EXPECT_EQ(baseline.Summary(), GoldenSummary(shards));

    for (bool shared_cache : {false, true}) {
      for (bool faults : {false, true}) {
        for (size_t threads : {size_t{1}, size_t{8}}) {
          RemoteConfig cfg;
          cfg.remote = true;
          cfg.faults = faults;
          cfg.shared_cache = shared_cache;
          const std::string tag =
              std::string("remote_c") + (shared_cache ? "1" : "0") + "_f" +
              (faults ? "1" : "0") + "_t" + std::to_string(threads) + "_s" +
              std::to_string(shards);
          RemoteBackendStats remote_stats;
          testutil::LiveLoopRun combo = RunCombo(
              t, gen, stream, cfg, threads, shards, tag, &remote_stats);
          EXPECT_TRUE(combo == baseline)
              << "fingerprint diverged from the local baseline: " << tag;
          if (faults) {
            EXPECT_GT(remote_stats.injected_faults, 0u)
                << "fault injection never fired: " << tag;
            EXPECT_EQ(remote_stats.exhausted, 0u)
                << "a transient fault leaked through the retries: " << tag;
          } else {
            EXPECT_EQ(remote_stats.injected_faults, 0u);
          }
        }
      }
    }
  }
}

// The fault/retry accounting itself is deterministic on the drained live
// loop: same seed, same config => the same number of injected faults,
// retries and backoff microseconds, run after run.
TEST(RemoteEquivalenceTest, FaultAccountingIsRunInvariant) {
  QdTreeGenerator gen;
  Table t = testutil::MakeEventTable(kRows, kSeed);
  std::vector<Query> stream = TwoPhaseStream();

  RemoteConfig cfg;
  cfg.remote = true;
  cfg.faults = true;
  // Same tag on purpose: the fault schedule is keyed on (seed, op, path)
  // and the store paths embed the directory, so run invariance is defined
  // over identical directories (fresh backends each run).
  RemoteBackendStats first, second;
  testutil::LiveLoopRun fp_a = RunCombo(t, gen, stream, cfg, /*threads=*/1,
                                        /*shards=*/1, "acct", &first);
  testutil::LiveLoopRun fp_b = RunCombo(t, gen, stream, cfg, /*threads=*/1,
                                        /*shards=*/1, "acct", &second);
  EXPECT_TRUE(fp_a == fp_b);
  EXPECT_GT(first.injected_faults, 0u);
  EXPECT_EQ(first.ops, second.ops);
  EXPECT_EQ(first.attempts, second.attempts);
  EXPECT_EQ(first.injected_faults, second.injected_faults);
  EXPECT_EQ(first.retries, second.retries);
  EXPECT_EQ(first.exhausted, second.exhausted);
  EXPECT_EQ(first.backoff_sleep_us, second.backoff_sleep_us);
}

// Live streaming on the full remote stack (remote tier + shared cache +
// async prefetch + injected faults): matches are ground truth at all times
// and the logical accounting equals the local baseline's.
TEST(RemoteEquivalenceTest, StreamingOnRemoteStackMatchesGroundTruth) {
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
  StreamingFingerprint baseline;
  bool have_baseline = false;
  for (bool remote_stack : {false, true}) {
    OreoOptions opts = BaseOpts(/*num_threads=*/8, /*num_shards=*/4,
                                remote_stack
                                    ? MakeFaultyRemote(/*faults=*/true)
                                    : MakeInMemoryBackend());
    if (remote_stack) {
      SharedBlockCacheOptions cache_opts;
      cache_opts.prefetch_threads = 2;
      opts.shared_cache = MakeSharedBlockCache(cache_opts);
    }
    std::unique_ptr<OreoEngine> engine =
        MakeEngine(&t, &gen, /*time_column=*/0, opts);
    std::string dir = testutil::ScratchDir(
        remote_stack ? "remote_eq_stream_remote" : "remote_eq_stream_local");
    ASSERT_TRUE(engine->AttachPhysical(dir, /*store_threads=*/2).ok());

    size_t qi = 0;
    for (const QueryBatch& b : MakeBatches(stream, /*batch_size=*/32)) {
      engine->RunBatch(b);
      auto exec = engine->ExecuteBatchPhysical(b.queries);
      ASSERT_TRUE(exec.ok()) << exec.status().ToString();
      for (const auto& per_query : exec->per_query) {
        ASSERT_EQ(per_query.matches, expected[qi])
            << "remote_stack=" << remote_stack << " query " << qi;
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
      EXPECT_EQ(fp.query_cost, baseline.query_cost);
      EXPECT_EQ(fp.reorg_cost, baseline.reorg_cost);
      EXPECT_EQ(fp.num_switches, baseline.num_switches);
      EXPECT_GT(opts.shared_cache->stats().hits, 0u)
          << "the shared cache never served the streaming scans";
    }
  }
}

}  // namespace
}  // namespace core
}  // namespace oreo
