// Micro-benchmark for the thread-pool-parallel physical engine: scan and
// reorganization throughput at 1/2/4/8 store threads (or --threads=CSV).
// Scans fan out over the store pool; a reorganization runs serially on the
// calling thread, so its column is the flat reference beside them.
// Emits a JSON document so the perf trajectory of the scaling dial can be
// recorded run over run; correctness is cross-checked against the serial
// baseline while measuring (the determinism contract says every counter
// must match bit-for-bit).
//
// Flags: --rows=N --partitions=K --scan_reps=N --threads=1,2,4,8
//        --seed=N --out=path.json (default: BENCH_micro_parallel_scan.json
//        in the working directory; run from the repo root to land it next
//        to the other BENCH_*.json files; --out= empty disables the file)
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/physical.h"
#include "layout/sorted_layout.h"

namespace oreo {
namespace bench {
namespace {

namespace fs = std::filesystem;

Table MakeScanTable(size_t rows, uint64_t seed) {
  Table t(Schema({{"ts", DataType::kInt64},
                  {"qty", DataType::kInt64},
                  {"val", DataType::kDouble},
                  {"cat", DataType::kString}}));
  Rng rng(seed);
  const char* cats[] = {"a", "b", "c", "d", "e", "f", "g", "h"};
  for (size_t i = 0; i < rows; ++i) {
    t.AppendRow({Value(static_cast<int64_t>(i)),
                 Value(rng.UniformInt(0, 100000)),
                 Value(rng.UniformDouble(0, 1000)),
                 Value(cats[rng.Uniform(8)])});
  }
  return t;
}

LayoutInstance SortedInstance(const Table& t, int column, uint32_t k,
                              const std::string& name) {
  Rng rng(3);
  Table sample = t.SampleRows(1000, &rng);
  SortLayoutGenerator gen(column);
  return Materialize(
      name, std::shared_ptr<const Layout>(gen.Generate(sample, {}, k)), t);
}

struct RunResult {
  size_t threads = 0;
  double materialize_s = 0.0;
  double scan_s = 0.0;
  double reorg_s = 0.0;
  uint64_t bytes = 0;
  uint64_t matches = 0;  // correctness fingerprint, thread-count invariant
};

RunResult RunOnce(const Table& t, const LayoutInstance& by_ts,
                  const LayoutInstance& by_qty, size_t threads,
                  size_t scan_reps, const std::string& dir) {
  fs::remove_all(dir);
  RunResult r;
  r.threads = threads;
  core::PhysicalStore store(dir, threads);

  auto mat = store.MaterializeLayout(t, by_ts);
  OREO_CHECK(mat.ok()) << mat.status().ToString();
  r.materialize_s = mat->seconds;
  r.bytes = mat->bytes;

  // Full scans dominate the read path; every partition survives pruning, so
  // this measures raw parallel decompress + scan bandwidth.
  Query full;
  for (size_t rep = 0; rep < scan_reps; ++rep) {
    auto exec = store.ExecuteQuery(full);
    OREO_CHECK(exec.ok()) << exec.status().ToString();
    r.scan_s += exec->seconds;
    r.matches += exec->matches;
  }

  auto reorg = store.Reorganize(t, by_qty);
  OREO_CHECK(reorg.ok()) << reorg.status().ToString();
  store.Vacuum();
  r.reorg_s = reorg->seconds;
  return r;
}

}  // namespace

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  const size_t rows = static_cast<size_t>(flags.GetInt("rows", 100000));
  const uint32_t k = static_cast<uint32_t>(flags.GetInt("partitions", 32));
  const size_t scan_reps = static_cast<size_t>(flags.GetInt("scan_reps", 5));
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 7));
  const std::string dir =
      flags.GetString("dir", DefaultScratchDir("micro_parallel_scan"));

  std::vector<size_t> thread_counts;
  {
    const std::string spec = flags.GetString("threads", "1,2,4,8");
    std::stringstream ss(spec);
    std::string item;
    while (std::getline(ss, item, ',')) {
      OREO_CHECK(!item.empty() &&
                 item.find_first_not_of("0123456789") == std::string::npos)
          << "--threads must be a comma-separated list of integers, got '"
          << spec << "'";
      // 0 means hardware concurrency everywhere else; resolve it here so
      // the JSON records the worker count that actually ran.
      thread_counts.push_back(ThreadPool::ResolveThreads(std::stoul(item)));
    }
    OREO_CHECK(!thread_counts.empty()) << "--threads list is empty";
  }

  Table t = MakeScanTable(rows, seed);
  LayoutInstance by_ts = SortedInstance(t, 0, k, "by_ts");
  LayoutInstance by_qty = SortedInstance(t, 1, k, "by_qty");

  std::fprintf(stderr,
               "micro_parallel_scan: rows=%zu partitions=%u scan_reps=%zu "
               "(hardware threads: %u)\n",
               rows, k, scan_reps, std::thread::hardware_concurrency());

  std::vector<RunResult> results;
  for (size_t threads : thread_counts) {
    results.push_back(RunOnce(t, by_ts, by_qty, threads, scan_reps, dir));
    const RunResult& r = results.back();
    OREO_CHECK_EQ(r.matches, results.front().matches)
        << "determinism contract violated at " << threads << " threads";
    std::fprintf(stderr,
                 "  threads=%zu materialize=%.3fs scan=%.3fs reorg=%.3fs\n",
                 r.threads, r.materialize_s, r.scan_s, r.reorg_s);
  }
  fs::remove_all(dir);

  // JSON emission (stable key order; one result object per thread count).
  std::ostringstream json;
  const RunResult& base = results.front();
  json << "{\n  \"benchmark\": \"micro_parallel_scan\",\n"
       << "  \"rows\": " << rows << ",\n  \"partitions\": " << k << ",\n"
       << "  \"scan_reps\": " << scan_reps << ",\n"
       << "  \"materialized_bytes\": " << base.bytes << ",\n"
       << "  \"results\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const RunResult& r = results[i];
    const double mb = static_cast<double>(r.bytes) / 1e6;
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "    {\"threads\": %zu, \"materialize_s\": %.6f, \"scan_s\": %.6f, "
        "\"scan_mb_per_s\": %.2f, \"reorg_s\": %.6f, \"scan_speedup\": %.3f, "
        "\"reorg_speedup\": %.3f}%s\n",
        r.threads, r.materialize_s, r.scan_s,
        r.scan_s > 0 ? mb * static_cast<double>(scan_reps) / r.scan_s : 0.0,
        r.reorg_s, r.scan_s > 0 ? base.scan_s / r.scan_s : 0.0,
        r.reorg_s > 0 ? base.reorg_s / r.reorg_s : 0.0,
        i + 1 < results.size() ? "," : "");
    json << buf;
  }
  json << "  ]\n}\n";

  EmitBenchJson(flags, "micro_parallel_scan", json.str());
  return 0;
}

}  // namespace bench
}  // namespace oreo

int main(int argc, char** argv) { return oreo::bench::Main(argc, argv); }
