// The repository benchmark. One workload per invocation:
//
//   perfbench --workload <tpch-drift|telemetry-ingest|served-remote>
//             --seed <n> --seconds <s> --trace <0|1>
//
// It repeats the workload (fresh set-up each time) until set-up and stream
// time add up to `--seconds`, sets up at least nine times in all (setup_s
// is their median), reports each latency percentile as the median over
// repetitions (every repetition must have ten distinct samples beyond it),
// checks every answer, and prints each metric with its unit. The last
// stdout line is the JSON result:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics; --trace 1 alternates untraced
// and traced repetitions and reports the per-layer metrics, the tracing
// overhead, and fails unless the traced repetitions reproduce the untraced
// answers exactly. Exits non-zero on any mismatch.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench_math.h"
#include "common/simd.h"
#include "runner.h"

namespace perfbench {
namespace {

constexpr size_t kMinSetups = 9;
constexpr double kRunCapSeconds = 150.0;  // stop starting repetitions here

struct Metric {
  double value;
  std::string unit;
};

int Usage(const char* msg) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1>\n",
               msg);
  return 2;
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::vector<double> Pool(const std::vector<RepResult>& reps,
                         std::vector<double> RepResult::*field) {
  std::vector<double> out;
  for (const RepResult& r : reps) {
    out.insert(out.end(), (r.*field).begin(), (r.*field).end());
  }
  return out;
}

std::vector<double> Each(const std::vector<RepResult>& reps,
                         double RepResult::*field) {
  std::vector<double> out;
  for (const RepResult& r : reps) out.push_back(r.*field);
  return out;
}

// Every repetition supports the percentiles reported from it. Each sample is
// a distinct measurement (one per batch, burst or request), so the rule
// counts real observations.
bool EnoughSamples(const std::vector<RepResult>& reps) {
  for (const RepResult& r : reps) {
    if (!PercentileSupported(r.batch_ms.size(), 900) ||
        !PercentileSupported(r.request_us.size(), 900)) {
      return false;
    }
  }
  return !reps.empty();
}

// The median over repetitions of each repetition's percentile: a hiccup
// that slows one repetition does not move the result.
double MedianPercentile(const std::vector<RepResult>& reps,
                        std::vector<double> RepResult::*field,
                        uint32_t permille) {
  std::vector<double> per_rep;
  for (const RepResult& r : reps) {
    per_rep.push_back(Percentile(r.*field, permille));
  }
  return Median(per_rep);
}

std::map<std::string, Metric> EndToEnd(const std::vector<RepResult>& reps,
                                       const std::vector<double>& setups) {
  const auto batch = &RepResult::batch_ms;
  const auto request = &RepResult::request_us;
  return {
      {"stream_s", {Median(Each(reps, &RepResult::stream_s)), "s"}},
      {"batch_p50_ms", {MedianPercentile(reps, batch, 500), "ms"}},
      {"batch_p90_ms", {MedianPercentile(reps, batch, 900), "ms"}},
      {"request_p50_us", {MedianPercentile(reps, request, 500), "us"}},
      {"request_p90_us", {MedianPercentile(reps, request, 900), "us"}},
      {"total_cost", {Median(Each(reps, &RepResult::total_cost)), "cost"}},
      {"setup_s", {Median(setups), "s"}},
      {"peak_rss_mb", {PeakRssMb(), "MB"}},
      {"bytes_per_row", {Median(Each(reps, &RepResult::bytes_per_row)),
                         "B/row"}},
  };
}

std::map<std::string, Metric> PerLayer(const std::vector<RepResult>& plain,
                                       const std::vector<RepResult>& traced) {
  std::map<std::string, Metric> out;
  for (const LayerMetric& m : PerLayerMetrics()) {
    std::vector<double> values;
    for (const RepResult& r : traced) {
      auto it = r.layers.find(m.name);
      values.push_back(it == r.layers.end() ? 0.0 : it->second);
    }
    out[m.name] = {Median(values), m.unit};
  }
  std::vector<RepResult> all = plain;
  all.insert(all.end(), traced.begin(), traced.end());
  const std::vector<double> ingest = Pool(all, &RepResult::ingest_ms);
  out["ingest.p90_ms"].value = Percentile(ingest, 900);
  const double untraced = Median(Each(plain, &RepResult::stream_s));
  const double with_trace = Median(Each(traced, &RepResult::stream_s));
  out["trace.stream_s_untraced"].value = untraced;
  out["trace.stream_s_traced"].value = with_trace;
  out["trace.overhead_frac"].value =
      untraced > 0 ? with_trace / untraced - 1.0 : 0.0;
  return out;
}

// The traced repetition must reproduce the untraced one's answers.
void CheckTransparent(const RepResult& plain, RepResult* traced,
                      bool deterministic_cost) {
  if (traced->matches != plain.matches) {
    Mismatch(traced, "traced run changed the match counts");
  }
  if (deterministic_cost && (traced->total_cost != plain.total_cost ||
                             traced->switches != plain.switches)) {
    Mismatch(traced, "traced run changed total_cost or switches");
  }
}

int Main(int argc, char** argv) {
  RunOptions options;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) return Usage("bad --seed");
      have_seed = true;
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(options.seconds > 0)) return Usage("bad --seconds");
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace must be 0 or 1");
      options.trace = value == "1";
      have_trace = true;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return Usage("--workload, --seed, --seconds and --trace are required");
  }

  std::unique_ptr<WorkloadRunner> runner;
  if (options.workload == "tpch-drift") runner = MakeTpchDrift(options);
  if (options.workload == "telemetry-ingest") {
    runner = MakeTelemetryIngest(options);
  }
  if (options.workload == "served-remote") runner = MakeServedRemote(options);
  if (runner == nullptr) return Usage("unknown workload");

  // Repetitions: untraced only, or untraced and traced alternating, then
  // set-up-only repetitions until setup_s has kMinSetups samples.
  // `measured` counts set-up and stream time only, so the one-time
  // reference computation does not change how many repetitions run.
  const double start = Now();
  double measured = 0.0;
  std::vector<RepResult> plain, traced;
  std::vector<double> setups;
  double longest = 0.0;
  while (true) {
    const double elapsed = Now() - start;
    const bool done = measured >= options.seconds && !plain.empty() &&
                      (!options.trace || !traced.empty());
    if (done || (elapsed + longest > kRunCapSeconds && !plain.empty())) break;
    const bool trace_next = options.trace && traced.size() < plain.size();
    const double rep_start = Now();
    RepResult r = runner->Run(trace_next, /*setup_only=*/false);
    longest = std::max(longest, Now() - rep_start);
    double setup_s = 0.0;
    for (double s : r.setup_s) setup_s += s;
    measured += setup_s + r.stream_s;
    std::fprintf(stderr,
                 "rep %zu%s: setup %.3f s, stream %.3f s, %zu batches, "
                 "cost %.6f, switches %lld%s\n",
                 plain.size() + traced.size(), trace_next ? " (traced)" : "",
                 setup_s, r.stream_s, r.batch_ms.size(), r.total_cost,
                 static_cast<long long>(r.switches),
                 r.correct ? "" : " MISMATCH");
    setups.insert(setups.end(), r.setup_s.begin(), r.setup_s.end());
    if (trace_next) {
      CheckTransparent(plain.front(), &r, runner->deterministic_cost());
      traced.push_back(std::move(r));
    } else {
      if (!plain.empty() && runner->deterministic_cost() &&
          (r.total_cost != plain.front().total_cost ||
           r.switches != plain.front().switches)) {
        Mismatch(&r, "total_cost or switches differ between repetitions");
      }
      plain.push_back(std::move(r));
    }
  }
  std::vector<RepResult> setup_only;  // kept for their failure accounting
  while (setups.size() < kMinSetups) {
    setup_only.push_back(runner->Run(/*traced=*/false, /*setup_only=*/true));
    setups.insert(setups.end(), setup_only.back().setup_s.begin(),
                  setup_only.back().setup_s.end());
  }

  bool correct = true;
  uint64_t attempted = 0, failed = 0;
  for (const auto* reps : {&plain, &traced, &setup_only}) {
    for (const RepResult& r : *reps) {
      attempted += r.attempted;
      failed += r.failed;
      if (!r.correct) {
        if (correct) std::fprintf(stderr, "MISMATCH: %s\n", r.mismatch.c_str());
        correct = false;
      }
    }
  }
  if (!EnoughSamples(plain)) {
    std::fprintf(stderr, "a repetition has too few latency samples\n");
    correct = false;
  }

  std::map<std::string, Metric> metrics =
      options.trace ? PerLayer(plain, traced) : EndToEnd(plain, setups);

  Meta meta = runner->meta();
  meta["seed"] = std::to_string(options.seed);
  meta["nproc"] = std::to_string(std::thread::hardware_concurrency());
  meta["build"] = PERFBENCH_BUILD_TYPE;
  meta["simd"] = oreo::simd::DispatchDescription();
  meta["reps"] = std::to_string(plain.size()) + " untraced, " +
                 std::to_string(traced.size()) + " traced";
  meta["batch_samples"] =
      std::to_string(Pool(plain, &RepResult::batch_ms).size());
  meta["request_samples"] =
      std::to_string(Pool(plain, &RepResult::request_us).size());
  std::string meta_json = "{\"meta\": {";
  bool first = true;
  for (const auto& [key, value] : meta) {
    meta_json += (first ? "\"" : ", \"") + key + "\": \"" + value + "\"";
    first = false;
  }
  std::printf("%s}}\n", meta_json.c_str());
  for (const auto& [name, m] : metrics) {
    std::printf("%-28s %.6g %s\n", name.c_str(), m.value, m.unit.c_str());
  }

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted) +
          ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  first = true;
  for (const auto& [name, m] : metrics) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    json += (first ? "\"" : ", \"") + name + "\": {\"value\": " + value +
            ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  std::printf("%s}}\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
