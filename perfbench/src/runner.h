// The workload runners. A runner owns one workload's seeded configuration;
// each Run() is one repetition: for each of its inputs, set up from
// scratch (timed as setup_s), drive the stream (timed as stream_s), then
// check every answer against the reference outside the timed region.
#ifndef PERFBENCH_RUNNER_H_
#define PERFBENCH_RUNNER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "trace.h"

namespace perfbench {

/// What the command line selected.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// One repetition's measurements.
struct RepResult {
  /// Set-up time of each engine or server the repetition built (one per
  /// input it drives).
  std::vector<double> setup_s;
  /// Stream time, summed over the repetition's inputs.
  double stream_s = 0.0;
  /// Latency of each unit of work the benchmark submitted: an engine batch on
  /// the library workloads, a client's two-request burst when served.
  std::vector<double> batch_ms;
  /// Latency of each request, one sample per distinct measurement: a query
  /// batch's submission to its answers on the library workloads (every
  /// query of a batch is answered together), the client round trip of each
  /// request when served.
  std::vector<double> request_us;
  /// Latency of each Ingest call (telemetry-ingest only).
  std::vector<double> ingest_ms;
  /// Mean over the repetition's inputs; switches are summed.
  double total_cost = 0.0;
  int64_t switches = 0;
  double bytes_per_row = 0.0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Per-query match counts in stream order (the transparency check
  /// compares them between traced and untraced repetitions).
  std::vector<uint64_t> matches;
  /// Correctness verdict; `mismatch` names the first disagreement.
  bool correct = true;
  std::string mismatch;
  /// Per-layer totals (traced repetitions only).
  LayerTotals layers;
};

/// Static facts about the run, printed beside the result.
using Meta = std::map<std::string, std::string>;

class WorkloadRunner {
 public:
  virtual ~WorkloadRunner() = default;
  /// One repetition; with `setup_only` it stops after timing the set-up
  /// (extra set-up samples for the setup_s median).
  virtual RepResult Run(bool traced, bool setup_only) = 0;
  virtual Meta meta() const = 0;
  /// True when total_cost and switches must repeat exactly across
  /// repetitions (the library workloads; served batching is timing-driven).
  virtual bool deterministic_cost() const = 0;
};

std::unique_ptr<WorkloadRunner> MakeTpchDrift(const RunOptions& options);
std::unique_ptr<WorkloadRunner> MakeTelemetryIngest(const RunOptions& options);
std::unique_ptr<WorkloadRunner> MakeServedRemote(const RunOptions& options);

/// Records a failed check in `r` (the first one wins the message).
void Mismatch(RepResult* r, const std::string& what);

/// A per-layer metric: name and unit.
struct LayerMetric {
  std::string name;
  std::string unit;
};

/// Every per-layer metric, in report order. Workloads report 0 for layers
/// they do not exercise.
const std::vector<LayerMetric>& PerLayerMetrics();

}  // namespace perfbench

#endif  // PERFBENCH_RUNNER_H_
