// Shared infrastructure for the paper-reproduction benchmark harnesses:
// flag parsing, experiment fixtures (dataset + template-switching workload),
// and the strategy factory of every method of comparison (paper SVI-A3 /
// SVI-C), which the engine runs through its one decision loop.
//
// Default scales are laptop-sized. --full raises the table to 200k rows
// with the paper's query counts; the paper's tables hold 26-40M rows.
#ifndef OREO_BENCH_COMMON_H_
#define OREO_BENCH_COMMON_H_

#include <map>
#include <string>
#include <vector>

#include "core/oreo.h"
#include "core/strategy.h"
#include "layout/layout.h"
#include "workloads/dataset.h"
#include "workloads/workload_gen.h"

namespace oreo {
namespace bench {

/// Minimal --key=value / --flag command-line parser.
class Flags {
 public:
  Flags(int argc, char** argv);

  bool Has(const std::string& name) const;
  int64_t GetInt(const std::string& name, int64_t def) const;
  double GetDouble(const std::string& name, double def) const;
  std::string GetString(const std::string& name, const std::string& def) const;

 private:
  std::map<std::string, std::string> values_;
};

/// Experiment scale knobs shared by the figure/table harnesses.
/// Defaults follow the paper's workload shape (SVI-A2): 30k queries
/// (24k for telemetry) over 21 template segments; the table itself is
/// laptop-scale (the paper uses 26-40M rows — pass --rows to go bigger,
/// --quick for a fast smoke run).
struct Scale {
  size_t rows = 50000;
  size_t queries = 30000;
  size_t segments = 21;  ///< paper: Offline Optimal makes 20 changes
  uint64_t seed = 11;
  size_t segment_pool = 0;  ///< recurring-parameter pool per segment (0=off)

  static Scale FromFlags(const Flags& flags);
};

/// A dataset plus a drawn workload.
struct Fixture {
  workloads::WorkloadDataset ds;
  workloads::Workload wl;
};

Fixture MakeFixture(const std::string& dataset, const Scale& scale);

/// Framework parameters (paper defaults: alpha=80, eps=0.08, gamma=1, W=200).
core::OreoOptions DefaultOreoOptions(const Scale& scale);

/// The strategy of one method of comparison, for OreoOptions::strategy:
/// "oreo" (null, the engine default), "static", "greedy", "regret",
/// "mts_optimal" or "offline_optimal". Static sees the whole workload;
/// MTS-Optimal and Offline-Optimal run over one precomputed layout per
/// query template (SVI-C). Their factories build those layouts from the
/// shard's table. `f` and `gen` must outlive every engine built with it.
core::StrategyFactory MethodStrategy(const std::string& method,
                                     const Fixture& f,
                                     const LayoutGenerator& gen,
                                     const core::OreoOptions& opts);

/// Runs `method` logically (Oreo::Run) over the fixture's workload.
core::SimResult RunMethod(const std::string& method, const Fixture& f,
                          const LayoutGenerator& gen,
                          const core::OreoOptions& opts,
                          bool record_trace = false);

/// Pretty-prints a one-line summary row.
void PrintRow(const std::string& label, const core::SimResult& r);

/// Default working directory for a harness's physical output:
/// <system temp>/oreo_<name>. Composes the path only; callers decide
/// whether to wipe it.
std::string DefaultScratchDir(const std::string& name);

/// Prints `json` to stdout and writes it to `--out` (default
/// `BENCH_<name>.json` in the working directory — run from the repo root to
/// collect the perf-trajectory files together; `--out=` empty suppresses
/// the file). Shared by the micro-benchmarks so the CI artifact contract
/// lives in one place.
void EmitBenchJson(const Flags& flags, const std::string& name,
                   const std::string& json);

}  // namespace bench
}  // namespace oreo

#endif  // OREO_BENCH_COMMON_H_
