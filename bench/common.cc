#include "common.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "common/logging.h"

namespace oreo {
namespace bench {

Flags::Flags(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) continue;
    arg = arg.substr(2);
    size_t eq = arg.find('=');
    if (eq == std::string::npos) {
      values_[arg] = "1";
    } else {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    }
  }
}

bool Flags::Has(const std::string& name) const {
  return values_.count(name) > 0;
}

int64_t Flags::GetInt(const std::string& name, int64_t def) const {
  auto it = values_.find(name);
  return it == values_.end() ? def : std::stoll(it->second);
}

double Flags::GetDouble(const std::string& name, double def) const {
  auto it = values_.find(name);
  return it == values_.end() ? def : std::stod(it->second);
}

std::string Flags::GetString(const std::string& name,
                             const std::string& def) const {
  auto it = values_.find(name);
  return it == values_.end() ? def : it->second;
}

Scale Scale::FromFlags(const Flags& flags) {
  Scale s;
  if (flags.Has("full")) {
    s.rows = 200000;  // queries already default to the paper's 30k
  }
  if (flags.Has("quick")) {
    s.rows = 20000;
    s.queries = 6000;
    s.segments = 10;
  }
  s.rows = static_cast<size_t>(flags.GetInt("rows", static_cast<int64_t>(s.rows)));
  s.queries =
      static_cast<size_t>(flags.GetInt("queries", static_cast<int64_t>(s.queries)));
  s.segments = static_cast<size_t>(
      flags.GetInt("segments", static_cast<int64_t>(s.segments)));
  s.seed = static_cast<uint64_t>(flags.GetInt("seed", static_cast<int64_t>(s.seed)));
  s.segment_pool = static_cast<size_t>(
      flags.GetInt("pool", static_cast<int64_t>(s.segment_pool)));
  return s;
}

Fixture MakeFixture(const std::string& dataset, const Scale& scale) {
  Fixture f{workloads::MakeDataset(dataset, scale.rows, scale.seed), {}};
  workloads::WorkloadOptions wopts;
  // The paper's telemetry workload is 24k queries vs 30k for TPC-H/DS; keep
  // the proportion when running at full scale.
  wopts.num_queries =
      (dataset == "telemetry") ? scale.queries * 4 / 5 : scale.queries;
  wopts.num_segments = scale.segments;
  wopts.segment_pool_size = scale.segment_pool;
  wopts.seed = scale.seed + 1;
  f.wl = workloads::GenerateWorkload(f.ds.templates, wopts);
  return f;
}

core::OreoOptions DefaultOreoOptions(const Scale& scale) {
  core::OreoOptions o;
  o.alpha = 80.0;
  o.epsilon = 0.08;
  o.gamma = 1.0;
  o.window_size = 200;
  o.generate_every = 200;
  o.target_partitions = 24;
  o.max_states = 16;
  o.dataset_sample_rows = std::min<size_t>(2000, scale.rows / 10 + 1);
  o.seed = scale.seed + 5;
  return o;
}

namespace {

Table DatasetSample(const Table& table, const core::OreoOptions& opts,
                    uint64_t seed) {
  Rng rng(seed);
  return table.SampleRows(opts.dataset_sample_rows, &rng);
}

// One layout per query template: the fixed state space of MTS-Optimal and
// Offline-Optimal.
std::vector<int> TemplateStates(const Table& table, const Fixture& f,
                                const LayoutGenerator& gen,
                                const core::OreoOptions& opts,
                                core::StateRegistry* registry) {
  return core::BuildPerTemplateStates(
      table, DatasetSample(table, opts, opts.seed + 23), f.ds.templates, gen,
      opts.target_partitions, /*queries_per_template=*/200, opts.seed + 29,
      registry);
}

}  // namespace

core::StrategyFactory MethodStrategy(const std::string& method,
                                     const Fixture& f,
                                     const LayoutGenerator& gen,
                                     const core::OreoOptions& opts) {
  using Made = std::unique_ptr<core::Strategy>;
  if (method == "oreo") return nullptr;
  if (method == "static") {
    return [&f, &gen, opts](const Table& table, core::StateRegistry* reg,
                            const core::LayoutManager*, int, double) -> Made {
      // Static sees the entire workload; build from a uniform subsample to
      // keep construction tractable (the paper builds from query
      // predicates likewise).
      std::vector<Query> wl_sample;
      const size_t stride = std::max<size_t>(1, f.wl.queries.size() / 1500);
      for (size_t i = 0; i < f.wl.queries.size(); i += stride) {
        wl_sample.push_back(f.wl.queries[i]);
      }
      auto layout = gen.Generate(DatasetSample(table, opts, opts.seed + 17),
                                 wl_sample, opts.target_partitions);
      int id = reg->Add(Materialize(
          "static:" + gen.name(),
          std::shared_ptr<const Layout>(std::move(layout)), table));
      return std::make_unique<core::StaticStrategy>(id);
    };
  }
  if (method == "greedy") {
    return [](const Table&, core::StateRegistry* reg,
              const core::LayoutManager* mgr, int def, double) -> Made {
      return std::make_unique<core::GreedyStrategy>(reg, mgr, def);
    };
  }
  if (method == "regret") {
    return [](const Table&, core::StateRegistry* reg,
              const core::LayoutManager*, int def, double alpha) -> Made {
      return std::make_unique<core::RegretStrategy>(reg, alpha, def);
    };
  }
  if (method == "mts_optimal") {
    return [&f, &gen, opts](const Table& table, core::StateRegistry* reg,
                            const core::LayoutManager*, int,
                            double alpha) -> Made {
      std::vector<int> states = TemplateStates(table, f, gen, opts, reg);
      mts::DumtsOptions dopts;
      dopts.alpha = alpha;
      dopts.gamma = opts.gamma;
      dopts.seed = opts.seed;
      const int initial =
          states[static_cast<size_t>(f.wl.queries.front().template_id)];
      return std::make_unique<core::MtsOptimalStrategy>(reg, std::move(states),
                                                        initial, dopts);
    };
  }
  OREO_CHECK(method == "offline_optimal") << "unknown method " << method;
  return [&f, &gen, opts](const Table& table, core::StateRegistry* reg,
                          const core::LayoutManager*, int, double) -> Made {
    return std::make_unique<core::OfflineOptimalStrategy>(
        TemplateStates(table, f, gen, opts, reg), &f.wl);
  };
}

core::SimResult RunMethod(const std::string& method, const Fixture& f,
                          const LayoutGenerator& gen,
                          const core::OreoOptions& opts, bool record_trace) {
  core::OreoOptions run_opts = opts;
  run_opts.strategy = MethodStrategy(method, f, gen, opts);
  core::Oreo oreo(&f.ds.table, &gen, f.ds.time_column, run_opts);
  return oreo.Run(f.wl.queries, record_trace);
}

void PrintRow(const std::string& label, const core::SimResult& r) {
  std::printf("%-16s query=%10.1f  reorg=%9.1f  total=%10.1f  switches=%4lld\n",
              label.c_str(), r.query_cost, r.reorg_cost, r.total_cost(),
              static_cast<long long>(r.num_switches));
}

std::string DefaultScratchDir(const std::string& name) {
  return (std::filesystem::temp_directory_path() / ("oreo_" + name)).string();
}

void EmitBenchJson(const Flags& flags, const std::string& name,
                   const std::string& json) {
  std::fputs(json.c_str(), stdout);
  const std::string out = flags.GetString("out", "BENCH_" + name + ".json");
  if (out.empty()) return;
  std::FILE* f = std::fopen(out.c_str(), "w");
  OREO_CHECK(f != nullptr) << "cannot open " << out;
  std::fputs(json.c_str(), f);
  std::fclose(f);
  std::fprintf(stderr, "wrote %s\n", out.c_str());
}

}  // namespace bench
}  // namespace oreo
