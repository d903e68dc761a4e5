// Ablation bench for the design choices docs/ARCHITECTURE.md
// ("Substitutions") calls out beyond the paper's own Table II:
//
//  1. stay-at-phase-start (SIV-A): keep the current state at a phase reset
//     instead of the original algorithm's forced random move.
//  2. mid-phase admission (SIV-C): defer new states to the next phase
//     (Algorithm 4) vs immediate admission with a median-initialized counter
//     vs immediate admission with a replayed counter.
//  3. state-space pruning (SV-B): periodically removing epsilon-similar
//     states vs letting the space grow to the max_states cap.
//  4. multi-copy storage budget (SVIII / Appendix D): serving from the best
//     of m materialized layouts over a fixed per-template state space.
//
// Flags: --rows --queries --segments --seed --full --quick
#include <cstdio>

#include "common.h"
#include "layout/qdtree_layout.h"
#include "mts/multi_copy.h"

namespace oreo {
namespace bench {
namespace {

void RunOreoVariant(const char* label, const Fixture& f,
                    const core::OreoOptions& opts) {
  QdTreeGenerator gen;
  PrintRow(label, RunMethod("oreo", f, gen, opts));
}

// Multi-copy over the per-template state space: serving cost is the min over
// the kept copies; each materialization costs alpha.
void RunMultiCopy(const Fixture& f, const core::OreoOptions& opts,
                  size_t copies) {
  QdTreeGenerator gen;
  Rng rng(opts.seed + 23);
  Table sample = f.ds.table.SampleRows(opts.dataset_sample_rows, &rng);
  core::StateRegistry reg;
  std::vector<int> states = core::BuildPerTemplateStates(
      f.ds.table, sample, f.ds.templates, gen, opts.target_partitions, 200,
      opts.seed + 29, &reg);
  mts::MultiCopyOptions mopts;
  mopts.alpha = opts.alpha;
  mopts.max_copies = copies;
  mopts.seed = opts.seed;
  mts::MultiCopyUmts alg(mopts, states,
                         states[static_cast<size_t>(
                             f.wl.queries.front().template_id)]);
  double query_cost = 0.0, reorg_cost = 0.0;
  int64_t materializations = 0;
  for (const Query& q : f.wl.queries) {
    mts::MultiCopyDecision d = alg.OnQuery(
        [&](int s) { return reg.Cost(s, q); });
    if (d.materialized.has_value()) {
      reorg_cost += opts.alpha;
      ++materializations;
    }
    query_cost += reg.Cost(d.serve_state, q);
  }
  std::printf("%-16s query=%10.1f  reorg=%9.1f  total=%10.1f  switches=%4lld\n",
              ("m=" + std::to_string(copies)).c_str(), query_cost, reorg_cost,
              query_cost + reorg_cost,
              static_cast<long long>(materializations));
}

}  // namespace

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  Scale scale = Scale::FromFlags(flags);

  std::printf("=== Ablations: OREO design choices (TPC-H, qd-tree, logical "
              "costs) ===\nrows=%zu queries=%zu segments=%zu alpha=80\n\n",
              scale.rows, scale.queries, scale.segments);
  Fixture f = MakeFixture("tpch", scale);

  std::printf("-- stay-at-phase-start (SIV-A) --\n");
  {
    core::OreoOptions opts = DefaultOreoOptions(scale);
    RunOreoVariant("stay=on", f, opts);
    opts.stay_at_phase_start = false;
    RunOreoVariant("stay=off", f, opts);
  }

  std::printf("\n-- mid-phase state admission (SIV-C) --\n");
  for (auto [label, policy] :
       {std::pair<const char*, core::MidPhasePolicy>{
            "defer", core::MidPhasePolicy::kDefer},
        {"median", core::MidPhasePolicy::kMedianCounter},
        {"replay", core::MidPhasePolicy::kReplay}}) {
    core::OreoOptions opts = DefaultOreoOptions(scale);
    opts.mid_phase_policy = policy;
    RunOreoVariant(label, f, opts);
  }

  std::printf("\n-- epsilon-similar state pruning (SV-B) --\n");
  {
    core::OreoOptions opts = DefaultOreoOptions(scale);
    RunOreoVariant("prune=on", f, opts);
    opts.prune_similar_states = false;
    RunOreoVariant("prune=off", f, opts);
  }

  std::printf("\n-- multi-copy storage budget (Appendix D variant; fixed "
              "per-template states) --\n");
  for (size_t copies : {size_t{1}, size_t{2}, size_t{3}}) {
    RunMultiCopy(f, DefaultOreoOptions(scale), copies);
  }

  std::printf(
      "\nExpected: stay=on and prune=on reduce reorganization cost; the "
      "admission\npolicies trade a slightly earlier availability of good "
      "layouts (median/replay)\nagainst extra randomness; more copies cut "
      "query cost at alpha per extra copy.\n");
  return 0;
}

}  // namespace bench
}  // namespace oreo

int main(int argc, char** argv) { return oreo::bench::Main(argc, argv); }
