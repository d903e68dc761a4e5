// Registry of materialized layout states shared by the Layout Manager (which
// produces states) and the reorganization strategies (which consume them) —
// the paper's decoupling of state generation from state transition (SI).
#ifndef OREO_CORE_STATE_REGISTRY_H_
#define OREO_CORE_STATE_REGISTRY_H_

#include <memory>
#include <set>
#include <vector>

#include "layout/layout.h"
#include "query/query.h"

namespace oreo {
namespace core {

/// Owns LayoutInstances; ids are dense and never reused. Removed states stay
/// readable (history, traces) but drop out of live().
class StateRegistry {
 public:
  /// Registers a new state; returns its id.
  int Add(LayoutInstance instance);

  /// Marks a state removed (id stays valid for Get()).
  void Remove(int id);

  const LayoutInstance& Get(int id) const;
  bool IsLive(int id) const { return live_.count(id) > 0; }
  std::vector<int> live() const {
    return std::vector<int>(live_.begin(), live_.end());
  }
  size_t num_live() const { return live_.size(); }
  size_t num_total() const { return instances_.size(); }

  /// c(s, q) for state `id`.
  double Cost(int id, const Query& q) const { return Get(id).QueryCost(q); }

  /// Mean cost of state `id` over a query set.
  double MeanCost(int id, const std::vector<Query>& queries) const;

  /// Re-materializes every state (live AND removed) over `table`, in place:
  /// each instance keeps its id, name and layout but rebuilds its
  /// partitioning for the new row set. The live-ingest fold calls this after
  /// compacting the logical table — removed states must follow too, because
  /// the engine can still read one. With a reorg delay a shard's physical
  /// state trails the current one and may have been removed
  /// (ShardedOreo::RematerializeShard and ShardEngine::AttachPhysical read
  /// registry().Get(physical_state())), and so may the target of a rewrite
  /// in flight. Their partitions must cover the table exactly. Callers must
  /// quiesce background rewrites first: instance addresses are stable
  /// (shared_ptr) but their contents mutate.
  void RematerializeAll(const Table& table);

 private:
  std::vector<std::shared_ptr<LayoutInstance>> instances_;
  std::set<int> live_;
};

}  // namespace core
}  // namespace oreo

#endif  // OREO_CORE_STATE_REGISTRY_H_
