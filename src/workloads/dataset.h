// Synthetic datasets and query-template families reproducing the paper's
// three evaluation workloads (SVI-A2):
//
//  * TPC-H-like:    denormalized lineitem fact table; 13 templates mirroring
//                   the predicate structure of TPC-H q1,q3,q4,q5,q6,q7,q8,
//                   q10,q12,q14,q17,q21 (q9/q18 excluded as in the paper).
//  * TPC-DS-like:   denormalized store_sales fact table; 17 templates
//                   mirroring the TPC-DS queries listed in the paper.
//  * Telemetry:     ingestion-log table modeled on the paper's description of
//                   VMware SuperCollider (time-range predicates spanning
//                   hours to months, plus collector-name filters).
//
// The substitution of generated data for the original datasets is documented
// under "Substitutions" in docs/ARCHITECTURE.md; layout-optimization
// behaviour depends on predicate structure and value distributions, both of
// which are reproduced here.
#ifndef OREO_WORKLOADS_DATASET_H_
#define OREO_WORKLOADS_DATASET_H_

#include <functional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "query/query.h"
#include "storage/table.h"

namespace oreo {
namespace workloads {

/// A parameterized query shape: Instantiate draws fresh predicate constants.
struct QueryTemplate {
  std::string name;
  std::function<Query(Rng*)> instantiate;
};

/// A dataset plus its template family.
struct WorkloadDataset {
  std::string name;
  Table table;
  std::vector<QueryTemplate> templates;
  /// Index of the natural "arrival time" column (the default sort layout).
  int time_column = 0;
};

/// Builds the TPC-H-like dataset (denormalized lineitem) with `rows` rows.
WorkloadDataset MakeTpchLike(size_t rows, uint64_t seed);

/// Builds the TPC-DS-like dataset (denormalized store_sales).
WorkloadDataset MakeTpcdsLike(size_t rows, uint64_t seed);

/// Builds the telemetry ingestion-log dataset.
WorkloadDataset MakeTelemetry(size_t rows, uint64_t seed);

/// Convenience dispatch by name ("tpch", "tpcds", "telemetry").
WorkloadDataset MakeDataset(const std::string& name, size_t rows,
                            uint64_t seed);

}  // namespace workloads
}  // namespace oreo

#endif  // OREO_WORKLOADS_DATASET_H_
