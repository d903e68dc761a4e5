#include "trace.h"

#include <set>

#include "common/crc32.h"
#include "common/logging.h"
#include "query/kernels.h"
#include "storage/block.h"

namespace perfbench {

using oreo::Query;

TracingBackend::TracingBackend(std::shared_ptr<oreo::StorageBackend> inner,
                               bool capture)
    : inner_(std::move(inner)), capture_(capture) {}

oreo::Result<std::string> TracingBackend::ReadBlock(const std::string& path) {
  const double start = Now();
  oreo::Result<std::string> data = inner_->ReadBlock(path);
  const double end = Now();
  std::lock_guard<std::mutex> lock(mu_);
  fetch_spans_.push_back({start, end});
  ++read_calls_;
  read_s_ += end - start;
  if (data.ok()) {
    read_bytes_ += data->size();
    if (capture_) captured_.emplace(path, *data);
  }
  return data;
}

oreo::Status TracingBackend::AtomicWriteBlock(const std::string& path,
                                              const std::string& data,
                                              bool sync) {
  const double start = Now();
  oreo::Status st = inner_->AtomicWriteBlock(path, data, sync);
  const double seconds = Now() - start;
  std::lock_guard<std::mutex> lock(mu_);
  ++write_calls_;
  write_s_ += seconds;
  if (st.ok()) {
    write_bytes_ += data.size();
    if (sync) ++synced_writes_;
  }
  return st;
}

std::vector<Interval> TracingBackend::TakeFetchSpans() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Interval> out;
  out.swap(fetch_spans_);
  return out;
}

std::unordered_map<std::string, std::string> TracingBackend::TakeCaptured() {
  std::lock_guard<std::mutex> lock(mu_);
  std::unordered_map<std::string, std::string> out;
  out.swap(captured_);
  return out;
}

void TracingBackend::Report(LayerTotals* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  (*out)["storage.read_calls"] += static_cast<double>(read_calls_);
  (*out)["storage.read_bytes"] += static_cast<double>(read_bytes_);
  (*out)["storage.read_s"] += read_s_;
  (*out)["storage.write_calls"] += static_cast<double>(write_calls_);
  (*out)["storage.write_bytes"] += static_cast<double>(write_bytes_);
  (*out)["storage.write_s"] += write_s_;
  (*out)["storage.synced_writes"] += static_cast<double>(synced_writes_);
}

std::unique_ptr<oreo::Layout> TracingGenerator::Generate(
    const oreo::Table& sample, const std::vector<Query>& workload,
    uint32_t target_partitions) const {
  const double start = Now();
  std::unique_ptr<oreo::Layout> layout =
      inner_->Generate(sample, workload, target_partitions);
  const double seconds = Now() - start;
  std::lock_guard<std::mutex> lock(mu_);
  ++calls_;
  seconds_ += seconds;
  return layout;
}

void TracingGenerator::Report(LayerTotals* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  (*out)["layout.generate_calls"] += static_cast<double>(calls_);
  (*out)["layout.generate_s"] += seconds_;
}

BlockTimes ProbeBlocks(
    const oreo::core::PhysicalStore::Snapshot& snapshot,
    const std::vector<Query>& queries,
    const std::unordered_map<std::string, std::string>& captured) {
  BlockTimes out;
  if (snapshot.instance == nullptr) return out;
  const oreo::Partitioning& parts = snapshot.instance->partitioning();
  for (const Query& query : queries) {
    // The scan's projection: referenced columns in schema order, with the
    // conjuncts remapped to their rank among them.
    Query projected = query;
    std::set<int> referenced;
    for (const oreo::Predicate& p : query.conjuncts) referenced.insert(p.column);
    std::vector<std::string> needed;
    std::vector<int> position(snapshot.schema.num_fields(), -1);
    for (int col : referenced) {
      position[static_cast<size_t>(col)] = static_cast<int>(needed.size());
      needed.push_back(snapshot.schema.field(static_cast<size_t>(col)).name);
    }
    for (oreo::Predicate& p : projected.conjuncts) {
      p.column = position[static_cast<size_t>(p.column)];
    }
    oreo::BlockReadOptions read_opts;
    if (!projected.conjuncts.empty()) read_opts.columns = &needed;

    for (size_t pid = 0; pid < parts.num_partitions(); ++pid) {
      if (query.CanSkipPartition(parts.zones[pid])) continue;
      auto it = captured.find(snapshot.files[pid]);
      if (it == captured.end()) continue;
      const std::string& bytes = it->second;

      const double t0 = Now();
      out.checksum +=
          oreo::Crc32c(bytes.data(), bytes.size() - sizeof(uint32_t));
      const double t1 = Now();
      oreo::Result<oreo::Table> table =
          oreo::DeserializeBlock(bytes, read_opts);
      const double t2 = Now();
      OREO_CHECK(table.ok()) << table.status().ToString();
      out.checksum += projected.conjuncts.empty()
                          ? table->num_rows()
                          : oreo::KernelCountMatches(*table, projected);
      const double t3 = Now();
      out.verify_s += t1 - t0;
      out.decode_s += std::max(0.0, (t2 - t1) - (t1 - t0));
      out.predicate_s += t3 - t2;
    }
  }
  return out;
}

}  // namespace perfbench
