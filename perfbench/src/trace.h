// Tracing for the benchmark's traced run. Everything here sits OUTSIDE the
// engine: spans are taken around the benchmark's own calls into each layer,
// and the layers the engine calls internally are observed through
// decorators injected at public extension points —
//
//   TracingBackend    wraps the StorageBackend passed as
//                     OreoOptions::storage_backend (fetch/write spans,
//                     bytes, synced writes, captured block bytes);
//   TracingGenerator  wraps the LayoutGenerator (Generate calls and time);
//   ProbeBlocks       re-times checksum verify, block decode and the
//                     predicate kernel on the bytes TracingBackend captured,
//                     which splits the scan's self time into those layers.
//
// The untraced run uses none of these, so its timings carry no tracing
// cost; the traced run must reproduce its answers exactly.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench_math.h"
#include "core/physical.h"
#include "layout/layout.h"
#include "storage/backend.h"

namespace perfbench {

/// Seconds on the process's monotonic clock (the one all spans share).
inline double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Named per-layer totals of one traced repetition (seconds and counts).
using LayerTotals = std::map<std::string, double>;

/// Storage decorator that records every fetch as a span and counts reads,
/// writes and synced writes. With `capture`, it also keeps the bytes of
/// each block fetched since the last TakeCaptured, for ProbeBlocks.
class TracingBackend : public oreo::StorageBackend {
 public:
  TracingBackend(std::shared_ptr<oreo::StorageBackend> inner, bool capture);

  std::string name() const override { return inner_->name(); }
  oreo::Result<std::string> ReadBlock(const std::string& path) override;
  oreo::Status AtomicWriteBlock(const std::string& path,
                                const std::string& data, bool sync) override;
  oreo::Result<std::vector<std::string>> List(const std::string& dir) override {
    return inner_->List(dir);
  }
  oreo::Status Remove(const std::string& path) override {
    return inner_->Remove(path);
  }
  oreo::Status CreateDir(const std::string& dir) override {
    return inner_->CreateDir(dir);
  }
  oreo::Status Sync() override { return inner_->Sync(); }
  oreo::BackendStats stats() const override { return inner_->stats(); }

  /// Fetch spans recorded since the last call (any thread, any order).
  std::vector<Interval> TakeFetchSpans();
  /// Bytes of each block fetched since the last call, keyed by path.
  std::unordered_map<std::string, std::string> TakeCaptured();

  /// Adds storage.* totals into `out`.
  void Report(LayerTotals* out) const;

 private:
  std::shared_ptr<oreo::StorageBackend> inner_;
  const bool capture_;

  mutable std::mutex mu_;  // guards the members below
  std::vector<Interval> fetch_spans_;
  std::unordered_map<std::string, std::string> captured_;
  uint64_t read_calls_ = 0;
  uint64_t read_bytes_ = 0;
  double read_s_ = 0.0;
  uint64_t write_calls_ = 0;
  uint64_t write_bytes_ = 0;
  uint64_t synced_writes_ = 0;
  double write_s_ = 0.0;
};

/// Layout-generator decorator: counts Generate calls and their time.
class TracingGenerator : public oreo::LayoutGenerator {
 public:
  explicit TracingGenerator(const oreo::LayoutGenerator* inner)
      : inner_(inner) {}

  std::string name() const override { return inner_->name(); }
  std::unique_ptr<oreo::Layout> Generate(
      const oreo::Table& sample, const std::vector<oreo::Query>& workload,
      uint32_t target_partitions) const override;

  /// Adds layout.generate_calls / layout.generate_s into `out`.
  void Report(LayerTotals* out) const;

 private:
  const oreo::LayoutGenerator* inner_;  // not owned
  mutable std::mutex mu_;
  mutable uint64_t calls_ = 0;
  mutable double seconds_ = 0.0;
};

/// CPU seconds of the three per-block layers of a scan, re-timed by
/// ProbeBlocks.
struct BlockTimes {
  double verify_s = 0.0;
  double decode_s = 0.0;
  double predicate_s = 0.0;
  uint64_t checksum = 0;  // keeps the timed results observable
};

/// Re-times the three per-block layers of one executed batch on captured
/// bytes: the CRC-32C verify over the whole block, the projected decode
/// (the DeserializeBlock time minus the verify it includes) and the
/// predicate kernel on the decoded columns — the same work, in the same
/// order, that PhysicalStore's batch scan does for each (query, surviving
/// partition), but serially. `snapshot` must be the layout the batch ran
/// on; partitions whose bytes were not captured are skipped.
BlockTimes ProbeBlocks(
    const oreo::core::PhysicalStore::Snapshot& snapshot,
    const std::vector<oreo::Query>& queries,
    const std::unordered_map<std::string, std::string>& captured);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
