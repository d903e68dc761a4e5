// On-disk partition block format (one file per partition), the stand-in for
// the Parquet files the paper writes during reorganization:
//
//   [magic "OREOBLK1"] [u32 version] [u32 ncols] [u64 nrows]
//   per column: [varint name_len][name][u8 type][u8 encoding]
//               [u64 payload_size][payload]
//   [u32 CRC-32C over everything above]
//
// The reader validates magic, structure, and checksum, returning
// Status::Corruption on any mismatch (exercised by failure-injection tests).
#ifndef OREO_STORAGE_BLOCK_H_
#define OREO_STORAGE_BLOCK_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "storage/backend.h"
#include "storage/table.h"

namespace oreo {

/// Read-side options.
struct BlockReadOptions {
  /// Column projection: when non-null, only the named columns are decoded
  /// (in block order). Names absent from the block are ignored. Scans that
  /// touch a few columns of a wide table decode proportionally less — the
  /// same effect a columnar format gets from reading a subset of column
  /// chunks. Checksum validation always covers the whole block.
  const std::vector<std::string>* columns = nullptr;
};

/// Serializes `table` into the block wire format (no I/O).
std::string SerializeBlock(const Table& table);

/// Parses a serialized block back into a Table.
Result<Table> DeserializeBlock(const std::string& data,
                               const BlockReadOptions& options = {});

/// Serializes `table` and atomically publishes it at `path` through
/// `backend` (overwrites). With `sync`, the bytes are durable before
/// returning — reorganization rewrites must be durable before the layout
/// swap. Returns the serialized byte count.
Result<uint64_t> WriteBlockTo(StorageBackend* backend, const std::string& path,
                              const Table& table, bool sync = false);

/// Reads and validates a block through `backend`.
Result<Table> ReadBlockFrom(StorageBackend* backend, const std::string& path,
                            const BlockReadOptions& options = {});

/// Size in bytes of the serialized form (without writing).
size_t SerializedBlockSize(const Table& table);

}  // namespace oreo

#endif  // OREO_STORAGE_BLOCK_H_
