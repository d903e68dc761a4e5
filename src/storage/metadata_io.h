// Persistence for partition-level metadata. OREO estimates query costs for
// every candidate layout purely from zone maps (SIII-B); a system restart
// must not require re-scanning the data to rebuild them. The format follows
// the block format conventions: magic, versioned payload, CRC-32C footer,
// Corruption status on any mismatch.
#ifndef OREO_STORAGE_METADATA_IO_H_
#define OREO_STORAGE_METADATA_IO_H_

#include <string>
#include <vector>

#include "catalog/schema.h"
#include "common/status.h"
#include "storage/backend.h"
#include "storage/partitioning.h"
#include "storage/zone_map.h"

namespace oreo {

/// The persisted view of a layout's partition metadata: everything needed to
/// prune partitions and price queries, nothing else (no row lists).
struct PartitionMetadata {
  Schema schema;
  std::vector<ZoneMap> zones;
  uint64_t total_rows = 0;
  std::string layout_name;
};

/// Extracts persistable metadata from a materialized partitioning.
PartitionMetadata MetadataFrom(const Schema& schema, const Partitioning& p,
                               std::string layout_name);

/// Wire (de)serialization.
std::string SerializePartitionMetadata(const PartitionMetadata& meta);
Result<PartitionMetadata> DeserializePartitionMetadata(const std::string& data);

/// Backend round trip (atomic publish; readers never observe a half-written
/// object).
Status WriteMetadataTo(StorageBackend* backend, const std::string& path,
                       const PartitionMetadata& meta);
Result<PartitionMetadata> ReadMetadataFrom(StorageBackend* backend,
                                           const std::string& path);

}  // namespace oreo

#endif  // OREO_STORAGE_METADATA_IO_H_
