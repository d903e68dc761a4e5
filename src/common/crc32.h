// CRC-32C (Castagnoli) used to checksum on-disk partition blocks, so the
// block reader can detect corruption (bit flips, truncation) as RocksDB and
// Parquet readers do.
#ifndef OREO_COMMON_CRC32_H_
#define OREO_COMMON_CRC32_H_

#include <cstddef>
#include <cstdint>

namespace oreo {

/// Computes CRC-32C over `data[0, n)` starting from `init` (pass 0 for a
/// fresh checksum; pass a previous return value to extend it). Runs on the
/// SSE4.2 `crc32` instruction when the CPU has it and the vector kernels are
/// enabled (common/simd.h), otherwise on Crc32cScalar; both give the same
/// value for every input.
uint32_t Crc32c(const void* data, size_t n, uint32_t init = 0);

/// The table-driven reference implementation behind Crc32c.
uint32_t Crc32cScalar(const void* data, size_t n, uint32_t init = 0);

}  // namespace oreo

#endif  // OREO_COMMON_CRC32_H_
