#include "common/crc32.h"

#include <cstring>

#include "common/simd.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <nmmintrin.h>
#define OREO_CRC32C_HW 1
#endif

namespace oreo {

namespace {
// Table-driven CRC-32C (polynomial 0x1EDC6F41, reflected 0x82F63B78).
struct Crc32cTable {
  uint32_t table[256];
  Crc32cTable() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int j = 0; j < 8; ++j) {
        crc = (crc >> 1) ^ ((crc & 1) ? 0x82F63B78u : 0);
      }
      table[i] = crc;
    }
  }
};
const Crc32cTable g_table;

#ifdef OREO_CRC32C_HW
// SSE4.2 `crc32` computes the same reflected Castagnoli CRC as the table,
// 8 bytes per instruction. Compiled for SSE4.2 by function attribute only,
// so the rest of the build stays on the x86-64 baseline; called only after
// simd::HasSse42() confirmed the CPU has it.
__attribute__((target("sse4.2"))) uint32_t Crc32cHardware(const uint8_t* p,
                                                          size_t n,
                                                          uint32_t crc) {
  uint64_t wide = crc;
  for (; n >= sizeof(uint64_t); n -= sizeof(uint64_t), p += sizeof(uint64_t)) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    wide = _mm_crc32_u64(wide, word);
  }
  crc = static_cast<uint32_t>(wide);
  for (; n > 0; --n, ++p) crc = _mm_crc32_u8(crc, *p);
  return crc;
}
#endif
}  // namespace

uint32_t Crc32cScalar(const void* data, size_t n, uint32_t init) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint32_t crc = ~init;
  for (size_t i = 0; i < n; ++i) {
    crc = (crc >> 8) ^ g_table.table[(crc ^ p[i]) & 0xff];
  }
  return ~crc;
}

uint32_t Crc32c(const void* data, size_t n, uint32_t init) {
#ifdef OREO_CRC32C_HW
  if (simd::HasSse42() && simd::VectorEnabled()) {
    return ~Crc32cHardware(static_cast<const uint8_t*>(data), n, ~init);
  }
#endif
  return Crc32cScalar(data, n, init);
}

}  // namespace oreo
