// Kernel dispatch for the data-parallel hot paths (predicate bitmaps in
// query/kernels.h, block codec decode in storage/codec.cc, Eytzinger layout
// lookups in layout/ and storage/shard_router.cc, the block checksum in
// common/crc32.cc).
//
// Every vectorized kernel keeps its scalar reference implementation and the
// two sides are bit-identical — same match counts, same decoded bytes, same
// partition assignments — so flipping the dispatch can never change a
// decision, a trace, or a file CRC (pinned by tests/kernels_test.cc and the
// kernel-mode case of the parallel equivalence wall). The dispatch resolves,
// in order:
//
//   1. the OREO_FORCE_SCALAR=1 environment variable (wins over everything;
//      the CI forced-scalar job runs the whole suite under it),
//   2. the process-wide mode set by SetGlobalKernelMode (tests and benches
//      pin kScalar through it),
//   3. kAuto: vectorized kernels run, using the widest instruction set the
//      build and the CPU both support (AVX2 when available, otherwise
//      portable word-at-a-time branchless code the compiler auto-vectorizes).
#ifndef OREO_COMMON_SIMD_H_
#define OREO_COMMON_SIMD_H_

#include <cstdint>

namespace oreo {
namespace simd {

/// Which implementation the data-parallel kernels dispatch to.
enum class KernelMode : uint8_t {
  kAuto = 0,    ///< vectorized kernels unless OREO_FORCE_SCALAR=1
  kScalar = 1,  ///< scalar reference implementations everywhere
  kVector = 2,  ///< vectorized kernels (env override still wins)
};

const char* KernelModeName(KernelMode m);

/// Process-wide kernel mode (default kAuto). Thread-safe; results are
/// bit-identical in every mode, so flipping it mid-run is benign.
void SetGlobalKernelMode(KernelMode m);
KernelMode GlobalKernelMode();

/// True when the OREO_FORCE_SCALAR environment variable pins the scalar
/// reference implementations (read once, cached for the process lifetime).
bool ForceScalarEnv();

/// True when the vectorized kernels should run: env override, then mode.
bool VectorEnabled();

/// True when the AVX2 kernel translation unit is built in AND the CPU
/// reports AVX2 support at runtime.
bool HasAvx2();

/// True when the build targets x86-64 AND the CPU reports SSE4.2 at runtime
/// (the `crc32` instruction behind common/crc32.h's Crc32c).
bool HasSse42();

/// Human-readable dispatch state, e.g. "avx2", "portable", "scalar(env)",
/// "scalar(mode)" — recorded by bench/micro_kernels.
const char* DispatchDescription();

}  // namespace simd
}  // namespace oreo

#endif  // OREO_COMMON_SIMD_H_
