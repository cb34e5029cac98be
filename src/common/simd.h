// SIMD size-window scans for the flat chunk-size index.
//
// The hot database query — "how many sizes in this sorted run fall below a
// bound" — reduces to counting compare-mask lanes. Both entry points dispatch
// at runtime to the widest lane width the CPU supports (AVX2 > SSE2 on
// x86-64, NEON on aarch64) with a scalar fallback that is always available.
//
// Dispatch contract:
//   - `ActiveBackend()` resolves once per process: the CSI_SIMD environment
//     variable ("off" / "scalar" / "0" / "none") forces the scalar path for
//     debugging; building with -DCSI_SIMD=OFF compiles the vector kernels out
//     entirely.
//   - `ForceBackend()` overrides the choice at runtime — the hook the
//     differential tests and microbenches use to compare scalar and SIMD
//     outputs on identical inputs.
//   - Every backend returns bit-identical results for every input; the
//     property-based differential test (tests/db_differential_test.cc) locks
//     this in.

#ifndef CSI_SRC_COMMON_SIMD_H_
#define CSI_SRC_COMMON_SIMD_H_

#include <cstddef>
#include <cstdint>

namespace csi::simd {

enum class Backend { kScalar, kSse2, kAvx2, kNeon };

// Human-readable backend name ("scalar", "sse2", "avx2", "neon").
const char* BackendName(Backend backend);

// The backend every Count* call dispatches to. Resolved on first use from the
// build flags, CPU features, and the CSI_SIMD environment variable.
Backend ActiveBackend();

// True if `backend` can run on this build and CPU. kScalar always can.
bool BackendSupported(Backend backend);

// Overrides ActiveBackend() process-wide (test/bench hook). Returns false and
// changes nothing if the backend is not supported here.
bool ForceBackend(Backend backend);

// Number of values in data[0..n) strictly below `bound`. The data does not
// need to be sorted; on a sorted run this is exactly the lower_bound index.
size_t CountBelow(const int64_t* data, size_t n, int64_t bound);

// Number of values in data[0..n) at or below `bound`. On a sorted run this is
// exactly the upper_bound index.
size_t CountAtOrBelow(const int64_t* data, size_t n, int64_t bound);

}  // namespace csi::simd

#endif  // CSI_SRC_COMMON_SIMD_H_
