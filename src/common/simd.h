// The size-window query (ChunkDatabase::FlatRange) is scalar: one
// std::lower_bound/std::upper_bound pair. What is left here is only the
// backend label the benchmark runner prints; the benchmark seam (ROADMAP
// item 4) deletes this header together with that label.

#ifndef CSI_SRC_COMMON_SIMD_H_
#define CSI_SRC_COMMON_SIMD_H_

namespace csi::simd {

enum class Backend { kScalar };

constexpr Backend ActiveBackend() { return Backend::kScalar; }

constexpr const char* BackendName(Backend /*backend*/) { return "scalar"; }

}  // namespace csi::simd

#endif  // CSI_SRC_COMMON_SIMD_H_
