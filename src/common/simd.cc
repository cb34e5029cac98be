#include "src/common/simd.h"

#include <atomic>
#include <cstdlib>
#include <string>

#if !defined(CSI_SIMD_DISABLED)
#if defined(__x86_64__) || defined(_M_X64)
#define CSI_SIMD_X86 1
#include <immintrin.h>
#elif defined(__aarch64__)
#define CSI_SIMD_NEON 1
#include <arm_neon.h>
#endif
#endif  // !CSI_SIMD_DISABLED

namespace csi::simd {

namespace {

size_t CountBelowScalar(const int64_t* data, size_t n, int64_t bound) {
  size_t count = 0;
  for (size_t i = 0; i < n; ++i) {
    count += data[i] < bound ? 1 : 0;
  }
  return count;
}

#if defined(CSI_SIMD_X86)

// Per-64-bit-lane sign mask using only SSE2 ops: arithmetic-shift each 32-bit
// half, then broadcast the high half's result across the lane.
inline __m128i SignMask64Sse2(__m128i v) {
  const __m128i sign32 = _mm_srai_epi32(v, 31);
  return _mm_shuffle_epi32(sign32, _MM_SHUFFLE(3, 3, 1, 1));
}

// Signed 64-bit a < b without SSE4.2's pcmpgtq. When the signs agree, a - b
// cannot overflow and its sign decides; when they differ, a < b exactly when
// a is the negative one.
inline __m128i CmpLt64Sse2(__m128i a, __m128i b) {
  const __m128i diff = _mm_sub_epi64(a, b);
  const __m128i mixed = SignMask64Sse2(_mm_xor_si128(a, b));
  const __m128i sel =
      _mm_or_si128(_mm_andnot_si128(mixed, diff), _mm_and_si128(mixed, a));
  return SignMask64Sse2(sel);
}

size_t CountBelowSse2(const int64_t* data, size_t n, int64_t bound) {
  const __m128i b = _mm_set1_epi64x(bound);
  __m128i acc = _mm_setzero_si128();
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + i));
    // Compare-mask lanes are -1; subtracting them accumulates the count.
    acc = _mm_sub_epi64(acc, CmpLt64Sse2(v, b));
  }
  alignas(16) int64_t lanes[2];
  _mm_store_si128(reinterpret_cast<__m128i*>(lanes), acc);
  size_t count = static_cast<size_t>(lanes[0] + lanes[1]);
  for (; i < n; ++i) {
    count += data[i] < bound ? 1 : 0;
  }
  return count;
}

__attribute__((target("avx2"))) size_t CountBelowAvx2(const int64_t* data,
                                                      size_t n, int64_t bound) {
  const __m256i b = _mm256_set1_epi64x(bound);
  __m256i acc = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(data + i));
    acc = _mm256_sub_epi64(acc, _mm256_cmpgt_epi64(b, v));
  }
  alignas(32) int64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
  size_t count = static_cast<size_t>(lanes[0] + lanes[1] + lanes[2] + lanes[3]);
  for (; i < n; ++i) {
    count += data[i] < bound ? 1 : 0;
  }
  return count;
}

#endif  // CSI_SIMD_X86

#if defined(CSI_SIMD_NEON)

size_t CountBelowNeon(const int64_t* data, size_t n, int64_t bound) {
  const int64x2_t b = vdupq_n_s64(bound);
  uint64x2_t acc = vdupq_n_u64(0);
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const int64x2_t v = vld1q_s64(data + i);
    acc = vsubq_u64(acc, vcltq_s64(v, b));
  }
  size_t count =
      static_cast<size_t>(vgetq_lane_u64(acc, 0) + vgetq_lane_u64(acc, 1));
  for (; i < n; ++i) {
    count += data[i] < bound ? 1 : 0;
  }
  return count;
}

#endif  // CSI_SIMD_NEON

bool EnvForcesScalar() {
  const char* env = std::getenv("CSI_SIMD");
  if (env == nullptr) {
    return false;
  }
  const std::string value(env);
  return value == "off" || value == "OFF" || value == "0" || value == "scalar" ||
         value == "none";
}

Backend DetectBackend() {
  if (EnvForcesScalar()) {
    return Backend::kScalar;
  }
#if defined(CSI_SIMD_X86)
  if (__builtin_cpu_supports("avx2")) {
    return Backend::kAvx2;
  }
  return Backend::kSse2;  // baseline on x86-64
#elif defined(CSI_SIMD_NEON)
  return Backend::kNeon;
#else
  return Backend::kScalar;
#endif
}

// -1 = unresolved; otherwise a Backend value.
std::atomic<int> g_backend{-1};

}  // namespace

const char* BackendName(Backend backend) {
  switch (backend) {
    case Backend::kScalar:
      return "scalar";
    case Backend::kSse2:
      return "sse2";
    case Backend::kAvx2:
      return "avx2";
    case Backend::kNeon:
      return "neon";
  }
  return "?";
}

Backend ActiveBackend() {
  int current = g_backend.load(std::memory_order_acquire);
  if (current < 0) {
    const Backend detected = DetectBackend();
    // First resolver wins; a concurrent ForceBackend is also fine (any stored
    // value is a supported backend).
    int expected = -1;
    g_backend.compare_exchange_strong(expected, static_cast<int>(detected),
                                      std::memory_order_acq_rel);
    current = g_backend.load(std::memory_order_acquire);
  }
  return static_cast<Backend>(current);
}

bool BackendSupported(Backend backend) {
  switch (backend) {
    case Backend::kScalar:
      return true;
    case Backend::kSse2:
#if defined(CSI_SIMD_X86)
      return true;
#else
      return false;
#endif
    case Backend::kAvx2:
#if defined(CSI_SIMD_X86)
      return __builtin_cpu_supports("avx2");
#else
      return false;
#endif
    case Backend::kNeon:
#if defined(CSI_SIMD_NEON)
      return true;
#else
      return false;
#endif
  }
  return false;
}

bool ForceBackend(Backend backend) {
  if (!BackendSupported(backend)) {
    return false;
  }
  g_backend.store(static_cast<int>(backend), std::memory_order_release);
  return true;
}

size_t CountBelow(const int64_t* data, size_t n, int64_t bound) {
  switch (ActiveBackend()) {
#if defined(CSI_SIMD_X86)
    case Backend::kAvx2:
      return CountBelowAvx2(data, n, bound);
    case Backend::kSse2:
      return CountBelowSse2(data, n, bound);
#endif
#if defined(CSI_SIMD_NEON)
    case Backend::kNeon:
      return CountBelowNeon(data, n, bound);
#endif
    default:
      return CountBelowScalar(data, n, bound);
  }
}

size_t CountAtOrBelow(const int64_t* data, size_t n, int64_t bound) {
  if (bound == INT64_MAX) {
    return n;  // bound + 1 would overflow; everything qualifies
  }
  return CountBelow(data, n, bound + 1);
}

}  // namespace csi::simd
