// NEON kernel table for aarch64, where Advanced SIMD is baseline — no
// extra compile flags and no cpuid gate needed; CMake defines
// FCM_SIMD_COMPILE_NEON on this file on ARM targets only. Kernels use
// 128-bit vectors with fused multiply-add and scalar tails (NEON has no
// masked loads/stores, and sub-vector tails are at most 3 lanes). The
// same tolerance contract as the AVX2 unit applies: reassociated sums
// within 1e-5 relative of scalar, DtwRowF64 bit-identical.

#include "common/simd.h"

#if defined(FCM_SIMD_COMPILE_NEON) && \
    (defined(__aarch64__) || defined(__ARM_NEON))

#include <arm_neon.h>

#include <cmath>
#include <limits>

namespace fcm::simd {

namespace {

float NeonDotF32(const float* a, const float* b, size_t n) {
  float32x4_t acc0 = vdupq_n_f32(0.0f);
  float32x4_t acc1 = vdupq_n_f32(0.0f);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc0 = vfmaq_f32(acc0, vld1q_f32(a + i), vld1q_f32(b + i));
    acc1 = vfmaq_f32(acc1, vld1q_f32(a + i + 4), vld1q_f32(b + i + 4));
  }
  if (i + 4 <= n) {
    acc0 = vfmaq_f32(acc0, vld1q_f32(a + i), vld1q_f32(b + i));
    i += 4;
  }
  float s = vaddvq_f32(vaddq_f32(acc0, acc1));
  for (; i < n; ++i) s += a[i] * b[i];
  return s;
}

void NeonAxpyF32(float alpha, const float* x, float* y, size_t n) {
  const float32x4_t av = vdupq_n_f32(alpha);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(y + i, vfmaq_f32(vld1q_f32(y + i), av, vld1q_f32(x + i)));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

void NeonGemmMicroF32(const float* a, size_t a_stride, const float* b,
                      size_t b_stride, size_t t_len, float* c, size_t m) {
  if (t_len == 0 || m == 0) return;
  size_t j = 0;
  // 16-wide register block: c is held in four accumulators across the
  // whole t sweep (one load + one store per c element per call).
  for (; j + 16 <= m; j += 16) {
    float* cj = c + j;
    float32x4_t acc0 = vld1q_f32(cj);
    float32x4_t acc1 = vld1q_f32(cj + 4);
    float32x4_t acc2 = vld1q_f32(cj + 8);
    float32x4_t acc3 = vld1q_f32(cj + 12);
    for (size_t t = 0; t < t_len; ++t) {
      const float at = a[t * a_stride];
      if (at == 0.0f) continue;
      const float32x4_t av = vdupq_n_f32(at);
      const float* bj = b + t * b_stride + j;
      acc0 = vfmaq_f32(acc0, av, vld1q_f32(bj));
      acc1 = vfmaq_f32(acc1, av, vld1q_f32(bj + 4));
      acc2 = vfmaq_f32(acc2, av, vld1q_f32(bj + 8));
      acc3 = vfmaq_f32(acc3, av, vld1q_f32(bj + 12));
    }
    vst1q_f32(cj, acc0);
    vst1q_f32(cj + 4, acc1);
    vst1q_f32(cj + 8, acc2);
    vst1q_f32(cj + 12, acc3);
  }
  for (; j + 4 <= m; j += 4) {
    float32x4_t acc = vld1q_f32(c + j);
    for (size_t t = 0; t < t_len; ++t) {
      const float at = a[t * a_stride];
      if (at == 0.0f) continue;
      acc = vfmaq_f32(acc, vdupq_n_f32(at), vld1q_f32(b + t * b_stride + j));
    }
    vst1q_f32(c + j, acc);
  }
  for (; j < m; ++j) {
    float s = c[j];
    for (size_t t = 0; t < t_len; ++t) {
      const float at = a[t * a_stride];
      if (at == 0.0f) continue;
      s += at * b[t * b_stride + j];
    }
    c[j] = s;
  }
}

double NeonDotF64(const double* a, const double* b, size_t n) {
  float64x2_t acc0 = vdupq_n_f64(0.0);
  float64x2_t acc1 = vdupq_n_f64(0.0);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc0 = vfmaq_f64(acc0, vld1q_f64(a + i), vld1q_f64(b + i));
    acc1 = vfmaq_f64(acc1, vld1q_f64(a + i + 2), vld1q_f64(b + i + 2));
  }
  double s = vaddvq_f64(vaddq_f64(acc0, acc1));
  for (; i < n; ++i) s += a[i] * b[i];
  return s;
}

double NeonReduceSumF64(const double* x, size_t n) {
  float64x2_t acc0 = vdupq_n_f64(0.0);
  float64x2_t acc1 = vdupq_n_f64(0.0);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc0 = vaddq_f64(acc0, vld1q_f64(x + i));
    acc1 = vaddq_f64(acc1, vld1q_f64(x + i + 2));
  }
  double s = vaddvq_f64(vaddq_f64(acc0, acc1));
  for (; i < n; ++i) s += x[i];
  return s;
}

double NeonSumSqDiffF64(const double* x, size_t n, double mean) {
  const float64x2_t mv = vdupq_n_f64(mean);
  float64x2_t acc = vdupq_n_f64(0.0);
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const float64x2_t d = vsubq_f64(vld1q_f64(x + i), mv);
    acc = vfmaq_f64(acc, d, d);
  }
  double s = vaddvq_f64(acc);
  for (; i < n; ++i) s += (x[i] - mean) * (x[i] - mean);
  return s;
}

void NeonMinMaxF64(const double* x, size_t n, double* mn, double* mx) {
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  size_t i = 0;
  if (n >= 2) {
    float64x2_t vlo = vdupq_n_f64(lo);
    float64x2_t vhi = vdupq_n_f64(hi);
    for (; i + 2 <= n; i += 2) {
      const float64x2_t v = vld1q_f64(x + i);
      vlo = vminq_f64(vlo, v);
      vhi = vmaxq_f64(vhi, v);
    }
    lo = vminvq_f64(vlo);
    hi = vmaxvq_f64(vhi);
  }
  for (; i < n; ++i) {
    lo = x[i] < lo ? x[i] : lo;
    hi = x[i] > hi ? x[i] : hi;
  }
  *mn = lo;
  *mx = hi;
}

double NeonDtwRowF64(double xi, const double* y, const double* prev,
                     double* cur, double* cost, size_t j_lo, size_t j_hi) {
  // Two-pass form of the row recurrence; see the AVX2 unit for why the
  // split is bitwise identical to the one-pass scalar loop.
  const float64x2_t xv = vdupq_n_f64(xi);
  size_t j = j_lo;
  for (; j + 2 <= j_hi + 1; j += 2) {
    const float64x2_t cv = vabsq_f64(vsubq_f64(xv, vld1q_f64(y + j - 1)));
    vst1q_f64(cost + j, cv);
    const float64x2_t pmin =
        vminq_f64(vld1q_f64(prev + j), vld1q_f64(prev + j - 1));
    vst1q_f64(cur + j, vaddq_f64(cv, pmin));
  }
  for (; j <= j_hi; ++j) {
    cost[j] = std::fabs(xi - y[j - 1]);
    cur[j] = cost[j] + (prev[j] < prev[j - 1] ? prev[j] : prev[j - 1]);
  }
  double row_min = std::numeric_limits<double>::infinity();
  for (j = j_lo; j <= j_hi; ++j) {
    const double via_left = cost[j] + cur[j - 1];
    if (via_left < cur[j]) cur[j] = via_left;
    if (cur[j] < row_min) row_min = cur[j];
  }
  return row_min;
}

constexpr KernelTable kNeonKernels = {
    Target::kNeon,     NeonDotF32,       NeonAxpyF32,
    NeonGemmMicroF32,  NeonDotF64,       NeonReduceSumF64,
    NeonSumSqDiffF64,  NeonMinMaxF64,    NeonDtwRowF64,
};

}  // namespace

const KernelTable* GetNeonKernels() { return &kNeonKernels; }

}  // namespace fcm::simd

#else  // NEON not compiled into this build.

namespace fcm::simd {
const KernelTable* GetNeonKernels() { return nullptr; }
}  // namespace fcm::simd

#endif
