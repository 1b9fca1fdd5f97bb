// AVX2+FMA kernel table. This translation unit is the only one compiled
// with -mavx2 -mfma (CMake sets FCM_SIMD_COMPILE_AVX2 and the flags on
// this file alone), so the intrinsics below must stay behind the runtime
// cpuid check in simd.cc — nothing here runs unless Active() selected it.
//
// Float32 kernels retire 8 lanes per vector with fused multiply-add and
// multiple accumulators (the scalar versions are latency-bound on one
// sequential add chain); sub-vector remainders use AVX2 masked loads and
// stores so no kernel ever touches memory past the caller's range. The
// float64 reductions keep vector main loops with scalar tails. Sums are
// reassociated, so results match scalar only within the 1e-5 relative
// tolerance documented in simd.h — except DtwRowF64, which performs the
// same IEEE ops per element and stays bit-identical.

#include "common/simd.h"

#if defined(FCM_SIMD_COMPILE_AVX2) && \
    (defined(__x86_64__) || defined(__i386__))

#include <immintrin.h>

#include <cmath>
#include <limits>

namespace fcm::simd {

namespace {

/// Lane mask enabling the first `rem` (< 8) float lanes.
inline __m256i TailMask32(size_t rem) {
  const __m256i lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(rem)), lane);
}

inline float HorizontalSum(__m256 v) {
  __m128 lo = _mm256_castps256_ps128(v);
  __m128 hi = _mm256_extractf128_ps(v, 1);
  lo = _mm_add_ps(lo, hi);
  lo = _mm_add_ps(lo, _mm_movehl_ps(lo, lo));
  lo = _mm_add_ss(lo, _mm_shuffle_ps(lo, lo, 1));
  return _mm_cvtss_f32(lo);
}

inline double HorizontalSum(__m256d v) {
  __m128d lo = _mm256_castpd256_pd128(v);
  __m128d hi = _mm256_extractf128_pd(v, 1);
  lo = _mm_add_pd(lo, hi);
  return _mm_cvtsd_f64(_mm_add_sd(lo, _mm_unpackhi_pd(lo, lo)));
}

float Avx2DotF32(const float* a, const float* b, size_t n) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i),
                           acc0);
    acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i + 8),
                           _mm256_loadu_ps(b + i + 8), acc1);
  }
  if (i + 8 <= n) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i),
                           acc0);
    i += 8;
  }
  if (i < n) {
    const __m256i mask = TailMask32(n - i);
    acc1 = _mm256_fmadd_ps(_mm256_maskload_ps(a + i, mask),
                           _mm256_maskload_ps(b + i, mask), acc1);
  }
  return HorizontalSum(_mm256_add_ps(acc0, acc1));
}

void Avx2AxpyF32(float alpha, const float* x, float* y, size_t n) {
  const __m256 av = _mm256_set1_ps(alpha);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        y + i, _mm256_fmadd_ps(av, _mm256_loadu_ps(x + i),
                               _mm256_loadu_ps(y + i)));
  }
  if (i < n) {
    const __m256i mask = TailMask32(n - i);
    _mm256_maskstore_ps(
        y + i, mask,
        _mm256_fmadd_ps(av, _mm256_maskload_ps(x + i, mask),
                        _mm256_maskload_ps(y + i, mask)));
  }
}

void Avx2GemmMicroF32(const float* a, size_t a_stride, const float* b,
                      size_t b_stride, size_t t_len, float* c, size_t m) {
  if (t_len == 0 || m == 0) return;
  size_t j = 0;
  // 32-wide register block: c stays in four accumulators across the whole
  // t sweep, so each c element is loaded and stored once per call instead
  // of once per (t, j) pass.
  for (; j + 32 <= m; j += 32) {
    float* cj = c + j;
    __m256 acc0 = _mm256_loadu_ps(cj);
    __m256 acc1 = _mm256_loadu_ps(cj + 8);
    __m256 acc2 = _mm256_loadu_ps(cj + 16);
    __m256 acc3 = _mm256_loadu_ps(cj + 24);
    for (size_t t = 0; t < t_len; ++t) {
      const float at = a[t * a_stride];
      if (at == 0.0f) continue;
      const __m256 av = _mm256_set1_ps(at);
      const float* bj = b + t * b_stride + j;
      acc0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(bj), acc0);
      acc1 = _mm256_fmadd_ps(av, _mm256_loadu_ps(bj + 8), acc1);
      acc2 = _mm256_fmadd_ps(av, _mm256_loadu_ps(bj + 16), acc2);
      acc3 = _mm256_fmadd_ps(av, _mm256_loadu_ps(bj + 24), acc3);
    }
    _mm256_storeu_ps(cj, acc0);
    _mm256_storeu_ps(cj + 8, acc1);
    _mm256_storeu_ps(cj + 16, acc2);
    _mm256_storeu_ps(cj + 24, acc3);
  }
  for (; j + 8 <= m; j += 8) {
    __m256 acc = _mm256_loadu_ps(c + j);
    for (size_t t = 0; t < t_len; ++t) {
      const float at = a[t * a_stride];
      if (at == 0.0f) continue;
      acc = _mm256_fmadd_ps(_mm256_set1_ps(at),
                            _mm256_loadu_ps(b + t * b_stride + j), acc);
    }
    _mm256_storeu_ps(c + j, acc);
  }
  if (j < m) {
    const __m256i mask = TailMask32(m - j);
    __m256 acc = _mm256_maskload_ps(c + j, mask);
    for (size_t t = 0; t < t_len; ++t) {
      const float at = a[t * a_stride];
      if (at == 0.0f) continue;
      acc = _mm256_fmadd_ps(
          _mm256_set1_ps(at),
          _mm256_maskload_ps(b + t * b_stride + j, mask), acc);
    }
    _mm256_maskstore_ps(c + j, mask, acc);
  }
}

double Avx2DotF64(const double* a, const double* b, size_t n) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i),
                           acc0);
    acc1 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i + 4),
                           _mm256_loadu_pd(b + i + 4), acc1);
  }
  if (i + 4 <= n) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i),
                           acc0);
    i += 4;
  }
  double s = HorizontalSum(_mm256_add_pd(acc0, acc1));
  for (; i < n; ++i) s += a[i] * b[i];
  return s;
}

double Avx2ReduceSumF64(const double* x, size_t n) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc0 = _mm256_add_pd(acc0, _mm256_loadu_pd(x + i));
    acc1 = _mm256_add_pd(acc1, _mm256_loadu_pd(x + i + 4));
  }
  if (i + 4 <= n) {
    acc0 = _mm256_add_pd(acc0, _mm256_loadu_pd(x + i));
    i += 4;
  }
  double s = HorizontalSum(_mm256_add_pd(acc0, acc1));
  for (; i < n; ++i) s += x[i];
  return s;
}

double Avx2SumSqDiffF64(const double* x, size_t n, double mean) {
  const __m256d mv = _mm256_set1_pd(mean);
  __m256d acc = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d d = _mm256_sub_pd(_mm256_loadu_pd(x + i), mv);
    acc = _mm256_fmadd_pd(d, d, acc);
  }
  double s = HorizontalSum(acc);
  for (; i < n; ++i) s += (x[i] - mean) * (x[i] - mean);
  return s;
}

void Avx2MinMaxF64(const double* x, size_t n, double* mn, double* mx) {
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  size_t i = 0;
  if (n >= 4) {
    __m256d vlo = _mm256_set1_pd(lo);
    __m256d vhi = _mm256_set1_pd(hi);
    for (; i + 4 <= n; i += 4) {
      const __m256d v = _mm256_loadu_pd(x + i);
      vlo = _mm256_min_pd(vlo, v);
      vhi = _mm256_max_pd(vhi, v);
    }
    alignas(32) double buf[4];
    _mm256_store_pd(buf, vlo);
    for (double v : buf) lo = v < lo ? v : lo;
    _mm256_store_pd(buf, vhi);
    for (double v : buf) hi = v > hi ? v : hi;
  }
  for (; i < n; ++i) {
    lo = x[i] < lo ? x[i] : lo;
    hi = x[i] > hi ? x[i] : hi;
  }
  *mn = lo;
  *mx = hi;
}

double Avx2DtwRowF64(double xi, const double* y, const double* prev,
                     double* cur, double* cost, size_t j_lo, size_t j_hi) {
  // Pass 1 (vector): cost[j] = |xi - y[j-1]| and the cur[j-1]-independent
  // part of the recurrence, cur[j] = cost[j] + min(prev[j], prev[j-1]).
  // Pass 2 (sequential scan): fold in the in-row dependency,
  // cur[j] = min(cur[j], cost[j] + cur[j-1]). Addition is monotone, so
  // min(cost + p, cost + q) == cost + min(p, q) holds bitwise and the two
  // passes reproduce the one-pass scalar recurrence exactly.
  const __m256d xv = _mm256_set1_pd(xi);
  const __m256d sign_clear =
      _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fffffffffffffffLL));
  size_t j = j_lo;
  for (; j + 4 <= j_hi + 1; j += 4) {
    const __m256d cv = _mm256_and_pd(
        sign_clear, _mm256_sub_pd(xv, _mm256_loadu_pd(y + j - 1)));
    _mm256_storeu_pd(cost + j, cv);
    const __m256d pmin = _mm256_min_pd(_mm256_loadu_pd(prev + j),
                                       _mm256_loadu_pd(prev + j - 1));
    _mm256_storeu_pd(cur + j, _mm256_add_pd(cv, pmin));
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

constexpr KernelTable kAvx2Kernels = {
    Target::kAvx2,     Avx2DotF32,       Avx2AxpyF32,
    Avx2GemmMicroF32,  Avx2DotF64,       Avx2ReduceSumF64,
    Avx2SumSqDiffF64,  Avx2MinMaxF64,    Avx2DtwRowF64,
};

}  // namespace

const KernelTable* GetAvx2Kernels() { return &kAvx2Kernels; }

}  // namespace fcm::simd

#else  // AVX2 not compiled into this build.

namespace fcm::simd {
const KernelTable* GetAvx2Kernels() { return nullptr; }
}  // namespace fcm::simd

#endif
