// Runtime-dispatched SIMD kernels for the hot numeric paths.
//
// A small set of float32/float64 primitives — dot products, axpy, a GEMM
// micro-kernel, reductions, min/max, and the banded-DTW row update — each
// with a scalar implementation plus, when compiled in, AVX2+FMA (x86-64)
// and NEON (aarch64) variants. One implementation table is selected at
// startup:
//
//   1. Compile-time: the AVX2 translation unit is built only when the
//      toolchain supports `-mavx2 -mfma` (CMake option FCM_SIMD, default
//      `auto`); the NEON unit only on ARM targets where NEON is baseline.
//   2. Runtime: among compiled-in targets, cpuid (x86) picks the best the
//      machine supports; the FCM_SIMD environment variable
//      (`scalar|avx2|neon|auto`) overrides the choice, falling back to
//      `auto` with a warning when the requested target is unavailable.
//
// Tolerance contract
// ------------------
// The scalar kernels preserve the exact accumulation order of the loops
// they replaced, so `FCM_SIMD=scalar` is bit-identical to the historical
// (pre-dispatch) output. The SIMD kernels reassociate sums and use fused
// multiply-add, so their results may differ from scalar in the last bits:
// callers must treat any value that crossed a SIMD kernel as equal to the
// scalar value only within 1e-5 *relative* tolerance (the bound enforced
// by tests/simd_test.cc). Exception: DtwRowF64 is a min-plus recurrence
// whose vector form performs the same IEEE operations in the same
// per-element order, so it is bit-identical under every target.

#ifndef FCM_COMMON_SIMD_H_
#define FCM_COMMON_SIMD_H_

#include <cstddef>
#include <vector>

namespace fcm::simd {

/// Dispatch targets, best-first within each architecture.
enum class Target {
  kScalar = 0,
  kAvx2 = 1,  // x86-64 AVX2 + FMA.
  kNeon = 2,  // aarch64 Advanced SIMD.
};

/// Human-readable target name ("scalar", "avx2", "neon").
const char* TargetName(Target target);

/// One implementation of every kernel. All pointers are non-null.
struct KernelTable {
  Target target;

  /// sum_i a[i] * b[i] (single float accumulator in the scalar kernel).
  float (*dot_f32)(const float* a, const float* b, size_t n);

  /// y[i] += alpha * x[i].
  void (*axpy_f32)(float alpha, const float* x, float* y, size_t n);

  /// GEMM micro-kernel over one output row:
  ///   c[j] += sum_t a[t * a_stride] * b[t * b_stride + j],  j in [0, m).
  /// Zero a-coefficients are skipped (ReLU activations and their grads are
  /// sparse). With a_stride == 1 this is the blocked-MatMul forward inner
  /// tile; with a_stride == k it accumulates dB from strided columns of A.
  void (*gemm_micro_f32)(const float* a, size_t a_stride, const float* b,
                         size_t b_stride, size_t t_len, float* c, size_t m);

  /// sum_i a[i] * b[i] over doubles.
  double (*dot_f64)(const double* a, const double* b, size_t n);

  /// sum_i x[i].
  double (*reduce_sum_f64)(const double* x, size_t n);

  /// sum_i (x[i] - mean)^2.
  double (*sum_sq_diff_f64)(const double* x, size_t n, double mean);

  /// Writes min/max over x to *mn / *mx; an empty range yields +inf / -inf.
  void (*min_max_f64)(const double* x, size_t n, double* mn, double* mx);

  /// Banded-DTW row update over DP columns j in [j_lo, j_hi] (1-based):
  ///   cur[j] = |xi - y[j-1]| + min(prev[j], cur[j-1], prev[j-1])
  /// using `cost` (size >= j_hi + 1) as scratch; returns the row minimum.
  /// Bit-identical across targets (see tolerance contract above).
  double (*dtw_row_f64)(double xi, const double* y, const double* prev,
                        double* cur, double* cost, size_t j_lo, size_t j_hi);

};

/// The active kernel table. Resolved once (thread-safe) on first use from
/// the compiled-in targets, cpuid, and the FCM_SIMD environment variable.
const KernelTable& Active();

/// Target of the active table.
Target ActiveTarget();

/// Forces the active table to `target` (tests and benchmarks). Returns
/// false — leaving the current table in place — when the target was not
/// compiled in or the CPU lacks it. Not safe concurrently with running
/// kernels; call only from single-threaded setup code.
bool SetTarget(Target target);

/// Re-runs the startup resolution (compiled targets + cpuid + FCM_SIMD
/// env var) and returns the winner. Used by tests to restore state after
/// SetTarget.
Target ResetTarget();

/// Every target compiled into this binary and supported by this CPU,
/// best-first. Always contains Target::kScalar.
std::vector<Target> SupportedTargets();

/// The accepted FCM_SIMD values, for diagnostics: "scalar|avx2|neon|auto".
const char* ValidEnvSpecs();

/// Outcome of resolving one FCM_SIMD override value.
struct EnvSpecResolution {
  /// What the process will run: the requested target when it is
  /// recognized and available, the best available target otherwise.
  Target target = Target::kScalar;
  /// `spec` named a member of ValidEnvSpecs() (null/empty counts as auto).
  bool recognized = false;
  /// The recognized target is compiled in and CPU-supported (always true
  /// for auto and scalar; meaningless when !recognized).
  bool available = false;
};

/// Pure resolution of an FCM_SIMD override string — the logic behind the
/// startup dispatch, exposed so tests can pin the fallback behavior. Does
/// not log and does not change the active table; Active()/ResetTarget()
/// apply the same resolution to the real environment variable and warn
/// loudly (naming ValidEnvSpecs()) on unrecognized or unavailable values.
EnvSpecResolution ResolveEnvSpec(const char* spec);

// ---- Convenience wrappers over the active table ----

inline float DotF32(const float* a, const float* b, size_t n) {
  return Active().dot_f32(a, b, n);
}
inline void AxpyF32(float alpha, const float* x, float* y, size_t n) {
  Active().axpy_f32(alpha, x, y, n);
}
inline void GemmMicroF32(const float* a, size_t a_stride, const float* b,
                         size_t b_stride, size_t t_len, float* c, size_t m) {
  Active().gemm_micro_f32(a, a_stride, b, b_stride, t_len, c, m);
}
inline double DotF64(const double* a, const double* b, size_t n) {
  return Active().dot_f64(a, b, n);
}
inline double ReduceSumF64(const double* x, size_t n) {
  return Active().reduce_sum_f64(x, n);
}
inline double SumSqDiffF64(const double* x, size_t n, double mean) {
  return Active().sum_sq_diff_f64(x, n, mean);
}
inline void MinMaxF64(const double* x, size_t n, double* mn, double* mx) {
  Active().min_max_f64(x, n, mn, mx);
}
inline double DtwRowF64(double xi, const double* y, const double* prev,
                        double* cur, double* cost, size_t j_lo, size_t j_hi) {
  return Active().dtw_row_f64(xi, y, prev, cur, cost, j_lo, j_hi);
}

// Implementation hooks for the per-target translation units; each returns
// nullptr when its target is not compiled into the binary. Not for direct
// use — call Active() / SetTarget() instead.
const KernelTable* GetAvx2Kernels();
const KernelTable* GetNeonKernels();

}  // namespace fcm::simd

#endif  // FCM_COMMON_SIMD_H_
