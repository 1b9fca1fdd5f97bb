#include "common/simd.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "common/logging.h"

namespace fcm::simd {

namespace {

// ---- Scalar kernels ----
//
// Each scalar kernel reproduces, operation for operation, the loop it
// replaced in the pre-dispatch code (single sequential accumulator, same
// zero-skips), which is what makes FCM_SIMD=scalar bit-identical to the
// historical output.

float ScalarDotF32(const float* a, const float* b, size_t n) {
  float s = 0.0f;
  for (size_t i = 0; i < n; ++i) s += a[i] * b[i];
  return s;
}

void ScalarAxpyF32(float alpha, const float* x, float* y, size_t n) {
  for (size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void ScalarGemmMicroF32(const float* a, size_t a_stride, const float* b,
                        size_t b_stride, size_t t_len, float* c, size_t m) {
  for (size_t t = 0; t < t_len; ++t) {
    const float at = a[t * a_stride];
    if (at == 0.0f) continue;
    const float* brow = b + t * b_stride;
    for (size_t j = 0; j < m; ++j) c[j] += at * brow[j];
  }
}

double ScalarDotF64(const double* a, const double* b, size_t n) {
  double s = 0.0;
  for (size_t i = 0; i < n; ++i) s += a[i] * b[i];
  return s;
}

double ScalarReduceSumF64(const double* x, size_t n) {
  double s = 0.0;
  for (size_t i = 0; i < n; ++i) s += x[i];
  return s;
}

double ScalarSumSqDiffF64(const double* x, size_t n, double mean) {
  double s = 0.0;
  for (size_t i = 0; i < n; ++i) s += (x[i] - mean) * (x[i] - mean);
  return s;
}

void ScalarMinMaxF64(const double* x, size_t n, double* mn, double* mx) {
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < n; ++i) {
    lo = std::min(lo, x[i]);
    hi = std::max(hi, x[i]);
  }
  *mn = lo;
  *mx = hi;
}

double ScalarDtwRowF64(double xi, const double* y, const double* prev,
                       double* cur, double* /*cost*/, size_t j_lo,
                       size_t j_hi) {
  double row_min = std::numeric_limits<double>::infinity();
  for (size_t j = j_lo; j <= j_hi; ++j) {
    const double cost = std::fabs(xi - y[j - 1]);
    const double best = std::min({prev[j], cur[j - 1], prev[j - 1]});
    cur[j] = cost + best;
    row_min = std::min(row_min, cur[j]);
  }
  return row_min;
}

constexpr KernelTable kScalarKernels = {
    Target::kScalar,     ScalarDotF32,       ScalarAxpyF32,
    ScalarGemmMicroF32,  ScalarDotF64,       ScalarReduceSumF64,
    ScalarSumSqDiffF64,  ScalarMinMaxF64,    ScalarDtwRowF64,
};

// ---- Dispatch resolution ----

const KernelTable* TableFor(Target target) {
  switch (target) {
    case Target::kScalar: return &kScalarKernels;
    case Target::kAvx2: return GetAvx2Kernels();
    case Target::kNeon: return GetNeonKernels();
  }
  return nullptr;
}

bool CpuSupports(Target target) {
  switch (target) {
    case Target::kScalar:
      return true;
    case Target::kAvx2:
#if defined(__x86_64__) || defined(__i386__)
      return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
      return false;
#endif
    case Target::kNeon:
      // The NEON unit is only compiled where NEON is baseline, so a
      // non-null table implies hardware support.
      return true;
  }
  return false;
}

/// Targets usable in this process: compiled in and CPU-supported.
bool TargetAvailable(Target target) {
  return TableFor(target) != nullptr && CpuSupports(target);
}

/// Best available target, AVX2 > NEON > scalar (the two SIMD targets are
/// mutually exclusive per architecture).
Target BestTarget() {
  if (TargetAvailable(Target::kAvx2)) return Target::kAvx2;
  if (TargetAvailable(Target::kNeon)) return Target::kNeon;
  return Target::kScalar;
}

/// Resolves FCM_SIMD via ResolveEnvSpec and logs the fallback loudly:
/// an unrecognized value is a configuration bug (ERROR, naming the valid
/// set), an unavailable one a platform mismatch (WARN). Either way the
/// process keeps serving on the best available target — a stale override
/// degrades dispatch, never disables serving.
Target ResolveStartupTarget() {
  const char* env = std::getenv("FCM_SIMD");
  const EnvSpecResolution r = ResolveEnvSpec(env);
  if (!r.recognized) {
    FCM_LOGS(ERROR) << "FCM_SIMD=" << env << " is not one of "
                    << ValidEnvSpecs() << "; ignoring the override and using "
                    << "auto (" << TargetName(r.target) << ")";
  } else if (!r.available) {
    FCM_LOGS(WARN) << "FCM_SIMD=" << env
                   << " is not compiled in or not supported by this CPU; "
                      "using auto ("
                   << TargetName(r.target) << ")";
  }
  return r.target;
}

std::atomic<const KernelTable*> g_active{nullptr};

}  // namespace

const char* TargetName(Target target) {
  switch (target) {
    case Target::kScalar: return "scalar";
    case Target::kAvx2: return "avx2";
    case Target::kNeon: return "neon";
  }
  return "?";
}

const KernelTable& Active() {
  const KernelTable* table = g_active.load(std::memory_order_acquire);
  if (table == nullptr) {
    // Racing first calls resolve to the same table; the store is idempotent.
    table = TableFor(ResolveStartupTarget());
    g_active.store(table, std::memory_order_release);
  }
  return *table;
}

Target ActiveTarget() { return Active().target; }

bool SetTarget(Target target) {
  if (!TargetAvailable(target)) return false;
  g_active.store(TableFor(target), std::memory_order_release);
  return true;
}

Target ResetTarget() {
  const KernelTable* table = TableFor(ResolveStartupTarget());
  g_active.store(table, std::memory_order_release);
  return table->target;
}

std::vector<Target> SupportedTargets() {
  std::vector<Target> out;
  for (Target t : {Target::kAvx2, Target::kNeon, Target::kScalar}) {
    if (TargetAvailable(t)) out.push_back(t);
  }
  return out;
}

const char* ValidEnvSpecs() { return "scalar|avx2|neon|auto"; }

EnvSpecResolution ResolveEnvSpec(const char* spec) {
  EnvSpecResolution r;
  if (spec == nullptr || *spec == '\0' || std::strcmp(spec, "auto") == 0) {
    r.target = BestTarget();
    r.recognized = true;
    r.available = true;
    return r;
  }
  Target requested = Target::kScalar;
  if (std::strcmp(spec, "scalar") == 0) {
    requested = Target::kScalar;
  } else if (std::strcmp(spec, "avx2") == 0) {
    requested = Target::kAvx2;
  } else if (std::strcmp(spec, "neon") == 0) {
    requested = Target::kNeon;
  } else {
    r.target = BestTarget();
    return r;  // Unrecognized: recognized/available stay false.
  }
  r.recognized = true;
  r.available = TargetAvailable(requested);
  r.target = r.available ? requested : BestTarget();
  return r;
}

}  // namespace fcm::simd
