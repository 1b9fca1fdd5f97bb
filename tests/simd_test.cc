// Tests for the runtime-dispatched SIMD kernel subsystem: scalar/SIMD
// equivalence over awkward sizes (empty, single element, vector width
// +/- 1, large), forced dispatch for every target compiled into the
// binary, and a MatMul finite-difference gradient check under each
// dispatch mode. The tolerance contract under test is the one stated in
// common/simd.h: scalar is the reference, SIMD must agree within 1e-5
// relative, and DtwRowF64 must be bit-identical.

#include "common/simd.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/math_util.h"
#include "common/rng.h"
#include "nn/ops.h"
#include "nn/tensor.h"
#include "relevance/dtw.h"

namespace fcm {
namespace {

using simd::Target;

constexpr double kRelTol = 1e-5;

/// Forces a dispatch target for one scope and restores the startup
/// resolution afterwards so test order never leaks dispatch state.
class ScopedTarget {
 public:
  explicit ScopedTarget(Target target) { ok_ = simd::SetTarget(target); }
  ~ScopedTarget() { simd::ResetTarget(); }
  bool ok() const { return ok_; }

 private:
  bool ok_ = false;
};

/// The sizes SIMD kernels get wrong when tail handling is off: empty,
/// scalar, one below/at/above the 4/8/16/32-lane widths, and a large
/// non-multiple.
const std::vector<size_t> kAwkwardSizes = {0,  1,  3,  4,  5,  7,  8,
                                           9,  15, 16, 17, 31, 32, 33,
                                           63, 64, 65, 1037};

std::vector<float> RandomF32(size_t n, uint64_t seed) {
  common::Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.Normal());
  return v;
}

std::vector<double> RandomF64(size_t n, uint64_t seed) {
  common::Rng rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = rng.Normal();
  return v;
}

void ExpectRelNear(double expected, double actual, double tol) {
  const double scale =
      std::max({std::fabs(expected), std::fabs(actual), 1.0});
  EXPECT_NEAR(expected, actual, tol * scale);
}

/// Non-scalar targets compiled in and supported by this machine.
std::vector<Target> SimdTargets() {
  std::vector<Target> out;
  for (Target t : simd::SupportedTargets()) {
    if (t != Target::kScalar) out.push_back(t);
  }
  return out;
}

TEST(SimdDispatchTest, ScalarAlwaysSupported) {
  const auto targets = simd::SupportedTargets();
  EXPECT_NE(std::find(targets.begin(), targets.end(), Target::kScalar),
            targets.end());
}

TEST(SimdDispatchTest, SetTargetRoundTripsEveryCompiledTarget) {
  for (Target t : simd::SupportedTargets()) {
    ScopedTarget forced(t);
    ASSERT_TRUE(forced.ok()) << simd::TargetName(t);
    EXPECT_EQ(simd::ActiveTarget(), t);
  }
}

TEST(SimdDispatchTest, SetTargetRejectsUnavailableTargets) {
  const auto targets = simd::SupportedTargets();
  for (Target t : {Target::kAvx2, Target::kNeon}) {
    if (std::find(targets.begin(), targets.end(), t) != targets.end()) {
      continue;
    }
    const Target before = simd::ActiveTarget();
    EXPECT_FALSE(simd::SetTarget(t));
    EXPECT_EQ(simd::ActiveTarget(), before) << "failed SetTarget changed "
                                               "the active table";
  }
}

TEST(SimdDispatchTest, TargetNamesAreStable) {
  EXPECT_STREQ(simd::TargetName(Target::kScalar), "scalar");
  EXPECT_STREQ(simd::TargetName(Target::kAvx2), "avx2");
  EXPECT_STREQ(simd::TargetName(Target::kNeon), "neon");
}

TEST(SimdDispatchTest, EnvSpecResolutionPinsTheFallbackContract) {
  // auto / empty / unset resolve to the best available target.
  const Target best = simd::ResolveEnvSpec("auto").target;
  for (const char* spec : {"auto", "", static_cast<const char*>(nullptr)}) {
    const auto r = simd::ResolveEnvSpec(spec);
    EXPECT_TRUE(r.recognized);
    EXPECT_TRUE(r.available);
    EXPECT_EQ(r.target, best);
  }
  // scalar is always recognized and available.
  const auto scalar = simd::ResolveEnvSpec("scalar");
  EXPECT_TRUE(scalar.recognized);
  EXPECT_TRUE(scalar.available);
  EXPECT_EQ(scalar.target, Target::kScalar);
  // A known target resolves to itself when supported, to best otherwise —
  // never to a dead table.
  const auto supported = simd::SupportedTargets();
  for (Target t : {Target::kAvx2, Target::kNeon}) {
    const auto r = simd::ResolveEnvSpec(simd::TargetName(t));
    EXPECT_TRUE(r.recognized) << simd::TargetName(t);
    const bool have =
        std::find(supported.begin(), supported.end(), t) != supported.end();
    EXPECT_EQ(r.available, have);
    EXPECT_EQ(r.target, have ? t : best);
  }
  // The bug under test: an unrecognized value must be reported as such
  // (the startup path logs it loudly, naming ValidEnvSpecs()) and still
  // fall back to the best available target.
  for (const char* bogus : {"avx512", "AVX2", "scalar ", "fastest"}) {
    const auto r = simd::ResolveEnvSpec(bogus);
    EXPECT_FALSE(r.recognized) << bogus;
    EXPECT_EQ(r.target, best) << bogus;
  }
  EXPECT_STREQ(simd::ValidEnvSpecs(), "scalar|avx2|neon|auto");
}

TEST(SimdDispatchTest, ResetTargetAppliesTheEnvOverride) {
  // ResetTarget re-runs the startup resolution against the live
  // environment: a valid override is honored, an unrecognized one falls
  // back to auto instead of silently wedging the dispatch.
  const Target best = simd::ResolveEnvSpec("auto").target;
  ASSERT_EQ(setenv("FCM_SIMD", "scalar", 1), 0);
  EXPECT_EQ(simd::ResetTarget(), Target::kScalar);
  ASSERT_EQ(setenv("FCM_SIMD", "definitely-not-a-target", 1), 0);
  EXPECT_EQ(simd::ResetTarget(), best);
  ASSERT_EQ(unsetenv("FCM_SIMD"), 0);
  EXPECT_EQ(simd::ResetTarget(), best);
}

TEST(SimdKernelTest, DotF32MatchesScalarOnAwkwardSizes) {
  for (Target target : SimdTargets()) {
    for (size_t n : kAwkwardSizes) {
      const auto a = RandomF32(n, 11 + n);
      const auto b = RandomF32(n, 23 + n);
      simd::SetTarget(Target::kScalar);
      const float expected = simd::DotF32(a.data(), b.data(), n);
      ScopedTarget forced(target);
      ASSERT_TRUE(forced.ok());
      ExpectRelNear(expected, simd::DotF32(a.data(), b.data(), n), kRelTol);
    }
  }
  simd::ResetTarget();
}

TEST(SimdKernelTest, AxpyF32MatchesScalarOnAwkwardSizes) {
  for (Target target : SimdTargets()) {
    for (size_t n : kAwkwardSizes) {
      const auto x = RandomF32(n, 31 + n);
      auto y_scalar = RandomF32(n, 41 + n);
      auto y_simd = y_scalar;
      simd::SetTarget(Target::kScalar);
      simd::AxpyF32(0.37f, x.data(), y_scalar.data(), n);
      ScopedTarget forced(target);
      ASSERT_TRUE(forced.ok());
      simd::AxpyF32(0.37f, x.data(), y_simd.data(), n);
      for (size_t i = 0; i < n; ++i) {
        ExpectRelNear(y_scalar[i], y_simd[i], kRelTol);
      }
    }
  }
  simd::ResetTarget();
}

TEST(SimdKernelTest, GemmMicroF32MatchesScalarUnitAndStridedA) {
  for (Target target : SimdTargets()) {
    for (size_t m : kAwkwardSizes) {
      for (size_t t_len : {size_t{0}, size_t{1}, size_t{5}, size_t{64}}) {
        for (size_t a_stride : {size_t{1}, size_t{7}}) {
          auto a = RandomF32(std::max<size_t>(1, t_len * a_stride), 51 + m);
          if (t_len > 2) a[2 * a_stride] = 0.0f;  // Exercise the zero skip.
          const auto b = RandomF32(std::max<size_t>(1, t_len * m), 61 + m);
          auto c_scalar = RandomF32(m, 71 + m);
          auto c_simd = c_scalar;
          simd::SetTarget(Target::kScalar);
          simd::GemmMicroF32(a.data(), a_stride, b.data(), m, t_len,
                             c_scalar.data(), m);
          ScopedTarget forced(target);
          ASSERT_TRUE(forced.ok());
          simd::GemmMicroF32(a.data(), a_stride, b.data(), m, t_len,
                             c_simd.data(), m);
          for (size_t j = 0; j < m; ++j) {
            ExpectRelNear(c_scalar[j], c_simd[j], kRelTol);
          }
        }
      }
    }
  }
  simd::ResetTarget();
}

TEST(SimdKernelTest, F64ReductionsMatchScalarOnAwkwardSizes) {
  for (Target target : SimdTargets()) {
    for (size_t n : kAwkwardSizes) {
      const auto a = RandomF64(n, 81 + n);
      const auto b = RandomF64(n, 91 + n);
      simd::SetTarget(Target::kScalar);
      const double dot = simd::DotF64(a.data(), b.data(), n);
      const double sum = simd::ReduceSumF64(a.data(), n);
      const double ssd = simd::SumSqDiffF64(a.data(), n, 0.25);
      double mn_s, mx_s;
      simd::MinMaxF64(a.data(), n, &mn_s, &mx_s);
      ScopedTarget forced(target);
      ASSERT_TRUE(forced.ok());
      ExpectRelNear(dot, simd::DotF64(a.data(), b.data(), n), kRelTol);
      ExpectRelNear(sum, simd::ReduceSumF64(a.data(), n), kRelTol);
      ExpectRelNear(ssd, simd::SumSqDiffF64(a.data(), n, 0.25), kRelTol);
      double mn_v, mx_v;
      simd::MinMaxF64(a.data(), n, &mn_v, &mx_v);
      // Min/max are order-insensitive selections, never reassociated sums.
      EXPECT_EQ(mn_s, mn_v);
      EXPECT_EQ(mx_s, mx_v);
    }
  }
  simd::ResetTarget();
}

TEST(SimdKernelTest, MinMaxF64EmptyRangeGivesInfinities) {
  for (Target t : simd::SupportedTargets()) {
    ScopedTarget forced(t);
    ASSERT_TRUE(forced.ok());
    double mn, mx;
    simd::MinMaxF64(nullptr, 0, &mn, &mx);
    EXPECT_EQ(mn, std::numeric_limits<double>::infinity());
    EXPECT_EQ(mx, -std::numeric_limits<double>::infinity());
  }
}

TEST(SimdKernelTest, DtwDistanceBitIdenticalAcrossTargets) {
  // DtwRowF64 keeps the per-element IEEE operations of the scalar
  // recurrence (see simd.h), so full DTW distances must match exactly —
  // banded, unbanded, and with pruning active.
  const auto x = RandomF64(130, 7);
  const auto y = RandomF64(101, 9);
  for (rel::DtwOptions options :
       {rel::DtwOptions{}, rel::DtwOptions{0.2, false,
                                           std::numeric_limits<double>::infinity()},
        rel::DtwOptions{0.2, true, 25.0}}) {
    simd::SetTarget(Target::kScalar);
    const double expected = rel::DtwDistance(x, y, options);
    for (Target target : SimdTargets()) {
      ScopedTarget forced(target);
      ASSERT_TRUE(forced.ok());
      const double actual = rel::DtwDistance(x, y, options);
      EXPECT_EQ(expected, actual) << simd::TargetName(target);
    }
  }
  simd::ResetTarget();
}

TEST(SimdKernelTest, MathUtilHelpersMatchScalarWithinTolerance) {
  const auto v = RandomF64(257, 13);
  const auto w = RandomF64(257, 17);
  simd::SetTarget(Target::kScalar);
  const double mean = common::Mean(v);
  const double variance = common::Variance(v);
  const double dot = common::Dot(v, w);
  const double mn = common::Min(v), mx = common::Max(v);
  for (Target target : SimdTargets()) {
    ScopedTarget forced(target);
    ASSERT_TRUE(forced.ok());
    ExpectRelNear(mean, common::Mean(v), kRelTol);
    ExpectRelNear(variance, common::Variance(v), kRelTol);
    ExpectRelNear(dot, common::Dot(v, w), kRelTol);
    EXPECT_EQ(mn, common::Min(v));
    EXPECT_EQ(mx, common::Max(v));
  }
  simd::ResetTarget();
}

TEST(SimdMatMulTest, ForwardMatchesScalarForEveryTarget) {
  // Awkward inner/outer extents around the 8/32-lane blocks.
  const struct { int n, k, m; } shapes[] = {
      {1, 1, 1}, {3, 5, 7}, {8, 9, 33}, {17, 31, 40}, {33, 64, 65}};
  for (const auto& s : shapes) {
    common::Rng rng(19);
    nn::Tensor a = nn::Tensor::RandomNormal({s.n, s.k}, 1.0f, &rng, false);
    nn::Tensor b = nn::Tensor::RandomNormal({s.k, s.m}, 1.0f, &rng, false);
    a.data()[0] = 0.0f;  // Exercise the zero skip.
    simd::SetTarget(Target::kScalar);
    const nn::Tensor expected = nn::MatMul(a, b);
    for (Target target : SimdTargets()) {
      ScopedTarget forced(target);
      ASSERT_TRUE(forced.ok());
      const nn::Tensor actual = nn::MatMul(a, b);
      for (size_t i = 0; i < expected.data().size(); ++i) {
        ExpectRelNear(expected.data()[i], actual.data()[i], kRelTol);
      }
    }
  }
  simd::ResetTarget();
}

TEST(SimdMatMulTest, GradientCheckUnderEveryDispatchMode) {
  // Finite-difference check of d(sum(A B))/dA and /dB under each target:
  // the backward micro-kernels (strided-A accumulation and the Bt dot
  // path) must stay consistent with their own forward.
  const int n = 5, k = 9, m = 11;  // Straddles the 8-lane width.
  for (Target target : simd::SupportedTargets()) {
    ScopedTarget forced(target);
    ASSERT_TRUE(forced.ok());
    common::Rng rng(29);
    nn::Tensor a = nn::Tensor::RandomNormal({n, k}, 1.0f, &rng, true);
    nn::Tensor b = nn::Tensor::RandomNormal({k, m}, 1.0f, &rng, true);
    nn::Tensor loss = nn::SumAll(nn::MatMul(a, b));
    loss.Backward();
    const float eps = 1e-2f;
    auto check = [&](nn::Tensor& t, size_t idx, float analytic) {
      const float saved = t.data()[idx];
      t.data()[idx] = saved + eps;
      const float hi = nn::SumAll(nn::MatMul(a, b)).item();
      t.data()[idx] = saved - eps;
      const float lo = nn::SumAll(nn::MatMul(a, b)).item();
      t.data()[idx] = saved;
      const float numeric = (hi - lo) / (2.0f * eps);
      EXPECT_NEAR(analytic, numeric,
                  1e-2 * std::max(1.0f, std::fabs(numeric)))
          << simd::TargetName(target) << " idx " << idx;
    };
    for (size_t idx : {size_t{0}, size_t{7}, size_t{n * k - 1}}) {
      check(a, idx, a.grad()[idx]);
    }
    for (size_t idx : {size_t{0}, size_t{10}, size_t{k * m - 1}}) {
      check(b, idx, b.grad()[idx]);
    }
  }
  simd::ResetTarget();
}

TEST(SimdMatMulTest, BackwardGradsMatchScalarForEveryTarget) {
  const int n = 17, k = 33, m = 9;
  common::Rng rng(37);
  const auto av = RandomF32(static_cast<size_t>(n) * k, 101);
  const auto bv = RandomF32(static_cast<size_t>(k) * m, 103);
  auto run = [&](Target target, std::vector<float>* ga,
                 std::vector<float>* gb) {
    ScopedTarget forced(target);
    ASSERT_TRUE(forced.ok());
    nn::Tensor a = nn::Tensor::FromVector({n, k}, av, true);
    nn::Tensor b = nn::Tensor::FromVector({k, m}, bv, true);
    nn::Tensor loss = nn::SumAll(nn::MatMul(a, b));
    loss.Backward();
    *ga = a.grad();
    *gb = b.grad();
  };
  std::vector<float> ga_s, gb_s;
  run(Target::kScalar, &ga_s, &gb_s);
  for (Target target : SimdTargets()) {
    std::vector<float> ga, gb;
    run(target, &ga, &gb);
    ASSERT_EQ(ga.size(), ga_s.size());
    for (size_t i = 0; i < ga.size(); ++i) {
      ExpectRelNear(ga_s[i], ga[i], kRelTol);
    }
    for (size_t i = 0; i < gb.size(); ++i) {
      ExpectRelNear(gb_s[i], gb[i], kRelTol);
    }
  }
}

}  // namespace
}  // namespace fcm
