#include "stencil/kernel_opt.hpp"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>
#include <string>

#if defined(__x86_64__) || defined(__i386__)
#define REPRO_KERNEL_X86 1
#include <immintrin.h>
#endif

namespace repro::stencil {

namespace {

// Portable row sweep: the same pointer form as jacobi5, kept in one place so
// the AVX2 tail and the no-AVX2 path share the exact expression.
void rows_portable(const double* in, double* out, const TileGeom& geom,
                   const Stencil5& weights, int r0, int r1, int c0, int c1) {
  const int ld = geom.ld();
  const double w0 = weights.center;
  const double wn = weights.north;
  const double ws = weights.south;
  const double ww = weights.west;
  const double we = weights.east;
  for (int i = r0; i < r1; ++i) {
    const double* mid = in + geom.idx(i, 0);
    const double* up = mid - ld;
    const double* down = mid + ld;
    double* dst = out + geom.idx(i, 0);
    for (int j = c0; j < c1; ++j) {
      dst[j] = w0 * mid[j] + wn * up[j] + ws * down[j] + ww * mid[j - 1] +
               we * mid[j + 1];
    }
  }
}

#ifdef REPRO_KERNEL_X86
// Explicit mul/add intrinsics only: target("avx2") does not enable FMA, so
// neither the intrinsics nor the scalar tail can be contracted, keeping the
// rounding identical to the baseline-ISA scalar kernel.
__attribute__((target("avx2"))) void rows_avx2(const double* in, double* out,
                                               const TileGeom& geom,
                                               const Stencil5& weights, int r0,
                                               int r1, int c0, int c1) {
  const int ld = geom.ld();
  const __m256d w0 = _mm256_set1_pd(weights.center);
  const __m256d wn = _mm256_set1_pd(weights.north);
  const __m256d ws = _mm256_set1_pd(weights.south);
  const __m256d ww = _mm256_set1_pd(weights.west);
  const __m256d we = _mm256_set1_pd(weights.east);
  for (int i = r0; i < r1; ++i) {
    const double* mid = in + geom.idx(i, 0);
    const double* up = mid - ld;
    const double* down = mid + ld;
    double* dst = out + geom.idx(i, 0);
    int j = c0;
    for (; j + 4 <= c1; j += 4) {
      __m256d acc = _mm256_mul_pd(w0, _mm256_loadu_pd(mid + j));
      acc = _mm256_add_pd(acc, _mm256_mul_pd(wn, _mm256_loadu_pd(up + j)));
      acc = _mm256_add_pd(acc, _mm256_mul_pd(ws, _mm256_loadu_pd(down + j)));
      acc = _mm256_add_pd(acc, _mm256_mul_pd(ww, _mm256_loadu_pd(mid + j - 1)));
      acc = _mm256_add_pd(acc, _mm256_mul_pd(we, _mm256_loadu_pd(mid + j + 1)));
      _mm256_storeu_pd(dst + j, acc);
    }
    for (; j < c1; ++j) {
      dst[j] = weights.center * mid[j] + weights.north * up[j] +
               weights.south * down[j] + weights.west * mid[j - 1] +
               weights.east * mid[j + 1];
    }
  }
}
#endif  // REPRO_KERNEL_X86

/// REPRO_KERNEL_AVX2 env override, read once: -1 unset, 0 off, 1 on.
int env_avx2_override() {
  static const int value = [] {
    const char* e = std::getenv("REPRO_KERNEL_AVX2");
    if (e == nullptr) return -1;
    const std::string s(e);
    if (s == "off" || s == "0" || s == "no" || s == "false") return 0;
    if (s == "on" || s == "1" || s == "yes" || s == "true") return 1;
    return -1;
  }();
  return value;
}

/// Vectorized sweep over one rectangle, AVX2-dispatched.
void rows_vector(const double* in, double* out, const TileGeom& geom,
                 const Stencil5& weights, int r0, int r1, int c0, int c1,
                 const KernelTuning& tuning) {
#ifdef REPRO_KERNEL_X86
  if (avx2_selected(tuning)) {
    rows_avx2(in, out, geom, weights, r0, r1, c0, c1);
    return;
  }
#endif
  (void)tuning;
  rows_portable(in, out, geom, weights, r0, r1, c0, c1);
}

/// Cache-blocked traversal over rows_vector. Pure reordering of independent
/// per-point updates, so bitwise equal to any other traversal.
void sweep_blocked(const double* in, double* out, const TileGeom& geom,
                   const Stencil5& weights, int r0, int r1, int c0, int c1,
                   const KernelTuning& tuning) {
  const int br = std::max(1, tuning.block_rows);
  const int bc = std::max(1, tuning.block_cols);
  for (int bi = r0; bi < r1; bi += br) {
    const int bi1 = std::min(bi + br, r1);
    for (int bj = c0; bj < c1; bj += bc) {
      const int bj1 = std::min(bj + bc, c1);
      rows_vector(in, out, geom, weights, bi, bi1, bj, bj1, tuning);
    }
  }
}

}  // namespace

const char* kernel_variant_name(KernelVariant v) {
  switch (v) {
    case KernelVariant::Scalar: return "scalar";
    case KernelVariant::Vector: return "vector";
    case KernelVariant::Blocked: return "blocked";
  }
  return "scalar";
}

KernelVariant parse_kernel_variant(const std::string& name) {
  for (KernelVariant v : kAllKernelVariants) {
    if (name == kernel_variant_name(v)) return v;
  }
  throw std::invalid_argument(
      "unknown kernel variant '" + name +
      "' (expected scalar, vector, or blocked)");
}

bool avx2_available() {
#if defined(REPRO_KERNEL_X86) && defined(__GNUC__)
  static const bool available = __builtin_cpu_supports("avx2");
  return available;
#else
  return false;
#endif
}

bool avx2_selected(const KernelTuning& tuning) {
  if (tuning.force_avx2 == 0) return false;
  if (tuning.force_avx2 == 1) return avx2_available();
  const int env = env_avx2_override();
  if (env == 0) return false;
  return avx2_available();
}

void jacobi5_opt(const double* in, double* out, const TileGeom& geom,
                 const Stencil5& weights, int r0, int r1, int c0, int c1,
                 KernelVariant variant, const KernelTuning& tuning) {
  if (r1 <= r0 || c1 <= c0) return;
  switch (variant) {
    case KernelVariant::Scalar:
      jacobi5(in, out, geom, weights, r0, r1, c0, c1);
      return;
    case KernelVariant::Vector:
      rows_vector(in, out, geom, weights, r0, r1, c0, c1, tuning);
      return;
    case KernelVariant::Blocked:
      sweep_blocked(in, out, geom, weights, r0, r1, c0, c1, tuning);
      return;
  }
}

}  // namespace repro::stencil
