// Optimized 5-point Jacobi kernel variants, bit-identical to scalar jacobi5.
//
// Two optimization layers behind the same per-point contract as jacobi5:
//
//   * Vector   — the inner loop in an explicitly vectorizable form, with an
//                AVX2 path under runtime dispatch (portable form otherwise).
//   * Blocked  — cache-blocked traversal with tunable block extents, calling
//                the vectorized row kernel per block.
//
// Every variant is one sweep and leaves the task graph unchanged. Temporal
// blocking (several steps per task) is not a kernel: it is the
// rt::fuse_supersteps graph rewrite (DistConfig::fuse_depth, DESIGN.md §17).
//
// Bit-equivalence rule (load-bearing, tested): every variant evaluates each
// point as (((w0*m + wn*u) + ws*d) + ww*w) + we*e with every multiply and add
// individually rounded. IEEE-754 ops are deterministic and Jacobi has no
// cross-point ordering, so any traversal/blocking order yields identical
// bits. The AVX2 path therefore uses explicit mul/add intrinsics and never
// FMA — fused contraction would change the rounding and break equivalence
// with the baseline (compiled without FMA).
#pragma once

#include <string>

#include "stencil/kernel.hpp"

namespace repro::stencil {

/// Kernel implementation selector, exposed as --kernel= on the bench CLIs.
enum class KernelVariant {
  Scalar,   ///< the reference jacobi5 loop (default)
  Vector,   ///< vectorized rows (AVX2 when available, portable otherwise)
  Blocked,  ///< cache-blocked traversal over vectorized rows
};

inline constexpr KernelVariant kAllKernelVariants[] = {
    KernelVariant::Scalar, KernelVariant::Vector, KernelVariant::Blocked};

/// Stable lowercase name ("scalar", "vector", "blocked").
const char* kernel_variant_name(KernelVariant v);

/// Inverse of kernel_variant_name; throws std::invalid_argument naming the
/// accepted spellings on anything else.
KernelVariant parse_kernel_variant(const std::string& name);

/// Tunables for the optimized variants. Defaults target a ~256 KiB L2: a
/// block of 64 x 1024 doubles touches three read rows + one write row per
/// sweep row and stays resident across the row loop.
struct KernelTuning {
  int block_rows = 64;    ///< cache-block height (rows per block)
  int block_cols = 1024;  ///< cache-block width (columns per block)
  /// AVX2 dispatch override: -1 = auto (REPRO_KERNEL_AVX2 env var if set,
  /// else CPU detection), 0 = force portable path, 1 = use AVX2 whenever the
  /// CPU has it. Forcing on without hardware support falls back to portable.
  int force_avx2 = -1;
};

/// True when this build and CPU can execute the AVX2 path.
bool avx2_available();

/// The dispatch decision jacobi5_opt will make for `tuning`: force_avx2
/// wins, then the REPRO_KERNEL_AVX2 env var ("on"/"off"/"1"/"0"), then CPU
/// detection. Never true when avx2_available() is false.
bool avx2_selected(const KernelTuning& tuning);

/// One Jacobi step over [r0,r1) x [c0,c1), same contract and bit-identical
/// results as jacobi5 (bounds may reach into ghost regions; all read cells
/// must lie within the padded extents).
void jacobi5_opt(const double* in, double* out, const TileGeom& geom,
                 const Stencil5& weights, int r0, int r1, int c0, int c1,
                 KernelVariant variant, const KernelTuning& tuning = {});

}  // namespace repro::stencil
