// Declarative stencil front end: an N-dimensional stencil described as a set
// of (offset, coefficient) points, from which everything downstream is
// DERIVED rather than hand-coded — per-neighbor halo regions (faces, edges,
// corners), the CA ghost-band recompute depth, and the compiled stage
// (stages.hpp) the kernels sweep.
//
// Conventions:
//   * axis 0 = rows (i), axis 1 = cols (j) — the two DECOMPOSED axes the
//     tile grid distributes; axis 2 = z, folded into per-cell field planes
//     by compile_spec (rank-3 specs run as "2.5D": x/y over tiles, z in
//     planes).
//   * point ORDER is semantic: kernels accumulate taps in listed order, so
//     the order pins the floating-point rounding sequence. star5() lists
//     center, north, south, west, east — exactly jacobi5's order — which is
//     what makes the recognized 5-point program bit-identical to
//     serial_sweep.
//   * boundary semantics are Dirichlet (the repo-wide convention): every
//     cell outside the interior box holds a fixed g(i, j, z).
#pragma once

#include <array>
#include <string>
#include <vector>

namespace repro::spec {

inline constexpr int kMaxRank = 3;
inline constexpr int kMaxRadius = 3;

/// One stencil tap: offset vector (row, col, z; unused trailing axes zero)
/// plus its coefficient.
struct StencilPoint {
  std::array<int, 3> offset{0, 0, 0};
  double coeff = 0.0;
};

struct StencilSpec {
  /// Boundary-condition semantics. Only Dirichlet is implemented; the enum
  /// exists so specs carry their semantics explicitly.
  enum class Boundary { Dirichlet };

  std::string name = "custom";
  int rank = 2;  ///< 1..3 active axes
  std::vector<StencilPoint> points;
  Boundary boundary = Boundary::Dirichlet;

  /// Max Chebyshev reach over ALL axes.
  int radius() const;
  /// Max Chebyshev reach over the decomposed axes (0, 1) only — this, not
  /// radius(), sets the halo depth (z offsets are tile-local).
  int radius_xy() const;
  /// Max offset extent along `axis` toward `dir` (+1 or -1). 0 = the spec
  /// never reads that direction.
  int reach(int axis, int dir) const;
  double coeff_sum() const;
  /// Throws std::invalid_argument on malformed specs: bad rank, empty or
  /// duplicate points, offsets beyond kMaxRadius or on inactive axes.
  void validate() const;
  /// Reproducible literal form (brace-initializer style) — printed by the
  /// fuzz harnesses so a failing random spec can be pasted into a test.
  std::string to_literal() const;

  // Named constructors (the --stencil= pool).
  static StencilSpec star5();  ///< classic 2D 5-point, jacobi5 tap order
  static StencilSpec star5(const std::array<double, 5>& w);  ///< c,n,s,w,e
  static StencilSpec star9();    ///< 2D radius-2 cross (2-deep halos)
  static StencilSpec box9();     ///< 2D radius-1 box (corner exchanges)
  static StencilSpec heat3d();   ///< 3D 7-point (2.5D: z folded into planes)
  static StencilSpec advect2d(); ///< asymmetric 3-point upwind
  static StencilSpec box27();    ///< 3D radius-1 box
};

/// Stable CLI spelling list for --stencil= (star5 first: the default).
const std::vector<std::string>& spec_names();
/// Inverse of spec_names(); throws std::invalid_argument naming the accepted
/// spellings on anything else.
StencilSpec spec_by_name(const std::string& name);

/// Deterministic random spec for the fuzz pools: rank 1..3, radius <= 3,
/// a random point subset always containing the center, coefficients
/// hash-derived and normalized to sum 0.9 (contractive, so iterated random
/// fields stay bounded). Always valid.
StencilSpec random_spec(unsigned long seed);

// ------------------------------------------------------------ derived halos

/// One neighbor-direction ghost region the spec reads. `dir` has each
/// component in {-1, 0, 1} (not all zero); `depth[a]` is the number of cells
/// needed along every axis with dir[a] != 0 (0 on the others).
struct HaloRegion {
  std::array<int, 3> dir{0, 0, 0};
  std::array<int, 3> depth{0, 0, 0};
  /// 1 = face, 2 = edge, 3 = corner (number of nonzero dir axes).
  int order() const;
};

/// Direct-form halo regions: direction d is needed iff some point reads
/// strictly into that direction on EVERY nonzero axis of d simultaneously
/// (a cross spec needs faces only; a box spec needs faces + corners).
std::vector<HaloRegion> derive_halos(const StencilSpec& spec);

/// CA ghost-band depth on the decomposed axes for an s-step superstep:
/// max(1, radius_xy()) * steps.
int ca_ghost_depth(const StencilSpec& spec, int steps);

}  // namespace repro::spec
