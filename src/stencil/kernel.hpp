// Five-point Jacobi stencil kernel over halo-padded tiles.
//
// The paper's update (eq. 1) uses the general variable-weight form so every
// implementation performs the same 9 FLOP per point (5 multiplies + 4 adds):
//   x'(i,j) = w0*x(i,j) + wN*x(i-1,j) + wS*x(i+1,j) + wW*x(i,j-1) + wE*x(i,j+1)
#pragma once

#include <cstddef>

namespace repro::stencil {

/// Stencil coefficients. Constant-coefficient across the grid (the paper's
/// configuration); classic Jacobi-for-Laplace is {0, .25, .25, .25, .25}.
struct Stencil5 {
  double center = 0.0;
  double north = 0.25;
  double south = 0.25;
  double west = 0.25;
  double east = 0.25;

  static Stencil5 laplace_jacobi() { return {}; }

  /// A mildly asymmetric contraction used by tests so that directional bugs
  /// (swapped north/south, transposed indices) change the answer.
  static Stencil5 test_weights() { return {0.20, 0.23, 0.17, 0.19, 0.21}; }
};

inline constexpr double kFlopsPerPoint = 9.0;

/// Geometry of a halo-padded tile buffer. Core cells are addressed with
/// i in [0,h), j in [0,w); ghost cells with negative/overflowing indices up
/// to the per-side depths. Row-major with leading dimension ld().
struct TileGeom {
  int h = 0;   ///< core rows
  int w = 0;   ///< core cols
  int gn = 0;  ///< ghost depth above row 0
  int gs = 0;  ///< ghost depth below row h-1
  int gw = 0;  ///< ghost depth left of col 0
  int ge = 0;  ///< ghost depth right of col w-1

  int ld() const { return gw + w + ge; }
  int rows() const { return gn + h + gs; }
  std::size_t size() const {
    return static_cast<std::size_t>(rows()) * static_cast<std::size_t>(ld());
  }
  /// Linear index of cell (i,j); valid for i in [-gn, h+gs), j in [-gw, w+ge).
  std::size_t idx(int i, int j) const {
    return static_cast<std::size_t>(i + gn) * static_cast<std::size_t>(ld()) +
           static_cast<std::size_t>(j + gw);
  }

  friend bool operator==(const TileGeom&, const TileGeom&) = default;
};

/// Apply one Jacobi step over the rectangle [r0,r1) x [c0,c1) in core
/// coordinates (bounds may reach into the ghost region for the CA scheme's
/// redundant computation). Reads `in`, writes the same cells of `out`; both
/// buffers share `geom`. All read cells must lie within the padded extents:
/// the caller guarantees r0-1 >= -gn, r1 <= h+gs, etc.
void jacobi5(const double* in, double* out, const TileGeom& geom,
             const Stencil5& weights, int r0, int r1, int c0, int c1);

/// Number of coefficient planes in a variable-coefficient buffer and their
/// order (matching the constant-weight evaluation order).
inline constexpr int kCoeffPlanes = 5;
enum CoeffPlane { kCoeffCenter = 0, kCoeffNorth, kCoeffSouth, kCoeffWest,
                  kCoeffEast };

/// Variable-coefficient update (paper section III-A: "these coefficients may
/// ... differ at each grid point"). `coeff` holds kCoeffPlanes planes, each
/// laid out exactly like the tile buffer (geom.size() doubles per plane,
/// addressed via geom.idx). Evaluation order per point matches jacobi5, so
/// a variable run with constant planes is bit-identical to jacobi5.
void jacobi5_var(const double* in, double* out, const TileGeom& geom,
                 const double* coeff, int r0, int r1, int c0, int c1);

/// FLOPs performed over the rectangle [r0,r1) x [c0,c1): kFlopsPerPoint (9)
/// per updated point, zero when either extent is empty or inverted. The same
/// count applies to every jacobi5 path, including the variable-coefficient
/// jacobi5_var — per-point coefficients change which operands are loaded (5
/// extra plane reads per point), not the 5-multiply/4-add arithmetic — and
/// all optimized variants in kernel_opt.hpp. Redundant CA ghost-band work is
/// accounted by summing this over each step's region.
inline double jacobi5_flops(int r0, int r1, int c0, int c1) {
  if (r1 <= r0 || c1 <= c0) return 0.0;
  return kFlopsPerPoint * static_cast<double>(r1 - r0) *
         static_cast<double>(c1 - c0);
}

}  // namespace repro::stencil
