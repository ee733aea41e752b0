// Problem definition shared by every implementation (serial, base, CA, SpMV).
#pragma once

#include <array>
#include <functional>
#include <memory>

#include "spec/stencil_spec.hpp"
#include "stencil/grid.hpp"
#include "stencil/kernel.hpp"

namespace repro::stencil {

/// Per-point coefficients (center, north, south, west, east) at global
/// coordinates — the paper's "variable-coefficient stencil".
using CoeffFn = std::function<std::array<double, 5>(long, long)>;

/// 3-coordinate field sampler for rank-3 problems: value at global (i, j, z).
/// The boundary is sampled with z == -1 or z == nz for the Dirichlet z planes
/// (the z analogue of the ring convention in CellFn).
using CellFn3 = std::function<double(long, long, long)>;

/// Problem{}'s stencil: star5 with the Laplace-Jacobi weights (c, n, s, w, e).
inline constexpr std::array<double, 5> kLaplaceJacobi5 = {0.0, 0.25, 0.25,
                                                          0.25, 0.25};

struct Problem {
  int rows = 0;           ///< interior rows
  int cols = 0;           ///< interior cols
  int iterations = 0;     ///< number of Jacobi sweeps
  /// The stencil. Every solve compiles it (spec/stages.hpp) and runs the one
  /// compiled stage, with radius-deep halos; the 5-point program dispatches
  /// the jacobi5 kernels.
  spec::StencilSpec spec = spec::StencilSpec::star5(kLaplaceJacobi5);
  /// When set, the 5-point program's weights are replaced point by point:
  /// every point uses coefficient(i, j). Requires a star5 spec.
  CoeffFn coefficient;
  int nz = 1;             ///< interior z planes (rank-3 specs only)
  /// Interior initial condition u0(i,j) and Dirichlet ring values g(i,j) of
  /// every rank <= 2 problem (rank-3 problems: z plane 0).
  CellFn initial;
  CellFn boundary;
  /// Rank-3 problems only: initial condition u0(i,j,z) and Dirichlet values
  /// g(i,j,z), the z boundary planes included.
  CellFn3 initial3;
  CellFn3 boundary3;
};

/// Variable-coefficient variant of random_problem: hash-based field AND
/// hash-based per-point coefficients (kept contractive: |sum| < 1).
Problem random_variable_problem(int rows, int cols, int iterations,
                                unsigned long seed = 99);

/// Laplace's equation on the unit square: zero interior, hot west wall,
/// linear ramps elsewhere — the classic Jacobi textbook setup.
Problem laplace_problem(int n, int iterations);

/// Deterministic pseudo-random initial/boundary data with asymmetric weights;
/// designed so that index bugs, transpositions, and halo mistakes change the
/// answer. `seed` varies the field.
Problem random_problem(int rows, int cols, int iterations,
                       unsigned long seed = 42);

/// Spec-driven analogue of random_problem: hash-based 3-coordinate field so
/// every cell (and every z plane) differs from its neighbors. `nz` is only
/// meaningful for rank-3 specs (must be 1 otherwise).
Problem spec_problem(spec::StencilSpec stencil, int rows, int cols,
                     int iterations, int nz = 1, unsigned long seed = 42);

/// `problem` continued from `snapshot`, its field after some sweeps: the same
/// stencil and boundary, `iterations` sweeps, and the snapshot's interior as
/// the initial condition. The Jacobi update is memoryless given the field, so
/// a chain of restarts equals one long run bit for bit. Throws
/// std::invalid_argument for rank-3 problems (a Grid2D holds one plane) and
/// for a snapshot of another shape.
Problem restart_from(const Problem& problem,
                     std::shared_ptr<const Grid2D> snapshot, int iterations);

}  // namespace repro::stencil
