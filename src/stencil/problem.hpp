// Problem definition shared by every implementation (serial, base, CA, SpMV).
#pragma once

#include <array>
#include <functional>

#include <optional>

#include "spec/stencil_spec.hpp"
#include "stencil/grid.hpp"
#include "stencil/kernel.hpp"

namespace repro::stencil {

/// Per-point coefficients (center, north, south, west, east) at global
/// coordinates — the paper's "variable-coefficient stencil".
using CoeffFn = std::function<std::array<double, 5>(long, long)>;

/// 3-coordinate field sampler for spec-driven problems: value at global
/// (i, j, z). Rank <= 2 specs are always sampled with z == 0; rank-3 specs
/// sample the boundary with z == -1 or z == nz for the Dirichlet z planes
/// (the z analogue of the ring convention in CellFn).
using CellFn3 = std::function<double(long, long, long)>;

struct Problem {
  int rows = 0;           ///< interior rows
  int cols = 0;           ///< interior cols
  int iterations = 0;     ///< number of Jacobi sweeps
  Stencil5 weights;       ///< constant coefficients (used when !coefficient)
  CellFn initial;         ///< interior initial condition u0(i,j)
  CellFn boundary;        ///< Dirichlet ring values g(i,j)
  /// When set, the stencil is variable-coefficient: `weights` is ignored and
  /// every point uses coefficient(i, j).
  CoeffFn coefficient;
  /// When set, the solve runs the spec's compiled stage (spec/stages.hpp):
  /// every spec — any rank, radius, or point subset — executes as one direct
  /// sweep with radius-deep halos. Mutually exclusive with `coefficient`;
  /// requires initial3/boundary3.
  std::optional<spec::StencilSpec> spec;
  int nz = 1;             ///< interior z planes (rank-3 specs only)
  CellFn3 initial3;       ///< spec path: interior initial condition u0(i,j,z)
  CellFn3 boundary3;      ///< spec path: Dirichlet values g(i,j,z)
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

}  // namespace repro::stencil
