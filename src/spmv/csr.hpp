// Compressed Sparse Row matrix with 64-bit indices (mini-PETSc substrate).
//
// The paper's PETSc baseline "expand[s] the 2D compute grid points into 1D
// solution vector, and the corresponding 5 points stencil update expresses
// as a sparse matrix", compiled "using 64-bit integers". Its performance gap
// vs the tile stencil is explained by exactly this structure: every FLOP
// drags a 64-bit column index along, "at the very least doubl[ing] the
// number of memory loads".
//
// To make the matrix route bit-identical to the stencil route, the vector
// includes the Dirichlet ring: boundary cells are rows of the identity, and
// interior rows store their five coefficients in the stencil's evaluation
// order (center, north, south, west, east).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "stencil/kernel.hpp"
#include "stencil/problem.hpp"

namespace repro::spmv {

struct CsrMatrix {
  std::int64_t nrows = 0;
  std::int64_t ncols = 0;
  std::vector<std::int64_t> row_ptr;  ///< size nrows+1
  std::vector<std::int64_t> col;      ///< size nnz, global column indices
  std::vector<double> val;            ///< size nnz

  std::int64_t nnz() const { return static_cast<std::int64_t>(col.size()); }

  /// y = A * x (serial). x.size() == ncols, y.size() == nrows.
  void multiply(std::span<const double> x, std::span<double> y) const;

  /// Bytes touched by one multiply under a cold-cache CSR traffic model:
  /// values + column indices + row pointers + one x load per entry + y store.
  double traffic_bytes() const;
};

/// Linear index of grid cell (i,j), i in [-1,rows], j in [-1,cols], in the
/// ring-extended vector of length (rows+2)*(cols+2).
inline std::int64_t grid_vec_index(int rows, int cols, int i, int j) {
  (void)rows;
  return static_cast<std::int64_t>(i + 1) * (cols + 2) + (j + 1);
}

/// Build the ring-extended Jacobi update matrix for a rows x cols interior:
/// interior rows carry the five stencil weights, ring rows are identity
/// (Dirichlet values are fixed points of the update).
CsrMatrix build_grid_matrix(int rows, int cols,
                            const stencil::Stencil5& weights);

/// Variable-coefficient variant: interior row (i,j) carries coefficient(i,j)
/// in the same (center, north, south, west, east) order.
CsrMatrix build_grid_matrix_variable(int rows, int cols,
                                     const stencil::CoeffFn& coefficient);

/// The problem's update matrix: the 5-point program's weights, or
/// problem.coefficient when set. Throws std::invalid_argument for any other
/// spec.
CsrMatrix build_problem_matrix(const stencil::Problem& problem);

}  // namespace repro::spmv
