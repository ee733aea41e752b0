#include "spmv/csr.hpp"

#include <array>
#include <stdexcept>

#include "spec/stages.hpp"

namespace repro::spmv {

void CsrMatrix::multiply(std::span<const double> x,
                         std::span<double> y) const {
  if (static_cast<std::int64_t>(x.size()) != ncols ||
      static_cast<std::int64_t>(y.size()) != nrows) {
    throw std::invalid_argument("CsrMatrix::multiply: size mismatch");
  }
  for (std::int64_t i = 0; i < nrows; ++i) {
    double sum = 0.0;
    for (std::int64_t k = row_ptr[i]; k < row_ptr[i + 1]; ++k) {
      sum += val[k] * x[static_cast<std::size_t>(col[k])];
    }
    y[static_cast<std::size_t>(i)] = sum;
  }
}

double CsrMatrix::traffic_bytes() const {
  const double entries = static_cast<double>(nnz());
  return entries * (sizeof(double) + sizeof(std::int64_t)   // val + col
                    + sizeof(double))                        // x gather
         + static_cast<double>(nrows) *
               (sizeof(std::int64_t) + sizeof(double));      // row_ptr + y
}

namespace {

/// Shared skeleton: weights(i, j) supplies the five coefficients per point.
template <typename WeightsAt>
CsrMatrix build_grid_matrix_impl(int rows, int cols, WeightsAt weights_at) {
  if (rows < 1 || cols < 1) {
    throw std::invalid_argument("build_grid_matrix: empty grid");
  }
  CsrMatrix m;
  m.nrows = static_cast<std::int64_t>(rows + 2) * (cols + 2);
  m.ncols = m.nrows;
  m.row_ptr.reserve(static_cast<std::size_t>(m.nrows) + 1);
  m.row_ptr.push_back(0);

  for (int i = -1; i <= rows; ++i) {
    for (int j = -1; j <= cols; ++j) {
      const bool ring = i < 0 || i >= rows || j < 0 || j >= cols;
      if (ring) {
        // Identity row: the Dirichlet value is a fixed point of the update.
        m.col.push_back(grid_vec_index(rows, cols, i, j));
        m.val.push_back(1.0);
      } else {
        // Stencil evaluation order: center, north, south, west, east — the
        // same floating-point order as the serial sweep and tile kernel, so
        // the SpMV route is bit-identical to the stencil routes.
        const std::array<double, 5> w = weights_at(i, j);
        m.col.push_back(grid_vec_index(rows, cols, i, j));
        m.val.push_back(w[stencil::kCoeffCenter]);
        m.col.push_back(grid_vec_index(rows, cols, i - 1, j));
        m.val.push_back(w[stencil::kCoeffNorth]);
        m.col.push_back(grid_vec_index(rows, cols, i + 1, j));
        m.val.push_back(w[stencil::kCoeffSouth]);
        m.col.push_back(grid_vec_index(rows, cols, i, j - 1));
        m.val.push_back(w[stencil::kCoeffWest]);
        m.col.push_back(grid_vec_index(rows, cols, i, j + 1));
        m.val.push_back(w[stencil::kCoeffEast]);
      }
      m.row_ptr.push_back(m.nnz());
    }
  }
  return m;
}

}  // namespace

CsrMatrix build_grid_matrix(int rows, int cols, const stencil::Stencil5& w) {
  return build_grid_matrix_impl(rows, cols, [&w](int, int) {
    return std::array<double, 5>{w.center, w.north, w.south, w.west, w.east};
  });
}

CsrMatrix build_grid_matrix_variable(int rows, int cols,
                                     const stencil::CoeffFn& coefficient) {
  if (!coefficient) {
    throw std::invalid_argument("build_grid_matrix_variable: null function");
  }
  return build_grid_matrix_impl(
      rows, cols, [&](int i, int j) { return coefficient(i, j); });
}

CsrMatrix build_problem_matrix(const stencil::Problem& problem) {
  const spec::CompiledProgram program =
      spec::compile_spec(problem.spec, problem.nz);
  if (!program.star5) {
    throw std::invalid_argument(
        "build_problem_matrix: only the 5-point program has a grid matrix (" +
        problem.spec.name + ")");
  }
  if (problem.coefficient) {
    return build_grid_matrix_variable(problem.rows, problem.cols,
                                      problem.coefficient);
  }
  return build_grid_matrix_impl(
      problem.rows, problem.cols,
      [&w = *program.star5](int, int) { return w; });
}

}  // namespace repro::spmv
