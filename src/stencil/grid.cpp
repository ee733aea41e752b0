#include "stencil/grid.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace repro::stencil {

namespace {

/// Cells of a rows x cols grid plus its ring. Runs in the member
/// initializer, so bad dimensions throw before anything is allocated.
std::size_t checked_cells(int rows, int cols) {
  if (rows < 1 || cols < 1) {
    throw std::invalid_argument("Grid2D: dimensions must be >= 1");
  }
  return (static_cast<std::size_t>(rows) + 2) *
         (static_cast<std::size_t>(cols) + 2);
}

}  // namespace

Grid2D::Grid2D(int rows, int cols)
    : rows_(rows),
      cols_(cols),
      data_(AlignedBuffer<double>::zeroed(checked_cells(rows, cols))) {}

Grid2D Grid2D::uninitialized(int rows, int cols) {
  return {rows, cols, AlignedBuffer<double>(checked_cells(rows, cols))};
}

Grid2D Grid2D::clone() const {
  Grid2D copy = uninitialized(rows_, cols_);
  std::copy(data_.begin(), data_.end(), copy.data_.begin());
  return copy;
}

void Grid2D::fill(const CellFn& initial, const CellFn& boundary) {
  for (int i = 0; i < rows_; ++i) {
    for (int j = 0; j < cols_; ++j) at(i, j) = initial(i, j);
  }
  fill_ring(boundary);
}

void Grid2D::fill_ring(const CellFn& boundary) {
  for (int j = -1; j <= cols_; ++j) {
    at(-1, j) = boundary(-1, j);
    at(rows_, j) = boundary(rows_, j);
  }
  for (int i = 0; i < rows_; ++i) {
    at(i, -1) = boundary(i, -1);
    at(i, cols_) = boundary(i, cols_);
  }
}

double Grid2D::max_abs_diff(const Grid2D& a, const Grid2D& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    throw std::invalid_argument("Grid2D: shape mismatch in max_abs_diff");
  }
  double worst = 0.0;
  for (int i = 0; i < a.rows(); ++i) {
    for (int j = 0; j < a.cols(); ++j) {
      worst = std::max(worst, std::fabs(a.at(i, j) - b.at(i, j)));
    }
  }
  return worst;
}

double Grid2D::interior_sum() const {
  double sum = 0.0;
  for (int i = 0; i < rows_; ++i) {
    for (int j = 0; j < cols_; ++j) sum += at(i, j);
  }
  return sum;
}

}  // namespace repro::stencil
