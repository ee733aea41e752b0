#include "stencil/serial.hpp"

#include <stdexcept>
#include <utility>
#include <vector>

#include "stencil/spec_kernel.hpp"

namespace repro::stencil {

void serial_sweep(const Grid2D& in, Grid2D& out, const Stencil5& weights) {
  const int rows = in.rows();
  const int cols = in.cols();
  for (int i = -1; i <= rows; ++i) {
    out.at(i, -1) = in.at(i, -1);
    out.at(i, cols) = in.at(i, cols);
  }
  for (int j = -1; j <= cols; ++j) {
    out.at(-1, j) = in.at(-1, j);
    out.at(rows, j) = in.at(rows, j);
  }
  for (int i = 0; i < rows; ++i) {
    for (int j = 0; j < cols; ++j) {
      out.at(i, j) = weights.center * in.at(i, j) +
                     weights.north * in.at(i - 1, j) +
                     weights.south * in.at(i + 1, j) +
                     weights.west * in.at(i, j - 1) +
                     weights.east * in.at(i, j + 1);
    }
  }
}

void serial_sweep_var(const Grid2D& in, Grid2D& out, const CoeffFn& coeff) {
  const int rows = in.rows();
  const int cols = in.cols();
  for (int i = -1; i <= rows; ++i) {
    out.at(i, -1) = in.at(i, -1);
    out.at(i, cols) = in.at(i, cols);
  }
  for (int j = -1; j <= cols; ++j) {
    out.at(-1, j) = in.at(-1, j);
    out.at(rows, j) = in.at(rows, j);
  }
  for (int i = 0; i < rows; ++i) {
    for (int j = 0; j < cols; ++j) {
      const auto w = coeff(i, j);
      out.at(i, j) = w[kCoeffCenter] * in.at(i, j) +
                     w[kCoeffNorth] * in.at(i - 1, j) +
                     w[kCoeffSouth] * in.at(i + 1, j) +
                     w[kCoeffWest] * in.at(i, j - 1) +
                     w[kCoeffEast] * in.at(i, j + 1);
    }
  }
}

Grid2D solve_serial_opt(const Problem& problem, KernelVariant variant,
                        const KernelTuning& tuning) {
  if (problem.coefficient) {
    throw std::invalid_argument(
        "solve_serial_opt supports only the plain constant-coefficient "
        "5-point stencil");
  }

  // One ring-padded "tile" covering the whole grid.
  const TileGeom g{problem.rows, problem.cols, 1, 1, 1, 1};
  std::vector<double> current(g.size());
  for (int i = -1; i < problem.rows + 1; ++i) {
    for (int j = -1; j < problem.cols + 1; ++j) {
      const bool inside = i >= 0 && i < problem.rows && j >= 0 &&
                          j < problem.cols;
      current[g.idx(i, j)] =
          inside ? problem.initial(i, j) : problem.boundary(i, j);
    }
  }
  std::vector<double> next = current;
  for (int iter = 0; iter < problem.iterations; ++iter) {
    jacobi5_opt(current.data(), next.data(), g, problem.weights, 0, g.h, 0,
                g.w, variant, tuning);
    std::swap(current, next);
  }

  Grid2D grid(problem.rows, problem.cols);
  grid.fill([&](long i, long j) { return current[g.idx(static_cast<int>(i),
                                                       static_cast<int>(j))]; },
            problem.boundary);
  return grid;
}

Grid2D solve_serial(const Problem& problem) {
  // Spec-driven problems run the compiled stage (the bit-exact oracle for
  // the spec-driven distributed path); z plane 0 is the field.
  if (problem.spec) {
    std::vector<Grid2D> planes = solve_serial_spec(problem);
    return std::move(planes.front());
  }

  Grid2D current(problem.rows, problem.cols);
  Grid2D next(problem.rows, problem.cols);
  current.fill(problem.initial, problem.boundary);
  next.fill(problem.initial, problem.boundary);

  for (int iter = 0; iter < problem.iterations; ++iter) {
    if (problem.coefficient) {
      serial_sweep_var(current, next, problem.coefficient);
    } else {
      serial_sweep(current, next, problem.weights);
    }
    std::swap(current, next);
  }
  return current;
}

}  // namespace repro::stencil
