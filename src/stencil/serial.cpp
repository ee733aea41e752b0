#include "stencil/serial.hpp"

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

Grid2D solve_serial(const Problem& problem) {
  const spec::CompiledProgram prog = compile_problem_spec(problem);
  if (!prog.star5) {
    std::vector<Grid2D> planes = solve_serial_spec(problem);
    return std::move(planes.front());
  }

  const auto& w = *prog.star5;
  const Stencil5 weights{w[0], w[1], w[2], w[3], w[4]};
  Grid2D current(problem.rows, problem.cols);
  Grid2D next(problem.rows, problem.cols);
  current.fill(problem.initial, problem.boundary);
  next.fill(problem.initial, problem.boundary);

  for (int iter = 0; iter < problem.iterations; ++iter) {
    if (problem.coefficient) {
      serial_sweep_var(current, next, problem.coefficient);
    } else {
      serial_sweep(current, next, weights);
    }
    std::swap(current, next);
  }
  return current;
}

}  // namespace repro::stencil
