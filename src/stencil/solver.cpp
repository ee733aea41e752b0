#include "stencil/solver.hpp"

#include <memory>
#include <stdexcept>
#include <utility>

namespace repro::stencil {

IterativeSolveResult solve_to_tolerance(const Problem& problem,
                                        const DistConfig& config,
                                        double tolerance,
                                        int round_iterations,
                                        int max_rounds) {
  if (tolerance <= 0.0 || round_iterations < 1 || max_rounds < 1) {
    throw std::invalid_argument("solve_to_tolerance: bad arguments");
  }
  IterativeSolveResult result{Grid2D(problem.rows, problem.cols), 0, 0.0,
                              false, 0};
  result.grid.fill(problem.initial, problem.boundary);

  for (int r = 0; r < max_rounds; ++r) {
    // Warm start: this round's initial condition is the current field.
    auto snapshot = std::make_shared<const Grid2D>(std::move(result.grid));
    DistResult step = run_distributed(
        restart_from(problem, snapshot, round_iterations), config);
    result.iterations += round_iterations;
    result.messages += step.stats.messages;
    result.last_delta = Grid2D::max_abs_diff(*snapshot, step.grid);
    result.grid = std::move(step.grid);
    if (result.last_delta < tolerance) {
      result.converged = true;
      break;
    }
  }
  return result;
}

}  // namespace repro::stencil
