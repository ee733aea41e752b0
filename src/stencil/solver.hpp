// Convergence-driven driver over the distributed solvers.
//
// The paper's benchmarks run a fixed iteration count; real applications run
// Jacobi until the update stalls. solve_to_tolerance() runs rounds of
// `round_iterations` sweeps through run_distributed(), warm-starting each
// round from the previous round's field (exact continuation: the entire
// solver state is the grid), until the max per-round change drops below
// `tolerance` or `max_rounds` elapse.
#pragma once

#include "stencil/dist_stencil.hpp"

namespace repro::stencil {

struct IterativeSolveResult {
  Grid2D grid;
  int iterations = 0;       ///< total sweeps performed
  double last_delta = 0.0;  ///< max |change| over the final round
  bool converged = false;
  std::uint64_t messages = 0;  ///< total remote messages across rounds
};

/// `problem.iterations` is ignored; rounds of `round_iterations` sweeps run
/// until max-change < tolerance. Each round restarts through restart_from, so
/// rank-3 problems throw std::invalid_argument, as do invalid arguments. The
/// compute
/// kernel is selected by `config.kernel`, exactly as in a direct
/// run_distributed() call.
IterativeSolveResult solve_to_tolerance(const Problem& problem,
                                        const DistConfig& config,
                                        double tolerance,
                                        int round_iterations = 50,
                                        int max_rounds = 1000);

}  // namespace repro::stencil
