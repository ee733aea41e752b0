// Heat diffusion on a plate: the paper intro's motivating PDE scenario.
//
// A square metal plate has a heater clamped to its west edge (T = 100 C),
// the east edge is ice-cooled (0 C), and the north/south edges ramp
// linearly. Jacobi iteration relaxes the interior toward the steady-state
// temperature field; we run it with the CA-distributed solver, report
// convergence every so often, and render the final field as an ASCII
// heatmap.
//
// Usage: heat_diffusion [--n=48] [--rounds=5] [--iters-per-round=400]
//                       [--steps=6]
#include <cstdio>
#include <string>

#include "stencil/solver.hpp"
#include "support/options.hpp"

namespace {

using namespace repro;

/// Render the temperature field as an ASCII heatmap (row-downsampled).
void render(const stencil::Grid2D& grid, int max_rows, int max_cols) {
  static const char shades[] = " .:-=+*#%@";
  const int rstep = std::max(1, grid.rows() / max_rows);
  const int cstep = std::max(1, grid.cols() / max_cols);
  for (int i = 0; i < grid.rows(); i += rstep) {
    std::string line;
    for (int j = 0; j < grid.cols(); j += cstep) {
      const double t = grid.at(i, j) / 100.0;  // 0..1
      const int shade = std::clamp(static_cast<int>(t * 9.0), 0, 9);
      line += shades[shade];
    }
    std::printf("|%s|\n", line.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Options options(argc, argv);
  const int n = static_cast<int>(options.get_int("n", 48));
  const int rounds = static_cast<int>(options.get_int("rounds", 5));
  const int per_round = static_cast<int>(options.get_int("iters-per-round", 400));
  const int steps = static_cast<int>(options.get_int("steps", 6));

  // Problem{}'s stencil is star5 with the Laplace-Jacobi weights: each point
  // becomes the average of its four neighbors.
  stencil::Problem problem;
  problem.rows = n;
  problem.cols = n;
  problem.boundary = [n](long i, long j) {
    if (j < 0) return 100.0;  // heater on the west edge
    if (j >= n) return 0.0;   // ice bath on the east edge
    (void)i;
    return 100.0 * (1.0 - static_cast<double>(j) / (n - 1));  // linear ramp
  };
  problem.initial = [](long, long) { return 0.0; };

  std::printf("Heat plate %dx%d: west edge 100C, east edge 0C.\n", n, n);
  std::printf("Relaxing (up to) %d rounds of %d Jacobi iterations "
              "(CA s=%d, 2x2 virtual nodes) via solve_to_tolerance...\n\n",
              rounds, per_round, steps);

  stencil::DistConfig config;
  config.decomp = {n / 4, n / 4, 2, 2};
  config.steps = steps;
  config.workers_per_rank = 2;

  const double tolerance = 0.05;  // max change per round, in degrees C
  const stencil::IterativeSolveResult result = stencil::solve_to_tolerance(
      problem, config, tolerance, per_round, rounds);

  std::printf("ran %d iterations (%s), last per-round change %.4f C, "
              "%llu halo messages total\n",
              result.iterations,
              result.converged ? "converged" : "round cap reached",
              result.last_delta,
              static_cast<unsigned long long>(result.messages));

  std::printf("\nTemperature field (W=100C ... E=0C):\n");
  render(result.grid, 24, 64);
  const double center = result.grid.at(n / 2, n / 2);
  std::printf("\ncenter temperature: %.2f C (steady state: 50.00 C; plain "
              "Jacobi needs O(N^2) sweeps to converge)\n", center);
  return 0;
}
