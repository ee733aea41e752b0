#include <gtest/gtest.h>

#include "spec/stencil_spec.hpp"
#include "stencil/serial.hpp"
#include "stencil/solver.hpp"

namespace repro::stencil {
namespace {

DistConfig small_config(int steps = 2) {
  DistConfig config;
  config.decomp = {8, 8, 2, 2};
  config.steps = steps;
  config.workers_per_rank = 2;
  return config;
}

TEST(Solver, WarmStartedRoundsEqualOneLongRun) {
  // k rounds of m sweeps must equal one run of k*m sweeps bit for bit —
  // warm starting is exact continuation, for the 5-point Laplace problem
  // and for a wide (radius-2) and a diagonal-tap spec.
  const DistConfig config = small_config();
  for (Problem problem : {laplace_problem(32, 60),
                          spec_problem(spec::StencilSpec::star9(), 32, 32, 60),
                          spec_problem(spec::StencilSpec::box9(), 32, 32,
                                       60)}) {
    const Grid2D reference = solve_serial(problem);
    const IterativeSolveResult result =
        solve_to_tolerance(problem, config, /*tolerance=*/1e-300,
                           /*round_iterations=*/20, /*max_rounds=*/3);
    EXPECT_EQ(result.iterations, 60) << problem.spec.name;
    EXPECT_FALSE(result.converged) << problem.spec.name;  // impossible
    EXPECT_EQ(Grid2D::max_abs_diff(reference, result.grid), 0.0)
        << problem.spec.name;
  }
}

TEST(Solver, ConvergesOnLaplaceAndStopsEarly) {
  const Problem problem = laplace_problem(16, 0);
  const IterativeSolveResult result =
      solve_to_tolerance(problem, small_config(), /*tolerance=*/1e-6,
                         /*round_iterations=*/50, /*max_rounds=*/200);
  EXPECT_TRUE(result.converged);
  EXPECT_LT(result.last_delta, 1e-6);
  EXPECT_LT(result.iterations, 200 * 50);  // stopped before the cap
  EXPECT_GT(result.iterations, 50);        // but needed more than one round
  // Converged field must be close to the discrete harmonic solution:
  // interior values bounded by boundary extremes.
  for (int i = 0; i < 16; ++i) {
    for (int j = 0; j < 16; ++j) {
      EXPECT_GE(result.grid.at(i, j), 0.0);
      EXPECT_LE(result.grid.at(i, j), 1.0);
    }
  }
  EXPECT_GT(result.messages, 0u);
}

TEST(Solver, CaAndBaseConvergeToTheSameField) {
  const Problem problem = laplace_problem(24, 0);
  const auto base = solve_to_tolerance(problem, small_config(1), 1e-8, 40);
  const auto ca = solve_to_tolerance(problem, small_config(4), 1e-8, 40);
  ASSERT_TRUE(base.converged);
  ASSERT_TRUE(ca.converged);
  // Same rounds structure -> identical sweep counts -> identical fields.
  EXPECT_EQ(base.iterations, ca.iterations);
  EXPECT_EQ(Grid2D::max_abs_diff(base.grid, ca.grid), 0.0);
  EXPECT_LT(ca.messages, base.messages);
}

TEST(Solver, ValidatesArguments) {
  const Problem problem = laplace_problem(16, 0);
  EXPECT_THROW(solve_to_tolerance(problem, small_config(), 0.0),
               std::invalid_argument);
  EXPECT_THROW(solve_to_tolerance(problem, small_config(), 1e-6, 0),
               std::invalid_argument);
  EXPECT_THROW(solve_to_tolerance(problem, small_config(), 1e-6, 10, 0),
               std::invalid_argument);
}

}  // namespace
}  // namespace repro::stencil
