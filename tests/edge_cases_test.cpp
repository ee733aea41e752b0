// Degenerate and boundary-of-domain configurations across the stack.
#include <gtest/gtest.h>

#include "net/link_model.hpp"
#include "runtime/ptg.hpp"
#include "runtime/runtime.hpp"
#include "stencil/dist_stencil.hpp"
#include "stencil/serial.hpp"

namespace repro {
namespace {

using namespace repro::stencil;

TEST(EdgeCases, OneRowGrid) {
  const Problem problem = random_problem(1, 24, 5);
  const Grid2D expected = solve_serial(problem);
  DistConfig config;
  config.decomp = {1, 6, 1, 2};
  config.steps = 1;
  const DistResult result = run_distributed(problem, config);
  EXPECT_EQ(Grid2D::max_abs_diff(expected, result.grid), 0.0);
}

TEST(EdgeCases, OneColumnGrid) {
  const Problem problem = random_problem(24, 1, 5);
  const Grid2D expected = solve_serial(problem);
  DistConfig config;
  config.decomp = {6, 1, 2, 1};
  config.steps = 1;
  const DistResult result = run_distributed(problem, config);
  EXPECT_EQ(Grid2D::max_abs_diff(expected, result.grid), 0.0);
}

TEST(EdgeCases, SingleCellTiles) {
  // Tiles of 1x1: maximal task count, every neighbor interaction explicit.
  const Problem problem = random_problem(6, 6, 4);
  const Grid2D expected = solve_serial(problem);
  DistConfig config;
  config.decomp = {1, 1, 2, 2};
  config.steps = 1;
  const DistResult result = run_distributed(problem, config);
  EXPECT_EQ(Grid2D::max_abs_diff(expected, result.grid), 0.0);
  EXPECT_EQ(result.stats.tasks_executed, 36u * 5u);
}

TEST(EdgeCases, SingleIteration) {
  const Problem problem = random_problem(16, 16, 1);
  const Grid2D expected = solve_serial(problem);
  for (int steps : {1, 3}) {
    DistConfig config;
    config.decomp = {4, 4, 2, 2};
    config.steps = steps;
    const DistResult result = run_distributed(problem, config);
    EXPECT_EQ(Grid2D::max_abs_diff(expected, result.grid), 0.0) << steps;
  }
}

TEST(EdgeCases, IterationsSmallerThanStepSize) {
  // s=5 but only 2 iterations: a single, partially-used superstep.
  const Problem problem = random_problem(20, 20, 2);
  const Grid2D expected = solve_serial(problem);
  DistConfig config;
  config.decomp = {10, 10, 2, 2};
  config.steps = 5;
  const DistResult result = run_distributed(problem, config);
  EXPECT_EQ(Grid2D::max_abs_diff(expected, result.grid), 0.0);
}

TEST(EdgeCases, ManyWorkersFewTasks) {
  // More workers than tasks per rank: idle workers must not deadlock.
  const Problem problem = random_problem(8, 8, 2);
  DistConfig config;
  config.decomp = {4, 4, 2, 2};
  config.workers_per_rank = 8;
  const DistResult result = run_distributed(problem, config);
  EXPECT_EQ(Grid2D::max_abs_diff(solve_serial(problem), result.grid), 0.0);
}

TEST(EdgeCases, ConstantFieldIsFixedPointOfAveraging) {
  // With averaging weights and constant boundary = interior, every iterate
  // is the same constant — catches accidental scaling anywhere. Problem{}'s
  // stencil is star5 with the Laplace-Jacobi weights, which sum to 1.
  Problem problem;
  problem.rows = 12;
  problem.cols = 12;
  problem.iterations = 9;
  problem.initial = [](long, long) { return 4.25; };
  problem.boundary = [](long, long) { return 4.25; };
  DistConfig config;
  config.decomp = {4, 4, 2, 2};
  config.steps = 3;
  const DistResult result = run_distributed(problem, config);
  for (int i = 0; i < 12; ++i) {
    for (int j = 0; j < 12; ++j) {
      EXPECT_DOUBLE_EQ(result.grid.at(i, j), 4.25);
    }
  }
}

TEST(EdgeCases, TranslationInvarianceOfDecomposition) {
  // The same problem with two unrelated decompositions must agree exactly.
  const Problem problem = random_problem(24, 24, 7);
  DistConfig a;
  a.decomp = {3, 8, 2, 3};
  a.steps = 2;
  DistConfig b;
  b.decomp = {12, 4, 1, 2};
  b.steps = 3;
  const DistResult ra = run_distributed(problem, a);
  const DistResult rb = run_distributed(problem, b);
  EXPECT_EQ(Grid2D::max_abs_diff(ra.grid, rb.grid), 0.0);
}

TEST(EdgeCases, RuntimeObjectIsReusableAcrossGraphs) {
  rt::Runtime runtime(rt::Config{2, 1});
  for (int round = 0; round < 3; ++round) {
    rt::TaskGraph graph;
    rt::TaskSpec a;
    a.key = rt::TaskKey{1, round, 0, 0};
    a.rank = 0;
    a.body = [round](rt::TaskContext& ctx) {
      ctx.publish(0, std::vector<double>{static_cast<double>(round)});
    };
    graph.add_task(a);
    rt::TaskSpec b;
    b.key = rt::TaskKey{2, round, 0, 0};
    b.rank = 1;
    b.inputs = {{a.key, 0}};
    b.body = [](rt::TaskContext& ctx) {
      ctx.publish(0, std::vector<double>{ctx.input(0)[0] + 1});
    };
    graph.add_task(b);
    runtime.run(graph);
    EXPECT_DOUBLE_EQ((*runtime.result(b.key, 0))[0], round + 1.0);
  }
}

TEST(EdgeCases, RunStatsMessageSizeHistogramMatchesCounters) {
  const Problem problem = random_problem(16, 16, 3);
  DistConfig config;
  config.decomp = {4, 4, 2, 2};
  const DistResult r = run_distributed(problem, config);
  EXPECT_EQ(r.stats.message_sizes.total_count(), r.stats.messages);
  EXPECT_EQ(r.stats.message_sizes.total_bytes(), r.stats.bytes);
}

TEST(EdgeCases, IdealLinkHasNoPerByteCost) {
  const net::LinkModel link = net::ideal_link();
  EXPECT_DOUBLE_EQ(link.transfer_time(0), 0.0);
  EXPECT_DOUBLE_EQ(link.transfer_time(1 << 20), 0.0);
  EXPECT_DOUBLE_EQ(link.fraction_of_peak(1024), 0.0);  // no defined peak
}

TEST(EdgeCases, PtgClassWithNoParametersRunsOnce) {
  rt::ptg::PtgProgram program;
  int runs = 0;
  program.task_class("singleton").body(
      [&](rt::TaskContext&, const rt::ptg::Params&) { ++runs; });
  rt::TaskGraph graph = program.unfold();
  EXPECT_EQ(graph.size(), 1u);
  rt::Runtime runtime(rt::Config{1, 1});
  runtime.run(graph);
  EXPECT_EQ(runs, 1);
}

TEST(EdgeCases, AggregationWithCaAndShapesStaysExact) {
  // box9's diagonal taps add corner flows to the aggregated messages.
  const Problem problem = spec_problem(spec::StencilSpec::box9(), 18, 18, 6);
  const Grid2D expected = solve_serial(problem);
  DistConfig config;
  config.decomp = {6, 6, 3, 3};
  config.steps = 2;
  config.aggregate_messages = true;
  const DistResult result = run_distributed(problem, config);
  EXPECT_EQ(Grid2D::max_abs_diff(expected, result.grid), 0.0);
}

}  // namespace
}  // namespace repro
