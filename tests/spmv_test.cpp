#include <gtest/gtest.h>

#include "spec/stencil_spec.hpp"
#include "spmv/csr.hpp"
#include "spmv/partition.hpp"
#include "spmv/petsc_like.hpp"
#include "stencil/dist_stencil.hpp"
#include "stencil/serial.hpp"

namespace repro::spmv {
namespace {

TEST(Csr, GridMatrixStructure) {
  const int rows = 4, cols = 3;
  const CsrMatrix m =
      build_grid_matrix(rows, cols, stencil::Stencil5::test_weights());
  EXPECT_EQ(m.nrows, (rows + 2) * (cols + 2));
  EXPECT_EQ(m.ncols, m.nrows);
  // nnz = 5 per interior + 1 per ring row.
  const std::int64_t ring = m.nrows - rows * cols;
  EXPECT_EQ(m.nnz(), 5 * rows * cols + ring);
  EXPECT_EQ(static_cast<std::int64_t>(m.row_ptr.size()), m.nrows + 1);
  EXPECT_EQ(m.row_ptr.back(), m.nnz());
}

TEST(Csr, MultiplyMatchesSerialSweepBitForBit) {
  const stencil::Problem p = stencil::random_problem(9, 11, 1, 3);
  stencil::Grid2D grid(p.rows, p.cols);
  grid.fill(p.initial, p.boundary);
  stencil::Grid2D expected(p.rows, p.cols);
  const stencil::Stencil5 w = stencil::Stencil5::test_weights();
  serial_sweep(grid, expected, w);

  const CsrMatrix m = build_grid_matrix(p.rows, p.cols, w);
  std::vector<double> x(static_cast<std::size_t>(m.nrows));
  std::vector<double> y(static_cast<std::size_t>(m.nrows));
  for (int i = -1; i <= p.rows; ++i) {
    for (int j = -1; j <= p.cols; ++j) {
      x[static_cast<std::size_t>(grid_vec_index(p.rows, p.cols, i, j))] =
          grid.at(i, j);
    }
  }
  m.multiply(x, y);
  for (int i = -1; i <= p.rows; ++i) {
    for (int j = -1; j <= p.cols; ++j) {
      const double got =
          y[static_cast<std::size_t>(grid_vec_index(p.rows, p.cols, i, j))];
      EXPECT_EQ(got, expected.at(i, j)) << i << "," << j;
    }
  }
}

TEST(Csr, IdentityRowsFixBoundary) {
  const CsrMatrix m =
      build_grid_matrix(3, 3, stencil::Stencil5::laplace_jacobi());
  std::vector<double> x(static_cast<std::size_t>(m.nrows), 2.0);
  std::vector<double> y(static_cast<std::size_t>(m.nrows));
  m.multiply(x, y);
  // Ring rows are identity: y == x there.
  EXPECT_EQ(y[0], 2.0);
  EXPECT_EQ(y[static_cast<std::size_t>(m.nrows) - 1], 2.0);
}

TEST(Csr, TrafficModelCountsIndicesAndValues) {
  const CsrMatrix m =
      build_grid_matrix(10, 10, stencil::Stencil5::laplace_jacobi());
  const double expected =
      static_cast<double>(m.nnz()) * (8 + 8 + 8) +
      static_cast<double>(m.nrows) * (8 + 8);
  EXPECT_DOUBLE_EQ(m.traffic_bytes(), expected);
}

TEST(Csr, MultiplyRejectsSizeMismatch) {
  const CsrMatrix m =
      build_grid_matrix(3, 3, stencil::Stencil5::laplace_jacobi());
  std::vector<double> x(5), y(static_cast<std::size_t>(m.nrows));
  EXPECT_THROW(m.multiply(x, y), std::invalid_argument);
}

TEST(RowPartition, BalancedContiguousCovering) {
  const RowPartition part(100, 7);
  std::int64_t covered = 0;
  for (int r = 0; r < 7; ++r) {
    EXPECT_EQ(part.begin(r), covered);
    covered = part.end(r);
    EXPECT_GE(part.count(r), 100 / 7);
    EXPECT_LE(part.count(r), 100 / 7 + 1);
    for (std::int64_t row = part.begin(r); row < part.end(r); ++row) {
      EXPECT_EQ(part.owner(row), r);
    }
  }
  EXPECT_EQ(covered, 100);
  EXPECT_THROW(part.owner(100), std::out_of_range);
  EXPECT_THROW(part.owner(-1), std::out_of_range);
}

TEST(RowPartition, RejectsMoreRanksThanRows) {
  EXPECT_THROW(RowPartition(3, 4), std::invalid_argument);
}

class PetscLikeEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(PetscLikeEquivalence, MatchesSerialBitForBit) {
  const int nranks = GetParam();
  const stencil::Problem p = stencil::random_problem(14, 12, 7);
  const SpmvRunResult result = run_petsc_like(p, nranks);
  const stencil::Grid2D expected = solve_serial(p);
  EXPECT_EQ(stencil::Grid2D::max_abs_diff(expected, result.grid), 0.0);
  if (nranks > 1) {
    EXPECT_GT(result.messages, 0u);
    EXPECT_EQ(result.setup_messages,
              static_cast<std::uint64_t>(nranks) * (nranks - 1));
  } else {
    EXPECT_EQ(result.messages, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Ranks, PetscLikeEquivalence,
                         ::testing::Values(1, 2, 3, 4, 6, 8));

TEST(PetscLike, MatchesDistributedStencilExactly) {
  // The full triangle: SpMV == serial == distributed CA.
  const stencil::Problem p = stencil::random_problem(16, 16, 8);
  const SpmvRunResult spmv = run_petsc_like(p, 4);
  stencil::DistConfig dist_config;
  dist_config.decomp = {4, 4, 2, 2};
  dist_config.steps = 4;
  const stencil::DistResult dist = run_distributed(p, dist_config);
  EXPECT_EQ(stencil::Grid2D::max_abs_diff(spmv.grid, dist.grid), 0.0);
}

TEST(PetscLike, RunsTheProblemsOwnFivePointProgram) {
  // The CSR rows carry the spec's star5 weights (here the test weights, not
  // Problem{}'s Laplace default), so the SpMV run equals the serial solve.
  const stencil::Problem star5 =
      stencil::spec_problem(spec::StencilSpec::star5(), 24, 24, 4);
  EXPECT_EQ(stencil::Grid2D::max_abs_diff(run_petsc_like(star5, 4).grid,
                                          solve_serial(star5)),
            0.0);
  // Any other program has no 5-point matrix: refused, never run as Laplace.
  for (const char* name : {"star9", "box9", "advect2d"}) {
    const stencil::Problem other =
        stencil::spec_problem(spec::spec_by_name(name), 24, 24, 4);
    EXPECT_THROW(run_petsc_like(other, 4), std::invalid_argument) << name;
  }
}

TEST(PetscLike, MessageCountMatchesRowPartitionNeighbors) {
  // 1D row partition of a 2D grid: each rank needs rows owned by the ranks
  // directly above/below its block -> at most 2 neighbors, interior ranks
  // exactly 2. Messages per iteration = number of directed (owner->needer)
  // pairs.
  const stencil::Problem p = stencil::random_problem(16, 16, 5);
  const SpmvRunResult r = run_petsc_like(p, 4);
  // 4 contiguous blocks -> 3 cuts -> 6 directed pairs -> 6 msgs/iter.
  EXPECT_EQ(r.messages, 6u * 5u);
}

TEST(PetscLike, ZeroIterationsReturnsInitialField) {
  const stencil::Problem p = stencil::random_problem(8, 8, 0);
  const SpmvRunResult r = run_petsc_like(p, 2);
  for (int i = 0; i < p.rows; ++i) {
    for (int j = 0; j < p.cols; ++j) {
      EXPECT_DOUBLE_EQ(r.grid.at(i, j), p.initial(i, j));
    }
  }
}

TEST(PetscLike, TrafficModelShowsAtLeastTwiceTheStencilTraffic) {
  // The paper's explanation of the 2x PETSc gap: CSR moves >= 2x the bytes
  // per point compared with the 16-24 B/point tile stencil.
  EXPECT_GE(spmv_bytes_per_point(), 2.0 * kStencilBytesPerPointMin);
  const stencil::Problem p = stencil::random_problem(32, 32, 1);
  const SpmvRunResult r = run_petsc_like(p, 1);
  const double per_point =
      r.local_traffic_bytes_per_iter / (p.rows * p.cols);
  // Ring rows inflate the per-interior-point figure (the 32x32 interior has
  // a 132-cell ring); it must still land in the neighborhood of the analytic
  // constant: within [2x stencil-min, ~1.3x the interior-only figure].
  EXPECT_GT(per_point, 2.0 * kStencilBytesPerPointMin);
  EXPECT_LT(per_point, 1.5 * spmv_bytes_per_point());
}

}  // namespace
}  // namespace repro::spmv
