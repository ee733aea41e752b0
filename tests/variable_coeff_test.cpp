// Variable-coefficient stencil (paper section III-A: coefficients "may be
// the same across the entire grid or differ at each grid point"): every
// implementation route must agree bit-for-bit on per-point coefficients.
#include <gtest/gtest.h>

#include <cmath>

#include "spmv/csr.hpp"
#include "spmv/petsc_like.hpp"
#include "stencil/dist_stencil.hpp"
#include "stencil/serial.hpp"

namespace repro::stencil {
namespace {

TEST(VariableKernel, ConstantPlanesMatchConstantKernelBitForBit) {
  const int tile = 7;
  const TileGeom g{tile, tile, 1, 1, 1, 1};
  const Stencil5 w = Stencil5::test_weights();

  std::vector<double> in(g.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    in[i] = std::sin(static_cast<double>(i));
  }
  std::vector<double> coeff(kCoeffPlanes * g.size());
  const double values[5] = {w.center, w.north, w.south, w.west, w.east};
  for (int plane = 0; plane < kCoeffPlanes; ++plane) {
    std::fill_n(coeff.begin() + plane * static_cast<long>(g.size()), g.size(),
                values[plane]);
  }

  std::vector<double> out_const(g.size(), -1.0), out_var(g.size(), -1.0);
  jacobi5(in.data(), out_const.data(), g, w, 0, tile, 0, tile);
  jacobi5_var(in.data(), out_var.data(), g, coeff.data(), 0, tile, 0, tile);
  for (int i = 0; i < tile; ++i) {
    for (int j = 0; j < tile; ++j) {
      EXPECT_EQ(out_var[g.idx(i, j)], out_const[g.idx(i, j)]) << i << "," << j;
    }
  }
}

TEST(VariableKernel, UsesPerPointCoefficients) {
  const TileGeom g{2, 2, 1, 1, 1, 1};
  std::vector<double> in(g.size(), 1.0);
  std::vector<double> coeff(kCoeffPlanes * g.size(), 0.0);
  // Point (0,0): only the center coefficient 2.0; point (1,1): only east 3.0.
  coeff[kCoeffCenter * g.size() + g.idx(0, 0)] = 2.0;
  coeff[kCoeffEast * g.size() + g.idx(1, 1)] = 3.0;
  std::vector<double> out(g.size(), -1.0);
  jacobi5_var(in.data(), out.data(), g, coeff.data(), 0, 2, 0, 2);
  EXPECT_DOUBLE_EQ(out[g.idx(0, 0)], 2.0);
  EXPECT_DOUBLE_EQ(out[g.idx(1, 1)], 3.0);
  EXPECT_DOUBLE_EQ(out[g.idx(0, 1)], 0.0);
}

TEST(VariableSerial, ConstantCoefficientFnMatchesConstantSweep) {
  const Problem base = random_problem(11, 13, 3);
  Problem variable = base;
  const Stencil5 w = Stencil5::test_weights();  // random_problem's weights
  variable.coefficient = [w](long, long) {
    return std::array<double, 5>{w.center, w.north, w.south, w.west, w.east};
  };
  const Grid2D a = solve_serial(base);
  const Grid2D b = solve_serial(variable);
  EXPECT_EQ(Grid2D::max_abs_diff(a, b), 0.0);
}

struct VarCase {
  int n, iters, tile, nodes, steps;
  friend std::ostream& operator<<(std::ostream& os, const VarCase& c) {
    return os << "n" << c.n << "_it" << c.iters << "_t" << c.tile << "_p"
              << c.nodes << "_s" << c.steps;
  }
};

class VariableDist : public ::testing::TestWithParam<VarCase> {};

TEST_P(VariableDist, MatchesSerialBitForBit) {
  const VarCase c = GetParam();
  const Problem problem = random_variable_problem(c.n, c.n, c.iters);
  DistConfig config;
  config.decomp = {c.tile, c.tile, c.nodes, c.nodes};
  config.steps = c.steps;
  config.workers_per_rank = 2;
  const DistResult result = run_distributed(problem, config);
  const Grid2D expected = solve_serial(problem);
  EXPECT_EQ(Grid2D::max_abs_diff(expected, result.grid), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, VariableDist,
    ::testing::Values(VarCase{16, 5, 4, 1, 1},    // single node, base
                      VarCase{16, 6, 4, 2, 1},    // distributed base
                      VarCase{16, 8, 4, 2, 3},    // CA: redundant band needs
                                                  // ghost-region coefficients
                      VarCase{18, 9, 6, 3, 4},    // CA, all-remote corners
                      VarCase{20, 7, 5, 2, 5}));  // CA s = tile

TEST(VariableSpmv, MatchesSerialBitForBit) {
  const Problem problem = random_variable_problem(14, 14, 6);
  const spmv::SpmvRunResult result = spmv::run_petsc_like(problem, 3);
  const Grid2D expected = solve_serial(problem);
  EXPECT_EQ(Grid2D::max_abs_diff(expected, result.grid), 0.0);
}

TEST(VariableSpmv, MatrixBuilderValidation) {
  EXPECT_THROW(spmv::build_grid_matrix_variable(4, 4, nullptr),
               std::invalid_argument);
  const Problem problem = random_variable_problem(4, 4, 1);
  const auto m = spmv::build_problem_matrix(problem);
  EXPECT_EQ(m.nnz(), 5 * 16 + (m.nrows - 16));
}

TEST(VariableDistCheck, VariableAndConstantDiffer) {
  // Sanity: the variable path is actually exercised (answers differ from the
  // constant-weight run of the same fields).
  Problem variable = random_variable_problem(12, 12, 4);
  Problem constant = variable;
  constant.coefficient = nullptr;
  const Grid2D a = solve_serial(variable);
  const Grid2D b = solve_serial(constant);
  EXPECT_GT(Grid2D::max_abs_diff(a, b), 0.0);
}

}  // namespace
}  // namespace repro::stencil
