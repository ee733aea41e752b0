// Optimized-kernel equivalence: every variant in kernel_opt.hpp must match
// the scalar jacobi5 reference BIT FOR BIT (EXPECT_EQ on doubles, tolerance
// 0.0). The variants only reorder independent per-point updates or change
// the instruction selection (AVX2 without FMA), never the per-point rounding
// sequence, so exact equality is the contract — asymmetric test_weights and
// odd tile shapes make any directional or tail-handling bug change the bits.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "spec/stencil_spec.hpp"
#include "stencil/dist_stencil.hpp"
#include "stencil/kernel_opt.hpp"
#include "stencil/serial.hpp"
#include "stencil/spec_kernel.hpp"

namespace repro::stencil {
namespace {

/// Deterministic, irregular fill so every cell is distinct and no value is
/// exactly representable in fewer bits than a full double.
std::vector<double> irregular_fill(const TileGeom& g, int salt) {
  std::vector<double> buf(g.size());
  for (int i = -g.gn; i < g.h + g.gs; ++i) {
    for (int j = -g.gw; j < g.w + g.ge; ++j) {
      buf[g.idx(i, j)] =
          std::sin(0.137 * i + 0.291 * j + 0.611 * salt) + 1e-3 * i - 7e-4 * j;
    }
  }
  return buf;
}

struct Rect {
  int r0, r1, c0, c1;
};

/// Geometries chosen so h, w, and every ghost depth differ (asymmetric),
/// with odd extents and widths straddling the AVX2 vector width.
const TileGeom kGeoms[] = {
    {7, 5, 1, 1, 1, 1},      // odd, smaller than one vector
    {13, 17, 2, 1, 3, 2},    // odd, asymmetric ghosts
    {9, 23, 4, 4, 4, 4},     // deep CA-style ghost band
    {6, 32, 1, 2, 2, 1},     // width a multiple of the vector width
};

Rect core_rect(const TileGeom& g) { return {0, g.h, 0, g.w}; }

/// A rectangle reaching into the ghost region on every side that has depth
/// for it (the CA redundant-compute shape), leaving one layer to read from.
Rect ghost_rect(const TileGeom& g) {
  return {-(g.gn - 1), g.h + (g.gs - 1), -(g.gw - 1), g.w + (g.ge - 1)};
}

class KernelOptEquivalence : public ::testing::TestWithParam<KernelVariant> {};

TEST_P(KernelOptEquivalence, MatchesScalarBitForBit) {
  const KernelVariant variant = GetParam();
  const Stencil5 w = Stencil5::test_weights();
  int salt = 0;
  for (const TileGeom& g : kGeoms) {
    for (const Rect r : {core_rect(g), ghost_rect(g)}) {
      if (r.r1 <= r.r0 || r.c1 <= r.c0) continue;
      if (r.r0 - 1 < -g.gn || r.r1 + 1 > g.h + g.gs || r.c0 - 1 < -g.gw ||
          r.c1 + 1 > g.w + g.ge) {
        continue;  // ghost_rect needs depth >= 2 to leave a read layer
      }
      const std::vector<double> in = irregular_fill(g, ++salt);
      std::vector<double> expected(g.size(), -1.0);
      std::vector<double> actual(g.size(), -1.0);
      jacobi5(in.data(), expected.data(), g, w, r.r0, r.r1, r.c0, r.c1);

      // Both AVX2 forced off and (if the CPU has it) forced on, plus tiny
      // blocks so the blocked traversal crosses many block boundaries.
      for (const int force : {0, 1}) {
        for (const auto& [br, bc] : {std::pair{64, 1024}, std::pair{2, 3}}) {
          KernelTuning tuning;
          tuning.force_avx2 = force;
          tuning.block_rows = br;
          tuning.block_cols = bc;
          std::fill(actual.begin(), actual.end(), -1.0);
          jacobi5_opt(in.data(), actual.data(), g, w, r.r0, r.r1, r.c0, r.c1,
                      variant, tuning);
          for (std::size_t idx = 0; idx < expected.size(); ++idx) {
            ASSERT_EQ(expected[idx], actual[idx])
                << "variant=" << kernel_variant_name(variant)
                << " force_avx2=" << force << " block=" << br << "x" << bc
                << " idx=" << idx;
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllVariants, KernelOptEquivalence,
                         ::testing::ValuesIn(kAllKernelVariants),
                         [](const auto& info) {
                           return std::string(kernel_variant_name(info.param));
                         });

TEST(KernelOptApi, VariantNamesRoundTrip) {
  for (KernelVariant v : kAllKernelVariants) {
    EXPECT_EQ(parse_kernel_variant(kernel_variant_name(v)), v);
  }
  EXPECT_THROW(parse_kernel_variant("turbo"), std::invalid_argument);
  EXPECT_THROW(parse_kernel_variant(""), std::invalid_argument);
}

TEST(KernelOptApi, Avx2ForcingIsRespected) {
  KernelTuning off;
  off.force_avx2 = 0;
  EXPECT_FALSE(avx2_selected(off));
  KernelTuning on;
  on.force_avx2 = 1;
  // Forcing on still requires hardware support; never claims phantom AVX2.
  EXPECT_EQ(avx2_selected(on), avx2_available());
}

TEST(SolveSerialSpec, AllVariantsMatchSolveSerial) {
  // One padded-buffer loop serves every spec and every kernel variant; each
  // result equals solve_serial (for the 5-point program, its independent
  // serial_sweep loop) bit for bit. Odd extents leave ragged row tails.
  std::vector<Problem> problems = {random_problem(21, 17, 9),
                                   laplace_problem(19, 7)};
  for (const std::string& name : spec::spec_names()) {
    const spec::StencilSpec sp = spec::spec_by_name(name);
    if (sp.rank < 3) problems.push_back(spec_problem(sp, 21, 17, 9, 1, 5));
  }
  for (const Problem& problem : problems) {
    const Grid2D expected = solve_serial(problem);
    for (KernelVariant v : kAllKernelVariants) {
      const std::vector<Grid2D> actual = solve_serial_spec(problem, v);
      ASSERT_EQ(actual.size(), 1u);
      EXPECT_EQ(Grid2D::max_abs_diff(expected, actual[0]), 0.0)
          << problem.spec.name << " " << kernel_variant_name(v);
    }
  }
}

TEST(SolveSerialSpec, RejectsCoefficientProblems) {
  Problem coeff_problem = random_problem(8, 8, 2);
  coeff_problem.coefficient = [](long, long) {
    return std::array<double, kCoeffPlanes>{0.2, 0.2, 0.2, 0.2, 0.2};
  };
  EXPECT_THROW(solve_serial_spec(coeff_problem, KernelVariant::Vector),
               std::invalid_argument);
}

/// Dist-level invariance: the result is identical to serial whichever kernel
/// variant computes it, in the plain CA graph and in fused windows
/// (fuse_depth > 1, rt::fuse_supersteps), where one task sweeps every
/// shrinking region of a window. The fused cases are the window's edge
/// geometries: a ragged final window on a 3x3 node grid, one node whose 16
/// tiles have only local neighbors, and a single tile with no neighbor.
class DistVariantInvariance : public ::testing::TestWithParam<KernelVariant> {
};

TEST_P(DistVariantInvariance, MatchesSerialBitForBit) {
  const KernelVariant variant = GetParam();
  struct Case {
    int rows, cols, iterations;
    Decomposition decomp;
    int steps, fuse_depth;
  };
  const Case cases[] = {
      // steps bounded by the smallest remainder tile (23 % 4 = 3)
      {19, 23, 8, {5, 4, 2, 2}, 3, 1},
      {18, 18, 5, {6, 6, 3, 3}, 1, 3},    // windows 3 + 2
      {18, 18, 7, {6, 6, 3, 3}, 1, 3},    // windows 3 + 3 + 1
      {16, 16, 8, {4, 4, 1, 1}, 2, 2},    // window 4 fills each tile
      {16, 16, 8, {16, 16, 1, 1}, 2, 2},  // one tile, no neighbors
  };
  for (const Case& c : cases) {
    const Problem problem = random_problem(c.rows, c.cols, c.iterations);
    DistConfig config;
    config.decomp = c.decomp;
    config.steps = c.steps;
    config.fuse_depth = c.fuse_depth;
    config.workers_per_rank = 2;
    config.kernel = variant;
    config.tuning.block_rows = 3;  // tiny blocks: cross many block edges
    config.tuning.block_cols = 5;

    const DistResult result = run_distributed(problem, config);
    EXPECT_EQ(Grid2D::max_abs_diff(solve_serial(problem), result.grid), 0.0)
        << kernel_variant_name(variant) << " case " << (&c - cases);
    EXPECT_GE(result.computed_points, result.nominal_points);
  }
}

INSTANTIATE_TEST_SUITE_P(AllVariants, DistVariantInvariance,
                         ::testing::ValuesIn(kAllKernelVariants),
                         [](const auto& info) {
                           return std::string(kernel_variant_name(info.param));
                         });

}  // namespace
}  // namespace repro::stencil
