// Unit tests for the declarative stencil front end (src/spec): spec
// validation, named constructors, derived halo regions, ghost depths,
// compiled-program structure, and the serial oracle's bit-exact agreement
// with an independent direct wide-stencil sweep.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "equivalence_helpers.hpp"
#include "spec/stages.hpp"
#include "spec/stencil_spec.hpp"
#include "stencil/serial.hpp"
#include "stencil/solver.hpp"
#include "stencil/spec_kernel.hpp"

namespace repro::stencil {
namespace {

// Direct wide-stencil serial reference: radius-r ring, one sweep per
// iteration applying every tap at once in listed order. The compiled stage
// applies the same taps in the same order starting from w0*x, so the oracle
// must match it bit-for-bit.
std::vector<std::vector<double>> solve_direct(const Problem& p) {
  const spec::StencilSpec& sp = p.spec;
  const int r = sp.radius();
  const int nz = p.nz;
  const int rows = p.rows, cols = p.cols;
  auto idx = [&](int z, int i, int j) {
    return ((z + r) * (rows + 2 * r) + (i + r)) * (cols + 2 * r) + (j + r);
  };
  std::vector<double> cur(static_cast<std::size_t>(nz + 2 * r) *
                          (rows + 2 * r) * (cols + 2 * r));
  for (int z = -r; z < nz + r; ++z) {
    for (int i = -r; i < rows + r; ++i) {
      for (int j = -r; j < cols + r; ++j) {
        const bool in =
            z >= 0 && z < nz && i >= 0 && i < rows && j >= 0 && j < cols;
        if (sp.rank == 3) {
          cur[idx(z, i, j)] = in ? p.initial3(i, j, z) : p.boundary3(i, j, z);
        } else {
          cur[idx(z, i, j)] = in ? p.initial(i, j) : p.boundary(i, j);
        }
      }
    }
  }
  std::vector<double> nxt = cur;
  for (int k = 0; k < p.iterations; ++k) {
    for (int z = 0; z < nz; ++z) {
      for (int i = 0; i < rows; ++i) {
        for (int j = 0; j < cols; ++j) {
          double acc = 0.0;
          for (const spec::StencilPoint& pt : sp.points) {
            acc += pt.coeff * cur[idx(z + pt.offset[2], i + pt.offset[0],
                                      j + pt.offset[1])];
          }
          nxt[idx(z, i, j)] = acc;
        }
      }
    }
    std::swap(cur, nxt);
  }
  std::vector<std::vector<double>> out(nz, std::vector<double>(rows * cols));
  for (int z = 0; z < nz; ++z) {
    for (int i = 0; i < rows; ++i) {
      for (int j = 0; j < cols; ++j) out[z][i * cols + j] = cur[idx(z, i, j)];
    }
  }
  return out;
}

double oracle_vs_direct_maxdiff(const spec::StencilSpec& sp, int nz,
                                int iters) {
  const Problem p = spec_problem(sp, 12, 11, iters, nz, 7);
  const std::vector<Grid2D> oracle = solve_serial_spec(p);
  const auto ref = solve_direct(p);
  double maxd = 0.0;
  for (int z = 0; z < nz; ++z) {
    for (int i = 0; i < p.rows; ++i) {
      for (int j = 0; j < p.cols; ++j) {
        maxd = std::max(maxd,
                        std::fabs(oracle[z].at(i, j) - ref[z][i * p.cols + j]));
      }
    }
  }
  return maxd;
}

TEST(Spec, ValidateRejectsMalformedSpecs) {
  spec::StencilSpec s = spec::StencilSpec::star5();
  EXPECT_NO_THROW(s.validate());

  spec::StencilSpec empty = s;
  empty.points.clear();
  EXPECT_THROW(empty.validate(), std::invalid_argument);

  spec::StencilSpec bad_rank = s;
  bad_rank.rank = 4;
  EXPECT_THROW(bad_rank.validate(), std::invalid_argument);

  spec::StencilSpec dup = s;
  dup.points.push_back(dup.points.front());
  EXPECT_THROW(dup.validate(), std::invalid_argument);

  spec::StencilSpec far = s;
  far.points.push_back({{spec::kMaxRadius + 1, 0, 0}, 0.1});
  EXPECT_THROW(far.validate(), std::invalid_argument);

  spec::StencilSpec inactive = s;  // rank 2 but a z offset
  inactive.points.push_back({{0, 0, 1}, 0.1});
  EXPECT_THROW(inactive.validate(), std::invalid_argument);
}

TEST(Spec, NamedConstructorsAndLookup) {
  const auto& names = spec::spec_names();
  ASSERT_FALSE(names.empty());
  EXPECT_EQ(names.front(), "star5");  // the CLI default
  for (const std::string& name : names) {
    const spec::StencilSpec s = spec::spec_by_name(name);
    EXPECT_EQ(s.name, name);
    EXPECT_NO_THROW(s.validate());
    EXPECT_LT(s.coeff_sum(), 1.0 + 1e-12) << name << " must be contractive";
  }
  EXPECT_THROW(spec::spec_by_name("nope"), std::invalid_argument);

  // star5's tap order is jacobi5's accumulation order — the order is what
  // makes the recognized path bit-identical to the classic solver.
  const spec::StencilSpec s5 = spec::StencilSpec::star5();
  ASSERT_EQ(s5.points.size(), 5u);
  EXPECT_EQ(s5.points[0].offset, (std::array<int, 3>{0, 0, 0}));
  EXPECT_EQ(s5.points[1].offset, (std::array<int, 3>{-1, 0, 0}));
  EXPECT_EQ(s5.points[2].offset, (std::array<int, 3>{1, 0, 0}));
  EXPECT_EQ(s5.points[3].offset, (std::array<int, 3>{0, -1, 0}));
  EXPECT_EQ(s5.points[4].offset, (std::array<int, 3>{0, 1, 0}));
}

TEST(Spec, ReachIsPerAxisAndPerDirection) {
  const spec::StencilSpec a = spec::StencilSpec::advect2d();
  // Upwind: reads strictly one-sided on each active axis.
  const int up = a.reach(0, -1) + a.reach(0, 1);
  EXPECT_GE(up, 1);
  EXPECT_EQ(a.reach(2, -1), 0);
  EXPECT_EQ(a.reach(2, 1), 0);

  const spec::StencilSpec h = spec::StencilSpec::heat3d();
  EXPECT_EQ(h.reach(2, -1), 1);
  EXPECT_EQ(h.reach(2, 1), 1);
  EXPECT_EQ(h.radius_xy(), 1);
  EXPECT_EQ(h.radius(), 1);

  const spec::StencilSpec s9 = spec::StencilSpec::star9();
  EXPECT_EQ(s9.radius(), 2);
  EXPECT_EQ(s9.radius_xy(), 2);
}

TEST(Spec, DeriveHalosFacesAndCorners) {
  // Cross specs need faces only; box specs add the diagonal regions.
  const auto star = spec::derive_halos(spec::StencilSpec::star5());
  EXPECT_EQ(star.size(), 4u);
  for (const auto& h : star) EXPECT_EQ(h.order(), 1);

  const auto star2 = spec::derive_halos(spec::StencilSpec::star9());
  EXPECT_EQ(star2.size(), 4u);  // radius 2, still no corners
  for (const auto& h : star2) {
    const int axis = h.dir[0] != 0 ? 0 : 1;
    EXPECT_EQ(h.depth[axis], 2);
  }

  const auto box = spec::derive_halos(spec::StencilSpec::box9());
  EXPECT_EQ(box.size(), 8u);  // 4 faces + 4 corners
  int corners = 0;
  for (const auto& h : box) corners += h.order() == 2 ? 1 : 0;
  EXPECT_EQ(corners, 4);

  // Full 3D box: the complete 26-neighborhood.
  EXPECT_EQ(spec::derive_halos(spec::StencilSpec::box27()).size(), 26u);
}

TEST(Spec, RadiusAndGhostDepth) {
  // The compiled reach on the decomposed axes is max(1, radius_xy()): the
  // halo depth per step.
  EXPECT_EQ(spec::compile_spec(spec::StencilSpec::star5()).radius, 1);
  EXPECT_EQ(spec::compile_spec(spec::StencilSpec::box9()).radius, 1);
  EXPECT_EQ(spec::compile_spec(spec::StencilSpec::star9()).radius, 2);
  EXPECT_EQ(spec::compile_spec(spec::StencilSpec::heat3d(), 2).radius, 1);
  spec::StencilSpec z_only;  // reads along z only: still one cell deep
  z_only.rank = 3;
  z_only.points = {{{0, 0, 0}, 0.5}, {{0, 0, 1}, 0.25}};
  EXPECT_EQ(spec::compile_spec(z_only, 2).radius, 1);
  EXPECT_EQ(spec::ca_ghost_depth(spec::StencilSpec::star9(), 3), 6);
  EXPECT_EQ(spec::ca_ghost_depth(spec::StencilSpec::box9(), 3), 3);
}

TEST(Spec, CompiledProgramStructure) {
  // One stage: a field plane per cell whose taps are the spec's points at
  // their full offsets, in listed order.
  const spec::StencilSpec star9 = spec::StencilSpec::star9();
  const spec::CompiledProgram s9 = spec::compile_spec(star9, 1);
  EXPECT_EQ(s9.nfield, 1);
  EXPECT_EQ(s9.radius, 2);
  EXPECT_FALSE(s9.diagonal_taps);
  ASSERT_EQ(s9.outputs.size(), 1u);
  EXPECT_EQ(s9.outputs[0].plane, 0);
  ASSERT_EQ(s9.outputs[0].taps.size(), star9.points.size());
  for (std::size_t k = 0; k < star9.points.size(); ++k) {
    const spec::StageTap& tap = s9.outputs[0].taps[k];
    EXPECT_EQ(tap.plane, 0);
    EXPECT_EQ(tap.di, star9.points[k].offset[0]);
    EXPECT_EQ(tap.dj, star9.points[k].offset[1]);
    EXPECT_EQ(tap.w, star9.points[k].coeff);
  }
  EXPECT_EQ(s9.outputs[0].taps[5].di, -2);  // the taps reach 2

  const spec::CompiledProgram b9 = spec::compile_spec(
      spec::StencilSpec::box9(), 1);
  EXPECT_EQ(b9.radius, 1);
  EXPECT_TRUE(b9.diagonal_taps);

  // 2.5D: z folded into per-cell planes — nz field planes plus one frozen
  // Dirichlet ghost plane per read z direction; z offsets are plane deltas.
  const spec::CompiledProgram h = spec::compile_spec(
      spec::StencilSpec::heat3d(), 4);
  EXPECT_EQ(h.nfield, 6);
  ASSERT_EQ(h.outputs.size(), 4u);
  EXPECT_EQ(h.outputs[0].plane, 1);
  EXPECT_EQ(h.outputs[0].taps[5].plane, 0);  // (0, 0, -1): the ghost plane
  EXPECT_EQ(h.outputs[3].taps[6].plane, 5);  // (0, 0, +1): the ghost plane

  // The recognized 5-point fast path only fires for the exact star5 layout.
  EXPECT_TRUE(spec::compile_spec(spec::StencilSpec::star5(), 1)
                  .star5.has_value());
  EXPECT_FALSE(b9.star5.has_value());

  EXPECT_EQ(s9.flops_per_point(), 17.0);  // 9 multiplies + 8 adds
  EXPECT_EQ(h.flops_per_point(), 4 * 13.0);  // per 2D cell, all z planes
}

TEST(Spec, SingleStageSpecsMatchDirectBitForBit) {
  // The stage applies the taps in listed order starting from w0*x, exactly
  // like the direct sweep: no reassociation, so identity is exact.
  EXPECT_EQ(oracle_vs_direct_maxdiff(spec::StencilSpec::star5(), 1, 6), 0.0);
  EXPECT_EQ(oracle_vs_direct_maxdiff(spec::StencilSpec::box9(), 1, 5), 0.0);
  EXPECT_EQ(oracle_vs_direct_maxdiff(spec::StencilSpec::advect2d(), 1, 6),
            0.0);
}

TEST(Spec, WideAndRank3SpecsMatchDirectBitForBit) {
  // Radius-2 and rank-3 specs and random point sets up to radius 3: the
  // same single sweep, so also exact.
  EXPECT_EQ(oracle_vs_direct_maxdiff(spec::StencilSpec::star9(), 1, 5), 0.0);
  EXPECT_EQ(oracle_vs_direct_maxdiff(spec::StencilSpec::heat3d(), 4, 5), 0.0);
  EXPECT_EQ(oracle_vs_direct_maxdiff(spec::StencilSpec::box27(), 3, 4), 0.0);
  for (unsigned long seed = 1; seed <= 8; ++seed) {
    const spec::StencilSpec sp = spec::random_spec(seed);
    EXPECT_EQ(oracle_vs_direct_maxdiff(sp, sp.rank == 3 ? 3 : 1, 4), 0.0)
        << "seed " << seed << " spec " << sp.to_literal();
  }
}

TEST(Spec, ToLiteralIsExactAndNamesTheSpec) {
  const spec::StencilSpec sp = spec::random_spec(42);
  const std::string lit = sp.to_literal();
  EXPECT_NE(lit.find(sp.name), std::string::npos);
  // Coefficients print as hexfloats so a pasted literal reproduces the spec
  // bit-for-bit.
  EXPECT_NE(lit.find("0x1."), std::string::npos);
  EXPECT_NE(lit.find('p'), std::string::npos);
}

TEST(Spec, Star5ProgramBitIdenticalToSerialSweep) {
  // The compiled star5 program against serial_sweep, which shares no code
  // with it.
  const Problem p = spec_problem(spec::StencilSpec::star5(), 16, 13, 7, 1, 3);
  const std::vector<Grid2D> a = solve_serial_spec(p);
  const Grid2D b =
      test_support::serial_sweep_oracle(p, Stencil5::test_weights());
  EXPECT_EQ(Grid2D::max_abs_diff(a[0], b), 0.0);
}

TEST(Spec, SolveToToleranceRejectsRank3Problems) {
  // Rounds restart from a Grid2D snapshot, which holds one plane.
  const Problem p = spec_problem(spec::StencilSpec::heat3d(), 16, 16, 4, 2);
  DistConfig config;
  config.decomp = {8, 8, 2, 2};
  EXPECT_THROW(solve_to_tolerance(p, config, 1e-6, 4, 4),
               std::invalid_argument);
}

TEST(Spec, RandomSpecsAreAlwaysValid) {
  for (unsigned long seed = 0; seed < 64; ++seed) {
    const spec::StencilSpec sp = spec::random_spec(seed);
    EXPECT_NO_THROW(sp.validate()) << sp.to_literal();
    EXPECT_LE(sp.radius(), spec::kMaxRadius);
    EXPECT_NEAR(sp.coeff_sum(), 0.9, 1e-9);
  }
}

}  // namespace
}  // namespace repro::stencil
