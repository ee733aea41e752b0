// One tile step through both paths of step_tile: sweeping the inner
// rectangle from the previous state must give the same output buffer, ghost
// cells, ring and frozen planes included, as assembling the whole tile first.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "spec/stages.hpp"
#include "spec/stencil_spec.hpp"
#include "stencil/tile_step.hpp"
#include "support/rng.hpp"

namespace repro::stencil {
namespace {

std::vector<double> random_values(Rng& rng, std::size_t n) {
  std::vector<double> v(n);
  for (double& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// How one side of a tile gets its ghost cells on a step.
enum class SideKind {
  Edge,   ///< radius deep, never refreshed (the domain's edge)
  Line,   ///< radius deep, a same-node line every step
  Deep,   ///< radius * steps deep: a band at superstep starts, else the
          ///< region reaches into it
};

struct Coverage {
  int radius[4] = {};
  int frozen = 0, bands = 0, blocks = 0, local_corners = 0, ratio = 0,
      into_deep = 0, coeff = 0;
};

TEST(TileStep, SplitStepMatchesAssembledBitForBit) {
  // Seeded random geometries over every subset of refreshed sides: random
  // programs (radius 1-3, diagonal taps, rank 3 with frozen z planes),
  // superstep starts with deep bands and corner blocks, inner steps whose
  // region reaches into unrefreshed deep bands, same-node diagonal corners,
  // kernel_ratio sub-regions and variable coefficients, through every
  // kernel variant.
  Rng rng(0x7157E9);
  Coverage seen;
  unsigned long spec_seed = 1;
  for (int mask = 0; mask < 16; ++mask) {
    for (int round = 0; round < 24; ++round) {
      // Program: the star5 dispatch, the named specs, or a random spec.
      spec::StencilSpec sp;
      switch (rng.next_below(5)) {
        case 0: sp = spec::StencilSpec::star5(); break;
        case 1: sp = spec::StencilSpec::box9(); break;
        case 2: sp = spec::StencilSpec::heat3d(); break;
        default: sp = spec::random_spec(spec_seed++); break;
      }
      const int nz = sp.rank == 3 ? 1 + static_cast<int>(rng.next_below(3)) : 1;
      const spec::CompiledProgram prog = spec::compile_spec(sp, nz);
      const int r = prog.radius;
      const int steps = 1 + static_cast<int>(rng.next_below(3));
      const int depth = r * steps;
      const bool start = rng.next_below(2) == 0;
      const int jj = start ? 0 : static_cast<int>(rng.next_below(
                                     static_cast<std::uint64_t>(steps)));

      SideKind kind[4];
      for (Side s : kAllSides) {
        const bool refreshed = (mask >> static_cast<int>(s)) & 1;
        auto& k = kind[static_cast<int>(s)];
        if (refreshed) {
          k = start && rng.next_below(2) == 0 ? SideKind::Deep : SideKind::Line;
        } else {
          k = !start && rng.next_below(2) == 0 ? SideKind::Deep
                                               : SideKind::Edge;
        }
      }
      const auto ghost = [&](Side s) {
        return kind[static_cast<int>(s)] == SideKind::Deep ? depth : r;
      };
      const int h = depth + static_cast<int>(rng.next_below(24));
      const int w = depth + static_cast<int>(rng.next_below(24));
      const TileGeom g{h, w, ghost(Side::North), ghost(Side::South),
                       ghost(Side::West), ghost(Side::East)};
      const std::size_t n = static_cast<std::size_t>(prog.nfield) * g.size();

      TileStep step;
      step.program = &prog;
      step.geom = g;
      const std::vector<double> prev = random_values(rng, n);
      step.prev = prev.data();
      std::vector<std::vector<double>> inputs;  // owns every refresh source
      inputs.reserve(16);
      GhostRefresh& refresh = step.refresh;
      refresh.depth = depth;
      for (Side s : kAllSides) {
        const auto i = static_cast<int>(s);
        if (kind[i] == SideKind::Line) {
          // A neighbour whose lateral extents match this tile's.
          const bool rows = s == Side::West || s == Side::East;
          const int extent = r + static_cast<int>(rng.next_below(8));
          const int g1 = static_cast<int>(rng.next_below(3));
          const int g2 = static_cast<int>(rng.next_below(3));
          const TileGeom ng = rows ? TileGeom{h, extent, g.gn, g.gs, g1, g2}
                                   : TileGeom{extent, w, g1, g2, g.gw, g.ge};
          inputs.push_back(random_values(
              rng, static_cast<std::size_t>(prog.nfield) * ng.size()));
          refresh.line[i] = inputs.back().data();
          refresh.line_geom[i] = ng;
        } else if (kind[i] == SideKind::Deep && start) {
          const int lateral = s == Side::North || s == Side::South ? w : h;
          inputs.push_back(random_values(
              rng, static_cast<std::size_t>(depth) * lateral * prog.nfield));
          refresh.band[i] = inputs.back();
          ++seen.bands;
        }
      }
      for (Corner c : kAllCorners) {
        const auto i = static_cast<int>(c);
        if (start && rng.next_below(3) == 0) {
          inputs.push_back(random_values(
              rng, static_cast<std::size_t>(depth) * depth * prog.nfield));
          refresh.block[i] = inputs.back();
          ++seen.blocks;
        }
        if (rng.next_below(4) == 0) {
          const TileGeom dg{depth + static_cast<int>(rng.next_below(6)),
                            depth + static_cast<int>(rng.next_below(6)), 1, 1,
                            1, 1};
          inputs.push_back(random_values(
              rng, static_cast<std::size_t>(prog.nfield) * dg.size()));
          refresh.corner[i] = inputs.back().data();
          refresh.corner_geom[i] = dg;
          ++seen.local_corners;
        }
      }

      // The region run_step computes for inner step jj, at times shrunk to
      // a kernel_ratio sub-rectangle.
      const int reach = depth - r * (jj + 1);
      Rect& region = step.region;
      region.r0 = kind[0] == SideKind::Deep ? -reach : 0;
      region.r1 = h + (kind[1] == SideKind::Deep ? reach : 0);
      region.c0 = kind[2] == SideKind::Deep ? -reach : 0;
      region.c1 = w + (kind[3] == SideKind::Deep ? reach : 0);
      if (reach > 0) ++seen.into_deep;
      if (rng.next_below(4) == 0) {
        const double ratio = rng.uniform(0.1, 1.0);
        const auto scaled = [ratio](int extent) {
          return std::max(1, static_cast<int>(std::lround(ratio * extent)));
        };
        region.r1 = region.r0 + scaled(region.r1 - region.r0);
        region.c1 = region.c0 + scaled(region.c1 - region.c0);
        ++seen.ratio;
      }
      std::vector<double> coeff;
      if (prog.star5 && rng.next_below(3) == 0) {
        coeff = random_values(rng, kCoeffPlanes * g.size());
        step.coeff = coeff.data();
        ++seen.coeff;
      }
      step.kernel = kAllKernelVariants[rng.next_below(3)];
      step.tuning.block_rows = 1 + static_cast<int>(rng.next_below(8));

      // Different stale contents, so a cell either path leaves unwritten
      // shows as a mismatch.
      std::vector<double> split(n, -0.0);
      std::vector<double> assembled(n, 1e300);
      step.out = split.data();
      step_tile(step, true);
      step.out = assembled.data();
      step_tile(step, false);
      ASSERT_TRUE(same_bits(split, assembled))
          << "mask " << mask << " round " << round << " spec "
          << sp.to_literal() << " nz " << nz << " tile " << h << "x" << w
          << " steps " << steps << " jj " << jj << " start " << start
          << " region [" << region.r0 << "," << region.r1 << ")x["
          << region.c0 << "," << region.c1 << ") kernel "
          << kernel_variant_name(step.kernel);

      ++seen.radius[r];
      if (prog.nfield > prog.nz) ++seen.frozen;
    }
  }
  // The draws must reach every shape the test names.
  EXPECT_GT(seen.radius[1], 0);
  EXPECT_GT(seen.radius[2], 0);
  EXPECT_GT(seen.radius[3], 0);
  EXPECT_GT(seen.frozen, 0);
  EXPECT_GT(seen.bands, 0);
  EXPECT_GT(seen.blocks, 0);
  EXPECT_GT(seen.local_corners, 0);
  EXPECT_GT(seen.ratio, 0);
  EXPECT_GT(seen.into_deep, 0);
  EXPECT_GT(seen.coeff, 0);
}

TEST(TileStep, RuleFollowsTileExtent) {
  // The tile geometry alone decides: both core extents must reach the
  // crossover; ghost depths do not count.
  const int x = kInnerSweepMinExtent;
  EXPECT_TRUE(sweeps_inner(TileGeom{x, x, 1, 1, 1, 1}));
  EXPECT_TRUE(sweeps_inner(TileGeom{x, 4 * x, 8, 8, 8, 8}));
  EXPECT_FALSE(sweeps_inner(TileGeom{x - 1, x, 1, 1, 1, 1}));
  EXPECT_FALSE(sweeps_inner(TileGeom{x, x - 1, 9, 9, 9, 9}));
  EXPECT_FALSE(sweeps_inner(TileGeom{32, 32, 1, 1, 1, 1}));
  EXPECT_TRUE(sweeps_inner(TileGeom{288, 288, 1, 1, 1, 1}));
}

TEST(TileStep, StepWithoutRefreshReadsThePreviousState) {
  // No refresh: the sweep reads the previous state directly, and every
  // cell outside the region is the previous state's, through both paths.
  const spec::CompiledProgram prog =
      spec::compile_spec(spec::StencilSpec::star5());
  const TileGeom g{70, 66, 3, 1, 1, 3};
  Rng rng(7);
  const std::vector<double> prev = random_values(rng, g.size());
  TileStep step;
  step.program = &prog;
  step.geom = g;
  step.prev = prev.data();
  step.region = {-2, 70, 0, 68};
  for (const bool inner : {true, false}) {
    std::vector<double> out(g.size(), 0.5);
    step.out = out.data();
    step_tile(step, inner);
    for (int i = -g.gn; i < g.h + g.gs; ++i) {
      for (int j = -g.gw; j < g.w + g.ge; ++j) {
        const bool swept = i >= -2 && i < 70 && j >= 0 && j < 68;
        if (swept) continue;
        ASSERT_EQ(out[g.idx(i, j)], prev[g.idx(i, j)]) << i << "," << j;
      }
    }
    const std::size_t c = g.idx(10, 10);
    const std::size_t ld = static_cast<std::size_t>(g.ld());
    const Stencil5 w = Stencil5::test_weights();  // star5()'s weights
    EXPECT_EQ(out[c], w.center * prev[c] + w.north * prev[c - ld] +
                          w.south * prev[c + ld] + w.west * prev[c - 1] +
                          w.east * prev[c + 1]);
  }
}

}  // namespace
}  // namespace repro::stencil
