// One tile step through both paths of step_tile: sweeping the inner
// rectangle from the previous state must give the same output buffer, ghost
// cells, ring and frozen planes included, as assembling the whole tile
// first; and a refresh must write the same buffer whether it reads the
// same-node producers' states or their packed edge lines.
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

/// One seeded random step and everything its refresh reads. Filled in
/// place: `step` points into the other members.
struct RandomStep {
  spec::StencilSpec sp;
  int nz = 1;
  spec::CompiledProgram prog;
  int steps = 1, jj = 0;
  bool start = false;
  SideKind kind[4] = {};
  TileStep step;
  std::vector<double> prev;
  std::vector<std::vector<double>> inputs;  ///< every refresh source
  std::vector<double> coeff;

  std::size_t size() const {
    return static_cast<std::size_t>(prog.nfield) * step.geom.size();
  }
  std::string describe() const {
    const TileGeom& g = step.geom;
    const Rect& region = step.region;
    return "spec " + sp.to_literal() + " nz " + std::to_string(nz) +
           " tile " + std::to_string(g.h) + "x" + std::to_string(g.w) +
           " steps " + std::to_string(steps) + " jj " + std::to_string(jj) +
           " start " + std::to_string(start) + " region [" +
           std::to_string(region.r0) + "," + std::to_string(region.r1) +
           ")x[" + std::to_string(region.c0) + "," +
           std::to_string(region.c1) + ") kernel " +
           kernel_variant_name(step.kernel);
  }
};

/// Draw one step whose refreshed sides are `mask`: a random program
/// (the star5 dispatch, the named specs or a random spec: radius 1-3,
/// diagonal taps, rank 3 with frozen z planes), a superstep start with deep
/// bands and corner blocks or an inner step whose region reaches into
/// unrefreshed deep bands, same-node lines over the deep lateral ghosts of
/// classic CA tiles, same-node diagonal corners, kernel_ratio sub-regions and
/// variable coefficients, through every kernel variant.
void draw_step(Rng& rng, int mask, unsigned long& spec_seed, Coverage& seen,
               RandomStep& rs) {
  switch (rng.next_below(5)) {
    case 0: rs.sp = spec::StencilSpec::star5(); break;
    case 1: rs.sp = spec::StencilSpec::box9(); break;
    case 2: rs.sp = spec::StencilSpec::heat3d(); break;
    default: rs.sp = spec::random_spec(spec_seed++); break;
  }
  rs.nz = rs.sp.rank == 3 ? 1 + static_cast<int>(rng.next_below(3)) : 1;
  rs.prog = spec::compile_spec(rs.sp, rs.nz);
  const spec::CompiledProgram& prog = rs.prog;
  const int r = prog.radius;
  rs.steps = 1 + static_cast<int>(rng.next_below(3));
  const int depth = r * rs.steps;
  rs.start = rng.next_below(2) == 0;
  rs.jj = rs.start ? 0
                   : static_cast<int>(rng.next_below(
                         static_cast<std::uint64_t>(rs.steps)));

  SideKind* kind = rs.kind;
  for (Side s : kAllSides) {
    const bool refreshed = (mask >> static_cast<int>(s)) & 1;
    auto& k = kind[static_cast<int>(s)];
    if (refreshed) {
      k = rs.start && rng.next_below(2) == 0 ? SideKind::Deep : SideKind::Line;
    } else {
      k = !rs.start && rng.next_below(2) == 0 ? SideKind::Deep : SideKind::Edge;
    }
  }
  const auto ghost = [&](Side s) {
    return kind[static_cast<int>(s)] == SideKind::Deep ? depth : r;
  };
  const int h = depth + static_cast<int>(rng.next_below(24));
  const int w = depth + static_cast<int>(rng.next_below(24));
  const TileGeom g{h, w, ghost(Side::North), ghost(Side::South),
                   ghost(Side::West), ghost(Side::East)};

  TileStep& step = rs.step;
  step.program = &prog;
  step.geom = g;
  rs.prev = random_values(rng, rs.size());
  step.prev = rs.prev.data();
  rs.inputs.reserve(16);
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
      rs.inputs.push_back(random_values(
          rng, static_cast<std::size_t>(prog.nfield) * ng.size()));
      refresh.line[i] = CellView(rs.inputs.back().data(), ng);
      refresh.line_geom[i] = ng;
    } else if (kind[i] == SideKind::Deep && rs.start) {
      const int lateral = s == Side::North || s == Side::South ? w : h;
      rs.inputs.push_back(random_values(
          rng, static_cast<std::size_t>(depth) * lateral * prog.nfield));
      refresh.band[i] = rs.inputs.back();
      ++seen.bands;
    }
  }
  for (Corner c : kAllCorners) {
    const auto i = static_cast<int>(c);
    if (rs.start && rng.next_below(3) == 0) {
      rs.inputs.push_back(random_values(
          rng, static_cast<std::size_t>(depth) * depth * prog.nfield));
      refresh.block[i] = rs.inputs.back();
      ++seen.blocks;
    }
    if (rng.next_below(4) == 0) {
      const TileGeom dg{depth + static_cast<int>(rng.next_below(6)),
                        depth + static_cast<int>(rng.next_below(6)), 1, 1, 1,
                        1};
      rs.inputs.push_back(random_values(
          rng, static_cast<std::size_t>(prog.nfield) * dg.size()));
      refresh.corner[i] = CellView(rs.inputs.back().data(), dg);
      refresh.corner_geom[i] = dg;
      ++seen.local_corners;
    }
  }

  // The region run_step computes for inner step jj, at times shrunk to a
  // kernel_ratio sub-rectangle.
  const int reach = depth - r * (rs.jj + 1);
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
  if (prog.star5 && rng.next_below(3) == 0) {
    rs.coeff = random_values(rng, kCoeffPlanes * g.size());
    step.coeff = rs.coeff.data();
    ++seen.coeff;
  }
  step.kernel = kAllKernelVariants[rng.next_below(3)];
  step.tuning.block_rows = 1 + static_cast<int>(rng.next_below(8));

  ++seen.radius[r];
  if (prog.nfield > prog.nz) ++seen.frozen;
}

/// The draws must reach every shape the tests name.
void expect_full_coverage(const Coverage& seen) {
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

/// Run `step` into a fresh buffer whose stale contents are `stale`.
std::vector<double> run(const TileStep& step, std::size_t n, double stale,
                        bool inner_sweep) {
  std::vector<double> out(n, stale);
  TileStep into = step;
  into.out = out.data();
  step_tile(into, inner_sweep);
  return out;
}

TEST(TileStep, SplitStepMatchesAssembledBitForBit) {
  // Seeded random geometries over every subset of refreshed sides
  // (draw_step): the split step's whole output buffer equals the assembled
  // step's bit for bit.
  Rng rng(0x7157E9);
  Coverage seen;
  unsigned long spec_seed = 1;
  for (int mask = 0; mask < 16; ++mask) {
    for (int round = 0; round < 24; ++round) {
      RandomStep rs;
      draw_step(rng, mask, spec_seed, seen, rs);
      // Different stale contents, so a cell either path leaves unwritten
      // shows as a mismatch.
      const std::vector<double> split = run(rs.step, rs.size(), -0.0, true);
      const std::vector<double> assembled =
          run(rs.step, rs.size(), 1e300, false);
      ASSERT_TRUE(same_bits(split, assembled))
          << "mask " << mask << " round " << round << " " << rs.describe();
    }
  }
  expect_full_coverage(seen);
}

TEST(TileStep, EdgeLinesRefreshLikeTheProducersState) {
  // The same seeded geometries, each refresh read twice: from the
  // producers' whole states and from their packed edge lines
  // (pack_edge_lines). Every same-node line reads the lines; a same-node
  // diagonal corner does wherever the tile's ghosts are radius deep on both
  // sides that meet there, as they are when the diagonal is on the same
  // node. Both paths of step_tile must write the same whole output buffer,
  // ghost cells included.
  Rng rng(0x7157E9);
  Coverage seen;
  int line_sides = 0, line_corners = 0;
  unsigned long spec_seed = 1;
  for (int mask = 0; mask < 16; ++mask) {
    for (int round = 0; round < 24; ++round) {
      RandomStep rs;
      draw_step(rng, mask, spec_seed, seen, rs);
      const int r = rs.prog.radius;
      const int nfield = rs.prog.nfield;
      const TileGeom& g = rs.step.geom;
      TileStep from_lines = rs.step;
      GhostRefresh& refresh = from_lines.refresh;
      std::vector<std::vector<double>> lines;
      lines.reserve(8);
      for (Side s : kAllSides) {
        const auto i = static_cast<int>(s);
        if (refresh.line[i].data == nullptr) continue;
        const TileGeom& ng = refresh.line_geom[i];
        lines.push_back(pack_edge_lines(refresh.line[i].data, ng, r, nfield));
        refresh.line[i] =
            edge_line_view(lines.back().data(), ng, opposite(s), r);
        ++line_sides;
      }
      for (Corner c : kAllCorners) {
        const auto i = static_cast<int>(c);
        const int rows = d_ti(c) < 0 ? g.gn : g.gs;
        const int cols = d_tj(c) < 0 ? g.gw : g.ge;
        if (refresh.corner[i].data == nullptr || rows != r || cols != r) {
          continue;
        }
        const TileGeom& dg = refresh.corner_geom[i];
        lines.push_back(
            pack_edge_lines(refresh.corner[i].data, dg, r, nfield));
        refresh.corner[i] =
            edge_line_view(lines.back().data(), dg,
                           d_ti(c) < 0 ? Side::South : Side::North, r);
        ++line_corners;
      }
      for (const bool inner_sweep : {true, false}) {
        ASSERT_TRUE(
            same_bits(run(rs.step, rs.size(), -0.0, inner_sweep),
                      run(from_lines, rs.size(), 1e300, inner_sweep)))
            << "mask " << mask << " round " << round << " inner sweep "
            << inner_sweep << " " << rs.describe();
      }
    }
  }
  expect_full_coverage(seen);
  EXPECT_GT(line_sides, 0);
  EXPECT_GT(line_corners, 0);
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
