#include <gtest/gtest.h>

#include <cmath>

#include "stencil/grid.hpp"
#include "stencil/halo.hpp"
#include "stencil/kernel.hpp"
#include "stencil/problem.hpp"
#include "stencil/serial.hpp"
#include "stencil/tile_map.hpp"

namespace repro::stencil {
namespace {

TEST(TileGeom, IndexingAndSizes) {
  const TileGeom g{4, 6, 2, 1, 3, 2};  // h,w,gn,gs,gw,ge
  EXPECT_EQ(g.ld(), 3 + 6 + 2);
  EXPECT_EQ(g.rows(), 2 + 4 + 1);
  EXPECT_EQ(g.size(), 11u * 7u);
  EXPECT_EQ(g.idx(-2, -3), 0u);                    // top-left ghost corner
  EXPECT_EQ(g.idx(0, 0), 2u * 11u + 3u);           // core origin
  EXPECT_EQ(g.idx(4, 7), g.size() - 1);            // bottom-right ghost
}

TEST(Kernel, SinglePointMatchesHandComputation) {
  const TileGeom g{1, 1, 1, 1, 1, 1};
  std::vector<double> in(g.size(), 0.0);
  in[g.idx(0, 0)] = 2.0;   // center
  in[g.idx(-1, 0)] = 3.0;  // north
  in[g.idx(1, 0)] = 5.0;   // south
  in[g.idx(0, -1)] = 7.0;  // west
  in[g.idx(0, 1)] = 11.0;  // east
  std::vector<double> out(g.size(), -1.0);
  const Stencil5 w{0.1, 0.2, 0.3, 0.4, 0.5};
  jacobi5(in.data(), out.data(), g, w, 0, 1, 0, 1);
  EXPECT_DOUBLE_EQ(out[g.idx(0, 0)],
                   0.1 * 2 + 0.2 * 3 + 0.3 * 5 + 0.4 * 7 + 0.5 * 11);
  // Cells outside the region are untouched.
  EXPECT_DOUBLE_EQ(out[g.idx(-1, 0)], -1.0);
}

TEST(Kernel, MatchesSerialSweepOnFullGrid) {
  const Problem p = random_problem(13, 17, 1, 5);
  Grid2D grid(p.rows, p.cols);
  grid.fill(p.initial, p.boundary);
  Grid2D expect(p.rows, p.cols);
  const Stencil5 w = Stencil5::test_weights();  // random_problem's weights
  serial_sweep(grid, expect, w);

  // Same grid as one big tile with a one-deep ghost ring.
  const TileGeom g{p.rows, p.cols, 1, 1, 1, 1};
  std::vector<double> in(g.size());
  for (int i = -1; i <= p.rows; ++i) {
    for (int j = -1; j <= p.cols; ++j) in[g.idx(i, j)] = grid.at(i, j);
  }
  std::vector<double> out = in;
  jacobi5(in.data(), out.data(), g, w, 0, p.rows, 0, p.cols);
  for (int i = 0; i < p.rows; ++i) {
    for (int j = 0; j < p.cols; ++j) {
      EXPECT_DOUBLE_EQ(out[g.idx(i, j)], expect.at(i, j)) << i << "," << j;
    }
  }
}

TEST(Kernel, FlopsCount) {
  EXPECT_DOUBLE_EQ(jacobi5_flops(0, 10, 0, 10), 900.0);
  EXPECT_DOUBLE_EQ(jacobi5_flops(-3, 10, 0, 10), 9.0 * 13 * 10);
  EXPECT_DOUBLE_EQ(jacobi5_flops(5, 5, 0, 10), 0.0);
  EXPECT_DOUBLE_EQ(jacobi5_flops(6, 5, 0, 10), 0.0);
}

TEST(Grid, FillAndDiff) {
  Grid2D a(3, 3), b(3, 3);
  a.fill([](long i, long j) { return static_cast<double>(i * 10 + j); },
         [](long, long) { return -1.0; });
  b.fill([](long i, long j) { return static_cast<double>(i * 10 + j); },
         [](long, long) { return -2.0; });
  EXPECT_DOUBLE_EQ(Grid2D::max_abs_diff(a, b), 0.0);  // ring excluded
  b.at(2, 1) += 0.25;
  EXPECT_DOUBLE_EQ(Grid2D::max_abs_diff(a, b), 0.25);
  EXPECT_DOUBLE_EQ(a.at(-1, 0), -1.0);
  EXPECT_DOUBLE_EQ(a.at(3, 3), -1.0);
}

TEST(Grid, RejectsDegenerateShapes) {
  EXPECT_THROW(Grid2D(0, 5), std::invalid_argument);
  Grid2D a(2, 2), b(2, 3);
  EXPECT_THROW(Grid2D::max_abs_diff(a, b), std::invalid_argument);
}

// Callers such as run_resilient build a Grid2D straight from a problem's
// rows and cols, so a bad dimension must be diagnosed before the buffer is
// sized from it (a negative size once surfaced as std::bad_alloc).
TEST(Grid, RejectsNonPositiveDimensionsBeforeAllocating) {
  for (const int bad : {0, -1, -3, -100}) {
    EXPECT_THROW(Grid2D(bad, 10), std::invalid_argument) << "rows " << bad;
    EXPECT_THROW(Grid2D(10, bad), std::invalid_argument) << "cols " << bad;
  }
}

TEST(Grid, FillRingLeavesInteriorAlone) {
  Grid2D g(2, 3);
  g.fill([](long, long) { return 7.0; }, [](long, long) { return 0.0; });
  g.fill_ring([](long i, long j) { return static_cast<double>(i * 10 + j); });
  for (int i = -1; i <= 2; ++i) {
    for (int j = -1; j <= 3; ++j) {
      const bool ring = i < 0 || i >= 2 || j < 0 || j >= 3;
      EXPECT_EQ(g.at(i, j), ring ? i * 10.0 + j : 7.0) << i << "," << j;
    }
  }
}

TEST(Serial, LaplaceConvergesTowardHarmonicBounds) {
  // With the hot-west-wall Laplace problem, values stay within [0,1] and the
  // column adjacent to the hot wall warms monotonically over iterations.
  Problem p = laplace_problem(16, 50);
  const Grid2D g = solve_serial(p);
  for (int i = 0; i < p.rows; ++i) {
    for (int j = 0; j < p.cols; ++j) {
      EXPECT_GE(g.at(i, j), 0.0);
      EXPECT_LE(g.at(i, j), 1.0);
    }
  }
  EXPECT_GT(g.at(8, 0), g.at(8, 12));  // nearer the hot wall is warmer
}

TEST(Serial, ZeroIterationsReturnsInitialField) {
  const Problem p = random_problem(6, 7, 0);
  const Grid2D g = solve_serial(p);
  for (int i = 0; i < p.rows; ++i) {
    for (int j = 0; j < p.cols; ++j) {
      EXPECT_DOUBLE_EQ(g.at(i, j), p.initial(i, j));
    }
  }
}

TEST(TileMap, TileSizesCoverTheGrid) {
  const TileMap map(23, 17, 5, 4, 2, 2);
  EXPECT_EQ(map.tiles_r(), 5);
  EXPECT_EQ(map.tiles_c(), 5);
  int total_rows = 0;
  for (int ti = 0; ti < map.tiles_r(); ++ti) total_rows += map.tile_h(ti);
  EXPECT_EQ(total_rows, 23);
  int total_cols = 0;
  for (int tj = 0; tj < map.tiles_c(); ++tj) total_cols += map.tile_w(tj);
  EXPECT_EQ(total_cols, 17);
  EXPECT_EQ(map.tile_h(4), 3);  // remainder tile
  EXPECT_EQ(map.tile_w(4), 1);
  EXPECT_EQ(map.min_tile_extent(), 1);
}

TEST(TileMap, BlockOwnershipIsContiguousAndBalanced) {
  const TileMap map(64, 64, 8, 8, 4, 2);  // 8x8 tiles on 4x2 nodes
  // Contiguity: node row index is non-decreasing in ti.
  int prev = 0;
  for (int ti = 0; ti < map.tiles_r(); ++ti) {
    EXPECT_GE(map.node_r(ti), prev);
    EXPECT_LE(map.node_r(ti) - prev, 1);
    prev = map.node_r(ti);
  }
  EXPECT_EQ(map.node_r(map.tiles_r() - 1), 3);
  // Balance: every node owns the same tile count here (8*8 / 8 nodes).
  for (int rank = 0; rank < map.nodes(); ++rank) {
    EXPECT_EQ(map.tiles_on_rank(rank), 8);
  }
}

TEST(TileMap, UnbalancedBlocksDifferByAtMostOneRowOfTiles) {
  const TileMap map(70, 70, 10, 10, 3, 3);  // 7x7 tiles on 3x3 nodes
  int counts[3] = {0, 0, 0};
  for (int ti = 0; ti < map.tiles_r(); ++ti) counts[map.node_r(ti)]++;
  EXPECT_EQ(counts[0] + counts[1] + counts[2], 7);
  EXPECT_LE(std::abs(counts[0] - counts[2]), 1);
}

TEST(TileMap, RemotenessFollowsNodeBlocks) {
  const TileMap map(16, 16, 4, 4, 2, 2);  // 4x4 tiles, 2x2 nodes
  // Tile (1,1) is the bottom-right tile of node (0,0): south and east remote.
  EXPECT_FALSE(map.neighbor_remote(1, 1, -1, 0));
  EXPECT_FALSE(map.neighbor_remote(1, 1, 0, -1));
  EXPECT_TRUE(map.neighbor_remote(1, 1, 1, 0));
  EXPECT_TRUE(map.neighbor_remote(1, 1, 0, 1));
  EXPECT_TRUE(map.neighbor_remote(1, 1, 1, 1));  // diagonal
  // Global corner tile has no neighbors outside the grid.
  EXPECT_FALSE(map.neighbor_exists(0, 0, -1, 0));
  EXPECT_FALSE(map.neighbor_remote(0, 0, -1, 0));
}

TEST(TileMap, RejectsBadConfigurations) {
  EXPECT_THROW(TileMap(10, 10, 0, 5, 1, 1), std::invalid_argument);
  EXPECT_THROW(TileMap(10, 10, 5, 5, 3, 1), std::invalid_argument);
  EXPECT_THROW(TileMap(0, 10, 5, 5, 1, 1), std::invalid_argument);
}

class HaloRoundTrip : public ::testing::TestWithParam<int> {};

// Pack a band on one tile, unpack on the neighbor, verify cell-for-cell
// against global coordinates. The producer has core values f(gi,gj).
TEST_P(HaloRoundTrip, BandsLandOnMatchingGlobalCells) {
  const int depth = GetParam();
  const int h = 6, w = 5;
  auto f = [](int gi, int gj) { return gi * 100.0 + gj; };

  // Producer occupies global rows 0..5, cols 0..4. Consumer is its south
  // neighbor: rows 6..11, same cols, with a north ghost of `depth`.
  const TileGeom pg{h, w, 1, 1, 1, 1};
  std::vector<double> prod(pg.size(), -1.0);
  for (int i = 0; i < h; ++i) {
    for (int j = 0; j < w; ++j) prod[pg.idx(i, j)] = f(i, j);
  }
  const auto band = pack_band(prod.data(), pg, Side::South, depth);
  ASSERT_EQ(band.size(), static_cast<std::size_t>(depth) * w);

  const TileGeom cg{h, w, depth, 1, 1, 1};
  std::vector<double> cons(cg.size(), -7.0);
  unpack_band(cons.data(), cg, Side::North, band, depth);
  for (int d = 1; d <= depth; ++d) {
    for (int j = 0; j < w; ++j) {
      // Consumer cell (-d, j) is global row 6-d = producer row h-d.
      EXPECT_DOUBLE_EQ(cons[cg.idx(-d, j)], f(h - d, j)) << d << "," << j;
    }
  }
  // Nothing else was touched.
  EXPECT_DOUBLE_EQ(cons[cg.idx(0, 0)], -7.0);
  EXPECT_DOUBLE_EQ(cons[cg.idx(-1, -1)], -7.0);
}

TEST_P(HaloRoundTrip, EastWestBandsLandOnMatchingGlobalCells) {
  const int depth = GetParam();
  const int h = 4, w = 7;
  auto f = [](int gi, int gj) { return gi * 100.0 + gj; };

  // Producer global cols 0..6; consumer is its EAST neighbor with a west
  // ghost of `depth` (consumer col -d = producer col w-d).
  const TileGeom pg{h, w, 1, 1, 1, 1};
  std::vector<double> prod(pg.size(), -1.0);
  for (int i = 0; i < h; ++i) {
    for (int j = 0; j < w; ++j) prod[pg.idx(i, j)] = f(i, j);
  }
  const auto band = pack_band(prod.data(), pg, Side::East, depth);
  ASSERT_EQ(band.size(), static_cast<std::size_t>(h) * depth);

  const TileGeom cg{h, w, 1, 1, depth, 1};
  std::vector<double> cons(cg.size(), -7.0);
  unpack_band(cons.data(), cg, Side::West, band, depth);
  for (int i = 0; i < h; ++i) {
    for (int d = 1; d <= depth; ++d) {
      EXPECT_DOUBLE_EQ(cons[cg.idx(i, -d)], f(i, w - d)) << i << "," << d;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Depths, HaloRoundTrip, ::testing::Values(1, 2, 3, 5));

class CornerRoundTrip : public ::testing::TestWithParam<Corner> {};

TEST_P(CornerRoundTrip, CornersLandOnMatchingGlobalCells) {
  const Corner corner = GetParam();
  const int s = 3;
  const int h = 6, w = 6;
  auto f = [](int gi, int gj) { return gi * 100.0 + gj; };

  // The consumer tile sits at global origin (rows 0.., cols 0..); its
  // diagonal producer at `corner` direction. Producer core values follow the
  // global function; consumer ghost cells at the corner must match it.
  const int pti = d_ti(corner);  // -1 or 1
  const int ptj = d_tj(corner);
  const int prow0 = pti * h;  // producer's global origin
  const int pcol0 = ptj * w;

  const TileGeom pg{h, w, 1, 1, 1, 1};
  std::vector<double> prod(pg.size(), -1.0);
  for (int i = 0; i < h; ++i) {
    for (int j = 0; j < w; ++j) prod[pg.idx(i, j)] = f(prow0 + i, pcol0 + j);
  }
  const auto block = pack_corner(prod.data(), pg, opposite(corner), s);
  ASSERT_EQ(block.size(), static_cast<std::size_t>(s) * s);

  // Consumer ghost depths: s on both sides of this corner.
  const TileGeom cg{h, w,
                    (corner == Corner::NW || corner == Corner::NE) ? s : 1,
                    (corner == Corner::SW || corner == Corner::SE) ? s : 1,
                    (corner == Corner::NW || corner == Corner::SW) ? s : 1,
                    (corner == Corner::NE || corner == Corner::SE) ? s : 1};
  std::vector<double> cons(cg.size(), -7.0);
  unpack_corner(cons.data(), cg, corner, block, s);

  const int ri = d_ti(corner);
  const int rj = d_tj(corner);
  for (int a = 1; a <= s; ++a) {
    for (int b = 1; b <= s; ++b) {
      const int gi = ri < 0 ? -a : h - 1 + a;
      const int gj = rj < 0 ? -b : w - 1 + b;
      EXPECT_DOUBLE_EQ(cons[cg.idx(gi, gj)], f(gi, gj))
          << "corner cell (" << gi << "," << gj << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllCorners, CornerRoundTrip,
                         ::testing::Values(Corner::NW, Corner::NE, Corner::SW,
                                           Corner::SE));

TEST(Halo, MixedDepthCornerUsesSubBlock) {
  // Consumer with gn=3 (north remote) but gw=1 (west local): the NW corner
  // unpack must fill only the 3x1 strip.
  const int s = 3, h = 5, w = 5;
  const TileGeom pg{h, w, 1, 1, 1, 1};
  std::vector<double> prod(pg.size());
  for (int i = 0; i < h; ++i) {
    for (int j = 0; j < w; ++j) prod[pg.idx(i, j)] = i * 10.0 + j;
  }
  const auto block = pack_corner(prod.data(), pg, Corner::SE, s);

  const TileGeom cg{h, w, s, 1, 1, 1};
  std::vector<double> cons(cg.size(), -7.0);
  unpack_corner(cons.data(), cg, Corner::NW, block, s);
  for (int a = 1; a <= s; ++a) {
    // Consumer (-a,-1) = producer (h-a, w-1).
    EXPECT_DOUBLE_EQ(cons[cg.idx(-a, -1)], (h - a) * 10.0 + (w - 1));
  }
  EXPECT_DOUBLE_EQ(cons[cg.idx(0, 0)], -7.0);
}

TEST(Halo, LocalLineCopySpansExtendedExtent) {
  // Two horizontally adjacent tiles that both have 2-deep north ghosts; the
  // west-side local line must refresh all extended rows, including the ghost
  // rows, from the neighbor's east edge column.
  const int s = 2, h = 4, w = 3;
  const TileGeom g{h, w, s, 1, 1, 1};
  std::vector<double> nbr(g.size());
  for (int i = -s; i < h + 1; ++i) {
    for (int j = -1; j < w + 1; ++j) nbr[g.idx(i, j)] = i * 100.0 + j;
  }
  std::vector<double> mine(g.size(), -7.0);
  copy_local_line(mine.data(), g, Side::West, CellView(nbr.data(), g), g);
  for (int i = -s; i < h + 1; ++i) {
    EXPECT_DOUBLE_EQ(mine[g.idx(i, -1)], i * 100.0 + (w - 1));
  }
  EXPECT_DOUBLE_EQ(mine[g.idx(0, 0)], -7.0);
}

TEST(Halo, LocalLineNorthCopiesFullRowIncludingGhostCols) {
  const int h = 3, w = 4;
  const TileGeom g{h, w, 1, 1, 2, 1};  // 2-deep west ghost (west remote)
  std::vector<double> nbr(g.size());
  for (int i = -1; i < h + 1; ++i) {
    for (int j = -2; j < w + 1; ++j) nbr[g.idx(i, j)] = i * 100.0 + j;
  }
  std::vector<double> mine(g.size(), -7.0);
  copy_local_line(mine.data(), g, Side::North, CellView(nbr.data(), g), g);
  for (int j = -2; j < w + 1; ++j) {
    EXPECT_DOUBLE_EQ(mine[g.idx(-1, j)], (h - 1) * 100.0 + j);
  }
}

TEST(Halo, ValidatesGeometry) {
  const TileGeom g{4, 4, 1, 1, 1, 1};
  std::vector<double> buf(g.size(), 0.0);
  EXPECT_THROW(pack_band(buf.data(), g, Side::North, 5), std::invalid_argument);
  EXPECT_THROW(pack_band(buf.data(), g, Side::North, 0), std::invalid_argument);
  EXPECT_THROW(unpack_band(buf.data(), g, Side::North,
                           std::vector<double>(8, 0.0), 2),
               std::invalid_argument);
  EXPECT_THROW(pack_corner(buf.data(), g, Corner::NW, 5),
               std::invalid_argument);
  const TileGeom misaligned{4, 4, 2, 1, 1, 1};
  std::vector<double> nbr(misaligned.size(), 0.0);
  EXPECT_THROW(
      copy_local_line(buf.data(), g, Side::West,
                      CellView(nbr.data(), misaligned), misaligned),
      std::invalid_argument);
}

TEST(Halo, LocalLineDepthTwoCopiesBothColumns) {
  const int h = 4, w = 5, r = 2;
  const TileGeom g{h, w, r, r, r, r};
  std::vector<double> nbr(g.size());
  for (int i = -r; i < h + r; ++i) {
    for (int j = -r; j < w + r; ++j) nbr[g.idx(i, j)] = i * 100.0 + j;
  }
  std::vector<double> mine(g.size(), -7.0);
  copy_local_line(mine.data(), g, Side::West, CellView(nbr.data(), g), g, r);
  for (int i = -r; i < h + r; ++i) {
    for (int d = 1; d <= r; ++d) {
      // Our col -d = neighbor col w-d.
      EXPECT_DOUBLE_EQ(mine[g.idx(i, -d)], i * 100.0 + (w - d));
    }
  }
  EXPECT_DOUBLE_EQ(mine[g.idx(0, 0)], -7.0);
  // Depth mismatch rejected.
  EXPECT_THROW(copy_local_line(mine.data(), g, Side::West,
                               CellView(nbr.data(), g), g, 1),
               std::invalid_argument);
}

TEST(Halo, LocalCornerCopiesDiagonalCore) {
  const int h = 5, w = 5, r = 2;
  const TileGeom g{h, w, r, r, r, r};
  std::vector<double> diag(g.size());
  for (int i = 0; i < h; ++i) {
    for (int j = 0; j < w; ++j) diag[g.idx(i, j)] = i * 10.0 + j;
  }
  std::vector<double> mine(g.size(), -7.0);
  copy_local_corner(mine.data(), g, Corner::NW, CellView(diag.data(), g), g);
  for (int a = 1; a <= r; ++a) {
    for (int b = 1; b <= r; ++b) {
      // Our (-a,-b) = diag core (h-a, w-b).
      EXPECT_DOUBLE_EQ(mine[g.idx(-a, -b)], (h - a) * 10.0 + (w - b));
    }
  }
  EXPECT_DOUBLE_EQ(mine[g.idx(0, 0)], -7.0);
}

TEST(TileMapTopology, CornerNeighborsAreFirstClass) {
  // Regression for latent 4-neighbor assumptions: with one tile per node on
  // a 3x3 grid, EVERY neighbor of the center tile — corners included — is
  // remote, and the map must report the full 8-neighborhood. Spec-driven box
  // stencils route corner exchanges through exactly these queries.
  const TileMap map(12, 12, 4, 4, 3, 3);
  EXPECT_EQ(map.neighbor_count(1, 1), 8);
  EXPECT_EQ(map.neighbor_count(1, 1, /*remote_only=*/true), 8);
  // Corner tile: 3 neighbors (E, S, SE), all remote.
  EXPECT_EQ(map.neighbor_count(0, 0), 3);
  EXPECT_EQ(map.neighbor_count(0, 0, /*remote_only=*/true), 3);
  // Edge tile: 5 neighbors.
  EXPECT_EQ(map.neighbor_count(0, 1), 5);
  // Diagonal remoteness is distinct from face remoteness: on a 1x3 node
  // grid (columns split, rows shared) the center tile's N/S neighbors are
  // local but its diagonal neighbors are remote.
  const TileMap strips(12, 12, 4, 4, 1, 3);
  EXPECT_TRUE(strips.neighbor_remote(1, 1, 0, 1));
  EXPECT_FALSE(strips.neighbor_remote(1, 1, 1, 0));
  EXPECT_TRUE(strips.neighbor_remote(1, 1, 1, 1));
  EXPECT_TRUE(strips.neighbor_remote(1, 1, -1, -1));
  EXPECT_EQ(strips.neighbor_count(1, 1, /*remote_only=*/true), 6);
}

}  // namespace
}  // namespace repro::stencil
