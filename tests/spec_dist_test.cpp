// End-to-end distributed equivalence for spec-driven problems: every named
// spec (and a handful of random ones) run through run_distributed must match
// solve_serial_spec bit-for-bit on every z plane, under both schedulers and
// the optimized kernels, in base (steps=1) and CA (steps>1) mode. Radius-r
// cross and box point sets pin the wide-stencil CA geometry: r*s-deep ghosts,
// an r-per-step shrink and diagonal flows. The star5 program must
// additionally match the independent serial_sweep oracle with pinned traffic.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "equivalence_helpers.hpp"
#include "spec/stencil_spec.hpp"
#include "stencil/dist_stencil.hpp"
#include "stencil/serial.hpp"
#include "stencil/spec_kernel.hpp"

namespace repro::stencil {
namespace {

// 24x22 grid over 8x11 tiles on a 2x2 node grid: 3x2 tiles mixing remote
// and local sides in both dimensions, plus ragged edge tiles.
DistConfig small_config(int steps, rt::SchedPolicy sched,
                        KernelVariant kernel = KernelVariant::Scalar) {
  DistConfig config;
  config.decomp = {8, 11, 2, 2};
  config.steps = steps;
  config.workers_per_rank = 2;
  config.scheduler = sched;
  config.kernel = kernel;
  return config;
}

// Radius-r cross (box = false) or box stencil as a literal point set, listed
// center; (-k,0), (k,0), (0,-k), (0,k) for k = 1..r; then, for boxes, the
// off-axis cells row-major. Distinct contractive weights (sum 0.9), so index
// bugs and transpositions change the answer.
spec::StencilSpec cross_or_box(int r, bool box) {
  spec::StencilSpec sp;
  sp.name = (box ? "box" : "cross") + std::to_string(r);
  sp.points.push_back({{0, 0, 0}, 0.0});
  for (int k = 1; k <= r; ++k) {
    for (const auto& [di, dj] :
         {std::pair{-k, 0}, std::pair{k, 0}, std::pair{0, -k},
          std::pair{0, k}}) {
      sp.points.push_back({{di, dj, 0}, 0.0});
    }
  }
  if (box) {
    for (int di = -r; di <= r; ++di) {
      for (int dj = -r; dj <= r; ++dj) {
        if (di != 0 && dj != 0) sp.points.push_back({{di, dj, 0}, 0.0});
      }
    }
  }
  double sum = 0.0;
  for (std::size_t k = 0; k < sp.points.size(); ++k) {
    sp.points[k].coeff = 1.0 + 0.37 * static_cast<double>((k * 7) % 11);
    sum += sp.points[k].coeff;
  }
  for (spec::StencilPoint& p : sp.points) p.coeff *= 0.9 / sum;
  return sp;
}

// Thin wrapper over the shared oracle helper: runs the distributed solve and
// tags any mismatch with the spec literal plus the full configuration line.
::testing::AssertionResult planes_match(const Problem& problem,
                                        const DistConfig& config) {
  const DistResult d = run_distributed(problem, config);
  const auto match = test_support::planes_match(solve_serial_spec(problem), d);
  if (!match) {
    return ::testing::AssertionFailure()
           << match.message() << " spec " << problem.spec.to_literal() << " "
           << test_support::describe(config);
  }
  return match;
}

TEST(SpecDist, NamedSpecsBitExactAllSchedulers) {
  for (const std::string& name : spec::spec_names()) {
    const spec::StencilSpec sp = spec::spec_by_name(name);
    const int nz = sp.rank == 3 ? 3 : 1;
    const Problem problem = spec_problem(sp, 24, 22, 6, nz, 11);
    for (int steps : {1, 2}) {
      for (rt::SchedPolicy sched :
           {rt::SchedPolicy::PriorityFifo, rt::SchedPolicy::WorkStealing}) {
        EXPECT_TRUE(planes_match(problem, small_config(steps, sched)))
            << name << " steps=" << steps
            << " sched=" << rt::sched_policy_name(sched);
      }
    }
  }
}

TEST(SpecDist, PersistentChannelBitExactForNamedSpecs) {
  // The persistent route path on the spec front end: every named spec's
  // halos ride registered route buffers split into nfield fragments (the
  // multi-plane programs exercise true multi-fragment assembly), and each z
  // plane must still match the serial oracle bit-for-bit.
  for (const std::string& name : spec::spec_names()) {
    const spec::StencilSpec sp = spec::spec_by_name(name);
    const int nz = sp.rank == 3 ? 3 : 1;
    const Problem problem = spec_problem(sp, 24, 22, 6, nz, 11);
    for (int steps : {1, 2}) {
      DistConfig config = small_config(steps, rt::SchedPolicy::WorkStealing);
      config.persistent = true;
      EXPECT_TRUE(planes_match(problem, config))
          << name << " steps=" << steps << " persistent";
    }
  }
}

TEST(SpecDist, FusedWavefrontBitExactForNamedSpecs) {
  // Fused wavefronts on the spec front end: every named spec whose ghost
  // depth (radius * fuse) fits the smallest tile extent (8 here) runs through
  // the fuse-ready builder + rt::fuse_supersteps and must stay bit-exact on
  // every z plane — under both schedulers, and composed with the persistent
  // wire (routes survive the rewrite because window-boundary publishes keep
  // their slot identities).
  for (const std::string& name : spec::spec_names()) {
    const spec::StencilSpec sp = spec::spec_by_name(name);
    const int nz = sp.rank == 3 ? 3 : 1;
    const Problem problem = spec_problem(sp, 24, 22, 6, nz, 11);
    const int radius = std::max(1, sp.radius_xy());
    for (int fuse : {2, 3}) {
      if (radius * fuse > 8) continue;
      for (rt::SchedPolicy sched :
           {rt::SchedPolicy::PriorityFifo, rt::SchedPolicy::WorkStealing}) {
        DistConfig config = small_config(1, sched);
        config.fuse_depth = fuse;
        EXPECT_TRUE(planes_match(problem, config))
            << name << " fuse=" << fuse;
      }
      DistConfig config = small_config(1, rt::SchedPolicy::WorkStealing);
      config.fuse_depth = fuse;
      config.persistent = true;
      EXPECT_TRUE(planes_match(problem, config))
          << name << " fuse=" << fuse << " persistent";
    }
  }
}

TEST(SpecDist, OptimizedKernelsStayBitExact) {
  // Spec programs route non-Scalar variants through the row-band blocked
  // sweep (and star5 through jacobi5_opt); results must not move.
  const Problem box = spec_problem(spec::StencilSpec::box27(), 24, 22, 6, 2);
  EXPECT_TRUE(planes_match(
      box, small_config(2, rt::SchedPolicy::WorkStealing,
                        KernelVariant::Blocked)));
  const Problem star = spec_problem(spec::StencilSpec::star5(), 24, 22, 6, 1);
  EXPECT_TRUE(planes_match(
      star, small_config(2, rt::SchedPolicy::PriorityFifo,
                         KernelVariant::Vector)));
}

TEST(SpecDist, RandomSpecsBitExact) {
  for (unsigned long seed = 1; seed <= 6; ++seed) {
    const spec::StencilSpec sp = spec::random_spec(seed);
    const Problem problem =
        spec_problem(sp, 24, 22, 6, sp.rank == 3 ? 2 : 1, 11);
    EXPECT_TRUE(planes_match(
        problem, small_config(2, rt::SchedPolicy::WorkStealing)))
        << sp.to_literal();
  }
}

TEST(SpecDist, Star5ProgramMatchesSerialSweepWithPinnedTraffic) {
  // The star5 program's distributed run against the serial_sweep oracle,
  // which shares no code with it, and its traffic and work against counts
  // read when the 5-point stencil still had a hard-wired path of its own.
  const Problem problem =
      spec_problem(spec::StencilSpec::star5(), 24, 22, 6, 1, 11);
  const Grid2D expected =
      test_support::serial_sweep_oracle(problem, Stencil5::test_weights());
  struct Pinned {
    int steps;
    std::uint64_t messages, bytes;
    long long points;
  };
  for (const Pinned& pin : {Pinned{1, 60, 7776, 3168},
                            Pinned{2, 54, 8208, 3456}}) {
    const DistResult r = run_distributed(
        problem, small_config(pin.steps, rt::SchedPolicy::PriorityFifo));
    EXPECT_TRUE(test_support::grids_match(expected, r.grid))
        << "steps=" << pin.steps;
    EXPECT_TRUE(r.planes.empty()) << "steps=" << pin.steps;
    EXPECT_EQ(r.stats.tasks_executed, 42u) << "steps=" << pin.steps;
    EXPECT_EQ(r.stats.messages, pin.messages) << "steps=" << pin.steps;
    EXPECT_EQ(r.stats.bytes, pin.bytes) << "steps=" << pin.steps;
    EXPECT_EQ(r.computed_points, pin.points) << "steps=" << pin.steps;
  }
}

TEST(SpecDist, CornerMessagesFollowDiagonalTaps) {
  // box9 (diagonal taps) exchanges corners every superstep even at steps=1;
  // star9 (cross) needs no corners at steps=1: it sends star5's messages,
  // with 2-deep bands, and runs one task per tile per iteration.
  const DistConfig base = small_config(1, rt::SchedPolicy::PriorityFifo);
  const DistResult r5 = run_distributed(
      spec_problem(spec::StencilSpec::star5(), 24, 22, 4, 1, 11), base);
  const DistResult rs = run_distributed(
      spec_problem(spec::StencilSpec::star9(), 24, 22, 4, 1, 11), base);
  const DistResult rb = run_distributed(
      spec_problem(spec::StencilSpec::box9(), 24, 22, 4, 1, 11), base);
  EXPECT_EQ(r5.stats.messages, 40u);
  EXPECT_EQ(rs.stats.tasks_executed, 30u);
  EXPECT_EQ(rs.stats.messages, 40u);
  EXPECT_EQ(rs.stats.bytes, 8128u);
  EXPECT_EQ(rb.stats.messages, 72u);

  // 12^2 on 2x2 nodes, one 6x6 tile each: a cross sends 2 remote bands per
  // tile per round (8 per round, 4 rounds); the box adds 1 remote diagonal
  // per tile (+4 corners per round).
  DistConfig one_tile;
  one_tile.decomp = {6, 6, 2, 2};
  const DistResult c5 = run_distributed(
      spec_problem(spec::StencilSpec::star5(), 12, 12, 4), one_tile);
  const DistResult c9 = run_distributed(
      spec_problem(spec::StencilSpec::star9(), 12, 12, 4), one_tile);
  const DistResult b9 = run_distributed(
      spec_problem(spec::StencilSpec::box9(), 12, 12, 4), one_tile);
  EXPECT_EQ(c5.stats.messages, 8u * 4);
  EXPECT_EQ(c9.stats.messages, 8u * 4);
  EXPECT_EQ(c9.stats.bytes, 4864u);
  EXPECT_EQ(b9.stats.messages, 12u * 4);
}

/// One cross_or_box stencil on an n^2 grid of tile^2 tiles over a
/// nodes x nodes grid.
struct WideCase {
  int radius;
  bool box;
  int n, iters, tile, nodes, steps;
};

TEST(SpecDist, CrossAndBoxGeometriesMatchSerial) {
  // Wide-stencil CA geometry over literal point sets: radius-r halos every
  // step at steps 1, r*s-deep ghosts shrinking r per step at steps > 1, and
  // diagonal flows (local and remote) for boxes.
  const WideCase cases[] = {
      {2, false, 24, 5, 6, 2, 1},  // radius-2 cross, base
      {2, false, 24, 7, 8, 2, 3},  // radius-2 cross, CA
      {2, false, 24, 6, 8, 3, 2},
      {3, false, 27, 5, 9, 3, 2},  // radius-3 cross, all sides remote
      {2, false, 24, 9, 8, 2, 4},  // radius * steps == tile
      {1, true, 16, 5, 4, 1, 1},   // box9, single node: local diagonals only
      {1, true, 16, 6, 4, 2, 1},   // box9, base: remote corners every step
      {1, true, 20, 8, 5, 2, 3},   // box9, CA
      {1, true, 18, 7, 6, 3, 2},   // one tile per node: every corner remote
      {2, true, 24, 6, 8, 2, 2},   // radius-2 box (25 points), CA
      {2, true, 24, 5, 8, 3, 1},   // radius-2 box, base
  };
  for (const WideCase& c : cases) {
    const spec::StencilSpec sp = cross_or_box(c.radius, c.box);
    const Problem problem = spec_problem(sp, c.n, c.n, c.iters);
    DistConfig config;
    config.decomp = {c.tile, c.tile, c.nodes, c.nodes};
    config.steps = c.steps;
    config.workers_per_rank = 2;
    const DistResult d = run_distributed(problem, config);
    EXPECT_TRUE(test_support::planes_match(solve_serial_spec(problem), d))
        << sp.name << " " << test_support::describe(config);
    EXPECT_EQ(d.flops_per_point,
              2.0 * static_cast<double>(sp.points.size()) - 1.0)
        << sp.name;
  }
}

TEST(SpecDist, WideStencilsFuseAndPersistMatchSerial) {
  // Fused windows (radius * steps * fuse-deep bands on every side) and
  // persistent routes over radius > 1 direct stencils, each with a ragged
  // final window.
  const WideCase cases[] = {
      {2, false, 24, 7, 8, 2, 2},  // window depth 2 * 2 * 2 == tile
      {3, false, 27, 5, 9, 3, 1},  // one tile per node
      {2, true, 24, 7, 8, 2, 2},
  };
  for (const WideCase& c : cases) {
    const Problem problem =
        spec_problem(cross_or_box(c.radius, c.box), c.n, c.n, c.iters);
    for (const auto& [fuse, persistent] :
         {std::pair{2, false}, std::pair{1, true}, std::pair{2, true}}) {
      DistConfig config;
      config.decomp = {c.tile, c.tile, c.nodes, c.nodes};
      config.steps = c.steps;
      config.fuse_depth = fuse;
      config.persistent = persistent;
      config.workers_per_rank = 2;
      config.scheduler = rt::SchedPolicy::WorkStealing;
      EXPECT_TRUE(planes_match(problem, config));
    }
  }
}

TEST(SpecDist, ValidatesRadiusTimesSteps) {
  // star9 reads 2 deep, so the ghost band is 2 * steps: 2 * 2 == 4 fits a
  // 4-wide tile, one more step does not.
  const Problem problem = spec_problem(spec::StencilSpec::star9(), 16, 16, 4);
  DistConfig config;
  config.decomp = {4, 4, 2, 2};
  config.steps = 3;
  EXPECT_THROW(run_distributed(problem, config), std::invalid_argument);
  config.steps = 2;
  EXPECT_TRUE(planes_match(problem, config));
}

TEST(SpecDist, GatherPlanesShapesAndRedundancy) {
  const Problem problem =
      spec_problem(spec::StencilSpec::heat3d(), 24, 22, 4, 3, 11);
  const DistConfig config = small_config(2, rt::SchedPolicy::PriorityFifo);
  const DistResult r = run_distributed(problem, config);
  ASSERT_EQ(r.planes.size(), 3u);
  for (const Grid2D& plane : r.planes) {
    EXPECT_EQ(plane.rows(), 24);
    EXPECT_EQ(plane.cols(), 22);
  }
  // CA at steps=2 recomputes ghost bands: redundant work must be counted.
  EXPECT_GT(r.redundancy(), 0.0);
  EXPECT_GT(r.flops_per_point, 0.0);
}

TEST(SpecDist, Heat3dFieldIsHandedOverPlaneByPlane) {
  // Rank 3: the final tasks write every interior z plane of the field.
  // run_distributed returns the planes and a copy of plane 0 as `grid`
  // (planes_match checks both); a subgraph's gather_planes hands over every
  // plane, and gather() after the next run hands over plane 0. Zero
  // iterations write INIT's planes.
  for (const int iters : {4, 0}) {
    const Problem problem =
        spec_problem(spec::StencilSpec::heat3d(), 24, 22, iters, 3, 11);
    const std::vector<Grid2D> expected = solve_serial_spec(problem);
    const DistConfig config = small_config(2, rt::SchedPolicy::PriorityFifo);
    EXPECT_TRUE(planes_match(problem, config)) << "iterations " << iters;

    rt::TaskGraph graph;
    const SolveSubgraph subgraph = add_solve_subgraph(graph, problem, config);
    rt::Config rt_config;
    rt_config.nranks = subgraph.nodes();
    rt_config.workers_per_rank = 2;
    rt::Runtime runtime(rt_config);
    runtime.run(graph);
    const std::vector<Grid2D> planes = subgraph.gather_planes(runtime);
    ASSERT_EQ(planes.size(), expected.size());
    for (std::size_t z = 0; z < planes.size(); ++z) {
      EXPECT_TRUE(test_support::grids_match(expected[z], planes[z],
                                            "z=" + std::to_string(z)))
          << "iterations " << iters;
    }
    EXPECT_THROW(subgraph.gather(runtime), std::logic_error);
    runtime.run(graph);
    EXPECT_TRUE(
        test_support::grids_match(expected[0], subgraph.gather(runtime)))
        << "iterations " << iters;
  }
}

TEST(SpecDist, OversizedStepsThrow) {
  const Problem problem =
      spec_problem(spec::StencilSpec::star9(), 24, 22, 4, 1, 11);
  // star9 reads 2 deep, so its ghost depth is 2 * steps; 2 * 8 = 16 exceeds
  // the smallest tile extent (8) and must throw.
  DistConfig config = small_config(8, rt::SchedPolicy::PriorityFifo);
  EXPECT_THROW(run_distributed(problem, config), std::invalid_argument);
}

}  // namespace
}  // namespace repro::stencil
