// Randomized property tests: broad sweeps over configuration space that the
// hand-picked parameterized cases cannot cover.
//
//   * distributed stencil (random grid/tile/node/step/worker/scheduler
//     combinations) == serial reference, bit for bit;
//   * CA invariants: message count divides by superstep count, redundancy
//     grows with s, traffic bytes conserve the halo volume;
//   * runtime under adversarial graphs: random fan-in/fan-out with random
//     rank placement, values checked against sequential evaluation;
//   * failure injection: a randomly placed throwing task must surface as an
//     error and never hang the runtime;
//   * fused wavefronts: every pool draws a fuse depth, and a deterministic
//     pool pins the sharp window shapes (k > s, ragged final window, k in
//     {2, 3, 5}) under both schedulers and the persistent wire;
//   * tile extents on both sides of kInnerSweepMinExtent in every pool.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>

#include "equivalence_helpers.hpp"
#include "spec/stencil_spec.hpp"
#include "stencil/dist_stencil.hpp"
#include "stencil/serial.hpp"
#include "stencil/spec_kernel.hpp"
#include "stencil/tile_step.hpp"
#include "support/rng.hpp"

namespace repro {
namespace {

TEST(FuzzDistStencil, RandomConfigurationsMatchSerial) {
  Rng rng(0xCA5E);
  for (int round = 0; round < 16; ++round) {
    int rows = 8 + static_cast<int>(rng.next_below(25));
    int cols = 8 + static_cast<int>(rng.next_below(25));
    const int iters = 1 + static_cast<int>(rng.next_below(10));
    int mb = 2 + static_cast<int>(rng.next_below(6));
    int nb = 2 + static_cast<int>(rng.next_below(6));
    if (round >= 12) {
      // Tiles past kInnerSweepMinExtent, whose steps sweep their inner
      // rectangle straight from the previous state.
      mb = stencil::kInnerSweepMinExtent + static_cast<int>(rng.next_below(24));
      nb = stencil::kInnerSweepMinExtent + static_cast<int>(rng.next_below(24));
      rows = mb + static_cast<int>(rng.next_below(2 * mb));
      cols = nb + static_cast<int>(rng.next_below(2 * nb));
    }

    stencil::DistConfig config;
    const int tiles_r = (rows + mb - 1) / mb;
    const int tiles_c = (cols + nb - 1) / nb;
    const int node_rows = 1 + static_cast<int>(rng.next_below(
                                  static_cast<std::uint64_t>(
                                      std::min(tiles_r, 3))));
    const int node_cols = 1 + static_cast<int>(rng.next_below(
                                  static_cast<std::uint64_t>(
                                      std::min(tiles_c, 3))));
    config.decomp = {mb, nb, node_rows, node_cols};

    const stencil::TileMap map(rows, cols, mb, nb, node_rows, node_cols);
    config.steps = 1 + static_cast<int>(rng.next_below(
                           static_cast<std::uint64_t>(map.min_tile_extent())));
    // Fused-wavefront draw: any window steps * fuse_depth that still fits
    // the smallest tile is legal, so fusing crosses every other knob here.
    const int max_fuse =
        std::max(1, map.min_tile_extent() / config.steps);
    config.fuse_depth = 1 + static_cast<int>(rng.next_below(
                                static_cast<std::uint64_t>(
                                    std::min(max_fuse, 3))));
    config.workers_per_rank = 1 + static_cast<int>(rng.next_below(3));
    config.dedicated_comm_thread = rng.next_below(2) == 0;
    const rt::SchedPolicy policies[] = {rt::SchedPolicy::PriorityFifo,
                                        rt::SchedPolicy::Fifo,
                                        rt::SchedPolicy::Lifo,
                                        rt::SchedPolicy::WorkStealing};
    config.scheduler = policies[rng.next_below(4)];
    config.sched_seed = rng.next_u64();
    config.persistent = rng.next_below(2) == 0;

    const bool variable = rng.next_below(3) == 0;
    const stencil::Problem problem =
        variable ? stencil::random_variable_problem(rows, cols, iters,
                                                    1000 + round)
                 : stencil::random_problem(rows, cols, iters, 2000 + round);

    SCOPED_TRACE("round " + std::to_string(round) + ": " +
                 std::to_string(rows) + "x" + std::to_string(cols) +
                 (variable ? " variable " : " constant ") +
                 test_support::describe(config));

    const stencil::DistResult result = run_distributed(problem, config);
    const stencil::Grid2D expected = solve_serial(problem);
    ASSERT_TRUE(test_support::grids_match(expected, result.grid));
  }
}

TEST(FuzzDistStencil, SuperstepCountGovernsBandMessages) {
  // Property: with iters a multiple of s, band messages = base_bands *
  // (iters/s) / iters ... i.e., band rounds == ceil(iters/s). Measured via
  // the byte-free proxy: messages(s) with corners subtracted must equal
  // messages(1) / s when s divides iters and s > 1 needs corner messages
  // accounted. Easier exact check: rounds(s) = number of superstep starts.
  const stencil::Problem problem = stencil::random_problem(24, 24, 12);
  stencil::DistConfig config;
  config.decomp = {4, 4, 2, 2};

  // Count pure-band traffic via s=1 (no corners): 16 tile-pairs crossing
  // cuts... derive per-round band count from the s=1 run.
  config.steps = 1;
  const auto base = run_distributed(problem, config);
  const std::uint64_t bands_per_round = base.stats.messages / 12;

  for (int s : {2, 3, 4}) {
    config.steps = s;
    const auto ca = run_distributed(problem, config);
    const std::uint64_t rounds =
        static_cast<std::uint64_t>((12 + s - 1) / s);
    EXPECT_GE(ca.stats.messages, rounds * bands_per_round) << s;
    // Corner messages are bounded by 3 per boundary tile per round.
    EXPECT_LE(ca.stats.messages, rounds * (bands_per_round + 3 * 16)) << s;
  }
}

TEST(FuzzDistStencil, RedundancyGrowsMonotonicallyWithStepSize) {
  const stencil::Problem problem = stencil::random_problem(32, 32, 8);
  stencil::DistConfig config;
  config.decomp = {8, 8, 2, 2};
  double prev = -1.0;
  for (int s : {1, 2, 4, 8}) {
    config.steps = s;
    const auto result = run_distributed(problem, config);
    EXPECT_GT(result.redundancy() + 1e-15, prev) << s;
    prev = result.redundancy();
  }
}

TEST(FuzzDistStencil, RandomShapesRejectOversizedStepsOrMatchSerial) {
  // Seeded random problem shapes: non-square grids, tile sizes that do not
  // divide the extents (ragged last tiles), and step sizes drawn past the
  // smallest tile extent. Oversized steps must be rejected with
  // std::invalid_argument; every accepted configuration must match the
  // serial reference bit for bit. Each round is derived from its own seed,
  // printed on failure so a reproduction needs only that number.
  int accepted = 0;
  int rejected = 0;
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    Rng rng(0x517A9E50 + seed);
    const int rows = 5 + static_cast<int>(rng.next_below(40));
    const int cols = 5 + static_cast<int>(rng.next_below(40));
    const int iters = 1 + static_cast<int>(rng.next_below(6));
    const int mb = 2 + static_cast<int>(rng.next_below(8));
    const int nb = 2 + static_cast<int>(rng.next_below(8));
    const int tiles_r = (rows + mb - 1) / mb;
    const int tiles_c = (cols + nb - 1) / nb;
    const int node_rows = 1 + static_cast<int>(rng.next_below(
                                  static_cast<std::uint64_t>(
                                      std::min(tiles_r, 3))));
    const int node_cols = 1 + static_cast<int>(rng.next_below(
                                  static_cast<std::uint64_t>(
                                      std::min(tiles_c, 3))));
    const stencil::TileMap map(rows, cols, mb, nb, node_rows, node_cols);

    stencil::DistConfig config;
    config.decomp = {mb, nb, node_rows, node_cols};
    // Deliberately overshoot: ~half the draws land past min_tile_extent and
    // must hit the validation path instead of silently corrupting results.
    config.steps = 1 + static_cast<int>(rng.next_below(
                           static_cast<std::uint64_t>(
                               map.min_tile_extent() + 3)));
    // The window is steps * fuse_depth, so a fuse draw pushes even in-range
    // step sizes over the edge — both validation paths stay exercised.
    config.fuse_depth = 1 + static_cast<int>(rng.next_below(3));
    config.workers_per_rank = 1 + static_cast<int>(rng.next_below(4));
    const rt::SchedPolicy policies[] = {rt::SchedPolicy::PriorityFifo,
                                        rt::SchedPolicy::Fifo,
                                        rt::SchedPolicy::Lifo,
                                        rt::SchedPolicy::WorkStealing};
    config.scheduler = policies[rng.next_below(4)];
    config.sched_seed = rng.next_u64();

    const bool variable = rng.next_below(4) == 0;
    const stencil::KernelVariant kernels[] = {stencil::KernelVariant::Scalar,
                                              stencil::KernelVariant::Vector,
                                              stencil::KernelVariant::Blocked};
    config.kernel = kernels[rng.next_below(3)];

    const stencil::Problem problem =
        variable
            ? stencil::random_variable_problem(rows, cols, iters,
                                               3000 + static_cast<int>(seed))
            : stencil::random_problem(rows, cols, iters,
                                      4000 + static_cast<int>(seed));

    SCOPED_TRACE(test_support::failing_seed(seed, config) + " " +
                 std::to_string(rows) + "x" + std::to_string(cols));

    if (config.steps * config.fuse_depth > map.min_tile_extent()) {
      EXPECT_THROW(run_distributed(problem, config), std::invalid_argument);
      ++rejected;
      continue;
    }
    const stencil::DistResult result = run_distributed(problem, config);
    const stencil::Grid2D expected = solve_serial(problem);
    ASSERT_TRUE(test_support::grids_match(expected, result.grid));
    ++accepted;
  }
  // The sweep must exercise both outcomes, or the seed constants regressed.
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
}

TEST(FuzzDistStencil, FusedWavefrontPoolMatchesSerial) {
  // Deterministic fused-wavefront pool pinning the sharp window shapes the
  // random sweeps may miss: fuse depths k in {2, 3, 5}, k > s, windows that
  // do not divide the iteration count (ragged final window), a window that
  // fills the tile exactly, and the persistent-wire composition — all under
  // both the default and the work-stealing scheduler, all bit-identical to
  // the serial oracle.
  struct FusedCase {
    int steps, fuse, iters, node_rows, node_cols;
    bool persistent;
    int tile = 10;
  };
  // Tiles past kInnerSweepMinExtent: window starts sweep their inner
  // rectangle straight from the previous state.
  const int large = stencil::kInnerSweepMinExtent + 6;
  const FusedCase cases[] = {
      {1, 2, 7, 3, 3, false},   // ragged: 7 iterations over windows of 2
      {1, 3, 8, 3, 1, false},   // k > s; local vertical, remote horizontal
      {1, 5, 9, 3, 3, true},    // deep fuse + persistent, ragged
      {2, 5, 11, 3, 3, false},  // k > s with s > 1, W = 10 fills the tile
      {3, 3, 10, 1, 3, true},   // k == s, ragged, mixed local/remote sides
      {2, 3, 7, 3, 3, false},   // W = 6 > iters' remainder: 2nd window short
      {2, 2, 9, 3, 3, false, large},  // large tiles, ragged
      {1, 3, 7, 1, 3, true, large},   // large tiles, persistent, mixed sides
  };
  for (const auto sched :
       {rt::SchedPolicy::PriorityFifo, rt::SchedPolicy::WorkStealing}) {
    for (const FusedCase& c : cases) {
      stencil::DistConfig config;
      config.decomp = {c.tile, c.tile, c.node_rows, c.node_cols};
      config.steps = c.steps;
      config.fuse_depth = c.fuse;
      config.scheduler = sched;
      config.persistent = c.persistent;
      SCOPED_TRACE(test_support::describe(config) + " iters=" +
                   std::to_string(c.iters));
      const stencil::Problem problem = stencil::random_problem(
          3 * c.tile, 3 * c.tile, c.iters, 6000 + c.iters);
      const stencil::DistResult result = run_distributed(problem, config);
      ASSERT_TRUE(
          test_support::grids_match(solve_serial(problem), result.grid));
    }
  }
  // Oversized window: steps * fuse_depth past the smallest tile extent must
  // throw before any task is built.
  stencil::DistConfig config;
  config.decomp = {10, 10, 3, 3};
  config.steps = 4;
  config.fuse_depth = 3;
  EXPECT_THROW(run_distributed(stencil::random_problem(30, 30, 4), config),
               std::invalid_argument);
}

TEST(FuzzSpecStencil, RandomSpecsMatchSerial) {
  // Random stencil SPECS (random rank, radius, point set, weights) through
  // random decompositions/schedulers: every accepted run must match the
  // spec's own serial oracle bit-for-bit on EVERY z plane; step sizes whose
  // ghost depth exceeds the smallest tile must throw. On failure the
  // trace prints the seed and the spec literal — paste the literal into a
  // unit test to reproduce without the fuzz harness.
  const char* env = std::getenv("REPRO_SPEC_FUZZ_ROUNDS");
  const int rounds = env ? std::atoi(env) : 10;
  int accepted = 0;
  int large_accepted = 0;
  int large_diagonal = 0;  // large rounds whose spec has diagonal taps
  for (std::uint64_t seed = 1; seed <= static_cast<std::uint64_t>(rounds);
       ++seed) {
    Rng rng(0x5BEC0000 + seed);
    const spec::StencilSpec sp = spec::random_spec(seed);
    const int nz = sp.rank == 3 ? 1 + static_cast<int>(rng.next_below(3)) : 1;
    int rows = 10 + static_cast<int>(rng.next_below(20));
    int cols = 10 + static_cast<int>(rng.next_below(20));
    const int iters = 1 + static_cast<int>(rng.next_below(5));
    int mb = 3 + static_cast<int>(rng.next_below(6));
    int nb = 3 + static_cast<int>(rng.next_below(6));
    // Every third seed, the first included, runs tiles past
    // kInnerSweepMinExtent: three tile rows and columns, the last ones
    // ragged and below it, so the first node holds a 2x2 block of large
    // tiles (same-node lines and diagonals read from packed edge lines)
    // and large and small tiles are same-node neighbours.
    const bool large = seed % 3 == 1;
    if (large) {
      mb = stencil::kInnerSweepMinExtent + static_cast<int>(rng.next_below(16));
      nb = stencil::kInnerSweepMinExtent + static_cast<int>(rng.next_below(16));
      rows = 2 * mb + 9 + static_cast<int>(rng.next_below(mb - 9));
      cols = 2 * nb + 9 + static_cast<int>(rng.next_below(nb - 9));
    }
    const int tiles_r = (rows + mb - 1) / mb;
    const int tiles_c = (cols + nb - 1) / nb;
    const int node_rows = 1 + static_cast<int>(rng.next_below(
                                  static_cast<std::uint64_t>(
                                      std::min(tiles_r, 2))));
    const int node_cols = 1 + static_cast<int>(rng.next_below(
                                  static_cast<std::uint64_t>(
                                      std::min(tiles_c, 2))));
    const stencil::TileMap map(rows, cols, mb, nb, node_rows, node_cols);

    stencil::DistConfig config;
    config.decomp = {mb, nb, node_rows, node_cols};
    config.steps = 1 + static_cast<int>(rng.next_below(3));
    // Bound-aware fuse draw: random specs already reject plenty of rounds on
    // radius * steps alone, so cap the fused window to what could fit and
    // let the steps draw keep the rejection path covered.
    const int radius = std::max(1, sp.radius_xy());
    const int max_fuse =
        std::max(1, map.min_tile_extent() / (config.steps * radius));
    config.fuse_depth = 1 + static_cast<int>(rng.next_below(
                                static_cast<std::uint64_t>(
                                    std::min(max_fuse, 3))));
    config.workers_per_rank = 1 + static_cast<int>(rng.next_below(3));
    const rt::SchedPolicy policies[] = {rt::SchedPolicy::PriorityFifo,
                                        rt::SchedPolicy::Fifo,
                                        rt::SchedPolicy::Lifo,
                                        rt::SchedPolicy::WorkStealing};
    config.scheduler = policies[rng.next_below(4)];
    config.sched_seed = rng.next_u64();
    config.persistent = rng.next_below(2) == 0;

    const stencil::Problem problem =
        stencil::spec_problem(sp, rows, cols, iters, nz,
                              5000 + static_cast<unsigned long>(seed));

    SCOPED_TRACE(test_support::failing_seed(seed, config) + " SPEC=" +
                 sp.to_literal() + " " + std::to_string(rows) + "x" +
                 std::to_string(cols) + " nz=" + std::to_string(nz));

    // Ghost bands are radius * steps * fuse_depth deep; the builder rejects
    // any deeper than the smallest tile extent.
    if (radius * config.steps * config.fuse_depth > map.min_tile_extent()) {
      EXPECT_THROW(run_distributed(problem, config), std::invalid_argument);
      continue;
    }
    const stencil::DistResult result = run_distributed(problem, config);
    ASSERT_TRUE(test_support::planes_match(
        stencil::solve_serial_spec(problem), result));
    ++accepted;
    large_accepted += large;
    large_diagonal += large && spec::compile_spec(sp, nz).diagonal_taps;
  }
  EXPECT_GT(accepted, 0);
  EXPECT_GT(large_accepted, 0);
  // random_spec draws diagonal taps often; seed 1 has them.
  EXPECT_GT(large_diagonal, 0);
}

TEST(FuzzRuntime, RandomDagsWithRandomPlacementComputeCorrectly) {
  Rng rng(77);
  for (int round = 0; round < 6; ++round) {
    const int layers = 2 + static_cast<int>(rng.next_below(5));
    const int width = 3 + static_cast<int>(rng.next_below(10));
    const int ranks = 1 + static_cast<int>(rng.next_below(5));
    const int workers = 1 + static_cast<int>(rng.next_below(3));

    rt::TaskGraph graph;
    std::vector<std::vector<double>> expected(
        static_cast<std::size_t>(layers));
    for (int layer = 0; layer < layers; ++layer) {
      expected[layer].assign(static_cast<std::size_t>(width), 0.0);
      for (int slot = 0; slot < width; ++slot) {
        rt::TaskSpec t;
        t.key = rt::TaskKey{9, layer, slot, 0};
        t.rank = static_cast<int>(rng.next_below(ranks));
        const double self = 1000.0 * layer + slot;
        double sum = self;
        if (layer > 0) {
          const int fan = 1 + static_cast<int>(rng.next_below(4));
          for (int p = 0; p < fan; ++p) {
            const int parent = static_cast<int>(rng.next_below(width));
            t.inputs.push_back({rt::TaskKey{9, layer - 1, parent, 0}, 0});
            sum += expected[layer - 1][parent];
          }
        }
        expected[layer][slot] = sum;
        t.body = [self](rt::TaskContext& ctx) {
          double acc = self;
          for (std::size_t i = 0; i < ctx.num_inputs(); ++i) {
            acc += ctx.input(i)[0];
          }
          ctx.publish(0, std::vector<double>{acc});
        };
        graph.add_task(std::move(t));
      }
    }

    rt::Runtime runtime(rt::Config{ranks, workers});
    runtime.run(graph);
    for (int slot = 0; slot < width; ++slot) {
      const rt::Buffer out =
          runtime.result(rt::TaskKey{9, layers - 1, slot, 0}, 0);
      ASSERT_DOUBLE_EQ((*out)[0], expected[layers - 1][slot])
          << "round " << round;
    }
  }
}

TEST(FuzzRuntime, RandomlyPlacedFailureAlwaysSurfacesAndNeverHangs) {
  Rng rng(0xBAD);
  for (int round = 0; round < 8; ++round) {
    const int chain = 5 + static_cast<int>(rng.next_below(10));
    const int bomb = static_cast<int>(rng.next_below(chain));
    const int ranks = 1 + static_cast<int>(rng.next_below(3));

    rt::TaskGraph graph;
    for (int i = 0; i < chain; ++i) {
      rt::TaskSpec t;
      t.key = rt::TaskKey{1, i, 0, 0};
      t.rank = i % ranks;
      if (i > 0) t.inputs.push_back({rt::TaskKey{1, i - 1, 0, 0}, 0});
      const bool is_bomb = i == bomb;
      t.body = [is_bomb](rt::TaskContext& ctx) {
        if (is_bomb) throw std::runtime_error("injected fault");
        ctx.publish(0, std::vector<double>{1.0});
      };
      graph.add_task(std::move(t));
    }
    rt::Runtime runtime(rt::Config{ranks, 2});
    try {
      runtime.run(graph);
      FAIL() << "round " << round << ": fault did not surface";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("injected fault"),
                std::string::npos);
    }
  }
}

TEST(FuzzRuntime, WideFanoutUnderEveryScheduler) {
  for (const auto policy :
       {rt::SchedPolicy::PriorityFifo, rt::SchedPolicy::Fifo,
        rt::SchedPolicy::Lifo, rt::SchedPolicy::WorkStealing}) {
    rt::TaskGraph graph;
    rt::TaskSpec src;
    src.key = rt::TaskKey{0, 0, 0, 0};
    src.body = [](rt::TaskContext& ctx) {
      ctx.publish(0, std::vector<double>{2.0});
    };
    graph.add_task(src);

    rt::TaskSpec sink;
    sink.key = rt::TaskKey{2, 0, 0, 0};
    sink.rank = 1;
    constexpr int kFan = 64;
    for (int i = 0; i < kFan; ++i) {
      rt::TaskSpec mid;
      mid.key = rt::TaskKey{1, i, 0, 0};
      mid.rank = i % 3;
      mid.priority = i % 5;
      mid.inputs = {{rt::TaskKey{0, 0, 0, 0}, 0}};
      mid.body = [i](rt::TaskContext& ctx) {
        ctx.publish(0, std::vector<double>{ctx.input(0)[0] * i});
      };
      graph.add_task(std::move(mid));
      sink.inputs.push_back({rt::TaskKey{1, i, 0, 0}, 0});
    }
    sink.body = [](rt::TaskContext& ctx) {
      double sum = 0.0;
      for (std::size_t i = 0; i < ctx.num_inputs(); ++i) {
        sum += ctx.input(i)[0];
      }
      ctx.publish(0, std::vector<double>{sum});
    };
    graph.add_task(std::move(sink));

    rt::Config config{3, 2};
    config.scheduler = policy;
    rt::Runtime runtime(config);
    runtime.run(graph);
    const rt::Buffer out = runtime.result(rt::TaskKey{2, 0, 0, 0}, 0);
    EXPECT_DOUBLE_EQ((*out)[0], 2.0 * (kFan * (kFan - 1)) / 2);
  }
}

}  // namespace
}  // namespace repro
