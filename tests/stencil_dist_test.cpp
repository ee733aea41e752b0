// Distributed-vs-serial equivalence: the load-bearing correctness tests.
//
// Jacobi has no cross-point operation-order freedom, and every
// implementation applies the identical per-point FMA sequence, so the
// distributed results must match the serial reference BIT FOR BIT (EXPECT_EQ
// on doubles, tolerance 0.0).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <map>
#include <mutex>
#include <utility>

#include "equivalence_helpers.hpp"
#include "runtime/graph_transform.hpp"
#include "spec/stencil_spec.hpp"
#include "stencil/dist_stencil.hpp"
#include "stencil/serial.hpp"
#include "stencil/spec_kernel.hpp"
#include "stencil/tile_step.hpp"

namespace repro::stencil {
namespace {

struct Case {
  int rows, cols, iters;
  int mb, nb;
  int node_rows, node_cols;
  int steps;

  friend std::ostream& operator<<(std::ostream& os, const Case& c) {
    return os << c.rows << "x" << c.cols << "_it" << c.iters << "_tile" << c.mb
              << "x" << c.nb << "_nodes" << c.node_rows << "x" << c.node_cols
              << "_s" << c.steps;
  }
};

class DistEquivalence : public ::testing::TestWithParam<Case> {};

TEST_P(DistEquivalence, MatchesSerialBitForBit) {
  const Case c = GetParam();
  const Problem problem = random_problem(c.rows, c.cols, c.iters);

  DistConfig config;
  config.decomp = {c.mb, c.nb, c.node_rows, c.node_cols};
  config.steps = c.steps;
  config.workers_per_rank = 2;

  const DistResult result = run_distributed(problem, config);
  const Grid2D expected = solve_serial(problem);
  EXPECT_EQ(Grid2D::max_abs_diff(expected, result.grid), 0.0);

  // CA never computes less than the nominal work.
  EXPECT_GE(result.computed_points, result.nominal_points);
  if (c.steps == 1) {
    EXPECT_EQ(result.computed_points, result.nominal_points);
  }
}

INSTANTIATE_TEST_SUITE_P(
    BaseVersion, DistEquivalence,
    ::testing::Values(
        // Single node, single tile: pure kernel path.
        Case{12, 12, 4, 12, 12, 1, 1, 1},
        // Single node, many tiles: local-line exchange only.
        Case{16, 16, 5, 4, 4, 1, 1, 1},
        // 2x2 nodes: remote band path.
        Case{16, 16, 6, 4, 4, 2, 2, 1},
        // Non-square everything + remainder tiles.
        Case{19, 23, 7, 5, 4, 2, 3, 1},
        // One tile per node: every side remote.
        Case{12, 12, 5, 4, 4, 3, 3, 1},
        // Tall node grid.
        Case{24, 8, 6, 4, 4, 4, 1, 1}));

INSTANTIATE_TEST_SUITE_P(
    CommunicationAvoiding, DistEquivalence,
    ::testing::Values(
        // s=2, multiple supersteps, 2x2 nodes.
        Case{16, 16, 8, 4, 4, 2, 2, 2},
        // s=3 with iterations not a multiple of s (ragged last superstep).
        Case{18, 18, 8, 6, 6, 3, 3, 3},
        // s equal to tile size (maximum legal step).
        Case{16, 16, 9, 4, 4, 2, 2, 4},
        // Remainder tiles with CA; steps bounded by smallest tile (19%5=4).
        Case{19, 19, 9, 5, 5, 2, 2, 4},
        // One tile per node: every side remote, all four corners exercised.
        Case{18, 18, 13, 6, 6, 3, 3, 3},
        // Large step count relative to iterations (single superstep).
        Case{20, 20, 4, 10, 10, 2, 2, 5},
        // Many supersteps on a wider machine.
        Case{24, 24, 12, 4, 4, 3, 3, 2},
        // Asymmetric node grid: rows remote, cols local and vice versa.
        Case{24, 24, 10, 4, 8, 3, 1, 3},
        Case{24, 24, 10, 8, 4, 1, 3, 3}));

TEST_P(DistEquivalence, PersistentChannelMatchesSerialBitForBit) {
  // Same sweep over persistent halo channels: pre-registered route buffers,
  // partitioned fragment sends, zero-copy delivery — results must stay
  // bit-identical to the serial reference in every decomposition.
  const Case c = GetParam();
  const Problem problem = random_problem(c.rows, c.cols, c.iters);

  DistConfig config;
  config.decomp = {c.mb, c.nb, c.node_rows, c.node_cols};
  config.steps = c.steps;
  config.workers_per_rank = 2;
  config.persistent = true;

  const DistResult result = run_distributed(problem, config);
  const Grid2D expected = solve_serial(problem);
  EXPECT_EQ(Grid2D::max_abs_diff(expected, result.grid), 0.0);
}

TEST(DistStencil, TilesOnBothSidesOfTheInnerSweepRuleMatchSerial) {
  // Tiles past kInnerSweepMinExtent sweep their inner rectangle straight
  // from the previous state; smaller tiles assemble the whole tile. Each
  // mode runs once with tiles below the rule and once above it, on 2x2
  // nodes of 2x2 tiles (every tile has a local and a remote side) with a
  // ragged last tile row and column, and must match its serial oracle.
  struct Mode {
    const char* name;
    spec::StencilSpec spec;
    int nz;
    bool variable;
    int steps, fuse;
    bool persistent;
  };
  const Mode modes[] = {
      {"base", spec::StencilSpec::star5(), 1, false, 1, 1, false},
      {"ca", spec::StencilSpec::star5(), 1, false, 3, 1, false},
      {"fuse2", spec::StencilSpec::star5(), 1, false, 2, 2, false},
      {"star9", spec::StencilSpec::star9(), 1, false, 2, 1, false},
      {"box9", spec::StencilSpec::box9(), 1, false, 2, 1, false},
      {"heat3d", spec::StencilSpec::heat3d(), 3, false, 2, 1, false},
      {"variable", spec::StencilSpec::star5(), 1, true, 2, 1, false},
      {"persistent", spec::StencilSpec::star5(), 1, false, 3, 1, true},
  };
  for (const int tile : {kInnerSweepMinExtent - 8, kInnerSweepMinExtent + 8}) {
    const int rows = 3 * tile + 9;
    const int cols = 3 * tile + 11;
    for (const Mode& mode : modes) {
      SCOPED_TRACE(std::string(mode.name) + " tile " + std::to_string(tile));
      DistConfig config;
      config.decomp = {tile, tile, 2, 2};
      config.steps = mode.steps;
      config.fuse_depth = mode.fuse;
      config.persistent = mode.persistent;
      config.workers_per_rank = 2;
      if (mode.variable) {
        const Problem problem = random_variable_problem(rows, cols, 7, 31);
        EXPECT_TRUE(test_support::grids_match(
            solve_serial(problem), run_distributed(problem, config).grid));
        continue;
      }
      const Problem problem =
          spec_problem(mode.spec, rows, cols, 7, mode.nz, 37);
      EXPECT_TRUE(test_support::planes_match(
          solve_serial_spec(problem), run_distributed(problem, config)));
    }
  }

  // Large tiles give their same-node readers packed edge lines; small ones
  // are read in place. Tiles of 100 with a last tile row of 48 and a last
  // column of 40 on 2x2 nodes: the node owning the last two tile rows and
  // columns pairs large and small same-node neighbours across rows, across
  // columns and diagonally, so large tiles read small ones' states and small
  // tiles read large ones' lines, while another node holds only large
  // tiles. Base star5, box9 at steps 1 (same-node diagonal corners every
  // step), classic CA (local lines every step, bands at superstep starts),
  // box9 CA and heat3d.
  const int above = kInnerSweepMinExtent + 4;
  const Mode ragged_modes[] = {
      {"base", spec::StencilSpec::star5(), 1, false, 1, 1, false},
      {"box9", spec::StencilSpec::box9(), 1, false, 1, 1, false},
      {"ca", spec::StencilSpec::star5(), 1, false, 3, 1, false},
      {"box9 ca", spec::StencilSpec::box9(), 1, false, 2, 1, false},
      {"heat3d", spec::StencilSpec::heat3d(), 3, false, 1, 1, false},
  };
  for (const Mode& mode : ragged_modes) {
    SCOPED_TRACE(std::string("ragged ") + mode.name);
    DistConfig config;
    config.decomp = {above, above, 2, 2};
    config.steps = mode.steps;
    config.workers_per_rank = 2;
    const Problem problem = spec_problem(mode.spec, 3 * above + 48,
                                         3 * above + 40, 7, mode.nz, 41);
    EXPECT_TRUE(test_support::planes_match(solve_serial_spec(problem),
                                           run_distributed(problem, config)));
  }
}

TEST(DistStencil, PersistentSteadyStateAllocatesNothing) {
  // Many supersteps on 3x3 nodes: after the warmup pool is primed, every
  // halo publish must reuse a registered slot (the tentpole acceptance
  // criterion: net_persistent_steady_allocs_total == 0), and every delivery
  // must be zero-copy (no assembly copies on a FIFO in-order stack).
  const Problem problem = random_problem(24, 24, 12);
  DistConfig config;
  config.decomp = {4, 4, 3, 3};
  config.steps = 2;
  config.workers_per_rank = 2;
  config.persistent = true;
  config.metrics = std::make_shared<obs::MetricsRegistry>();

  const DistResult result = run_distributed(problem, config);
  EXPECT_EQ(Grid2D::max_abs_diff(solve_serial(problem), result.grid), 0.0);

  if constexpr (obs::kEnabled) {
    auto& registry = *result.metrics;
    EXPECT_GT(registry.counter("net_persistent_routes_total")->value(), 0u);
    EXPECT_GT(registry.counter("net_persistent_fragments_total")->value(), 0u);
    EXPECT_GT(registry.counter("net_persistent_deliveries_total")->value(),
              0u);
    EXPECT_GT(registry.counter("net_persistent_buffer_allocs_total")->value(),
              0u);
    EXPECT_EQ(registry.counter("net_persistent_steady_allocs_total")->value(),
              0u);
    EXPECT_EQ(
        registry.counter("net_persistent_assembly_copies_total")->value(),
        0u);
  }
}

TEST(DistStencil, PersistentMatchesDefaultTraffic) {
  // The persistent wire carries the same payload doubles per superstep as
  // the default path (same bands, same corners) — only framing differs:
  // messages = default messages (one FRAG per band/corner at nfield=1)
  // plus one OPEN and one ACK per directed neighbor pair.
  const Problem problem = random_problem(16, 16, 9);
  DistConfig config;
  config.decomp = {4, 4, 2, 2};
  config.steps = 3;
  DistConfig pconfig = config;
  pconfig.persistent = true;

  const DistResult def = run_distributed(problem, config);
  const DistResult per = run_distributed(problem, pconfig);
  EXPECT_EQ(Grid2D::max_abs_diff(def.grid, per.grid), 0.0);
  // 2x2 node grid, 4 tiles per cut side: 8 directed band pairs + 12
  // directed corner pairs with traffic = 20 handshake pairs... counted
  // simply: persistent adds exactly 2 messages per directed (src,dst) node
  // pair that carries at least one route. On this layout every ordered node
  // pair exchanges something except the two diagonal-only... all 12 ordered
  // pairs carry routes (bands across cuts, corners across diagonals).
  EXPECT_GT(per.stats.messages, def.stats.messages);
  EXPECT_LE(per.stats.messages, def.stats.messages + 2 * 12);
}

TEST(DistStencil, CaStepOneIsExactlyBase) {
  // steps=1 must produce identical traffic *and* results to the base path
  // (they are the same graph by construction).
  const Problem problem = random_problem(16, 16, 6);
  DistConfig base;
  base.decomp = {4, 4, 2, 2};
  base.steps = 1;
  const DistResult a = run_distributed(problem, base);
  const DistResult b = run_distributed(problem, base);
  EXPECT_EQ(Grid2D::max_abs_diff(a.grid, b.grid), 0.0);
  EXPECT_EQ(a.stats.messages, b.stats.messages);
}

TEST(DistStencil, CaSendsFewerButBiggerMessages) {
  const Problem problem = random_problem(24, 24, 12);
  DistConfig base;
  base.decomp = {4, 4, 2, 2};
  base.steps = 1;
  DistConfig ca = base;
  ca.steps = 4;

  const DistResult rb = run_distributed(problem, base);
  const DistResult rc = run_distributed(problem, ca);

  EXPECT_EQ(Grid2D::max_abs_diff(rb.grid, rc.grid), 0.0);
  // s=4 over 12 iterations: band exchanges at k=1,5,9 instead of every k.
  EXPECT_LT(rc.stats.messages, rb.stats.messages);
  // Each CA band message carries ~s times the payload.
  const double avg_base = static_cast<double>(rb.stats.bytes) /
                          static_cast<double>(rb.stats.messages);
  const double avg_ca = static_cast<double>(rc.stats.bytes) /
                        static_cast<double>(rc.stats.messages);
  EXPECT_GT(avg_ca, 2.0 * avg_base);
  // And CA does measurably more compute (redundancy > 0).
  EXPECT_GT(rc.redundancy(), 0.0);
  EXPECT_DOUBLE_EQ(rb.redundancy(), 0.0);
}

TEST(DistStencil, BaseMessageCountMatchesAnalyticFormula) {
  // 2x2 nodes, each node a 2x2 block of tiles, 16x16 grid, tiles 4x4.
  // Remote edges: the vertical node cut crosses 4 tile rows, the horizontal
  // cut 4 tile cols -> 8 directed tile pairs -> 16 band messages per
  // exchanged iteration. INIT (k=0) packs for k=1, ..., up to k=iters-1
  // packing for k=iters: iters exchange rounds in total.
  const int iters = 5;
  const Problem problem = random_problem(16, 16, iters);
  DistConfig config;
  config.decomp = {4, 4, 2, 2};
  config.steps = 1;
  const DistResult r = run_distributed(problem, config);
  EXPECT_EQ(r.stats.messages, static_cast<std::uint64_t>(16 * iters));
}

TEST(DistStencil, CaMessageCountMatchesAnalyticFormula) {
  // Same layout, s=3, iters=9: superstep starts at k=1,4,7 -> 3 rounds.
  // Per round: 16 band messages + corner blocks. Corners: each of the 4
  // tiles at the node-grid cross consumes 1 diagonal corner (its node-corner
  // side), and each boundary tile adjacent to the cross with one remote side
  // consumes a strip corner. Count by consumers: tile (1,1) of node (0,0)
  // needs SE corner; tiles (1,0),(0,1)... Full count below: 4 corner-corner
  // + 8 mixed = 12 corner messages per round.
  const int iters = 9;
  const Problem problem = random_problem(16, 16, iters);
  DistConfig config;
  config.decomp = {4, 4, 2, 2};
  config.steps = 3;
  const DistResult r = run_distributed(problem, config);
  // Bands: 16 per round. Corners per round: consumers with a remote diagonal
  // and >=1 adjacent remote side. Node cut at tile index 2 (tiles 0,1 | 2,3):
  //   * tiles (1,1),(1,2),(2,1),(2,2): diagonal across the cross: 4 blocks
  //   * tiles (1,0),(2,0),(1,3),(2,3): E/W local, N/S remote: NE/SE/NW/SW
  //     strips across the horizontal cut: each consumes 1 -> 4... plus
  //   * tiles (0,1),(0,2),(3,1),(3,2): same across the vertical cut -> 4.
  //   * the four cross tiles each ALSO consume a second strip along their
  //     remote-but-straight diagonal: e.g. (1,1) needs NE? No: (1,1)'s NE
  //     diagonal (0,2) is remote (different node column) and its E side is
  //     remote -> yes, consumed. Each cross tile consumes 3 corners total
  //     (SE-type block + 2 strips).
  // Total corner messages per round = 4*3 + 8 = 20.
  const std::uint64_t rounds = 3;
  EXPECT_EQ(r.stats.messages, rounds * (16 + 20));
}

TEST(DistStencil, TraceLabelsBoundaryVsInteriorTiles) {
  const Problem problem = random_problem(16, 16, 3);
  DistConfig config;
  config.decomp = {4, 4, 2, 2};
  config.steps = 1;
  config.trace = true;
  const DistResult r = run_distributed(problem, config);
#ifdef REPRO_OBS_DISABLE
  EXPECT_TRUE(r.trace_events.empty());
  GTEST_SKIP() << "tracing is compiled out";
#else
  std::size_t boundary = 0, interior = 0, init = 0;
  for (const auto& e : r.trace_events) {
    if (e.klass == "boundary") ++boundary;
    else if (e.klass == "interior") ++interior;
    else if (e.klass == "init") ++init;
  }
  EXPECT_EQ(init, 16u);
  // 12 of 16 tiles touch a node boundary (all but one corner tile per node).
  EXPECT_EQ(boundary, 12u * 3);
  EXPECT_EQ(interior, 4u * 3);
#endif
}

TEST(DistStencil, KernelRatioReducesComputedPoints) {
  const Problem problem = random_problem(32, 32, 4);
  DistConfig full;
  full.decomp = {8, 8, 2, 2};
  full.steps = 1;
  DistConfig quarter = full;
  quarter.kernel_ratio = 0.5;

  const DistResult rf = run_distributed(problem, full);
  const DistResult rq = run_distributed(problem, quarter);
  // ratio=0.5 updates a quarter of each tile.
  EXPECT_EQ(rq.computed_points * 4, rf.computed_points);
  EXPECT_EQ(rq.nominal_points * 4, rf.nominal_points);
}

/// 64-bit FNV-1a over the bits of every cell, ring included.
std::uint64_t grid_hash(const Grid2D& grid) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (int i = -1; i <= grid.rows(); ++i) {
    for (int j = -1; j <= grid.cols(); ++j) {
      const auto bits = std::bit_cast<std::uint64_t>(grid.at(i, j));
      for (int b = 0; b < 8; ++b) {
        h ^= (bits >> (8 * b)) & 0xffu;
        h *= 0x100000001b3ull;
      }
    }
  }
  return h;
}

TEST(DistStencil, KernelRatioFieldsArePinned) {
  // ratio < 1 updates a sub-rectangle; the rest of the core, the stale ghost
  // cells and the ring carry over from the previous state, so these runs are
  // where the step body's rule for the cells the kernel does not write
  // shows. The hashes were recorded from the step body that copied every
  // tile whole; every kernel variant gives the same field.
  struct Pin {
    double ratio;
    int steps;
    std::uint64_t hash;
  };
  const Pin pins[] = {
      {0.5, 1, 0x03eebd70cb2b1e92ull}, {0.5, 2, 0xe45b0cfaf093b954ull},
      {0.5, 3, 0xbc42f44c77fdcb98ull}, {0.3, 1, 0xe63141f253849e07ull},
      {0.3, 2, 0x00b87303d2a9dcaaull}, {0.3, 3, 0xd274fd8f9714a5faull},
  };
  const Problem problem = random_problem(40, 36, 7, 5);
  for (const Pin& pin : pins) {
    for (const KernelVariant kernel :
         {KernelVariant::Scalar, KernelVariant::Vector}) {
      DistConfig config;
      config.decomp = {10, 9, 2, 2};
      config.steps = pin.steps;
      config.kernel_ratio = pin.ratio;
      config.kernel = kernel;
      EXPECT_EQ(grid_hash(run_distributed(problem, config).grid), pin.hash)
          << "ratio " << pin.ratio << " steps " << pin.steps << " kernel "
          << kernel_variant_name(kernel);
    }
  }
  DistConfig config;
  config.decomp = {10, 9, 2, 2};
  config.steps = 2;
  config.kernel_ratio = 0.5;
  EXPECT_EQ(
      grid_hash(
          run_distributed(random_variable_problem(40, 36, 7, 5), config).grid),
      0x6281aee553bc3dbfull);

  // One tile per node: no tile has a same-node neighbor, so every inner
  // step refreshes nothing and its kernel reads the previous state directly
  // instead of an assembled copy. Recorded from the step body that always
  // assembled.
  const Pin lone_pins[] = {
      {1.0, 2, 0x6865206710b76bb3ull}, {0.5, 2, 0x1bb17772a6f5d5e6ull},
      {0.3, 2, 0x536762be195782fcull}, {1.0, 3, 0x6865206710b76bb3ull},
      {0.5, 3, 0x73c11dffa571b8c7ull}, {0.3, 3, 0x40aca5cbb4be1b64ull},
  };
  const Problem lone = random_problem(20, 18, 7, 5);
  for (const Pin& pin : lone_pins) {
    for (const KernelVariant kernel :
         {KernelVariant::Scalar, KernelVariant::Vector}) {
      DistConfig lone_config;
      lone_config.decomp = {10, 9, 2, 2};
      lone_config.steps = pin.steps;
      lone_config.kernel_ratio = pin.ratio;
      lone_config.kernel = kernel;
      EXPECT_EQ(grid_hash(run_distributed(lone, lone_config).grid), pin.hash)
          << "one tile per node, ratio " << pin.ratio << " steps "
          << pin.steps << " kernel " << kernel_variant_name(kernel);
    }
  }
  EXPECT_EQ(
      grid_hash(
          run_distributed(random_variable_problem(20, 18, 7, 5), config).grid),
      0x575e403956ab0e2full);

  // Tiles of 150 x 144, past kInnerSweepMinExtent: the ratio region's
  // inner rectangle is swept straight from the previous state. Recorded
  // from the step body that assembled every refreshed tile whole.
  const Pin large_pins[] = {
      {0.5, 1, 0x7f73801cac961c4full}, {0.5, 2, 0xe3c9cfa36388fcd7ull},
      {0.5, 3, 0x0e58f09c9eea052full}, {0.3, 1, 0x5e0c1be4357fbc77ull},
      {0.3, 2, 0x13e79f551a02b76full}, {0.3, 3, 0x217b3c5f87aaff20ull},
  };
  const Problem large = random_problem(600, 576, 7, 5);
  for (const Pin& pin : large_pins) {
    for (const KernelVariant kernel :
         {KernelVariant::Scalar, KernelVariant::Vector}) {
      DistConfig large_config;
      large_config.decomp = {150, 144, 2, 2};
      large_config.steps = pin.steps;
      large_config.kernel_ratio = pin.ratio;
      large_config.kernel = kernel;
      EXPECT_EQ(grid_hash(run_distributed(large, large_config).grid), pin.hash)
          << "150 x 144 tiles, ratio " << pin.ratio << " steps " << pin.steps
          << " kernel " << kernel_variant_name(kernel);
    }
  }
  DistConfig large_config;
  large_config.decomp = {150, 144, 2, 2};
  large_config.steps = 2;
  large_config.kernel_ratio = 0.5;
  EXPECT_EQ(grid_hash(run_distributed(random_variable_problem(600, 576, 7, 5),
                                      large_config)
                          .grid),
            0xdda882762bc53237ull);
}

TEST(DistStencil, StateBufferOutlivesSolveAndRuntime) {
  // A state buffer returns to its rank's pool when its last reference drops.
  // One held past the graph, the subgraph and the runtime must stay readable
  // and must still be freed cleanly when it is finally dropped. The final
  // state goes into the field and is never published, so an extra task on
  // the tile's rank takes the state after iteration iters - 1 and keeps it.
  const int iters = 5;
  const Problem problem = random_problem(16, 16, iters);
  DistConfig config;
  config.decomp = {4, 4, 2, 2};
  rt::Buffer state;
  {
    rt::TaskGraph graph;
    const SolveSubgraph subgraph = add_solve_subgraph(graph, problem, config);
    rt::TaskSpec keep;
    keep.key = rt::TaskKey{100, 0, 0, 0};
    keep.rank = TileMap(16, 16, 4, 4, 2, 2).rank_of(1, 2);
    // STEP(k, ti, tj) has type 1 at key_space 0; slot 0 is its state.
    keep.inputs.push_back({rt::TaskKey{1, iters - 1, 1, 2}, 0});
    keep.body = [&state](rt::TaskContext& ctx) {
      state = ctx.input_buffer(0);
    };
    graph.add_task(std::move(keep));
    rt::Config rt_config;
    rt_config.nranks = subgraph.nodes();
    rt_config.workers_per_rank = 2;
    rt::Runtime runtime(rt_config);
    runtime.run(graph);
    EXPECT_EQ(
        Grid2D::max_abs_diff(subgraph.gather(runtime), solve_serial(problem)),
        0.0);
  }
  const Grid2D expected = solve_serial(random_problem(16, 16, iters - 1));
  const TileGeom g{4, 4, 1, 1, 1, 1};
  ASSERT_EQ(state->size(), g.size());
  for (int i = 0; i < g.h; ++i) {
    for (int j = 0; j < g.w; ++j) {
      EXPECT_EQ((*state)[g.idx(i, j)], expected.at(4 + i, 8 + j));
    }
  }
  state.reset();
}

TEST(DistStencil, GraphOwnsWhatItsBodiesPointInto) {
  // Task bodies capture plain pointers into the solve's context (the field
  // the final tasks write included) and into the fused plan; the graph keeps
  // both alive. The only SolveSubgraph handle is gone before the graph is
  // fused, sealed and run. Extra tasks read each tile's state after
  // iteration `half` (a window boundary) under the documented keys, and the
  // superstep hook hands over the final cores.
  const int iters = 8;
  const int half = 4;
  const int steps = 2;
  const std::uint32_t key_space = 3;
  const Problem problem = random_problem(20, 18, iters, 9);
  const Grid2D expected = solve_serial(problem);
  const Grid2D expected_half = solve_serial(random_problem(20, 18, half, 9));
  const TileMap map(20, 18, 10, 9, 2, 2);  // one tile per node
  for (const int fuse : {1, 2}) {
    std::mutex mu;
    std::map<std::pair<int, int>, rt::Buffer> states;
    std::map<std::pair<int, int>, std::vector<double>> cores;
    DistConfig config;
    config.decomp = {10, 9, 2, 2};
    config.steps = steps;
    config.fuse_depth = fuse;
    config.key_space = key_space;
    config.superstep_hook = [&](int k, int ti, int tj,
                                const std::vector<double>& core) {
      const std::lock_guard<std::mutex> lock(mu);
      if (k == iters) cores[{ti, tj}] = core;
    };
    rt::TaskGraph graph;
    const int window = add_solve_subgraph(graph, problem, config).fuse_window();
    for (int ti = 0; ti < 2; ++ti) {
      for (int tj = 0; tj < 2; ++tj) {
        rt::TaskSpec keep;
        keep.key = rt::TaskKey{100, 0, ti, tj};
        keep.rank = map.rank_of(ti, tj);
        keep.inputs.push_back(
            {rt::TaskKey{key_space * 2 + 1, half, ti, tj}, 0});
        keep.body = [&mu, &states, ti, tj](rt::TaskContext& ctx) {
          const std::lock_guard<std::mutex> lock(mu);
          states[{ti, tj}] = ctx.input_buffer(0);
        };
        graph.add_task(std::move(keep));
      }
    }
    rt::fuse_supersteps(graph, window);
    graph.seal(4);
    rt::Config rt_config;
    rt_config.nranks = 4;
    rt_config.workers_per_rank = 2;
    rt::Runtime runtime(rt_config);
    runtime.run(graph);
    // Every side facing a (remote) neighbor carries a ghost band as deep as
    // the exchange window; the domain edge carries the one-deep ring.
    const int depth = steps * fuse;
    ASSERT_EQ(states.size(), 4u);
    ASSERT_EQ(cores.size(), 4u);
    for (int ti = 0; ti < 2; ++ti) {
      for (int tj = 0; tj < 2; ++tj) {
        const rt::Buffer& state = states[{ti, tj}];
        const std::vector<double>& core = cores[{ti, tj}];
        const TileGeom g{10, 9, ti == 0 ? 1 : depth, ti == 0 ? depth : 1,
                         tj == 0 ? 1 : depth, tj == 0 ? depth : 1};
        ASSERT_EQ(state->size(), g.size()) << "fuse " << fuse;
        ASSERT_EQ(core.size(), static_cast<std::size_t>(g.h * g.w));
        for (int i = 0; i < g.h; ++i) {
          for (int j = 0; j < g.w; ++j) {
            EXPECT_EQ((*state)[g.idx(i, j)],
                      expected_half.at(10 * ti + i, 9 * tj + j))
                << "fuse " << fuse << " tile (" << ti << "," << tj << ")";
            EXPECT_EQ(core[static_cast<std::size_t>(i) * g.w + j],
                      expected.at(10 * ti + i, 9 * tj + j))
                << "fuse " << fuse << " tile (" << ti << "," << tj << ")";
          }
        }
      }
    }
  }
}

TEST(DistStencil, GatherHandsTheFieldOverOncePerRun) {
  // The final tasks write the field; gather hands it over and leaves a
  // fresh one, so each gather needs a completed run of its own. A gather
  // does not read what the runtime retains: it works after release_run().
  const Problem problem = random_problem(20, 18, 6, 5);
  const Grid2D expected = solve_serial(problem);
  DistConfig config;
  config.decomp = {6, 5, 2, 2};
  config.steps = 2;
  rt::TaskGraph graph;
  const SolveSubgraph subgraph = add_solve_subgraph(graph, problem, config);
  rt::Config rt_config;
  rt_config.nranks = subgraph.nodes();
  rt_config.workers_per_rank = 2;
  rt::Runtime runtime(rt_config);
  EXPECT_THROW(subgraph.gather(runtime), std::logic_error);
  for (int run = 0; run < 2; ++run) {
    runtime.run(graph);
    runtime.release_run();
    EXPECT_EQ(Grid2D::max_abs_diff(subgraph.gather(runtime), expected), 0.0)
        << "run " << run;
    EXPECT_THROW(subgraph.gather(runtime), std::logic_error) << "run " << run;
    EXPECT_THROW(subgraph.gather_planes(runtime), std::logic_error)
        << "run " << run;
  }
}

TEST(DistStencil, BatchedSolvesSharingOneGraphGatherEach) {
  // The solver farm's batch shape: several solves in one graph (distinct
  // key spaces, tile shapes and CA steps, one with zero iterations), one
  // run, then one gather per solve.
  const std::vector<Problem> problems = {random_problem(20, 18, 6, 1),
                                         random_problem(16, 24, 5, 2),
                                         random_problem(12, 12, 0, 3)};
  const std::vector<Decomposition> decomps = {
      {10, 9, 2, 2}, {4, 6, 2, 2}, {6, 6, 2, 2}};
  rt::TaskGraph graph;
  std::vector<SolveSubgraph> subgraphs;
  for (std::size_t i = 0; i < problems.size(); ++i) {
    DistConfig config;
    config.decomp = decomps[i];
    config.steps = i == 1 ? 2 : 1;
    config.key_space = static_cast<std::uint32_t>(i);
    subgraphs.push_back(add_solve_subgraph(graph, problems[i], config));
  }
  rt::Config rt_config;
  rt_config.nranks = 4;
  rt_config.workers_per_rank = 2;
  rt::Runtime runtime(rt_config);
  runtime.run(graph);
  for (std::size_t i = 0; i < problems.size(); ++i) {
    EXPECT_EQ(Grid2D::max_abs_diff(subgraphs[i].gather(runtime),
                                   solve_serial(problems[i])),
              0.0)
        << "solve " << i;
  }
}

TEST(DistStencil, ResidentRuntimeRunsSolvesOfDifferentTileShapes) {
  // Worker threads reuse one assembly buffer across every step body they
  // run, whatever its tile shape: a small-tile solve, then a run batching a
  // large-tile and a ragged-tile solve, on one resident runtime.
  const Problem problem = random_problem(20, 18, 6);
  const Grid2D expected = solve_serial(problem);
  rt::Config rt_config;
  rt_config.nranks = 4;
  rt_config.workers_per_rank = 2;
  rt::Runtime runtime(rt_config);
  const std::vector<std::vector<Decomposition>> runs = {
      {{4, 4, 2, 2}}, {{10, 9, 2, 2}, {6, 5, 2, 2}}};
  for (const auto& decomps : runs) {
    rt::TaskGraph graph;
    std::vector<SolveSubgraph> subgraphs;
    for (const Decomposition& decomp : decomps) {
      DistConfig config;
      config.decomp = decomp;
      config.steps = 2;
      config.key_space = static_cast<std::uint32_t>(subgraphs.size());
      subgraphs.push_back(add_solve_subgraph(graph, problem, config));
    }
    runtime.run(graph);
    for (const SolveSubgraph& subgraph : subgraphs) {
      EXPECT_EQ(Grid2D::max_abs_diff(subgraph.gather(runtime), expected), 0.0);
    }
    runtime.release_run();
  }
}

TEST(DistStencil, StateBuffersComeFromRankPools) {
  // 2x2 nodes of 2x2 tiles, one worker per rank: a rank holds at most a few
  // states at once, so after warmup nearly every step reuses a buffer whose
  // last reference dropped. A pool that never hits would allocate one buffer
  // per task (656 here).
  const int iters = 40;
  const Problem problem = random_problem(32, 32, iters);
  DistConfig config;
  config.decomp = {8, 8, 2, 2};
  const long long step_tasks = 16LL * iters;

  rt::TaskGraph graph;
  const SolveSubgraph subgraph = add_solve_subgraph(graph, problem, config);
  rt::Config rt_config;
  rt_config.nranks = subgraph.nodes();
  rt::Runtime runtime(rt_config);
  runtime.run(graph);
  const Grid2D expected = solve_serial(problem);
  EXPECT_EQ(Grid2D::max_abs_diff(subgraph.gather(runtime), expected), 0.0);
  EXPECT_GE(subgraph.state_buffer_allocs(), 16);  // every INIT misses
  EXPECT_LT(subgraph.state_buffer_allocs(), step_tasks / 2);

  if constexpr (obs::kEnabled) {
    config.metrics = std::make_shared<obs::MetricsRegistry>();
    run_distributed(problem, config);
    const auto allocs =
        config.metrics->counter("stencil_state_buffer_allocs_total")->value();
    EXPECT_GE(allocs, 16u);
    EXPECT_LT(allocs, static_cast<std::uint64_t>(step_tasks / 2));
  }

  // Fused windows on 6x6 tiles of 16, one worker per rank: a fuse-ready
  // tile's ghost depth depends on which sides have neighbors, so one rank's
  // tiles have three extents. Each pool buffer holds the rank's largest
  // extended state, so any free buffer serves any tile: after the 36 INIT
  // misses only a few per rank remain (8 in total measured; the bound
  // allows 8 per rank). A pool that needs a free buffer at least as large
  // as the tile missed 171-191 times here.
  const Problem mixed = random_problem(96, 96, 16, 3);
  DistConfig fused;
  fused.decomp = {16, 16, 2, 2};
  fused.steps = 2;
  fused.fuse_depth = 2;
  rt::TaskGraph fused_graph;
  const SolveSubgraph fused_subgraph =
      add_solve_subgraph(fused_graph, mixed, fused);
  rt::fuse_supersteps(fused_graph, fused_subgraph.fuse_window());
  rt::Runtime fused_runtime(rt_config);
  fused_runtime.run(fused_graph);
  EXPECT_EQ(Grid2D::max_abs_diff(fused_subgraph.gather(fused_runtime),
                                 solve_serial(mixed)),
            0.0);
  EXPECT_GE(fused_subgraph.state_buffer_allocs(), 36);
  EXPECT_LE(fused_subgraph.state_buffer_allocs(), 36 + 4 * 8);

  // Base steps of tiles above the rule, 2x2 nodes of 2x2 tiles: a large
  // tile's same-node neighbours read its packed edge lines, so each state
  // has one reader, the tile's next step, and goes back to the pool when
  // that step completes. With one worker a rank then holds one state per
  // tile plus the running step's output: at most one miss per tile plus one
  // per rank (20; states read in place by two same-node neighbours missed
  // 32 times here). A second worker can start a step while the first still
  // completes its own, whose input and output stay referenced until its
  // fan-out ends, so each worker may hold two buffers past its tiles' (32;
  // 24-26 measured, 33-38 with states read in place).
  const int large = kInnerSweepMinExtent;
  const Problem big = random_problem(4 * large, 4 * large, 10, 11);
  const Grid2D big_expected = solve_serial(big);
  DistConfig base;
  base.decomp = {large, large, 2, 2};
  for (const int workers : {1, 2}) {
    SCOPED_TRACE("workers " + std::to_string(workers));
    rt::TaskGraph big_graph;
    const SolveSubgraph big_subgraph =
        add_solve_subgraph(big_graph, big, base);
    rt::Config big_config;
    big_config.nranks = big_subgraph.nodes();
    big_config.workers_per_rank = workers;
    rt::Runtime big_runtime(big_config);
    big_runtime.run(big_graph);
    EXPECT_EQ(Grid2D::max_abs_diff(big_subgraph.gather(big_runtime),
                                   big_expected),
              0.0);
    EXPECT_GE(big_subgraph.state_buffer_allocs(), 16);
    EXPECT_LE(big_subgraph.state_buffer_allocs(),
              16 + 4 * (workers == 1 ? 1 : 2 * workers));
  }
}

TEST(DistStencil, ValidatesConfiguration) {
  const Problem problem = random_problem(16, 16, 2);
  DistConfig config;
  config.decomp = {4, 4, 2, 2};
  config.steps = 0;
  EXPECT_THROW(run_distributed(problem, config), std::invalid_argument);
  config.steps = 5;  // > tile extent 4
  EXPECT_THROW(run_distributed(problem, config), std::invalid_argument);
  config.steps = 2;
  config.kernel_ratio = 0.0;
  EXPECT_THROW(run_distributed(problem, config), std::invalid_argument);
  config.kernel_ratio = 1.5;
  EXPECT_THROW(run_distributed(problem, config), std::invalid_argument);
  // Live telemetry sizes its per-superstep counters before the graph is
  // built; a bad config is still rejected by name.
  config.kernel_ratio = 1.0;
  config.steps = 0;
  config.telemetry = true;
  EXPECT_THROW(run_distributed(problem, config), std::invalid_argument);
}

TEST(DistStencil, ZeroIterationsGathersInitialField) {
  const Problem problem = random_problem(12, 12, 0);
  DistConfig config;
  config.decomp = {4, 4, 2, 2};
  const DistResult r = run_distributed(problem, config);
  for (int i = 0; i < problem.rows; ++i) {
    for (int j = 0; j < problem.cols; ++j) {
      EXPECT_DOUBLE_EQ(r.grid.at(i, j), problem.initial(i, j));
    }
  }
  EXPECT_EQ(r.stats.messages, 0u);
}

TEST(DistStencil, LaplaceProblemAcrossVariantsAgrees) {
  const Problem problem = laplace_problem(24, 20);
  const Grid2D serial = solve_serial(problem);
  for (int steps : {1, 2, 4}) {
    DistConfig config;
    config.decomp = {6, 6, 2, 2};
    config.steps = steps;
    const DistResult r = run_distributed(problem, config);
    EXPECT_EQ(Grid2D::max_abs_diff(serial, r.grid), 0.0) << "steps=" << steps;
  }
}

}  // namespace
}  // namespace repro::stencil
