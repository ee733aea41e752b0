// End-to-end resilience: the CA stencil over the full channel stack
// ReliableChannel( FaultInjector( Transport ) ) must produce a final grid
// bit-identical to the fault-free serial reference — faults may cost time,
// never correctness.
#include <gtest/gtest.h>

#include <memory>
#include <regex>
#include <string>

#include "equivalence_helpers.hpp"
#include "fault/fault_injector.hpp"
#include "fault/reliable_channel.hpp"
#include "fault/resilient.hpp"
#include "net/transport.hpp"
#include "runtime/runtime.hpp"
#include "spec/stencil_spec.hpp"
#include "stencil/dist_stencil.hpp"
#include "stencil/serial.hpp"

namespace repro::fault {
namespace {

using stencil::DistConfig;
using stencil::Grid2D;
using stencil::Problem;

/// Channel factory for the canonical stack; keeps a handle to the last built
/// layers so tests can read their counters after the run.
struct Stack {
  FaultPlan plan;
  ReliableConfig reliable;
  std::shared_ptr<ReliableChannel> last;

  net::ChannelFactory factory() {
    return [this](int nranks) {
      auto transport = std::make_shared<net::Transport>(nranks);
      auto injector = std::make_shared<FaultInjector>(transport, plan);
      last = std::make_shared<ReliableChannel>(injector, reliable);
      return last;
    };
  }
  const FaultInjector& injector() const {
    return static_cast<const FaultInjector&>(*last->inner());
  }
};

DistConfig small_config(int steps) {
  DistConfig config;
  config.decomp = {16, 16, 2, 2};
  config.steps = steps;
  config.workers_per_rank = 2;
  return config;
}

/// A 2-rank ping-pong: hop h runs on rank h % 2 and reads hop h - 1
/// (remote, input 0) and, from hop 2 on, hop h - 2 (local, input 1). A
/// duplicated hop reaches its rank before any later hop in that direction
/// (per-channel FIFO), so no run can finish without meeting a duplicate.
rt::TaskGraph ping_pong_graph(int hops) {
  rt::TaskGraph graph;
  for (int h = 0; h <= hops; ++h) {
    rt::TaskSpec spec;
    spec.key = rt::TaskKey{7, h, 0, 0};
    spec.rank = h % 2;
    if (h >= 1) spec.inputs.push_back({rt::TaskKey{7, h - 1, 0, 0}, 0});
    if (h >= 2) spec.inputs.push_back({rt::TaskKey{7, h - 2, 0, 0}, 0});
    spec.body = [h](rt::TaskContext& ctx) {
      double v = 1.0 + h;
      for (std::size_t i = 0; i < ctx.num_inputs(); ++i) {
        v = v * 0.75 + ctx.input(i)[0];
      }
      ctx.publish(0, std::vector<double>{v});
    };
    graph.add_task(std::move(spec));
  }
  return graph;
}

TEST(FaultE2E, DuplicateDeliveryWithoutReliableLayerIsDiagnosed) {
  // An injector that duplicates every message, with no ReliableChannel to
  // dedupe: a second delivery into an input slot must fail the run naming
  // the slot and its task, whatever the worker count.
  const FaultPlan plan = FaultPlan::uniform(5, 0.0, /*duplicate=*/1.0);
  for (const int workers : {1, 2}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    rt::TaskGraph graph = ping_pong_graph(8);
    rt::Config config{2, workers};
    config.channel_factory = [&plan](int nranks) {
      return std::make_shared<FaultInjector>(
          std::make_shared<net::Transport>(nranks), plan);
    };
    rt::Runtime runtime(config);
    try {
      runtime.run(graph);
      ADD_FAILURE() << "duplicated deliveries went unnoticed";
    } catch (const std::runtime_error& e) {
      const std::regex diagnosis(
          R"(input 0 of t7\([1-8],0,0\) delivered twice)");
      EXPECT_TRUE(std::regex_search(e.what(), diagnosis)) << e.what();
    }
  }
}

TEST(FaultE2E, DuplicatesBelowAReliableLayerStayBitIdentical) {
  rt::TaskGraph clean_graph = ping_pong_graph(8);
  rt::Runtime clean(rt::Config{2, 2});
  clean.run(clean_graph);
  const rt::Buffer expected = clean.result(rt::TaskKey{7, 8, 0, 0}, 0);

  Stack stack;
  stack.plan = FaultPlan::uniform(5, 0.0, /*duplicate=*/1.0);
  rt::TaskGraph graph = ping_pong_graph(8);
  rt::Config config{2, 2};
  config.channel_factory = stack.factory();
  rt::Runtime runtime(config);
  runtime.run(graph);
  EXPECT_EQ(*runtime.result(rt::TaskKey{7, 8, 0, 0}, 0), *expected);
  EXPECT_GT(stack.injector().fault_stats().duplicated, 0u);
}

TEST(FaultE2E, CaStencilBitIdenticalUnderHeavyFaults) {
  // 10-20% of every fault type, CA step sizes bracketing the paper's sweep,
  // three seeds each: the delivered field must match serial exactly.
  const Problem problem = stencil::random_problem(64, 64, 15);
  const Grid2D expected = solve_serial(problem);

  for (int steps : {1, 5, 15}) {
    for (std::uint64_t seed : {1u, 2u, 3u}) {
      Stack stack;
      stack.plan = FaultPlan::uniform(seed, 0.15, 0.10, 0.20);
      stack.reliable.timeout_s = 0.001;
      DistConfig config = small_config(steps);
      config.channel_factory = stack.factory();

      const auto result = run_distributed(problem, config);
      EXPECT_TRUE(test_support::grids_match(expected, result.grid))
          << test_support::failing_seed(seed, config);

      const FaultStats faults = stack.injector().fault_stats();
      const ReliableStats rel = stack.last->reliable_stats();
      EXPECT_GT(faults.dropped, 0u) << "fault plan was not exercised";
      EXPECT_GT(rel.retransmits, 0u) << "drops must force retransmissions";
      EXPECT_FALSE(rel.failed);
    }
  }
}

TEST(FaultE2E, FusedWavefrontOverFaultyStackStaysBitIdentical) {
  // The graph rewrite composes with the fault stack: fused-wavefront runs —
  // including a window spanning the whole iteration count, a ragged final
  // window, and the persistent-wire composition — over a lossy injector
  // must still deliver serial bits. Fewer, larger messages raise the stakes
  // per drop; correctness must not depend on message granularity.
  const Problem problem = stencil::random_problem(64, 64, 15);
  const Grid2D expected = solve_serial(problem);

  struct FusedCase {
    int steps, fuse;
    bool persistent;
  };
  const FusedCase cases[] = {
      {5, 3, false},  // W = 15: every iteration inside one fused window
      {2, 5, false},  // W = 10, ragged final window
      {3, 2, true},   // W = 6 over persistent routes
  };
  for (const FusedCase& c : cases) {
    for (std::uint64_t seed : {1u, 2u}) {
      Stack stack;
      stack.plan = FaultPlan::uniform(seed, 0.15, 0.10, 0.20);
      stack.reliable.timeout_s = 0.001;
      DistConfig config = small_config(c.steps);
      config.fuse_depth = c.fuse;
      config.persistent = c.persistent;
      config.channel_factory = stack.factory();

      const auto result = run_distributed(problem, config);
      EXPECT_TRUE(test_support::grids_match(expected, result.grid))
          << test_support::failing_seed(seed, config);

      const FaultStats faults = stack.injector().fault_stats();
      const ReliableStats rel = stack.last->reliable_stats();
      EXPECT_GT(faults.dropped, 0u) << "fault plan was not exercised";
      EXPECT_GT(rel.retransmits, 0u) << "drops must force retransmissions";
      EXPECT_FALSE(rel.failed);
    }
  }
}

TEST(FaultE2E, PersistentOverFaultyStackStaysBitIdentical) {
  // Full composition: PersistentChannel over ReliableChannel over a lossy
  // injector. Route fragments ride reliability envelopes as shared views (no
  // retained payload copies), survive drops/dups/reordering, and the grid
  // still matches serial bit-for-bit.
  const Problem problem = stencil::random_problem(64, 64, 15);
  const Grid2D expected = solve_serial(problem);

  for (int steps : {1, 5}) {
    for (std::uint64_t seed : {1u, 2u}) {
      Stack stack;
      stack.plan = FaultPlan::uniform(seed, 0.15, 0.10, 0.20);
      stack.reliable.timeout_s = 0.001;
      DistConfig config = small_config(steps);
      config.channel_factory = stack.factory();
      config.persistent = true;

      const auto result = run_distributed(problem, config);
      EXPECT_EQ(Grid2D::max_abs_diff(expected, result.grid), 0.0)
          << "steps " << steps << " seed " << seed;

      const FaultStats faults = stack.injector().fault_stats();
      const ReliableStats rel = stack.last->reliable_stats();
      EXPECT_GT(faults.dropped, 0u) << "fault plan was not exercised";
      EXPECT_GT(rel.retransmits, 0u) << "drops must force retransmissions";
      // Fragment payloads are shared views of registered slots, and every
      // other message is header-only, so the retransmit window never deep
      // copies bulk data even over this lossy stack.
      EXPECT_EQ(rel.retained_payload_doubles, 0u);
      EXPECT_FALSE(rel.failed);
    }
  }
}

TEST(FaultE2E, ZeroFaultPlanAddsNoRetransmits) {
  // With live runtime receivers draining acks at the default timeout, a
  // clean channel must see zero reliability traffic beyond the acks.
  const Problem problem = stencil::random_problem(64, 64, 10);
  const Grid2D expected = solve_serial(problem);

  Stack stack;
  stack.plan = FaultPlan::uniform(1, 0.0);
  // Acks turn around in microseconds here; the generous timeout only guards
  // against sanitizer/CI scheduling stalls masquerading as losses.
  stack.reliable.timeout_s = 0.1;
  DistConfig config = small_config(5);
  config.channel_factory = stack.factory();

  const auto result = run_distributed(problem, config);
  EXPECT_EQ(Grid2D::max_abs_diff(expected, result.grid), 0.0);

  const FaultStats faults = stack.injector().fault_stats();
  const ReliableStats rel = stack.last->reliable_stats();
  EXPECT_EQ(faults.dropped, 0u);
  EXPECT_EQ(faults.duplicated, 0u);
  EXPECT_EQ(rel.retransmits, 0u);
  EXPECT_EQ(rel.dup_dropped, 0u);
  EXPECT_EQ(rel.out_of_order, 0u);
  // Everything the injector saw was first-transmission data or acks.
  EXPECT_EQ(rel.data_sent + rel.acks_sent, faults.forwarded);
}

TEST(FaultE2E, SuperstepHookSeesConsistentSnapshots) {
  // The hook must observe, for every superstep boundary, tile cores that
  // reassemble into exactly the serial iterate at that iteration. With
  // fuse_depth > 1 the window widens to steps * fuse, but the hook keeps the
  // ORIGINAL steps cadence — fused tile cores are consistent at every
  // interior superstep boundary, so checkpoints stay fuse-agnostic.
  const Problem problem = stencil::random_problem(32, 32, 6);
  for (int fuse : {1, 2}) {
    DistConfig config;
    config.decomp = {8, 8, 2, 2};
    config.steps = 3;
    config.fuse_depth = fuse;

    CheckpointStore store;
    config.superstep_hook = [&store](int k, int ti, int tj,
                                     const std::vector<double>& core) {
      store.store(k, ti, tj, core);
    };
    run_distributed(problem, config);

    const stencil::TileMap map(32, 32, 8, 8, 2, 2);
    for (int k : {0, 3, 6}) {
      Problem upto = problem;
      upto.iterations = k;
      const Grid2D reference = solve_serial(upto);
      const auto tiles = store.tiles(k);
      ASSERT_EQ(tiles.size(), 16u) << "superstep " << k << " fuse " << fuse;
      for (const auto& [coord, core] : tiles) {
        const auto [ti, tj] = coord;
        for (int i = 0; i < map.tile_h(ti); ++i) {
          for (int j = 0; j < map.tile_w(tj); ++j) {
            ASSERT_EQ(core[static_cast<std::size_t>(i) * map.tile_w(tj) + j],
                      reference.at(map.row0(ti) + i, map.col0(tj) + j))
                << "k=" << k << " tile (" << ti << "," << tj << ") fuse "
                << fuse;
          }
        }
      }
    }
  }
}

TEST(FaultE2E, ResilientRunnerRecoversFromBlackoutBitIdentically) {
  // The channel blacks out mid-run (every message dropped from then on), the
  // reliable layer gives up, and the resilient runner must roll back to the
  // last checkpoint, retry on a fresh channel, and still match serial.
  const Problem problem = stencil::random_problem(48, 48, 12);
  const Grid2D expected = solve_serial(problem);

  int attempt = 0;
  ResilientConfig config;
  config.dist = small_config(3);
  config.checkpoint_supersteps = 2;  // 6-iteration windows
  config.channel_factory = [&attempt](int nranks) -> std::shared_ptr<net::Channel> {
    auto transport = std::make_shared<net::Transport>(nranks);
    FaultPlan plan;
    // First attempt dies early; later attempts get a clean channel so the
    // test terminates deterministically.
    if (attempt++ == 0) plan.blackout_after = 40;
    auto injector = std::make_shared<FaultInjector>(transport, plan);
    ReliableConfig reliable;
    reliable.timeout_s = 0.0005;
    reliable.max_retries = 4;
    return std::make_shared<ReliableChannel>(injector, reliable);
  };

  const ResilientResult result = run_resilient(problem, config);
  EXPECT_EQ(Grid2D::max_abs_diff(expected, result.grid), 0.0);
  EXPECT_GE(result.rollbacks, 1);
  EXPECT_EQ(result.attempts, result.windows + result.rollbacks);
  EXPECT_GT(result.checkpoints.stored, 0u);
}

TEST(FaultE2E, ResilientRunnerRecoversFusedRunsBitIdentically) {
  // Checkpoint/rollback over fused wavefronts: the runner's windows are
  // sliced in ORIGINAL supersteps (the hook cadence fusing preserves), so a
  // blackout mid-run must roll a fused window back and replay it to the
  // exact serial bits.
  const Problem problem = stencil::random_problem(48, 48, 12);
  const Grid2D expected = solve_serial(problem);

  int attempt = 0;
  ResilientConfig config;
  config.dist = small_config(3);
  config.dist.fuse_depth = 2;  // W = 6 = one checkpoint window per rewrite
  config.checkpoint_supersteps = 2;
  config.channel_factory =
      [&attempt](int nranks) -> std::shared_ptr<net::Channel> {
    auto transport = std::make_shared<net::Transport>(nranks);
    FaultPlan plan;
    // Fused graphs send far fewer messages, so black out early on the first
    // attempt; later attempts get a clean channel.
    if (attempt++ == 0) plan.blackout_after = 5;
    auto injector = std::make_shared<FaultInjector>(transport, plan);
    ReliableConfig reliable;
    reliable.timeout_s = 0.0005;
    reliable.max_retries = 4;
    return std::make_shared<ReliableChannel>(injector, reliable);
  };

  const ResilientResult result = run_resilient(problem, config);
  EXPECT_TRUE(test_support::grids_match(expected, result.grid));
  EXPECT_GE(result.rollbacks, 1);
  EXPECT_GT(result.checkpoints.stored, 0u);
}

TEST(FaultE2E, ResilientRunnerRestartsEveryRank2Spec) {
  // Every window restarts from the previous window's field through
  // stencil::restart_from, for any rank <= 2 spec: wide (star9), diagonal
  // (box9) and asymmetric (advect2d) programs chain windows exactly. A
  // rank-3 problem is refused: a Grid2D snapshot holds one plane.
  ResilientConfig config;
  config.dist.decomp = {6, 6, 2, 2};
  config.checkpoint_supersteps = 2;  // 6 iterations = 3 windows
  for (const char* name : {"star5", "star9", "box9", "advect2d"}) {
    const Problem problem =
        stencil::spec_problem(spec::spec_by_name(name), 24, 24, 6);
    const ResilientResult result = run_resilient(problem, config);
    EXPECT_EQ(result.windows, 3) << name;
    EXPECT_TRUE(test_support::grids_match(solve_serial(problem), result.grid))
        << name;
  }
  const Problem heat3d =
      stencil::spec_problem(spec::spec_by_name("heat3d"), 24, 24, 6, 2);
  EXPECT_THROW(run_resilient(heat3d, config), std::invalid_argument);
}

TEST(FaultE2E, ResilientRunnerRollsBackWideSpecsBitIdentically) {
  // A blackout on the first attempt rolls a star9 run back to its newest
  // complete checkpoint; the replay from the assembled checkpoint field,
  // with 2-deep Dirichlet ghosts, must reach the serial bits.
  const Problem problem =
      stencil::spec_problem(spec::StencilSpec::star9(), 48, 48, 12);
  const Grid2D expected = solve_serial(problem);

  int attempt = 0;
  ResilientConfig config;
  config.dist = small_config(3);
  config.checkpoint_supersteps = 2;  // 6-iteration windows
  config.channel_factory =
      [&attempt](int nranks) -> std::shared_ptr<net::Channel> {
    auto transport = std::make_shared<net::Transport>(nranks);
    FaultPlan plan;
    if (attempt++ == 0) plan.blackout_after = 40;
    auto injector = std::make_shared<FaultInjector>(transport, plan);
    ReliableConfig reliable;
    reliable.timeout_s = 0.0005;
    reliable.max_retries = 4;
    return std::make_shared<ReliableChannel>(injector, reliable);
  };

  const ResilientResult result = run_resilient(problem, config);
  EXPECT_TRUE(test_support::grids_match(expected, result.grid));
  EXPECT_GE(result.rollbacks, 1);
  EXPECT_EQ(result.attempts, result.windows + result.rollbacks);
}

TEST(FaultE2E, ResilientRunnerUnderSustainedRandomLoss) {
  // Persistent 10% drop across every window, aggressive give-up threshold:
  // windows may fail repeatedly, yet recovery must converge to the exact
  // serial result within the attempt budget.
  const Problem problem = stencil::random_problem(48, 48, 9);
  const Grid2D expected = solve_serial(problem);

  std::uint64_t next_seed = 100;
  ResilientConfig config;
  config.dist = small_config(3);
  config.max_attempts = 25;
  config.channel_factory =
      [&next_seed](int nranks) -> std::shared_ptr<net::Channel> {
    auto transport = std::make_shared<net::Transport>(nranks);
    auto injector = std::make_shared<FaultInjector>(
        transport, FaultPlan::uniform(next_seed++, 0.10, 0.05, 0.05));
    ReliableConfig reliable;
    reliable.timeout_s = 0.001;
    return std::make_shared<ReliableChannel>(injector, reliable);
  };

  const ResilientResult result = run_resilient(problem, config);
  EXPECT_EQ(Grid2D::max_abs_diff(expected, result.grid), 0.0);
  EXPECT_GE(result.windows, 3);  // 9 iterations / (1 superstep * s=3) windows
}

}  // namespace
}  // namespace repro::fault
