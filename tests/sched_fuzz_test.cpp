// Schedule fuzzing: "any legal schedule yields the same bits", tested.
//
// The work-stealing scheduler opens a combinatorial space of execution
// orders (who steals from whom, when). Correctness rests on the dataflow
// contract alone — a task runs only once all inputs arrived — so every
// schedule must produce a grid bit-identical to the serial reference. This
// harness drives rt::SchedTestHook with seeded, stateless perturbations
// (victim-selection override, injected steal delays, pre-execute stalls) and
// sweeps stencil variants x kernel variants x worker counts x seeds under
// both the shared-queue and work-stealing schedulers.
//
// Seed count per configuration defaults to kDefaultSeeds and can be lowered
// via REPRO_SCHED_FUZZ_SEEDS (the TSan CI lane runs 3 seeds; the default
// lane runs the full sweep). Every assertion carries the failing seed.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "equivalence_helpers.hpp"
#include "runtime/runtime.hpp"
#include "serve/solver_farm.hpp"
#include "spec/stencil_spec.hpp"
#include "stencil/dist_stencil.hpp"
#include "stencil/serial.hpp"
#include "stencil/spec_kernel.hpp"
#include "support/rng.hpp"

namespace repro {
namespace {

constexpr int kDefaultSeeds = 50;

int seeds_per_config() {
  if (const char* env = std::getenv("REPRO_SCHED_FUZZ_SEEDS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return kDefaultSeeds;
}

/// Stateless mixing of a tuple into a uniform 64-bit value. The hook
/// callbacks run concurrently on worker threads, so all randomness is
/// derived by hashing (seed, call-site coordinates) — no shared state.
std::uint64_t mix(std::uint64_t seed, std::uint64_t a, std::uint64_t b,
                  std::uint64_t c) {
  SplitMix64 sm(seed ^ (a * 0x9e3779b97f4a7c15ULL) ^
                (b * 0xbf58476d1ce4e5b9ULL) ^ (c * 0x94d049bb133111ebULL));
  return sm.next();
}

/// Build the adversarial hook for one fuzz seed: victim choice is scrambled,
/// steals are occasionally delayed, and task execution is occasionally
/// stalled or yielded — shifting every race the scheduler has.
std::shared_ptr<rt::SchedTestHook> make_fuzz_hook(std::uint64_t seed) {
  auto hook = std::make_shared<rt::SchedTestHook>();
  hook->pick_victim = [seed](int rank, int thief, int workers,
                             std::uint64_t attempt) {
    return static_cast<int>(
        mix(seed, static_cast<std::uint64_t>(rank * 64 + thief), attempt, 1) %
        static_cast<std::uint64_t>(workers));
  };
  hook->before_steal = [seed](int rank, int thief, int victim,
                              std::uint64_t attempt) {
    const std::uint64_t r =
        mix(seed, static_cast<std::uint64_t>(rank * 64 + thief),
            attempt ^ static_cast<std::uint64_t>(victim), 2);
    if ((r & 15) == 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(r % 80));
    } else if ((r & 3) == 0) {
      std::this_thread::yield();
    }
  };
  hook->before_execute = [seed](int rank, int worker, std::uint64_t seq) {
    const std::uint64_t r =
        mix(seed, static_cast<std::uint64_t>(rank * 64 + worker), seq, 3);
    if ((r & 31) == 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(r % 50));
    } else if ((r & 7) == 0) {
      std::this_thread::yield();
    }
  };
  return hook;
}

struct Variant {
  const char* name;
  int steps;
  stencil::KernelVariant kernel;
  bool persistent = false;  ///< route halos over the persistent channel
  int fuse = 1;             ///< fused-wavefront depth (graph rewrite)
};

// One small problem shared by every variant: 3x3 tiles over 2x2 nodes, so
// the graph has interior tiles, boundary tiles, and halo-publishing tiles
// under both the base (steps=1) and CA (steps=2) shapes.
constexpr int kRows = 12;
constexpr int kCols = 14;
constexpr int kIters = 4;

void run_variant_sweep(const Variant& variant) {
  const stencil::Problem problem =
      stencil::random_problem(kRows, kCols, kIters, 0x5eed);
  const stencil::Grid2D expected = solve_serial(problem);
  const int seeds = seeds_per_config();

  for (const auto policy :
       {rt::SchedPolicy::PriorityFifo, rt::SchedPolicy::WorkStealing}) {
    for (const int workers : {1, 2, 4, 8}) {
      for (int seed = 0; seed < seeds; ++seed) {
        stencil::DistConfig config;
        config.decomp = {4, 5, 2, 2};
        config.steps = variant.steps;
        config.kernel = variant.kernel;
        config.persistent = variant.persistent;
        config.fuse_depth = variant.fuse;
        config.workers_per_rank = workers;
        config.scheduler = policy;
        config.sched_seed = static_cast<std::uint64_t>(seed);
        config.sched_test_hook =
            make_fuzz_hook(static_cast<std::uint64_t>(seed));

        const stencil::DistResult result = run_distributed(problem, config);
        ASSERT_TRUE(test_support::grids_match(expected, result.grid))
            << variant.name << " "
            << test_support::failing_seed(
                   static_cast<std::uint64_t>(seed), config);
      }
    }
  }
}

// Spec-driven problems ride the same adversarial schedule pool: spec
// programs add multi-plane state, radius-deep halos, and (for box specs)
// corner messages — all of which must stay bit-identical to
// solve_serial_spec under every schedule on every z plane.
void run_spec_sweep(const spec::StencilSpec& sp, int nz, int steps,
                    bool persistent = false, int fuse = 1) {
  const stencil::Problem problem =
      stencil::spec_problem(sp, kRows, kCols, kIters, nz, 0x5eed);
  const std::vector<stencil::Grid2D> expected =
      stencil::solve_serial_spec(problem);
  const int seeds = std::min(seeds_per_config(), 16);

  for (const auto policy :
       {rt::SchedPolicy::PriorityFifo, rt::SchedPolicy::WorkStealing}) {
    for (const int workers : {2, 4}) {
      for (int seed = 0; seed < seeds; ++seed) {
        stencil::DistConfig config;
        config.decomp = {4, 5, 2, 2};
        config.steps = steps;
        config.persistent = persistent;
        config.fuse_depth = fuse;
        config.workers_per_rank = workers;
        config.scheduler = policy;
        config.sched_seed = static_cast<std::uint64_t>(seed);
        config.sched_test_hook =
            make_fuzz_hook(static_cast<std::uint64_t>(seed));

        const stencil::DistResult result = run_distributed(problem, config);
        ASSERT_TRUE(test_support::planes_match(expected, result))
            << sp.name << " "
            << test_support::failing_seed(static_cast<std::uint64_t>(seed),
                                          config)
            << " SPEC=" << sp.to_literal();
      }
    }
  }
}

TEST(SchedFuzz, SpecStar9CaBitIdenticalUnderAllSchedules) {
  run_spec_sweep(spec::StencilSpec::star9(), 1, 2);
}

TEST(SchedFuzz, SpecBox9CaBitIdenticalUnderAllSchedules) {
  run_spec_sweep(spec::StencilSpec::box9(), 1, 2);
}

TEST(SchedFuzz, SpecHeat3dCaBitIdenticalUnderAllSchedules) {
  run_spec_sweep(spec::StencilSpec::heat3d(), 3, 2);
}

TEST(SchedFuzz, BaseScalarBitIdenticalUnderAllSchedules) {
  run_variant_sweep({"base-scalar", 1, stencil::KernelVariant::Scalar});
}

TEST(SchedFuzz, CaScalarBitIdenticalUnderAllSchedules) {
  run_variant_sweep({"ca-scalar", 2, stencil::KernelVariant::Scalar});
}

TEST(SchedFuzz, CaVectorBitIdenticalUnderAllSchedules) {
  run_variant_sweep({"ca-vector", 2, stencil::KernelVariant::Vector});
}

TEST(SchedFuzz, CaBlockedBitIdenticalUnderAllSchedules) {
  run_variant_sweep({"ca-blocked", 2, stencil::KernelVariant::Blocked});
}

// Fused wavefronts under adversarial schedules: the rewritten graph has one
// task per tile per window, so the scheduler sees far fewer, far bigger
// tasks with window-boundary-only cross-tile edges — every steal/stall
// perturbation must still produce serial bits. W = steps * fuse = 4 fills
// the smallest tile exactly; the second variant leaves the window ragged
// against kIters and routes the exchanges over the persistent channel.
TEST(SchedFuzz, CaFusedWavefrontBitIdenticalUnderAllSchedules) {
  run_variant_sweep(
      {"ca-fused", 2, stencil::KernelVariant::Scalar, false, /*fuse=*/2});
}

TEST(SchedFuzz, FusedWavefrontPersistentBitIdenticalUnderAllSchedules) {
  run_variant_sweep({"fused-persistent", 1, stencil::KernelVariant::Scalar,
                     true, /*fuse=*/3});
}

TEST(SchedFuzz, SpecStar9FusedBitIdenticalUnderAllSchedules) {
  run_spec_sweep(spec::StencilSpec::star9(), 1, 1, /*persistent=*/false,
                 /*fuse=*/2);
}

// Persistent-channel runs through the same adversarial schedule pool: the
// multi-field heat3d path splits every route into nfield fragments and must
// stay bit-identical to the serial oracle under every schedule.
TEST(SchedFuzz, SpecHeat3dCaPersistentBitIdenticalUnderAllSchedules) {
  run_spec_sweep(spec::StencilSpec::heat3d(), 3, 2, /*persistent=*/true);
}

// A deterministic stall forces stealing: one rank, four workers, a batch of
// independent tasks spread round-robin, and a hook that slows worker 0 on
// every task. The idle workers must drain worker 0's deque; the run proves
// steals actually happen (trace Steal events + rt_steals_total) and that the
// stolen schedule still executes every task exactly once.
TEST(SchedFuzz, StallingOneWorkerForcesSteals) {
  constexpr int kTasks = 96;
  rt::TaskGraph graph;
  std::atomic<int> executed{0};
  for (int i = 0; i < kTasks; ++i) {
    rt::TaskSpec t;
    t.key = rt::TaskKey{5, i, 0, 0};
    t.body = [&executed](rt::TaskContext&) {
      executed.fetch_add(1, std::memory_order_relaxed);
    };
    graph.add_task(std::move(t));
  }

  auto hook = std::make_shared<rt::SchedTestHook>();
  hook->before_execute = [](int /*rank*/, int worker, std::uint64_t) {
    if (worker == 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(800));
    }
  };

  rt::Config config;
  config.nranks = 1;
  config.workers_per_rank = 4;
  config.trace = true;
  config.scheduler = rt::SchedPolicy::WorkStealing;
  config.sched_test_hook = hook;
  rt::Runtime runtime(config);
  const rt::RunStats stats = runtime.run(graph);

  EXPECT_EQ(stats.tasks_executed, static_cast<std::size_t>(kTasks));
  EXPECT_EQ(executed.load(), kTasks);

#ifndef REPRO_OBS_DISABLE
  std::size_t steal_events = 0;
  for (const auto& e : runtime.tracer().events()) {
    if (e.kind == rt::TraceEventKind::Steal) {
      ++steal_events;
      EXPECT_GE(e.steal_victim, 0);
      EXPECT_LT(e.steal_victim, 4);
      EXPECT_NE(e.steal_victim, e.worker);
    }
  }
  EXPECT_GT(steal_events, 0u);
  EXPECT_EQ(rt::analyze_trace(runtime.tracer().events(), 4).steals,
            steal_events);
  EXPECT_EQ(runtime.metrics()
                ->counter("rt_steals_total", {{"rank", "0"}})
                ->value(),
            static_cast<std::uint64_t>(steal_events));
#endif
}

// The hook fires under the shared-queue scheduler too (so PriorityFifo
// schedules can be perturbed), and a null pick_victim leaves the seeded RNG
// in charge without crashing.
TEST(SchedFuzz, HookFiresUnderSharedQueueAndPartialHooksAreSafe) {
  std::atomic<int> calls{0};
  auto hook = std::make_shared<rt::SchedTestHook>();
  hook->before_execute = [&calls](int, int, std::uint64_t) {
    calls.fetch_add(1, std::memory_order_relaxed);
  };

  for (const auto policy :
       {rt::SchedPolicy::PriorityFifo, rt::SchedPolicy::WorkStealing}) {
    calls.store(0);
    rt::TaskGraph graph;
    for (int i = 0; i < 16; ++i) {
      rt::TaskSpec t;
      t.key = rt::TaskKey{6, i, 0, 0};
      t.body = [](rt::TaskContext&) {};
      graph.add_task(std::move(t));
    }
    rt::Config config;
    config.nranks = 1;
    config.workers_per_rank = 2;
    config.scheduler = policy;
    config.sched_test_hook = hook;
    rt::Runtime runtime(config);
    runtime.run(graph);
    EXPECT_EQ(calls.load(), 16) << rt::sched_policy_name(policy);
  }
}

// Same sched_seed => same victim-selection streams. With the hook absent the
// scheduler is still deterministic in its own RNG; this doesn't pin down a
// full execution order (real thread timing varies) but it must at least run
// correctly and produce identical results, seed after seed.
TEST(SchedFuzz, SeededRunsStayBitIdenticalWithoutHook) {
  const stencil::Problem problem = stencil::random_problem(kRows, kCols,
                                                           kIters, 0x5eed);
  const stencil::Grid2D expected = solve_serial(problem);
  for (int seed = 0; seed < 8; ++seed) {
    stencil::DistConfig config;
    config.decomp = {4, 5, 2, 2};
    config.steps = 2;
    config.workers_per_rank = 4;
    config.scheduler = rt::SchedPolicy::WorkStealing;
    config.sched_seed = static_cast<std::uint64_t>(seed);
    const stencil::DistResult result = run_distributed(problem, config);
    ASSERT_EQ(stencil::Grid2D::max_abs_diff(expected, result.grid), 0.0)
        << "FAILING SEED=" << seed;
  }
}

// The solver farm rides the same seed pool: a resident runtime multiplexing
// a batch of small tenants plus one windowed (checkpoint/resume) job, all
// under the adversarial hook. Every schedule must hand every tenant bits
// identical to the serial reference.
TEST(SchedFuzz, SolverFarmBitIdenticalUnderAllSchedules) {
  const stencil::Problem small =
      stencil::random_problem(kRows, kCols, kIters, 0x5eed);
  const stencil::Grid2D small_expected = solve_serial(small);
  const stencil::Problem big = stencil::random_problem(20, 20, 8, 0xb16);
  const stencil::Grid2D big_expected = solve_serial(big);

  const int seeds = std::min(seeds_per_config(), 12);
  for (int seed = 0; seed < seeds; ++seed) {
    serve::FarmConfig config;
    config.node_rows = 2;
    config.node_cols = 2;
    config.workers_per_rank = 4;
    config.scheduler = rt::SchedPolicy::WorkStealing;
    config.sched_seed = static_cast<std::uint64_t>(seed);
    config.sched_test_hook = make_fuzz_hook(static_cast<std::uint64_t>(seed));
    config.preempt_cost_threshold = 20 * 20 * 8;  // the big job is windowed
    config.checkpoint_supersteps = 1;
    serve::SolverFarm farm(config);

    std::vector<std::future<serve::SolveResponse>> futures;
    std::vector<const stencil::Grid2D*> expected;
    for (int t = 0; t < 3; ++t) {
      serve::SolveRequest request;
      request.tenant = "t" + std::to_string(t);
      request.problem = small;
      request.mb = 4;
      request.nb = 5;
      request.steps = 2;
      auto submission = farm.submit(request);
      ASSERT_TRUE(submission.accepted()) << "seed " << seed;
      futures.push_back(std::move(submission.response));
      expected.push_back(&small_expected);
    }
    // One fused tenant: forced solo dispatch, graph rewritten per wave.
    serve::SolveRequest fused;
    fused.tenant = "fused";
    fused.problem = small;
    fused.mb = 4;
    fused.nb = 5;
    fused.steps = 2;
    fused.fuse_depth = 2;  // W = 4 = the smallest tile extent
    auto fused_submission = farm.submit(fused);
    ASSERT_TRUE(fused_submission.accepted()) << "seed " << seed;
    futures.push_back(std::move(fused_submission.response));
    expected.push_back(&small_expected);

    serve::SolveRequest windowed;
    windowed.tenant = "big";
    windowed.problem = big;
    windowed.mb = 5;
    windowed.nb = 5;
    windowed.steps = 2;
    windowed.fuse_depth = 2;  // windowed + fused: W = 4 <= tile extent 5
    auto submission = farm.submit(windowed);
    ASSERT_TRUE(submission.accepted()) << "seed " << seed;
    futures.push_back(std::move(submission.response));
    expected.push_back(&big_expected);

    farm.shutdown(/*drain=*/true);
    for (std::size_t i = 0; i < futures.size(); ++i) {
      serve::SolveResponse response = futures[i].get();
      ASSERT_EQ(response.status, serve::JobStatus::Completed)
          << response.error << " job " << i << " FAILING SEED=" << seed;
      ASSERT_EQ(stencil::Grid2D::max_abs_diff(response.grid, *expected[i]),
                0.0)
          << "job " << i << " FAILING SEED=" << seed;
    }
  }
}

}  // namespace
}  // namespace repro
