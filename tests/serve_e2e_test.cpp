// End-to-end tests for the solver farm: multi-tenant batches against the
// serial reference, seeded superstep preemption with bit-identical resume,
// deterministic rejection, and graceful shutdown in both drain modes.
#include <gtest/gtest.h>

#include <atomic>
#include <fstream>
#include <future>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "serve/serve_report.hpp"
#include "serve/solver_farm.hpp"
#include "spec/stencil_spec.hpp"
#include "stencil/serial.hpp"

namespace repro::serve {
namespace {

using stencil::Grid2D;

FarmConfig small_farm_config() {
  FarmConfig config;
  config.node_rows = 2;
  config.node_cols = 2;
  config.workers_per_rank = 2;
  return config;
}

SolveRequest make_request(const std::string& tenant, int rows, int cols,
                          int iters, int mb, int nb, int steps,
                          unsigned long seed) {
  SolveRequest request;
  request.tenant = tenant;
  request.problem = stencil::random_problem(rows, cols, iters, seed);
  request.mb = mb;
  request.nb = nb;
  request.steps = steps;
  return request;
}

TEST(SolverFarm, ConcurrentTenantsBatchedJobsMatchSerial) {
  SolverFarm farm(small_farm_config());

  struct Spec {
    SolveRequest request;
    Grid2D expected;
  };
  std::vector<Spec> specs;
  const int sizes[3][2] = {{16, 20}, {24, 16}, {20, 20}};
  for (int t = 0; t < 3; ++t) {
    for (int j = 0; j < 2; ++j) {
      SolveRequest request = make_request(
          "tenant-" + std::to_string(t), sizes[t][0], sizes[t][1],
          /*iters=*/4, sizes[t][0] / 2, sizes[t][1] / 2,
          /*steps=*/j == 0 ? 1 : 2, /*seed=*/100 + 10 * t + j);
      Grid2D expected = stencil::solve_serial(request.problem);
      specs.push_back(Spec{std::move(request), std::move(expected)});
    }
  }

  // One client thread per tenant, submitting concurrently.
  std::vector<std::future<SolveResponse>> futures(specs.size());
  std::vector<std::thread> clients;
  for (int t = 0; t < 3; ++t) {
    clients.emplace_back([&, t] {
      for (int j = 0; j < 2; ++j) {
        const std::size_t i = static_cast<std::size_t>(t) * 2 + j;
        auto submission = farm.submit(specs[i].request);
        ASSERT_TRUE(submission.accepted())
            << reject_reason_name(submission.rejected);
        futures[i] = std::move(submission.response);
      }
    });
  }
  for (auto& c : clients) c.join();

  for (std::size_t i = 0; i < specs.size(); ++i) {
    SolveResponse response = futures[i].get();
    ASSERT_EQ(response.status, JobStatus::Completed) << response.error;
    EXPECT_EQ(Grid2D::max_abs_diff(response.grid, specs[i].expected), 0.0)
        << "job " << i;
    EXPECT_EQ(response.iterations_done, 4);
  }

  const auto stats = farm.tenant_stats();
  ASSERT_EQ(stats.size(), 3u);
  for (const auto& s : stats) {
    EXPECT_EQ(s.completed, 2u);
    EXPECT_EQ(s.rejected, 0u);
    // Both of a tenant's jobs share one size, so goodput is exactly 2x cost.
    const std::size_t t =
        static_cast<std::size_t>(s.tenant.back() - '0');
    ASSERT_LT(t, 3u);
    EXPECT_EQ(s.goodput_points, 2 * request_cost(specs[t * 2].request))
        << s.tenant;
  }
}

TEST(SolverFarm, PersistentFarmMatchesSerialAndNegotiatesRoutes) {
  // A farm with persistent halo channels: every wave's channel is built by
  // persistent_channel_factory and every subgraph annotates its remote flows,
  // so batched jobs ride registered route buffers yet stay bit-identical.
  FarmConfig config = small_farm_config();
  config.persistent = true;
  config.metrics = std::make_shared<obs::MetricsRegistry>();
  SolverFarm farm(config);

  std::vector<SolveRequest> requests;
  std::vector<Grid2D> expected;
  std::vector<std::future<SolveResponse>> futures;
  for (int j = 0; j < 4; ++j) {
    SolveRequest request =
        make_request("tenant-" + std::to_string(j % 2), 24, 20, /*iters=*/4,
                     /*mb=*/12, /*nb=*/10, /*steps=*/j % 2 == 0 ? 1 : 2,
                     /*seed=*/300 + j);
    expected.push_back(stencil::solve_serial(request.problem));
    auto submission = farm.submit(request);
    ASSERT_TRUE(submission.accepted())
        << reject_reason_name(submission.rejected);
    futures.push_back(std::move(submission.response));
    requests.push_back(std::move(request));
  }

  for (std::size_t i = 0; i < futures.size(); ++i) {
    SolveResponse response = futures[i].get();
    ASSERT_EQ(response.status, JobStatus::Completed) << response.error;
    EXPECT_EQ(Grid2D::max_abs_diff(response.grid, expected[i]), 0.0)
        << "job " << i;
  }

  if constexpr (obs::kEnabled) {
    // The resident runtime's channels actually negotiated and used routes.
    const auto routes =
        config.metrics->counter("net_persistent_routes_total", {});
    const auto fragments =
        config.metrics->counter("net_persistent_fragments_total", {});
    EXPECT_GT(routes->value(), 0.0);
    EXPECT_GT(fragments->value(), 0.0);
  }
}

/// Shared state for tests that preempt from the superstep observer.
struct PreemptDriver {
  std::atomic<SolverFarm*> farm{nullptr};
  std::mutex mutex;
  std::set<int> target_supersteps;

  void maybe_preempt(std::uint64_t job_id, int superstep) {
    SolverFarm* f = farm.load();
    if (f == nullptr) return;
    bool fire = false;
    {
      std::lock_guard<std::mutex> lock(mutex);
      fire = target_supersteps.erase(superstep) > 0;
    }
    if (fire) f->preempt(job_id);
  }
};

TEST(SolverFarm, PreemptedCaSolveResumesBitIdentical) {
  for (const unsigned long seed : {1ul, 2ul, 3ul}) {
    auto driver = std::make_shared<PreemptDriver>();
    FarmConfig config = small_farm_config();
    config.preempt_cost_threshold = 1000;  // 40*40*24 >> 1000: windowed
    config.checkpoint_supersteps = 2;      // window = 8 iterations at s=4
    config.superstep_observer = [driver](std::uint64_t job_id, int k) {
      driver->maybe_preempt(job_id, k);
    };
    SolverFarm farm(config);
    driver->farm.store(&farm);

    SolveRequest request =
        make_request("big", 40, 40, /*iters=*/24, 10, 10, /*steps=*/4, seed);
    const Grid2D expected = stencil::solve_serial(request.problem);
    {
      // Seeded preemption points: two distinct superstep boundaries.
      std::lock_guard<std::mutex> lock(driver->mutex);
      driver->target_supersteps = {
          static_cast<int>(4 * (1 + seed % 3)),        // 4, 8, or 12
          static_cast<int>(4 * (4 + seed % 2)),        // 16 or 20
      };
    }

    auto submission = farm.submit(request);
    ASSERT_TRUE(submission.accepted());
    SolveResponse response = submission.response.get();
    ASSERT_EQ(response.status, JobStatus::Completed) << response.error;
    EXPECT_GE(response.preemptions, 1) << "seed " << seed;
    EXPECT_GE(response.windows, 3) << "seed " << seed;
    EXPECT_EQ(response.iterations_done, 24);
    // The acceptance bar: preempted + resumed == never interrupted, bitwise.
    EXPECT_EQ(Grid2D::max_abs_diff(response.grid, expected), 0.0)
        << "seed " << seed;
    driver->farm.store(nullptr);
  }
}

TEST(SolverFarm, FusedJobsRunSoloAndStayBitIdentical) {
  // Fused-wavefront jobs dispatch alone — the farm must never batch them
  // into a shared graph, because rt::fuse_supersteps rewrites every fusable
  // chain of the wave it runs. Mixed with batchable plain jobs, every
  // result must still match serial bit for bit (24x20 over 12x10 tiles:
  // min tile extent 10, so windows up to 10 are legal).
  SolverFarm farm(small_farm_config());

  std::vector<Grid2D> expected;
  std::vector<std::future<SolveResponse>> futures;
  for (int j = 0; j < 2; ++j) {
    SolveRequest plain =
        make_request("plain", 24, 20, /*iters=*/6, 12, 10, 1, 400 + j);
    expected.push_back(stencil::solve_serial(plain.problem));
    auto submission = farm.submit(plain);
    ASSERT_TRUE(submission.accepted());
    futures.push_back(std::move(submission.response));
  }
  for (int j = 0; j < 2; ++j) {
    SolveRequest fused = make_request("fused", 24, 20, /*iters=*/6, 12, 10,
                                      /*steps=*/j == 0 ? 1 : 2, 410 + j);
    fused.fuse_depth = j == 0 ? 3 : 2;  // W = 3 (ragged) and W = 4
    expected.push_back(stencil::solve_serial(fused.problem));
    auto submission = farm.submit(fused);
    ASSERT_TRUE(submission.accepted())
        << reject_reason_name(submission.rejected);
    futures.push_back(std::move(submission.response));
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    SolveResponse response = futures[i].get();
    ASSERT_EQ(response.status, JobStatus::Completed) << response.error;
    EXPECT_EQ(Grid2D::max_abs_diff(response.grid, expected[i]), 0.0)
        << "job " << i;
  }
}

TEST(SolverFarm, WindowedFusedJobResumesAcrossCheckpoints) {
  // A large fused job runs in checkpoint windows: each window's subgraph is
  // rewritten (one fused wavefront per tile per window) while the
  // checkpoint cadence stays at the ORIGINAL steps granularity, so the
  // windowed composition is exactly resumable.
  FarmConfig config = small_farm_config();
  config.preempt_cost_threshold = 1000;  // 40*40*24 >> 1000: windowed
  config.checkpoint_supersteps = 2;      // window = 4 iterations at s=2
  SolverFarm farm(config);

  SolveRequest request =
      make_request("big", 40, 40, /*iters=*/24, 10, 10, /*steps=*/2, 7);
  request.fuse_depth = 2;  // fused window W = 4 per dispatch window
  const Grid2D expected = stencil::solve_serial(request.problem);
  auto submission = farm.submit(request);
  ASSERT_TRUE(submission.accepted());
  SolveResponse response = submission.response.get();
  ASSERT_EQ(response.status, JobStatus::Completed) << response.error;
  EXPECT_GE(response.windows, 6);
  EXPECT_EQ(response.iterations_done, 24);
  EXPECT_EQ(Grid2D::max_abs_diff(response.grid, expected), 0.0);
}

TEST(SolverFarm, TenantLimitRejectsDeterministically) {
  FarmConfig config = small_farm_config();
  config.admission.max_tenants = 2;
  SolverFarm farm(config);
  auto a = farm.submit(make_request("a", 16, 16, 2, 8, 8, 1, 1));
  auto b = farm.submit(make_request("b", 16, 16, 2, 8, 8, 1, 2));
  auto c = farm.submit(make_request("c", 16, 16, 2, 8, 8, 1, 3));
  EXPECT_TRUE(a.accepted());
  EXPECT_TRUE(b.accepted());
  EXPECT_EQ(c.rejected, RejectReason::TenantLimit);
  EXPECT_EQ(a.response.get().status, JobStatus::Completed);
  EXPECT_EQ(b.response.get().status, JobStatus::Completed);
}

TEST(SolverFarm, MalformedRequestsAreBadRequests) {
  SolverFarm farm(small_farm_config());
  // steps too deep for the tiles: radius * steps > min tile extent.
  auto deep = farm.submit(make_request("a", 16, 16, 4, 8, 8, /*steps=*/9, 1));
  EXPECT_EQ(deep.rejected, RejectReason::BadRequest);
  // Fused window too deep: steps fits, steps * fuse_depth does not.
  SolveRequest wide = make_request("a", 16, 16, 4, 8, 8, /*steps=*/4, 1);
  wide.fuse_depth = 3;  // window 12 > min tile extent 8
  EXPECT_EQ(farm.submit(wide).rejected, RejectReason::BadRequest);
  // A window whose int product wraps to 0 (65536 * 65536 = 2^32).
  SolveRequest wrapped =
      make_request("a", 16, 16, 4, 8, 8, /*steps=*/65536, 1);
  wrapped.fuse_depth = 65536;
  EXPECT_EQ(farm.submit(wrapped).rejected, RejectReason::BadRequest);
  SolveRequest zero = make_request("a", 16, 16, 4, 8, 8, 1, 1);
  zero.fuse_depth = 0;
  EXPECT_EQ(farm.submit(zero).rejected, RejectReason::BadRequest);
  // No iterations.
  auto empty = farm.submit(make_request("a", 16, 16, 0, 8, 8, 1, 1));
  EXPECT_EQ(empty.rejected, RejectReason::BadRequest);
  // Tiles don't cover the node grid.
  auto thin = farm.submit(make_request("a", 4, 4, 2, 4, 4, 1, 1));
  EXPECT_EQ(thin.rejected, RejectReason::BadRequest);
}

SolveRequest star9_request(int steps) {
  SolveRequest request;
  request.tenant = "spec";
  request.problem =
      stencil::spec_problem(spec::StencilSpec::star9(), 24, 24, /*iters=*/4);
  request.mb = 6;
  request.nb = 6;
  request.steps = steps;
  return request;
}

TEST(SolverFarm, SpecRequestsAreCheckedByTheBuildersRules) {
  // star9 reads 2 cells deep, so steps 4 needs an 8-deep ghost band on
  // 6-wide tiles. The farm runs the builder's own
  // validation and rejects it up front instead of failing it in its wave.
  SolverFarm farm(small_farm_config());
  EXPECT_EQ(farm.submit(star9_request(/*steps=*/4)).rejected,
            RejectReason::BadRequest);
  // steps 3 fills the tile exactly: admitted, batched, exact.
  const SolveRequest fits = star9_request(/*steps=*/3);
  auto submission = farm.submit(fits);
  ASSERT_TRUE(submission.accepted())
      << reject_reason_name(submission.rejected);
  const SolveResponse response = submission.response.get();
  ASSERT_EQ(response.status, JobStatus::Completed) << response.error;
  EXPECT_EQ(Grid2D::max_abs_diff(response.grid,
                                 stencil::solve_serial(fits.problem)),
            0.0);
}

TEST(SolverFarm, WindowedSpecJobsRestartExactly) {
  // At or above the windowing threshold a job runs alone in checkpoint
  // windows, each restarting from the previous window's field through
  // stencil::restart_from. Every rank <= 2 spec chains its windows exactly;
  // a rank-3 job is a bad request there (a Grid2D snapshot holds one plane)
  // and still batches below the threshold.
  FarmConfig config = small_farm_config();
  config.preempt_cost_threshold = 10;  // 24*24*4 >> 10: windowed
  config.checkpoint_supersteps = 1;    // steps 1: one iteration per window
  SolverFarm windowed(config);
  for (const char* name : {"star5", "star9", "box9", "advect2d"}) {
    SolveRequest request = star9_request(/*steps=*/1);
    request.problem =
        stencil::spec_problem(spec::spec_by_name(name), 24, 24, /*iters=*/4);
    auto submission = windowed.submit(request);
    ASSERT_TRUE(submission.accepted()) << name;
    const SolveResponse response = submission.response.get();
    ASSERT_EQ(response.status, JobStatus::Completed) << name << response.error;
    EXPECT_EQ(response.windows, 4) << name;
    EXPECT_EQ(Grid2D::max_abs_diff(response.grid,
                                   stencil::solve_serial(request.problem)),
              0.0)
        << name;
  }

  SolveRequest heat3d = star9_request(/*steps=*/1);
  heat3d.problem = stencil::spec_problem(spec::StencilSpec::heat3d(), 24, 24,
                                         /*iters=*/4, /*nz=*/2);
  EXPECT_EQ(windowed.submit(heat3d).rejected, RejectReason::BadRequest);
  SolverFarm batched(small_farm_config());
  auto submission = batched.submit(heat3d);
  ASSERT_TRUE(submission.accepted());
  const SolveResponse response = submission.response.get();
  ASSERT_EQ(response.status, JobStatus::Completed) << response.error;
  EXPECT_EQ(response.windows, 0);
  EXPECT_EQ(Grid2D::max_abs_diff(response.grid,
                                 stencil::solve_serial(heat3d.problem)),
            0.0);
}

TEST(SolverFarm, ShutdownDrainFinishesQueuedJobsThenRejects) {
  SolverFarm farm(small_farm_config());
  std::vector<std::future<SolveResponse>> futures;
  for (int i = 0; i < 4; ++i) {
    auto submission =
        farm.submit(make_request("t" + std::to_string(i % 2), 16, 16, 3, 8, 8,
                                 1, 50 + static_cast<unsigned long>(i)));
    ASSERT_TRUE(submission.accepted());
    futures.push_back(std::move(submission.response));
  }
  farm.shutdown(/*drain=*/true);
  for (auto& f : futures) {
    EXPECT_EQ(f.get().status, JobStatus::Completed);
  }
  auto late = farm.submit(make_request("t0", 16, 16, 3, 8, 8, 1, 99));
  EXPECT_EQ(late.rejected, RejectReason::ShuttingDown);
}

TEST(SolverFarm, ShutdownWithoutDrainCancelsWithCheckpointedProgress) {
  auto driver = std::make_shared<PreemptDriver>();
  std::atomic<bool> fired{false};
  FarmConfig config = small_farm_config();
  config.preempt_cost_threshold = 1000;
  config.checkpoint_supersteps = 1;  // window = 4 iterations at s=4
  config.superstep_observer = [&fired, driver](std::uint64_t, int k) {
    // Superstep 8 first appears in the SECOND window (base 4, k 4), so
    // window one has completed and checkpointed by the time this fires.
    if (k >= 8 && !fired.exchange(true)) {
      if (SolverFarm* f = driver->farm.load()) f->shutdown(/*drain=*/false);
    }
  };
  SolverFarm farm(config);
  driver->farm.store(&farm);

  SolveRequest request =
      make_request("big", 40, 40, /*iters=*/200, 10, 10, /*steps=*/4, 7);
  auto submission = farm.submit(request);
  ASSERT_TRUE(submission.accepted());
  SolveResponse response = submission.response.get();
  EXPECT_EQ(response.status, JobStatus::Cancelled);
  ASSERT_GT(response.iterations_done, 0);
  ASSERT_LT(response.iterations_done, 200);
  // The handed-back progress is the consistent state at `iterations_done` —
  // bit-identical to a serial solve stopped there.
  stencil::Problem partial = request.problem;
  partial.iterations = response.iterations_done;
  const Grid2D expected = stencil::solve_serial(partial);
  EXPECT_EQ(Grid2D::max_abs_diff(response.grid, expected), 0.0);
  driver->farm.store(nullptr);
}

TEST(SolverFarm, ServesMetricsAndValidReport) {
  auto registry = std::make_shared<obs::MetricsRegistry>();
  FarmConfig config = small_farm_config();
  config.metrics = registry;
  SolverFarm farm(config);
  SolveRequest request = make_request("alpha", 16, 16, 3, 8, 8, 1, 11);
  request.deadline_s = 300.0;  // generous: must be met
  auto submission = farm.submit(request);
  ASSERT_TRUE(submission.accepted());
  const SolveResponse response = submission.response.get();
  ASSERT_EQ(response.status, JobStatus::Completed);
  EXPECT_TRUE(response.deadline_met);

  if (obs::kEnabled) {
    const auto snapshot = registry->snapshot();
    const auto* jobs = snapshot.find_counter(
        "serve_jobs_total", {{"tenant", "alpha"}, {"status", "completed"}});
    ASSERT_NE(jobs, nullptr);
    EXPECT_EQ(jobs->value, 1u);
    // The runtime stamped the tenant's accounting lane on every task.
    EXPECT_NE(snapshot.find_counter("rt_lane_tasks_executed_total",
                                    {{"lane", "0"}}),
              nullptr);
  }

  ServeReport report("serve_e2e_test");
  report.set_param("nodes", farm.nodes());
  for (const auto& s : farm.tenant_stats()) {
    obs::Json row = obs::Json::object();
    row["tenant"] = s.tenant;
    row["submitted"] = static_cast<long long>(s.submitted);
    row["completed"] = static_cast<long long>(s.completed);
    report.add_tenant(std::move(row));
  }
  report.set_total("jobs", 1);
  report.add_metrics(*registry);
  std::string error;
  EXPECT_TRUE(validate_serve_report(report.to_string(), &error)) << error;
}

TEST(SolverFarm, TelemetryWavesStayContinuousAcrossSharedCollectorFarms) {
  const std::string dump = testing::TempDir() + "/serve_telemetry.json";
  std::shared_ptr<obs::TelemetryCollector> collector;
  std::uint64_t first_waves = 0;
  std::vector<obs::TelemetrySnapshot> after_first;
  {
    FarmConfig config = small_farm_config();
    config.telemetry = true;
    config.telemetry_dump = dump;
    // Halo-share trips on wall-clock idle, which an oversubscribed CI host
    // can legitimately produce; keep only the deterministic straggler check.
    config.telemetry_detectors.halo_share = 0.0;
    SolverFarm farm(config);
    auto a = farm.submit(make_request("alpha", 16, 16, 4, 8, 8, 2, 7));
    auto b = farm.submit(make_request("beta", 16, 16, 4, 8, 8, 2, 8));
    ASSERT_TRUE(a.accepted());
    ASSERT_TRUE(b.accepted());
    a.response.wait();
    b.response.wait();
    farm.shutdown(/*drain=*/true);
    collector = farm.telemetry();
    ASSERT_NE(collector, nullptr);
    // Futures resolve before the wave's telemetry sample lands, so only the
    // destructor (which joins the dispatcher) makes the stream complete —
    // read the collector after this scope closes.
  }
  ASSERT_GT(collector->deltas_total(), 0u);
  ASSERT_EQ(collector->deltas_total() % 4u, 0u)
      << "one snapshot per rank per dispatched wave";
  first_waves = collector->deltas_total() / 4u;
  after_first = collector->latest();
  for (const obs::TelemetrySnapshot& s : after_first) {
    EXPECT_EQ(s.superstep, first_waves - 1);
  }

  // A second farm sharing the collector resumes the wave odometer and keeps
  // the per-rank counters monotonic instead of restarting both at zero.
  {
    FarmConfig config = small_farm_config();
    config.telemetry_collector = collector;
    config.telemetry = true;
    SolverFarm farm(config);
    auto c = farm.submit(make_request("gamma", 16, 16, 4, 8, 8, 2, 9));
    ASSERT_TRUE(c.accepted());
    c.response.wait();
    farm.shutdown(/*drain=*/true);
  }
  const std::vector<obs::TelemetrySnapshot> after_second =
      collector->latest();
  ASSERT_EQ(after_second.size(), after_first.size());
  for (std::size_t r = 0; r < after_second.size(); ++r) {
    EXPECT_GT(after_second[r].superstep, after_first[r].superstep);
    EXPECT_GE(after_second[r].tasks_executed, after_first[r].tasks_executed);
    // A counter-reset bug would surface as a uint64 underflow here: the
    // second farm's totals would dwarf any plausible task count.
    EXPECT_LT(after_second[r].tasks_executed, 1u << 20);
  }
  EXPECT_TRUE(collector->events().empty())
      << "spurious detector event: " << collector->events()[0].detector;

  // The dump written by the first farm is a valid repro.telemetry/v1 doc.
  std::ifstream in(dump);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  obs::Json doc;
  std::string error;
  ASSERT_TRUE(obs::Json::parse(buffer.str(), &doc, &error)) << error;
  EXPECT_TRUE(obs::validate_telemetry(doc, &error)) << error;
}

}  // namespace
}  // namespace repro::serve
