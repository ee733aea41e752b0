// Scheduler comparison: shared priority heap vs per-worker work stealing.
//
// PaRSEC's scheduler studies motivate this harness: the ready-queue
// discipline decides how task throughput scales with workers_per_rank. Two
// workloads bracket the question:
//   * task soup — thousands of tiny independent tasks on one rank. Every
//     pop of the shared heap crosses one mutex; the per-worker deques give
//     each worker a private lane, so this isolates scheduler overhead.
//   * stencil — the paper's CA workload (2x2 virtual nodes), where ready
//     tasks arrive in dependency-driven bursts and stealing has to cover
//     load imbalance between boundary and interior tiles.
//
// Reported per (scheduler, workers): wall time, tasks/s, steals and failed
// steals (zero for the shared heap). The stencil runs are asserted
// bit-identical to the serial reference — a scheduler that reorders wrongly
// fails here before it misleads anyone with a fast number. Note: on an
// oversubscribed host (fewer cores than workers) wall-clock differences
// mostly reflect scheduler overhead, not parallel speedup.
#include <chrono>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "runtime/runtime.hpp"
#include "stencil/dist_stencil.hpp"
#include "stencil/serial.hpp"

int main(int argc, char** argv) {
  using namespace repro;
  const Options options(argc, argv);
  bench::header("Scheduler comparison: shared priority heap vs work stealing",
                "PaRSEC ships multiple ready-queue schedulers because the "
                "discipline caps worker scaling; stealing should match or "
                "beat the shared heap once workers contend");

  const int tasks = static_cast<int>(options.get_int("tasks", 4000));
  const int reps = static_cast<int>(options.get_int("reps", 3));
  const int n = static_cast<int>(options.get_int("n", 256));
  const int iters = static_cast<int>(options.get_int("iters", 8));

  obs::RunReport report("bench_sched_compare");
  report.set_param("tasks", obs::Json(tasks));
  report.set_param("reps", obs::Json(reps));
  report.set_param("n", obs::Json(n));
  report.set_param("iters", obs::Json(iters));

  obs::BenchResult bench_doc("bench_sched_compare");
  bench_doc.set_context("tasks", obs::Json(tasks));
  bench_doc.set_context("n", obs::Json(n));
  bench_doc.set_context("iters", obs::Json(iters));

  const rt::SchedPolicy policies[] = {rt::SchedPolicy::PriorityFifo,
                                      rt::SchedPolicy::WorkStealing};

  // --------------------------------------------------------- task soup --
  std::cout << "Task soup: " << tasks << " independent ~1us tasks, 1 rank "
            << "(best of " << reps << ")\n";
  Table soup({"scheduler", "workers", "time ms", "tasks/s", "steals",
              "failed steals"});
  for (const int workers : {1, 2, 4, 8}) {
    for (const auto policy : policies) {
      double best_wall = 1e300;
      std::uint64_t steals = 0;
      std::uint64_t failed = 0;
      for (int rep = 0; rep < reps; ++rep) {
        rt::TaskGraph graph;
        for (int i = 0; i < tasks; ++i) {
          rt::TaskSpec t;
          t.key = rt::TaskKey{1, i, 0, 0};
          t.priority = i % 3;  // exercise the priority lane too
          t.body = [](rt::TaskContext&) {
            volatile double sink = 0.0;
            for (int s = 0; s < 200; ++s) sink = sink + s * 1e-3;
          };
          graph.add_task(std::move(t));
        }
        rt::Config config;
        config.nranks = 1;
        config.workers_per_rank = workers;
        config.scheduler = policy;
        rt::Runtime runtime(config);
        const rt::RunStats stats = runtime.run(graph);
        best_wall = std::min(best_wall, stats.wall_time_s);
        const auto snap = runtime.metrics()->snapshot();
        steals = static_cast<std::uint64_t>(
            snap.counter_total("rt_steals_total"));
        failed = static_cast<std::uint64_t>(
            snap.counter_total("rt_failed_steals_total"));
      }
      const double per_s = tasks / best_wall;
      soup.add_row({rt::sched_policy_name(policy), Table::cell(
                        static_cast<long long>(workers)),
                    Table::cell(best_wall * 1e3, 2), Table::cell(per_s, 0),
                    Table::cell(static_cast<long long>(steals)),
                    Table::cell(static_cast<long long>(failed))});
      obs::Json row = obs::Json::object();
      row["workload"] = obs::Json("soup");
      row["scheduler"] = obs::Json(rt::sched_policy_name(policy));
      row["workers"] = obs::Json(workers);
      row["time_ms"] = obs::Json(best_wall * 1e3);
      row["tasks_per_s"] = obs::Json(per_s);
      row["steals"] = obs::Json(steals);
      report.add_result(std::move(row));
      // Wall-clock gate metric: noisy on shared hosts, so the band is wide
      // and the regression gate treats "time" as warn-only by default.
      bench_doc.add_time("soup_" + std::string(rt::sched_policy_name(policy)) +
                             "_w" + std::to_string(workers) + "_s",
                         best_wall, 75.0);
    }
  }
  soup.print(std::cout);
  std::cout << '\n';
  bench::maybe_csv(soup, options, "sched_compare_soup.csv");

  // ------------------------------------------------------------ stencil --
  std::cout << "CA stencil (N=" << n << ", tile " << n / 8 << ", 2x2 nodes, "
            << iters << " iters, s=4; exactness asserted)\n";
  const stencil::Problem problem = stencil::random_problem(n, n, iters);
  const stencil::Grid2D expected = solve_serial(problem);
  // "time ms" is the best run alone (RunStats::wall_time_s); "e2e ms" the
  // best whole run_distributed call on steady_clock, graph build and the
  // result field included.
  Table st({"scheduler", "workers", "time ms", "e2e ms", "tasks/s", "steals",
            "exact"});
  std::shared_ptr<obs::TelemetryCollector> last_telemetry;
  std::uint64_t stencil_tasks = 0;
  std::uint64_t stencil_messages = 0;
  std::uint64_t stencil_bytes = 0;
  for (const int workers : {2, 4}) {
    for (const auto policy : policies) {
      double best_wall = 1e300;
      double best_e2e = 1e300;
      std::size_t ntasks = 0;
      std::uint64_t steals = 0;
      bool exact = true;
      for (int rep = 0; rep < reps; ++rep) {
        stencil::DistConfig config;
        config.decomp = {n / 8, n / 8, 2, 2};
        config.steps = 4;
        config.workers_per_rank = workers;
        config.scheduler = policy;
        bench::apply_telemetry_flags(config, options);
        const auto t0 = std::chrono::steady_clock::now();
        const stencil::DistResult r = run_distributed(problem, config);
        const std::chrono::duration<double> e2e =
            std::chrono::steady_clock::now() - t0;
        best_wall = std::min(best_wall, r.stats.wall_time_s);
        best_e2e = std::min(best_e2e, e2e.count());
        ntasks = r.stats.tasks_executed;
        exact = exact &&
                stencil::Grid2D::max_abs_diff(expected, r.grid) == 0.0;
        steals = static_cast<std::uint64_t>(
            r.metrics->snapshot().counter_total("rt_steals_total"));
        if (r.telemetry) last_telemetry = r.telemetry;
        // Graph-determined exactness anchors for the regression gate: every
        // (scheduler, workers) combination must execute the same DAG, so
        // these counters are identical across the whole sweep. They do grow
        // by the (deterministic) telemetry wire traffic under --telemetry,
        // so gate runs and baselines both leave it off.
        stencil_tasks = r.stats.tasks_executed;
        stencil_messages = r.stats.messages;
        stencil_bytes = r.stats.bytes;
      }
      const double per_s = static_cast<double>(ntasks) / best_wall;
      st.add_row({rt::sched_policy_name(policy),
                  Table::cell(static_cast<long long>(workers)),
                  Table::cell(best_wall * 1e3, 2),
                  Table::cell(best_e2e * 1e3, 2), Table::cell(per_s, 0),
                  Table::cell(static_cast<long long>(steals)),
                  exact ? "yes" : "NO"});
      obs::Json row = obs::Json::object();
      row["workload"] = obs::Json("stencil");
      row["scheduler"] = obs::Json(rt::sched_policy_name(policy));
      row["workers"] = obs::Json(workers);
      row["time_ms"] = obs::Json(best_wall * 1e3);
      row["e2e_ms"] = obs::Json(best_e2e * 1e3);
      row["tasks_per_s"] = obs::Json(per_s);
      row["steals"] = obs::Json(steals);
      row["exact"] = obs::Json(exact);
      report.add_result(std::move(row));
      bench_doc.add_time("stencil_" +
                             std::string(rt::sched_policy_name(policy)) +
                             "_w" + std::to_string(workers) + "_s",
                         best_wall, 75.0);
      if (!exact) {
        std::cerr << "ERROR: scheduler " << rt::sched_policy_name(policy)
                  << " produced a non-exact grid\n";
        return 1;
      }
    }
  }
  st.print(std::cout);
  bench_doc.add_exact("stencil_tasks", stencil_tasks, "tasks");
  bench_doc.add_exact("stencil_messages", stencil_messages, "messages");
  bench_doc.add_exact("stencil_bytes", stencil_bytes, "bytes");
  bench::maybe_bench_json(bench_doc, options,
                          "BENCH_bench_sched_compare.json");
  bench::note_telemetry(report, last_telemetry);
  bench::maybe_report(report, options, "sched_compare_report.json");
  return 0;
}
