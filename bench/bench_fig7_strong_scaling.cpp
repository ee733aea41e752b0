// Fig. 7: strong-scaling speedup over single-node base-PaRSEC.
//
// NaCL: N = 23040, tile 288; Stampede2: N = 55296, tile 864; 100 iterations;
// CA step size 15; square node grids of 1, 4, 16, 64 nodes.
//
// Shapes to check (paper section VI-C):
//   * all three implementations scale well;
//   * PaRSEC versions reach ~2x the PETSc speedup (CSR index traffic);
//   * base and CA are "almost indistinguishable" at full kernel time.
#include <chrono>
#include <memory>

#include "bench_common.hpp"
#include "obs/trace_analysis.hpp"
#include "sim/models.hpp"
#include "spec/stages.hpp"
#include "spec/stencil_spec.hpp"
#include "spmv/petsc_like.hpp"
#include "stencil/dist_stencil.hpp"

int main(int argc, char** argv) {
  using namespace repro;
  const Options options(argc, argv);
  bench::header("Fig. 7: strong scaling speedup (vs 1-node base-PaRSEC)",
                "PaRSEC ~2x PETSc everywhere; base ~= CA; near-linear "
                "scaling to 64 nodes");

  obs::RunReport report("bench_fig7_strong_scaling");

  const int iters = static_cast<int>(options.get_int("iters", 100));
  const int steps = static_cast<int>(options.get_int("steps", 15));
  // --fuse=F (opt-in, default off) adds fused-wavefront rows: the CA graph
  // rewritten by rt::fuse_supersteps so each tile runs steps*F iterations
  // per exchange. Simulated rows get a CA+fuse column; the host section
  // gains a real fused run. F=1 keeps the paper's figure byte-identical.
  const int fuse = static_cast<int>(options.get_int("fuse", 1));
  // Optional lossy-link model: every message pays the expected retransmission
  // cost of fault::ReliableChannel at this drop rate (0 = exact paper model).
  sim::LossModel loss;
  loss.loss_rate = options.get_double("loss", 0.0);
  // --stencil= sweeps the figure over any named spec (spec/stencil_spec.hpp).
  // The default star5 is the paper configuration.
  const std::string stencil_name =
      options.get_choice("stencil", "star5", spec::spec_names());
  const spec::StencilSpec stencil_spec = spec::spec_by_name(stencil_name);
  report.set_param("iters", obs::Json(iters));
  report.set_param("steps", obs::Json(steps));
  report.set_param("fuse", obs::Json(fuse));
  report.set_param("loss", obs::Json(loss.loss_rate));
  report.set_param("stencil", obs::Json(stencil_name));

  struct System {
    sim::Machine machine;
    int n;
    int tile;
  };
  const System systems[] = {{sim::nacl(), 23040, 288},
                            {sim::stampede2(), 55296, 864}};

  for (const auto& sys : systems) {
    std::cout << sys.machine.name << " (N=" << sys.n << ", tile=" << sys.tile
              << ", " << iters << " iters, CA s=" << steps << ")\n";
    sim::StencilSimParams one{sys.machine, sys.n, sys.tile, 1, 1,
                              iters, 1, 1.0};
    one.loss = loss;
    one.stencil = stencil_spec;
    const double t1 = sim::simulate_stencil(one).time_s;

    std::vector<std::string> cols = {"nodes",         "PETSc GF/s",
                                     "base GF/s",     "CA GF/s",
                                     "PETSc speedup", "base speedup",
                                     "CA speedup"};
    if (fuse > 1) {
      cols.push_back("CA+fuse GF/s");
      cols.push_back("CA+fuse speedup");
    }
    Table table(cols);
    for (int side : {1, 2, 4, 8}) {
      const int nodes = side * side;
      sim::StencilSimParams base{sys.machine, sys.n, sys.tile, side, side,
                                 iters, 1, 1.0};
      base.loss = loss;
      base.stencil = stencil_spec;
      sim::StencilSimParams ca = base;
      ca.steps = steps;
      const auto rb = sim::simulate_stencil(base);
      const auto rc = sim::simulate_stencil(ca);
      const sim::PetscSimParams pp{sys.machine, sys.n, nodes, iters};
      const auto rp = sim::simulate_petsc(pp);
      std::vector<std::string> cells = {
          Table::cell(static_cast<long long>(nodes)),
          Table::cell(rp.gflops, 1),
          Table::cell(rb.gflops, 1),
          Table::cell(rc.gflops, 1),
          Table::cell(t1 / rp.time_s, 2),
          Table::cell(t1 / rb.time_s, 2),
          Table::cell(t1 / rc.time_s, 2)};
      obs::Json row = obs::Json::object();
      if (fuse > 1) {
        sim::StencilSimParams cf = ca;
        cf.fuse = fuse;
        const auto rf = sim::simulate_stencil(cf);
        cells.push_back(Table::cell(rf.gflops, 1));
        cells.push_back(Table::cell(t1 / rf.time_s, 2));
        row["ca_fused_gflops"] = obs::Json(rf.gflops);
        row["ca_fused_speedup"] = obs::Json(t1 / rf.time_s);
      }
      table.add_row(std::move(cells));
      row["machine"] = obs::Json(sys.machine.name);
      row["N"] = obs::Json(sys.n);
      row["tile"] = obs::Json(sys.tile);
      row["nodes"] = obs::Json(nodes);
      row["petsc_gflops"] = obs::Json(rp.gflops);
      row["base_gflops"] = obs::Json(rb.gflops);
      row["ca_gflops"] = obs::Json(rc.gflops);
      row["ca_speedup"] = obs::Json(t1 / rc.time_s);
      row["messages"] = obs::Json(rc.sim.messages);
      row["bytes"] = obs::Json(rc.sim.message_bytes);
      report.add_result(std::move(row));
    }
    table.print(std::cout);
    std::cout << '\n';
    bench::maybe_csv(table, options, "fig7_" + sys.machine.name + ".csv");
  }

  // Real head-to-head on this host at reduced scale: the same three
  // implementations executed for real (PETSc-like rank threads vs the task
  // runtime), with their measured traffic. Wall-clock favors nobody on an
  // oversubscribed host; the traffic columns show the structural story.
  const int n = static_cast<int>(options.get_int("host-n", 1024));
  const int host_iters = static_cast<int>(options.get_int("host-iters", 8));
  // --kernel= selects the compute-kernel variant for the task-runtime rows
  // (scalar reproduces the paper's unoptimized kernel; see kernel_opt.hpp).
  const stencil::KernelVariant host_kernel = stencil::parse_kernel_variant(
      options.get_choice("kernel", "scalar", {"scalar", "vector", "blocked"}));
  report.set_param("kernel",
                   obs::Json(stencil::kernel_variant_name(host_kernel)));
  // --sched= selects the ready-queue discipline for the task-runtime rows
  // (priority = shared heap; steal = per-worker deques, see scheduler.hpp).
  const rt::SchedPolicy host_sched = rt::parse_sched_policy(
      options.get_choice("sched", "priority",
                         {"priority", "fifo", "lifo", "steal"}));
  report.set_param("sched", obs::Json(rt::sched_policy_name(host_sched)));
  std::cout << "Real execution on this host (N=" << n << ", " << host_iters
            << " iters, 4 virtual nodes / 4 SpMV ranks, "
            << stencil::kernel_variant_name(host_kernel) << " kernel, "
            << rt::sched_policy_name(host_sched) << " scheduler):\n";
  const stencil::Problem problem =
      stencil::spec_problem(stencil_spec, n, n, host_iters);
  // Every real execution below shares one registry; the report carries its
  // snapshot so the host run is reproducible from the JSON alone.
  auto metrics = std::make_shared<obs::MetricsRegistry>();
  // "time ms" is the run alone (RunStats::wall_time_s, PETSc-like's wall
  // time); "e2e ms" is the whole call on steady_clock, graph build and the
  // result field included, as fig. 8's --measured rows report it.
  Table real({"implementation", "time ms", "e2e ms", "messages", "MB moved"});
  const auto e2e_ms_since = [](std::chrono::steady_clock::time_point t0) {
    const std::chrono::duration<double, std::milli> e2e =
        std::chrono::steady_clock::now() - t0;
    return e2e.count();
  };
  if (!spec::compile_spec(stencil_spec).star5) {
    std::cout << "  (skipping PETSc-like SpMV row: its CSR assembly encodes "
                 "the 5-point stencil only)\n";
  } else {
    const auto t0 = std::chrono::steady_clock::now();
    const auto r = spmv::run_petsc_like(problem, 4, metrics);
    const double e2e_ms = e2e_ms_since(t0);
    real.add_row({"PETSc-like SpMV", Table::cell(r.wall_time_s * 1e3, 1),
                  Table::cell(e2e_ms, 1),
                  Table::cell(static_cast<long long>(r.messages)),
                  Table::cell(static_cast<double>(r.bytes) / 1e6, 2)});
    obs::Json row = obs::Json::object();
    row["machine"] = obs::Json("host");
    row["implementation"] = obs::Json("petsc_like");
    row["time_ms"] = obs::Json(r.wall_time_s * 1e3);
    row["e2e_ms"] = obs::Json(e2e_ms);
    row["messages"] = obs::Json(r.messages);
    row["bytes"] = obs::Json(r.bytes);
    report.add_result(std::move(row));
  }
  // --trace-analyze traces the host runs and prints the causal summary
  // (critical path, network share, overlap) beside the traffic columns.
  const bool trace_analyze = options.get_bool("trace-analyze", false);
  struct HostCase {
    const char* label;
    const char* impl;
    const char* tag;
    int steps;
    int fuse;
  };
  std::vector<HostCase> host_cases = {
      {"base taskrt", "base_taskrt", "base", 1, 1},
      {"CA taskrt (s=4)", "ca_taskrt", "ca", 4, 1},
  };
  if (fuse > 1) {
    // The fused-wavefront real run: fusing is the graph rewrite, not a
    // kernel, so it composes with --kernel/--sched.
    host_cases.push_back(
        {"CA+fused taskrt", "ca_fused_taskrt", "ca_fused", 4, fuse});
  }
  std::shared_ptr<obs::TelemetryCollector> last_telemetry;
  for (const HostCase& hc : host_cases) {
    stencil::DistConfig config;
    config.decomp = {n / 8, n / 8, 2, 2};
    config.steps = hc.steps;
    config.fuse_depth = hc.fuse;
    config.workers_per_rank = 2;
    config.kernel = host_kernel;
    config.scheduler = host_sched;
    config.metrics = metrics;
    config.trace = trace_analyze;
    bench::apply_telemetry_flags(config, options);
    const auto t0 = std::chrono::steady_clock::now();
    const auto r = run_distributed(problem, config);
    const double e2e_ms = e2e_ms_since(t0);
    if (r.telemetry) last_telemetry = r.telemetry;
    real.add_row({hc.label, Table::cell(r.stats.wall_time_s * 1e3, 1),
                  Table::cell(e2e_ms, 1),
                  Table::cell(static_cast<long long>(r.stats.messages)),
                  Table::cell(static_cast<double>(r.stats.bytes) / 1e6, 2)});
    obs::Json row = obs::Json::object();
    row["machine"] = obs::Json("host");
    row["implementation"] = obs::Json(hc.impl);
    row["steps"] = obs::Json(hc.steps);
    row["fuse"] = obs::Json(hc.fuse);
    row["time_ms"] = obs::Json(r.stats.wall_time_s * 1e3);
    row["e2e_ms"] = obs::Json(e2e_ms);
    row["messages"] = obs::Json(r.stats.messages);
    row["bytes"] = obs::Json(r.stats.bytes);
    report.add_result(std::move(row));
    if (trace_analyze) {
      const obs::TraceAnalysis a = obs::analyze_dataflow(r.trace_events);
      const std::string tag = hc.tag;
      std::cout << "  causal " << tag << ": critical path "
                << Table::cell(a.critical_path_s * 1e3, 3) << " ms ("
                << Table::cell(100.0 * a.network_share(), 1)
                << "% network), overlap "
                << Table::cell(100.0 * a.overlap_efficiency, 1) << "%\n";
      report.set_derived(tag + "_critical_path_s",
                         obs::Json(a.critical_path_s));
      report.set_derived(tag + "_network_share",
                         obs::Json(a.network_share()));
      report.set_derived(tag + "_overlap_efficiency",
                         obs::Json(a.overlap_efficiency));
    }
  }
  real.print(std::cout);

  report.set_param("host_n", obs::Json(n));
  report.set_param("host_iters", obs::Json(host_iters));
  report.add_metrics(*metrics);
  if constexpr (obs::kEnabled) {
    const obs::MetricsSnapshot snap = metrics->snapshot();
    report.set_derived("host_messages_total",
                       obs::Json(snap.counter_total("net_messages_total")));
    report.set_derived("host_bytes_total",
                       obs::Json(snap.counter_total("net_bytes_total")));
    report.set_derived("host_tasks_executed_total",
                       obs::Json(snap.counter_total("rt_tasks_executed_total")));
  }
  bench::note_telemetry(report, last_telemetry);
  bench::maybe_report(report, options, "fig7_report.json");
  return 0;
}
