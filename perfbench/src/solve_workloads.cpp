// kernel_bound, latency_bound, ca_fused: one operation is one
// stencil::run_distributed call, from graph build to the gathered grid.
//
// The traced run alternates that call with the same solve decomposed into
// its public calls (add_solve_subgraph -> fuse_supersteps -> TaskGraph::seal
// -> Runtime construction -> Runtime::run -> SolveSubgraph::gather), one
// span each, with the runtime's own tracer on inside the run span.
#include <algorithm>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/persistent_channel.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_analysis.hpp"
#include "probes.hpp"
#include "runtime/graph_transform.hpp"
#include "runtime/runtime.hpp"
#include "stencil/dist_stencil.hpp"
#include "stencil/problem.hpp"
#include "stencil/serial.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace stencil = repro::stencil;
namespace rt = repro::rt;
namespace obs = repro::obs;

namespace {

constexpr int kSetups = 3;
constexpr std::size_t kMinSolves = 12;

struct SolveShape {
  int n = 0;
  int iterations = 0;
  int tile = 0;
  int steps = 1;
  int fuse = 1;
  bool persistent = false;
  stencil::KernelVariant kernel = stencil::KernelVariant::Scalar;
};

SolveShape shape_of(const Args& args) {
  using stencil::KernelVariant;
  const bool tiny = args.tiny;
  if (args.workload == "kernel_bound") {
    // Fig. 7 regime: NaCL's 288 tile, base version, reference kernel.
    return tiny ? SolveShape{192, 4, 48, 1, 1, false, KernelVariant::Scalar}
                : SolveShape{2304, 20, 288, 1, 1, false, KernelVariant::Scalar};
  }
  if (args.workload == "latency_bound") {
    // Fig. 8 fast-kernel regime: many small tasks and messages.
    return tiny ? SolveShape{96, 8, 24, 1, 1, false, KernelVariant::Vector}
                : SolveShape{768, 100, 32, 1, 1, false, KernelVariant::Vector};
  }
  if (args.workload == "ca_fused") {
    // Same input and layout as latency_bound, through CA + fused
    // wavefronts + persistent channels.
    return tiny ? SolveShape{96, 16, 24, 4, 2, true, KernelVariant::Vector}
                : SolveShape{768, 100, 32, 4, 2, true, KernelVariant::Vector};
  }
  throw std::invalid_argument("not a solve workload: " + args.workload);
}

stencil::DistConfig config_of(const SolveShape& shape) {
  stencil::DistConfig config;
  config.decomp = {shape.tile, shape.tile, kNodeRows, kNodeCols};
  config.steps = shape.steps;
  config.fuse_depth = shape.fuse;
  config.kernel = shape.kernel;
  config.persistent = shape.persistent;
  config.workers_per_rank = kWorkersPerRank;
  return config;
}

/// Sum over ranks of the rt_idle_seconds_total series with class=`klass`.
double idle_seconds(const obs::MetricsSnapshot& snap, const std::string& klass) {
  double total = 0.0;
  for (const auto& g : snap.gauges) {
    if (g.name != "rt_idle_seconds_total") continue;
    for (const auto& [key, value] : g.labels) {
      if (key == "class" && value == klass) total += g.value;
    }
  }
  return total;
}

/// Checks one gathered grid (and, on the persistent path, the zero-alloc
/// steady state). Returns an empty string when the operation is correct.
std::string check(const stencil::Grid2D& grid, const stencil::Grid2D& ref,
                  const SolveShape& shape, double steady_allocs) {
  if (!bits_equal(grid, ref)) return "gathered grid differs from solve_serial";
  if (shape.persistent && steady_allocs != 0.0) {
    return "persistent channel allocated in steady state";
  }
  return "";
}

struct Decomposed {
  stencil::Grid2D grid{1, 1};
  rt::RunStats stats;
  long long computed_points = 0;
  long long nominal_points = 0;
  double idle_halo_s = 0.0;
  double idle_noready_s = 0.0;
  double idle_steal_s = 0.0;
  double comm_busy_s = 0.0;
  double steady_allocs = 0.0;
  std::vector<rt::TraceEvent> events;
};

/// run_distributed, decomposed into its public calls with one span each.
Decomposed decomposed_solve(const stencil::Problem& problem,
                            const stencil::DistConfig& config, Spans& spans,
                            std::uint64_t op) {
  Decomposed out;
  ScopedSpan solve(spans, "solve", -1, op);
  const int parent = solve.id();
  rt::TaskGraph graph;
  stencil::SolveSubgraph subgraph;
  {
    ScopedSpan span(spans, "stencil.build", parent, op);
    subgraph = stencil::add_solve_subgraph(graph, problem, config);
  }
  if (const int window = subgraph.fuse_window(); window > 1) {
    ScopedSpan span(spans, "runtime.fuse", parent, op);
    rt::fuse_supersteps(graph, window);
  }
  {
    ScopedSpan span(spans, "runtime.seal", parent, op);
    graph.seal(subgraph.nodes());
  }
  rt::Config rt_config;
  rt_config.nranks = subgraph.nodes();
  rt_config.workers_per_rank = config.workers_per_rank;
  rt_config.dedicated_comm_thread = config.dedicated_comm_thread;
  rt_config.trace = true;
  rt_config.scheduler = config.scheduler;
  rt_config.aggregate_messages = config.aggregate_messages;
  rt_config.metrics = std::make_shared<obs::MetricsRegistry>();
  rt_config.channel_factory =
      config.persistent ? repro::net::persistent_channel_factory(
                              config.channel_factory, rt_config.metrics)
                        : config.channel_factory;
  rt_config.sched_seed = config.sched_seed;
  std::optional<rt::Runtime> runtime;
  {
    ScopedSpan span(spans, "runtime.construct", parent, op);
    runtime.emplace(rt_config);
  }
  {
    ScopedSpan span(spans, "runtime.run", parent, op);
    out.stats = runtime->run(graph);
  }
  {
    ScopedSpan span(spans, "stencil.gather", parent, op);
    out.grid = subgraph.gather(*runtime);
  }
  // What run_distributed does with tracing on: copy the events out.
  out.events = runtime->tracer().events();
  out.computed_points = subgraph.computed_points();
  out.nominal_points = subgraph.nominal_points();
  const obs::MetricsSnapshot snap = rt_config.metrics->snapshot();
  out.idle_halo_s = idle_seconds(snap, "halo");
  out.idle_noready_s = idle_seconds(snap, "noready");
  out.idle_steal_s = idle_seconds(snap, "steal");
  out.comm_busy_s = snap.gauge_total("rt_comm_busy_seconds_total");
  out.steady_allocs = snap.counter_total("net_persistent_steady_allocs_total");
  runtime.reset();
  return out;
}

double median_or_zero(const std::vector<double>& v) {
  return v.empty() ? 0.0 : median(v);
}

std::string describe(const SolveShape& s) {
  std::ostringstream os;
  os << "random_problem(" << s.n << ", " << s.n << ", " << s.iterations
     << ", seed), tile " << s.tile << ", steps " << s.steps << ", fuse "
     << s.fuse << (s.persistent ? ", persistent" : ", default channel")
     << ", kernel " << stencil::kernel_variant_name(s.kernel) << ", "
     << kNodeRows << "x" << kNodeCols << " nodes x " << kWorkersPerRank
     << " worker";
  return os.str();
}

}  // namespace

bool is_solve_workload(const std::string& name) {
  return name == "kernel_bound" || name == "latency_bound" ||
         name == "ca_fused";
}

void run_solve_workload(const Args& args) {
  const SolveShape shape = shape_of(args);
  const stencil::DistConfig config = config_of(shape);
  Report report(args, kSolve);
  record_host_context(report);
  report.context("input", describe(shape));
  report.context("seed", std::to_string(args.seed));

  // Set-up: generate the inputs and complete the first solve, three times;
  // the reported setup_s is their median. The serial reference is computed
  // after the first one, outside every timing.
  std::optional<stencil::Problem> problem;
  std::optional<stencil::Grid2D> reference;
  std::vector<double> setups;
  for (int k = 0; k < kSetups; ++k) {
    const double t0 = now_s();
    problem.emplace(stencil::random_problem(shape.n, shape.n,
                                            shape.iterations, args.seed));
    stencil::DistResult first = stencil::run_distributed(*problem, config);
    setups.push_back(now_s() - t0);
    if (!reference) {
      reference.emplace(stencil::solve_serial(*problem));
      if (args.corrupt_reference) {
        reference->at(shape.n / 2, shape.n / 2) += 1.0;
      }
    }
    const std::string why =
        check(first.grid, *reference, shape,
              first.metrics->snapshot().counter_total(
                  "net_persistent_steady_allocs_total"));
    report.op(why.empty(), why);
  }
  const double setup_s = report_setup(setups, report);
  const double nominal = static_cast<double>(shape.n) * shape.n *
                         static_cast<double>(shape.iterations);

  std::vector<double> wall;          // untraced run_distributed, seconds
  std::vector<double> runtime_only;  // RunStats::wall_time_s of the same
  rt::RunStats last_stats;
  const auto timed_run = [&]() {
    const double t0 = now_s();
    stencil::DistResult result = stencil::run_distributed(*problem, config);
    wall.push_back(now_s() - t0);
    runtime_only.push_back(result.stats.wall_time_s);
    last_stats = result.stats;
    const std::string why =
        check(result.grid, *reference, shape,
              result.metrics->snapshot().counter_total(
                  "net_persistent_steady_allocs_total"));
    report.op(why.empty(), why);
  };

  if (!args.trace) {
    const double start = now_s();
    // At least kMinSolves samples, so op_s_tail is always a percentile.
    while (now_s() - start < args.seconds || wall.size() < kMinSolves) {
      timed_run();
    }
    const double p50 = median(wall);
    const Tail tail = tail_of(wall);
    std::ostringstream samples;
    samples << "solve samples (s, in order):";
    for (const double w : wall) samples << " " << w;
    report.note(samples.str());
    std::ostringstream row;
    row << "solves=" << wall.size() << " tail=p" << tail.percentile
        << " with " << tail.beyond << " samples beyond";
    report.note(row.str());
    report.note("RunStats::wall_time_s (Runtime::run only) median " +
                std::to_string(median(runtime_only)) + " s, missing " +
                std::to_string(100.0 * (1.0 - median(runtime_only) / p50)) +
                " % of run_distributed");
    report.set("mpts_per_s", nominal / p50 / 1e6);
    report.set("op_s_p50", p50);
    report.set("op_s_tail", tail.value);
    report.set("setup_s", setup_s);
    report.set("peak_rss_mb", peak_rss_mib());
    report.finish();
    return;
  }

  // Traced run: alternate the untraced call and the decomposed solve.
  Spans spans;
  std::vector<Decomposed> decomposed;  // grids dropped after checking
  std::vector<obs::TraceAnalysis> analyses;
  const double start = now_s();
  std::uint64_t op = 0;
  while (now_s() - start < args.seconds || decomposed.size() < 2) {
    timed_run();
    Decomposed d = decomposed_solve(*problem, config, spans, ++op);
    std::string why = check(d.grid, *reference, shape, d.steady_allocs);
    if (why.empty() && (d.stats.tasks_executed != last_stats.tasks_executed ||
                        d.stats.messages != last_stats.messages ||
                        d.stats.bytes != last_stats.bytes)) {
      why = "decomposed solve's tasks/messages/bytes differ from "
            "run_distributed";
    }
    report.op(why.empty(), why);
    if (analyses.size() < 3) analyses.push_back(obs::analyze_dataflow(d.events));
    d.events.clear();
    d.events.shrink_to_fit();
    d.grid = stencil::Grid2D(1, 1);
    decomposed.push_back(std::move(d));
  }
  save_spans(spans, args, report);
  print_span_table(spans, report);

  const auto per_solve = [&](auto field) {
    std::vector<double> v;
    for (const Decomposed& d : decomposed) v.push_back(field(d));
    return median(v);
  };
  const double build_s = median(spans.durations("stencil.build"));
  const double fuse_s = median_or_zero(spans.durations("runtime.fuse"));
  const double seal_s = median(spans.durations("runtime.seal"));
  const double construct_s = median(spans.durations("runtime.construct"));
  const double run_s = median(spans.durations("runtime.run"));
  const double gather_s = median(spans.durations("stencil.gather"));
  const double traced_solve_s = median(spans.durations("solve"));
  const double untraced_solve_s = median(wall);
  const Decomposed& first = decomposed.front();
  const double tasks = static_cast<double>(first.stats.tasks_executed);
  const double messages = static_cast<double>(first.stats.messages);
  const double bytes = static_cast<double>(first.stats.bytes);
  const double computed = static_cast<double>(first.computed_points);
  const double idle_halo = per_solve([](const Decomposed& d) { return d.idle_halo_s; });
  const double idle_noready =
      per_solve([](const Decomposed& d) { return d.idle_noready_s; });
  const double idle_steal = per_solve([](const Decomposed& d) { return d.idle_steal_s; });
  double steady_allocs = 0.0;
  for (const Decomposed& d : decomposed) {
    steady_allocs = std::max(steady_allocs, d.steady_allocs);
  }

  report.set("stencil.build_s", build_s);
  report.set("stencil.gather_s", gather_s);
  report.set("runtime.fuse_s", fuse_s);
  report.set("runtime.seal_s", seal_s);
  report.set("runtime.construct_s", construct_s);
  report.set("runtime.run_s", run_s);
  report.set("runtime.tasks", tasks);
  report.set("stencil.computed_pts", computed);
  report.set("stencil.useful_frac",
             static_cast<double>(first.nominal_points) / computed);
  report.set("runtime.idle_halo_s", idle_halo);
  report.set("runtime.idle_noready_s", idle_noready);
  report.set("runtime.idle_steal_s", idle_steal);
  report.set("runtime.comm_busy_s",
             per_solve([](const Decomposed& d) { return d.comm_busy_s; }));
  report.set("net.messages", messages);
  report.set("net.bytes", bytes);
  report.set("net.steady_allocs", steady_allocs);
  report.set("obs.trace_overhead_frac", traced_solve_s / untraced_solve_s - 1.0);
  {
    std::vector<double> compute, network, runtime_cp, overlap;
    for (const auto& a : analyses) {
      compute.push_back(a.cp_compute_s);
      network.push_back(a.cp_network_s);
      runtime_cp.push_back(a.cp_runtime_s);
      overlap.push_back(a.overlap_efficiency);
    }
    report.set("trace.cp_compute_s", median(compute));
    report.set("trace.cp_network_s", median(network));
    report.set("trace.cp_runtime_s", median(runtime_cp));
    report.set("trace.overlap_frac", median(overlap));
  }

  // Unit costs at this workload's shapes.
  const int ghost = shape.steps * shape.fuse;
  const KernelProbe kernel = probe_kernel(shape.tile, ghost, shape.kernel,
                                          args.tiny);
  const PackProbe pack = probe_pack(shape.tile, ghost, shape.steps > 1,
                                    args.tiny);
  const double dispatch_ns = probe_dispatch_ns_per_task(
      kNodeRows, kNodeCols, kWorkersPerRank, shape.n / shape.tile,
      first.stats.tasks_executed, args.tiny);
  const NetProbe net = probe_net(
      messages > 0 ? static_cast<std::size_t>(bytes / messages) : 64,
      args.tiny);
  const ObsProbe obs_probe = probe_obs(kNodeRows * kNodeCols * kWorkersPerRank,
                                       args.tiny);
  const StreamProbe stream = probe_stream(args.tiny);
  report.set("stencil.kernel_ns_per_pt", kernel.ns_per_pt);
  report.set("stencil.kernel_gbs", kernel.computed_gbs);
  report.set("stencil.pack_ns_per_double", pack.pack_ns_per_double);
  report.set("stencil.unpack_ns_per_double", pack.unpack_ns_per_double);
  report.set("runtime.dispatch_ns_per_task", dispatch_ns);
  report.set("net.msg_us", net.msg_us);
  report.set("net.gbs", net.gbs);
  report.set("net.persistent_msg_us", net.persistent_msg_us);
  report.set("obs.counter_add_ns", obs_probe.counter_add_ns);
  report.set("obs.flight_record_ns", obs_probe.flight_record_ns);
  report.set("stream.copy_gbs", stream.copy_gbs);
  report.note("stream: arrays of " + std::to_string(stream.array_bytes) +
              " B each, last-level cache " + std::to_string(stream.llc_bytes) +
              " B");

  // Ledger. other_s: what run_distributed spends outside the five timed
  // calls (the span medians carry the tracer's overhead, so this can go
  // negative when tracing costs more than the glue).
  report.set("ledger.other_s",
             untraced_solve_s - (build_s + fuse_s + seal_s + run_s + gather_s));
  // Worker-busy seconds predicted from unit costs x exact counts.
  const double workers = kNodeRows * kNodeCols * kWorkersPerRank;
  const double busy = workers * run_s - (idle_halo + idle_noready + idle_steal);
  const double wire_doubles = bytes / sizeof(double);
  const double predicted =
      (kernel.ns_per_pt * computed +
       (pack.pack_ns_per_double + pack.unpack_ns_per_double) * wire_doubles +
       dispatch_ns * tasks) * 1e-9;
  report.set("ledger.residual_frac", (busy - predicted) / busy);
  {
    std::ostringstream row;
    row << "ledger: worker-busy " << busy << " s = kernel "
        << kernel.ns_per_pt * computed * 1e-9 << " + pack/unpack "
        << (pack.pack_ns_per_double + pack.unpack_ns_per_double) *
               wire_doubles * 1e-9
        << " + dispatch " << dispatch_ns * tasks * 1e-9 << " + residual "
        << busy - predicted;
    report.note(row.str());
  }
  report.finish();
}

}  // namespace perfbench
