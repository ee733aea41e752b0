// Microbenchmarks (google-benchmark): the kernels underneath everything.
//
//   * jacobi5 over several tile sizes (reports points/s and effective GB/s)
//   * halo band pack/unpack
//   * corner block pack/unpack
//   * CSR SpMV (reports the index-traffic handicap vs the raw stencil)
//   * one refresh step through the assembled and the split path, whose
//     crossover sets kInnerSweepMinExtent
//   * serial reference sweep
//   * obs primitives (counter/histogram/gauge/timer) and an instrumented
//     jacobi5 tile, backing the "<2% overhead" acceptance claim: compare
//     BM_Jacobi5Instrumented here against a -DREPRO_OBS_DISABLE build.
//   * the rt::fuse_supersteps graph rewrite at the fused-CA solve's shape
//   * building, sealing and freeing the latency-bound solve's task graph
#include <benchmark/benchmark.h>

#include <malloc.h>
#include <sys/resource.h>

#include <chrono>
#include <memory>

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "runtime/graph_transform.hpp"
#include "runtime/trace.hpp"
#include "spmv/csr.hpp"
#include "stencil/dist_stencil.hpp"
#include "stencil/halo.hpp"
#include "stencil/kernel.hpp"
#include "stencil/kernel_opt.hpp"
#include "stencil/problem.hpp"
#include "stencil/serial.hpp"
#include "stencil/spec_kernel.hpp"
#include "stencil/tile_step.hpp"

namespace {

using namespace repro;
using namespace repro::stencil;

void BM_Jacobi5(benchmark::State& state) {
  const int tile = static_cast<int>(state.range(0));
  const TileGeom g{tile, tile, 1, 1, 1, 1};
  std::vector<double> in(g.size(), 1.0);
  std::vector<double> out(g.size(), 0.0);
  const Stencil5 w = Stencil5::laplace_jacobi();
  for (auto _ : state) {
    jacobi5(in.data(), out.data(), g, w, 0, tile, 0, tile);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  const double points = static_cast<double>(tile) * tile;
  state.counters["points/s"] = benchmark::Counter(
      points * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
  state.counters["GFLOP/s"] = benchmark::Counter(
      points * kFlopsPerPoint * static_cast<double>(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Jacobi5)->Arg(64)->Arg(128)->Arg(288)->Arg(512)->Arg(1024);

void BM_Jacobi5Opt(benchmark::State& state) {
  // Optimized variants vs BM_Jacobi5: arg 0 is the KernelVariant index
  // (0 scalar, 1 vector, 2 blocked), arg 1 the square tile size. Acceptance:
  // the vector/blocked rows must beat the scalar row by >= 1.5x on a
  // cache-resident tile (see docs/REPRODUCING.md).
  const auto variant = static_cast<KernelVariant>(state.range(0));
  const int tile = static_cast<int>(state.range(1));
  const TileGeom g{tile, tile, 1, 1, 1, 1};
  std::vector<double> in(g.size(), 1.0);
  std::vector<double> out(g.size(), 0.0);
  const Stencil5 w = Stencil5::laplace_jacobi();
  for (auto _ : state) {
    jacobi5_opt(in.data(), out.data(), g, w, 0, tile, 0, tile, variant);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel(kernel_variant_name(variant));
  const double points = static_cast<double>(tile) * tile;
  state.counters["points/s"] = benchmark::Counter(
      points * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
  state.counters["GFLOP/s"] = benchmark::Counter(
      points * kFlopsPerPoint * static_cast<double>(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Jacobi5Opt)->ArgsProduct({{0, 1, 2}, {64, 288, 1024}});

void BM_Jacobi5DeepGhost(benchmark::State& state) {
  // The CA variant's extended-region update: tile 288 with 15-deep ghosts,
  // computing the full extended rectangle (superstep start).
  const int tile = 288, s = 15;
  const TileGeom g{tile, tile, s, s, s, s};
  std::vector<double> in(g.size(), 1.0);
  std::vector<double> out(g.size(), 0.0);
  const Stencil5 w = Stencil5::laplace_jacobi();
  for (auto _ : state) {
    jacobi5(in.data(), out.data(), g, w, -(s - 1), tile + s - 1, -(s - 1),
            tile + s - 1);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_Jacobi5DeepGhost);

void BM_PackBand(benchmark::State& state) {
  const int tile = 288;
  const int depth = static_cast<int>(state.range(0));
  const TileGeom g{tile, tile, depth, depth, depth, depth};
  std::vector<double> ext(g.size(), 1.0);
  for (auto _ : state) {
    auto band = pack_band(ext.data(), g, Side::South, depth);
    benchmark::DoNotOptimize(band.data());
  }
  state.counters["B/s"] = benchmark::Counter(
      static_cast<double>(depth) * tile * sizeof(double) *
          static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_PackBand)->Arg(1)->Arg(5)->Arg(15)->Arg(40);

void BM_UnpackBand(benchmark::State& state) {
  const int tile = 288;
  const int depth = static_cast<int>(state.range(0));
  const TileGeom g{tile, tile, depth, 1, 1, 1};
  std::vector<double> ext(g.size(), 0.0);
  const std::vector<double> band(static_cast<std::size_t>(depth) * tile, 1.0);
  for (auto _ : state) {
    unpack_band(ext.data(), g, Side::North, band, depth);
    benchmark::DoNotOptimize(ext.data());
  }
}
BENCHMARK(BM_UnpackBand)->Arg(1)->Arg(15);

void BM_PackCorner(benchmark::State& state) {
  const int tile = 288, s = 15;
  const TileGeom g{tile, tile, 1, 1, 1, 1};
  std::vector<double> ext(g.size(), 1.0);
  for (auto _ : state) {
    auto block = pack_corner(ext.data(), g, Corner::SE, s);
    benchmark::DoNotOptimize(block.data());
  }
}
BENCHMARK(BM_PackCorner);

void BM_CsrSpmv(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const spmv::CsrMatrix m = spmv::build_grid_matrix(n, n,
                                                    Stencil5::laplace_jacobi());
  std::vector<double> x(static_cast<std::size_t>(m.ncols), 1.0);
  std::vector<double> y(static_cast<std::size_t>(m.nrows), 0.0);
  for (auto _ : state) {
    m.multiply(x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      9.0 * n * n * static_cast<double>(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CsrSpmv)->Arg(256)->Arg(512)->Arg(1024);

void BM_ApplyProgram(benchmark::State& state) {
  // Generic compiled-spec sweep over one tile, for wider stencils than the
  // 5-point kernels cover: arg 0 = star9 (radius-2 cross), 1 = box9, 2 = the
  // radius-2 box (25 points).
  const int tile = 288;
  spec::StencilSpec sp;
  switch (state.range(0)) {
    case 0: sp = spec::StencilSpec::star9(); break;
    case 1: sp = spec::StencilSpec::box9(); break;
    default:
      sp.name = "box25";
      for (int di = -2; di <= 2; ++di) {
        for (int dj = -2; dj <= 2; ++dj) {
          sp.points.push_back({{di, dj, 0}, 0.9 / 25.0});
        }
      }
      break;
  }
  const spec::CompiledProgram program = spec::compile_spec(sp);
  const int r = program.radius;
  const TileGeom g{tile, tile, r, r, r, r};
  std::vector<double> in(g.size(), 1.0);
  std::vector<double> out(g.size(), 0.0);
  for (auto _ : state) {
    apply_program_stage(in.data(), out.data(), g, program, 0, tile, 0, tile);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      static_cast<double>(tile) * tile * program.flops_per_point() *
          static_cast<double>(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ApplyProgram)->Arg(0)->Arg(1)->Arg(2);

void BM_Jacobi5Variable(benchmark::State& state) {
  const int tile = 288;
  const TileGeom g{tile, tile, 1, 1, 1, 1};
  std::vector<double> in(g.size(), 1.0);
  std::vector<double> out(g.size(), 0.0);
  std::vector<double> coeff(kCoeffPlanes * g.size(), 0.2);
  for (auto _ : state) {
    jacobi5_var(in.data(), out.data(), g, coeff.data(), 0, tile, 0, tile);
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      9.0 * tile * tile * static_cast<double>(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Jacobi5Variable);

void BM_RefreshStep(benchmark::State& state) {
  // One base step of a tile with four same-node neighbours, the step every
  // node-interior tile runs: refresh its four ghost lines, sweep the star5
  // stage, fill the output's ring. Arg 0 is the square tile extent, arg 1
  // the kernel (0 scalar, 1 vector), arg 2 the path: 0 assembles the whole
  // tile in the scratch, 1 sweeps the inner rectangle from the previous
  // state. The extent where the split path starts to win is
  // kInnerSweepMinExtent. The two states swap every step, as a tile's chain
  // of states does.
  const int tile = static_cast<int>(state.range(0));
  const auto kernel = state.range(1) == 0 ? KernelVariant::Scalar
                                          : KernelVariant::Vector;
  const bool split = state.range(2) != 0;
  const spec::CompiledProgram program =
      spec::compile_spec(spec::StencilSpec::star5());
  const TileGeom g{tile, tile, 1, 1, 1, 1};
  std::vector<double> prev(g.size(), 1.0);
  std::vector<double> next(g.size(), 0.0);
  const std::vector<double> neighbour(g.size(), 2.0);
  TileStep step;
  step.program = &program;
  step.geom = g;
  step.region = {0, tile, 0, tile};
  step.kernel = kernel;
  for (Side s : kAllSides) {
    step.refresh.line[static_cast<int>(s)] = CellView(neighbour.data(), g);
    step.refresh.line_geom[static_cast<int>(s)] = g;
  }
  for (auto _ : state) {
    step.prev = prev.data();
    step.out = next.data();
    step_tile(step, split);
    benchmark::DoNotOptimize(next.data());
    benchmark::ClobberMemory();
    prev.swap(next);
  }
  state.SetLabel(std::string(kernel_variant_name(kernel)) +
                 (split ? " split" : " assembled"));
  state.counters["ns/pt"] = benchmark::Counter(
      static_cast<double>(tile) * tile *
          static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_RefreshStep)->Apply([](benchmark::internal::Benchmark* b) {
  for (const int extent : {32, 48, 64, 96, 144, 288}) {
    for (const int kernel : {0, 1}) {
      b->Args({extent, kernel, 0})->Args({extent, kernel, 1});
    }
  }
});

void BM_ObsCounterInc(benchmark::State& state) {
  obs::Counter counter;
  for (auto _ : state) {
    counter.inc();
  }
  benchmark::DoNotOptimize(counter.value());
}
BENCHMARK(BM_ObsCounterInc)->ThreadRange(1, 8);

void BM_ObsGaugeAdd(benchmark::State& state) {
  obs::Gauge gauge;
  for (auto _ : state) {
    gauge.add(1.0);
  }
  benchmark::DoNotOptimize(gauge.value());
}
BENCHMARK(BM_ObsGaugeAdd);

void BM_ObsHistogramObserve(benchmark::State& state) {
  obs::Histogram hist(obs::log2_size_bounds());
  double v = 1.0;
  for (auto _ : state) {
    hist.observe(v);
    v = v < 1e6 ? v * 1.5 : 1.0;
  }
  benchmark::DoNotOptimize(hist.count());
}
BENCHMARK(BM_ObsHistogramObserve)->ThreadRange(1, 8);

void BM_ObsScopedTimer(benchmark::State& state) {
  obs::Gauge busy;
  for (auto _ : state) {
    obs::ScopedTimer timer(busy);
  }
  benchmark::DoNotOptimize(busy.value());
}
BENCHMARK(BM_ObsScopedTimer);

rt::Tracer& tracer_record_tracer() {
  static rt::Tracer tracer(/*enabled=*/true);
  return tracer;
}

void BM_TracerRecord(benchmark::State& state) {
  // The tracer hot path: each recording thread appends to its own buffer,
  // so throughput must scale with the thread count — a per-event lock would
  // flatten the ThreadRange curve the way a shared mutex does. Iterations
  // are fixed to bound the retained event memory; Teardown drops it.
  rt::Tracer& tracer = tracer_record_tracer();
  for (auto _ : state) {
    rt::TraceEvent event;
    event.kind = rt::TraceEventKind::Task;
    event.rank = 0;
    event.worker = state.thread_index();
    event.begin_s = 0.0;
    event.end_s = 1.0;
    tracer.record(std::move(event));
  }
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TracerRecord)
    ->ThreadRange(1, 8)
    ->Iterations(1 << 16)
    ->Teardown([](const benchmark::State&) { tracer_record_tracer().clear(); });

void BM_FlightRecorderRecord(benchmark::State& state) {
  // The recorder hot path in isolation: one lane per recording thread, so
  // the wait-free single-writer claim is load-bearing — throughput must
  // scale with ThreadRange (a shared lock would flatten the curve).
  static obs::FlightRecorder recorder(8);
  const auto lane = static_cast<std::size_t>(state.thread_index());
  obs::FlightSample sample;
  for (auto _ : state) {
    sample.tasks_executed += 1;
    sample.wire_bytes += 4096;
    recorder.record(lane, sample);
  }
  state.counters["samples/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FlightRecorderRecord)->ThreadRange(1, 8);

void BM_Jacobi5FlightRecorded(benchmark::State& state) {
  // The "<2% overhead" acceptance claim, measured: the paper-configuration
  // tile with one flight-recorder sample per task-sized unit of work — the
  // densest cadence the runtime ever records at (every task completion /
  // idle transition). Compare against BM_Jacobi5/288 in the same build, and
  // against the REPRO_OBS_DISABLE build where record() is a constexpr no-op
  // and the two benchmarks must coincide.
  const int tile = 288;
  const TileGeom g{tile, tile, 1, 1, 1, 1};
  std::vector<double> in(g.size(), 1.0);
  std::vector<double> out(g.size(), 0.0);
  const Stencil5 w = Stencil5::laplace_jacobi();
  obs::FlightRecorder recorder(1);
  obs::FlightSample sample;
  for (auto _ : state) {
    jacobi5(in.data(), out.data(), g, w, 0, tile, 0, tile);
    sample.tasks_executed += 1;
    sample.wire_bytes += static_cast<std::uint64_t>(tile) * 8;
    recorder.record(0, sample);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  const double pts = static_cast<double>(tile) * tile;
  state.counters["GFLOP/s"] = benchmark::Counter(
      pts * kFlopsPerPoint * static_cast<double>(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Jacobi5FlightRecorded);

void BM_Jacobi5Instrumented(benchmark::State& state) {
  // The paper-configuration tile with the same per-task instrumentation the
  // runtime applies: one counter bump per task-sized unit of work. Compare
  // against BM_Jacobi5/288 and the REPRO_OBS_DISABLE build of this binary to
  // bound the instrumentation overhead (<2% required).
  const int tile = 288;
  const TileGeom g{tile, tile, 1, 1, 1, 1};
  std::vector<double> in(g.size(), 1.0);
  std::vector<double> out(g.size(), 0.0);
  const Stencil5 w = Stencil5::laplace_jacobi();
  obs::MetricsRegistry registry;
  auto tasks = registry.counter("rt_tasks_executed_total");
  auto points = registry.counter("stencil_computed_points_total");
  for (auto _ : state) {
    jacobi5(in.data(), out.data(), g, w, 0, tile, 0, tile);
    tasks->inc();
    points->add(static_cast<std::uint64_t>(tile) * tile);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  const double pts = static_cast<double>(tile) * tile;
  state.counters["GFLOP/s"] = benchmark::Counter(
      pts * kFlopsPerPoint * static_cast<double>(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Jacobi5Instrumented);

void BM_SerialSweep(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const Problem p = laplace_problem(n, 1);
  Grid2D in(n, n), out(n, n);
  in.fill(p.initial, p.boundary);
  out.fill(p.initial, p.boundary);
  for (auto _ : state) {
    serial_sweep(in, out, Stencil5::laplace_jacobi());
    benchmark::DoNotOptimize(out.at(0, 0));
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      9.0 * n * n * static_cast<double>(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SerialSweep)->Arg(512)->Arg(1024);

/// Minor page faults this process has taken so far. The graph benchmarks
/// report the faults of their timed region per iteration: a pass that
/// refaults its heap every iteration reads slower for that alone.
///
/// Such faults come from this loop's allocation pattern, not from the
/// solve path. glibc maps every block above its mmap threshold (128 KB until
/// a larger mapped block is freed) fresh on each allocation, and returns a
/// heap top above its trim threshold to the system on free. Before
/// add_solve_subgraph allocated the solve's result field, BM_BuildSealGraph
/// took 5,437 faults per iteration and BM_FuseSupersteps 1,618, and only
/// MALLOC_MMAP_THRESHOLD_=33554432 and MALLOC_TRIM_THRESHOLD_=4000000000
/// together brought both to 0. Now every iteration frees the 4.7 MB field,
/// which raises both thresholds, and both loops take none. A loop of whole
/// solves frees its fields and state buffers the same way: at this shape
/// its seal takes no faults after the second solve.
double minor_faults() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_minflt);
}

/// Heap bytes this process has in use: glibc's mallinfo2, arena blocks
/// (uordblks) plus blocks mapped on their own (hblkhd), so the count does not
/// depend on where the mmap threshold stands. The graph benchmarks report a
/// phase's growth per task, read outside the timed regions.
double heap_bytes() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd);
}

void BM_FuseSupersteps(benchmark::State& state) {
  // The graph rewrite alone at the fused CA solve's shape (N=768, tile 32,
  // 2x2 nodes, steps 4, fuse 2, persistent routes): 58,176 -> 8,064 tasks.
  // Only the pass is timed: building the input graph and freeing the
  // previous result are not.
  const Problem problem = random_problem(768, 768, 100, 1);
  DistConfig config;
  config.decomp = {32, 32, 2, 2};
  config.steps = 4;
  config.fuse_depth = 2;
  config.persistent = true;
  rt::TaskGraph graph;
  rt::FuseReport report;
  double pass_s = 0.0;
  double faults = 0.0;
  double build_bytes = 0.0;
  double fuse_bytes = 0.0;
  for (auto _ : state) {
    graph = rt::TaskGraph();
    const double heap0 = heap_bytes();
    const int window = add_solve_subgraph(graph, problem, config).fuse_window();
    const double heap_built = heap_bytes();
    const double faults0 = minor_faults();
    const auto start = std::chrono::steady_clock::now();
    report = rt::fuse_supersteps(graph, window);
    benchmark::DoNotOptimize(report);
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    faults += minor_faults() - faults0;
    build_bytes += heap_built - heap0;
    fuse_bytes += heap_bytes() - heap_built;
    state.SetIterationTime(elapsed.count());
    pass_s += elapsed.count();
  }
  const double per_task = 1.0 / (static_cast<double>(report.tasks_before) *
                                 static_cast<double>(state.iterations()));
  state.counters["tasks_in"] = static_cast<double>(report.tasks_before);
  state.counters["tasks_out"] = static_cast<double>(report.tasks_after);
  state.counters["ns/task"] = pass_s * 1e9 * per_task;
  state.counters["build B/task"] = build_bytes * per_task;
  state.counters["fuse B/task"] = fuse_bytes * per_task;
  state.counters["minor faults/iter"] =
      faults / static_cast<double>(state.iterations());
}
BENCHMARK(BM_FuseSupersteps)->UseManualTime()->Unit(benchmark::kMillisecond);

void BM_BuildSealGraph(benchmark::State& state) {
  // The task-graph cost of the latency-bound solve (N=768, tile 32, 2x2
  // nodes, 100 iterations, base): 58,176 tasks built by add_solve_subgraph,
  // sealed, then freed. The three phases are timed and reported separately,
  // in ns per task; the iteration time is their sum. The heap bytes build
  // and seal each leave allocated are reported per task too.
  using Clock = std::chrono::steady_clock;
  const Problem problem = random_problem(768, 768, 100, 1);
  DistConfig config;
  config.decomp = {32, 32, 2, 2};
  double build_s = 0.0;
  double seal_s = 0.0;
  double destroy_s = 0.0;
  double faults = 0.0;
  double build_bytes = 0.0;
  double seal_bytes = 0.0;
  std::size_t tasks = 0;
  for (auto _ : state) {
    auto graph = std::make_unique<rt::TaskGraph>();
    const double heap0 = heap_bytes();
    const double faults0 = minor_faults();
    const auto start = Clock::now();
    const SolveSubgraph subgraph = add_solve_subgraph(*graph, problem, config);
    const auto built = Clock::now();
    const double heap_built = heap_bytes();
    const auto seal_start = Clock::now();
    graph->seal(subgraph.nodes());
    const auto sealed = Clock::now();
    const double heap_sealed = heap_bytes();
    const auto destroy_start = Clock::now();
    tasks = graph->size();
    benchmark::DoNotOptimize(graph->consumers(0).data());
    graph.reset();
    const auto destroyed = Clock::now();
    faults += minor_faults() - faults0;
    build_bytes += heap_built - heap0;
    seal_bytes += heap_sealed - heap_built;
    const std::chrono::duration<double> build = built - start;
    const std::chrono::duration<double> seal = sealed - seal_start;
    const std::chrono::duration<double> destroy = destroyed - destroy_start;
    build_s += build.count();
    seal_s += seal.count();
    destroy_s += destroy.count();
    state.SetIterationTime(build.count() + seal.count() + destroy.count());
  }
  const double per_task = 1.0 / (static_cast<double>(tasks) *
                                 static_cast<double>(state.iterations()));
  state.counters["tasks"] = static_cast<double>(tasks);
  state.counters["build ns/task"] = build_s * 1e9 * per_task;
  state.counters["seal ns/task"] = seal_s * 1e9 * per_task;
  state.counters["destroy ns/task"] = destroy_s * 1e9 * per_task;
  state.counters["build B/task"] = build_bytes * per_task;
  state.counters["seal B/task"] = seal_bytes * per_task;
  state.counters["minor faults/iter"] =
      faults / static_cast<double>(state.iterations());
}
BENCHMARK(BM_BuildSealGraph)->UseManualTime()->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
