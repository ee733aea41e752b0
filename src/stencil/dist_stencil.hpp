// Distributed Jacobi over the task runtime: base and communication-avoiding.
//
// One generic builder covers both paper variants:
//   * steps == 1 reproduces base-PaRSEC: every tile task consumes its own
//     previous state, same-node neighbors' states (zero-copy), and one-deep
//     halo bands from remote neighbors (messages) — every iteration.
//   * steps == s > 1 reproduces CA-PaRSEC (PA1): tiles facing a node boundary
//     carry s-deep ghost bands on those sides; remote bands (plus s x s
//     corner blocks from diagonal neighbors) are exchanged only at superstep
//     starts, and the tile redundantly recomputes the ghost band, shrinking
//     by one layer per inner step. Node-interior sides still exchange
//     locally (shared buffers) every step, exactly as the paper describes
//     ("tiles that have all neighbors local ... have one layer ghost
//     region").
//
// The kernel_ratio knob reproduces the paper's kernel-time tuning: only a
// (ratio*h) x (ratio*w) sub-rectangle is updated, "which effectively reduces
// the memory access thus speedup the kernel execution". Results are not
// numerically meaningful when ratio < 1 (timing experiments only).
#pragma once

#include <functional>
#include <vector>

#include "net/channel.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "runtime/runtime.hpp"
#include "stencil/grid.hpp"
#include "stencil/kernel_opt.hpp"
#include "stencil/problem.hpp"
#include "stencil/tile_map.hpp"

namespace repro::stencil {

/// Called as tile (ti,tj) reaches a globally consistent state: after INIT
/// (k == 0) and after each iteration k with k % steps == 0. `core` is the
/// tile's program's nfield field planes of its h x w interior, plane-major and
/// row-major (nfield * h * w values; one plane below rank 3). Invoked
/// concurrently from worker threads — the callee must be thread-safe. Used by
/// the fault subsystem to checkpoint at CA superstep boundaries.
using SuperstepHook =
    std::function<void(int k, int ti, int tj, const std::vector<double>& core)>;

struct Decomposition {
  int mb = 0;         ///< nominal tile rows
  int nb = 0;         ///< nominal tile cols
  int node_rows = 1;  ///< virtual process grid rows
  int node_cols = 1;  ///< virtual process grid cols
};

struct DistConfig {
  Decomposition decomp;
  int steps = 1;              ///< CA step size; 1 = base version
  /// Cross-node temporal blocking: fuse this many consecutive CA supersteps
  /// into one pipelined wavefront per tile (rt::fuse_supersteps, DESIGN.md
  /// §17). With fuse_depth = f > 1 the builder emits a FUSE-READY graph —
  /// every neighbor side carries a (radius * steps * f)-deep ghost band,
  /// cross-tile edges exist only at window boundaries — and the driver
  /// rewrites the per-step task chains so each window of steps * f steps
  /// runs cache-resident inside one task. Remote halo exchanges collapse to one
  /// per f supersteps (deeper bands, more redundant recompute — the CA
  /// trade, taken f times further). Composes with every kernel variant,
  /// specs, schedulers, persistent channels, and the fault stack; results
  /// stay bit-identical to the serial reference. Requires kernel_ratio == 1
  /// and radius * steps * f within the smallest tile extent.
  int fuse_depth = 1;
  double kernel_ratio = 1.0;  ///< <1 = simulated faster kernel (timing only)
  int workers_per_rank = 1;
  bool dedicated_comm_thread = true;
  bool trace = false;
  rt::SchedPolicy scheduler = rt::SchedPolicy::PriorityFifo;
  /// Per-destination-node message aggregation (see rt::Config).
  bool aggregate_messages = false;
  /// Compute-kernel variant for the compiled stage (coefficient problems
  /// always use their dedicated kernel). A
  /// variant only changes the inner sweep — the task graph is unchanged and
  /// results stay bit-identical to the serial reference. Running several
  /// steps per task is fuse_depth's job, not the kernel's.
  KernelVariant kernel = KernelVariant::Scalar;
  /// Blocking and SIMD-dispatch tuning for the optimized variants.
  KernelTuning tuning{};
  /// Snapshot callback at superstep boundaries (empty = disabled).
  SuperstepHook superstep_hook{};
  /// Custom channel stack for remote traffic (empty = plain Transport).
  net::ChannelFactory channel_factory{};
  /// Persistent halo channels (net::PersistentChannel): every remote
  /// band/corner flow is annotated with a route id + exact size, the channel
  /// stack is wrapped in a PersistentChannel, endpoints negotiate buffers
  /// once at run start, and halo publishes go out as partitioned zero-copy
  /// fragment sends from pre-registered buffers. Results are bit-identical
  /// to the default path; only the wire mechanics change. In
  /// add_solve_subgraph this flag annotates routes only — the caller wraps
  /// its own runtime channel (see serve::FarmConfig::persistent).
  bool persistent = false;
  /// Registry every layer of the run scrapes into: rt_* (runtime), net_*
  /// (default transport), stencil_* (this driver). Null = private registry,
  /// returned in DistResult::metrics either way.
  std::shared_ptr<obs::MetricsRegistry> metrics{};
  /// Victim-selection seed for SchedPolicy::WorkStealing (see rt::Config).
  std::uint64_t sched_seed = 0;
  /// Schedule-fuzzing hook, forwarded to the runtime (tests only).
  std::shared_ptr<rt::SchedTestHook> sched_test_hook{};
  /// Task-key namespace. Every task key's type becomes
  /// key_space * 2 + {0 = INIT, 1 = STEP}, so several solves can coexist in
  /// one TaskGraph without key collisions (the serve layer batches small
  /// jobs into shared graphs this way). 0 = the classic single-job keys.
  std::uint32_t key_space = 0;
  /// Added to every task's priority. The serve layer maps tenant lanes onto
  /// the scheduler's priority levels with this knob (a latency-sensitive
  /// tenant's interior tasks outrank a batch tenant's halo publishes when
  /// bias >= 3, since the per-job priorities span 0..2).
  int priority_bias = 0;
  /// Accounting lane stamped on every task (rt::TaskSpec::lane); -1 = none.
  int lane = -1;
  /// Live cross-rank telemetry: at every superstep boundary each rank
  /// condenses its progress (tasks, idle taxonomy, wire bytes, queue depth)
  /// into one obs::TelemetrySnapshot; ranks > 0 ship it to rank 0 as a real
  /// wire message (obs::kTelemetryWireBytes each, charged to the channel and
  /// modeled byte-exactly by the DES), rank 0 ingests locally. The stream,
  /// online detectors, and events land in DistResult::telemetry.
  bool telemetry = false;
  /// Online-detector thresholds (straggler lag, halo-share, queue depth).
  obs::DetectorConfig telemetry_detectors{};
  /// When non-empty, rank 0 atomically rewrites this file with the live
  /// repro.telemetry/v1 document on every ingest — the attach point for
  /// `tools/repro_top --file=<path>`.
  std::string telemetry_dump;
  /// Optional externally-owned collector (e.g. shared across runs); null =
  /// run_distributed creates one per run.
  std::shared_ptr<obs::TelemetryCollector> telemetry_collector{};
};

struct DistResult {
  Grid2D grid;                ///< gathered final field (rank 3: z plane 0)
  rt::RunStats stats;         ///< wall time + remote traffic
  std::vector<rt::TraceEvent> trace_events;
  /// Rank-3 runs: all nz interior z planes (planes[0] == grid); empty below
  /// rank 3, where `grid` is the whole field.
  std::vector<Grid2D> planes;
  /// Stencil points updated (incl. redundant); one update per 2D cell, all
  /// z planes together, matching flops_per_point below.
  long long computed_points = 0;
  long long nominal_points = 0;   ///< rows*cols*iterations (no redundancy)
  double flops_per_point = kFlopsPerPoint;  ///< the compiled program's
  /// Scrape point for the run's metric families (never null after
  /// run_distributed returns).
  std::shared_ptr<obs::MetricsRegistry> metrics{};
  /// Telemetry stream + detector events (null unless DistConfig::telemetry).
  std::shared_ptr<obs::TelemetryCollector> telemetry{};

  double flops() const {
    return flops_per_point * static_cast<double>(computed_points);
  }
  /// Fraction of extra work the CA scheme performed, e.g. 0.08 = +8%.
  double redundancy() const {
    return nominal_points > 0
               ? static_cast<double>(computed_points - nominal_points) /
                     static_cast<double>(nominal_points)
               : 0.0;
  }
};

/// Throws std::invalid_argument unless the builder can run `problem` under
/// `config`: a sound tile/node grid, steps and fuse_depth >= 1, radius *
/// steps * fuse_depth within the smallest tile extent, a legal kernel_ratio
/// (< 1 only for the 5-point program), a valid spec with the field samplers
/// its rank reads and an in-range key_space. add_solve_subgraph and
/// run_distributed run exactly these checks; callers such as the solver farm
/// use it to reject a request before building anything.
void validate_solve(const Problem& problem, const DistConfig& config);

/// Run the distributed solver. Validates the config as validate_solve does.
DistResult run_distributed(const Problem& problem, const DistConfig& config);

/// Handle to one solve compiled into a (possibly shared) TaskGraph by
/// add_solve_subgraph(). The solve owns its result field: the task producing
/// each tile's final state (STEP(iterations), or INIT when iterations == 0)
/// copies its core into that field in place of publishing the state, so no
/// final state is retained by the runtime. After a run, one gather() or
/// gather_planes() fills the field's Dirichlet ring and hands it over by
/// move; the solve then gets a fresh field for a later run of the same graph
/// (gather once per run). The graph owns what the solve's task bodies point
/// into, the field included, so it may be fused, sealed and run after every
/// handle is gone.
class SolveSubgraph {
 public:
  /// Virtual process count the subgraph was decomposed for; must equal the
  /// executing runtime's nranks.
  int nodes() const;
  /// Hand over the solve's final field (rank 3: z plane 0). `runtime` is the
  /// runtime that ran the graph; the field does not depend on what it
  /// retains, so gathering after Runtime::release_run() is fine. Throws
  /// std::logic_error unless a run completed since the last gather.
  Grid2D gather(const rt::Runtime& runtime) const;
  /// gather() for all nz interior z planes (below rank 3: one plane).
  std::vector<Grid2D> gather_planes(const rt::Runtime& runtime) const;
  /// Stencil points updated (redundant recompute included); valid after run.
  long long computed_points() const;
  /// State buffers the solve's per-rank pools had to allocate, INIT's
  /// included (the rest reused a buffer whose last reference had dropped);
  /// valid after run.
  long long state_buffer_allocs() const;
  /// rows * cols * iterations (no redundancy).
  long long nominal_points() const;
  /// Members per fuse window for rt::fuse_supersteps: > 1 when the config
  /// requested a fused wavefront on a per-step path (the emitted graph is
  /// fuse-ready but NOT yet fused — the caller owning the TaskGraph applies
  /// the rewrite, since a shared multi-solve graph can only be fused at one
  /// global depth). 1 = run the graph as built.
  int fuse_window() const;

  struct Impl;

 private:
  friend SolveSubgraph add_solve_subgraph(rt::TaskGraph& graph,
                                          const Problem& problem,
                                          const DistConfig& config);
  friend DistResult run_distributed(const Problem& problem,
                                    const DistConfig& config);
  /// gather_planes(); `rearm` = false sets up no fresh field, for a graph
  /// that will not run again. An unused fresh field left in the heap until
  /// the graph was freed raised a 40-solve loop's peak RSS from 87 to 99 MB
  /// at N = 768.
  std::vector<Grid2D> take_field(bool rearm) const;
  std::shared_ptr<Impl> impl_;
};

/// Compile one solve into `graph` (the multi-tenant entry point: the serve
/// layer batches several solves — distinct key_space values — into one graph
/// and runs them on a resident runtime). Validates the config as
/// validate_solve does. The runtime-level DistConfig knobs (workers,
/// scheduler, channel_factory, ...) are ignored here; only the
/// decomposition, CA steps, kernel, hook, key_space, priority_bias, and lane
/// matter.
SolveSubgraph add_solve_subgraph(rt::TaskGraph& graph, const Problem& problem,
                                 const DistConfig& config);

}  // namespace repro::stencil
