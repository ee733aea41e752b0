// SolverFarm: one resident rt::Runtime serving a stream of solves.
//
// Lifecycle of a request:
//
//   submit() --admission--> tenant lane in a FairQueue --DRR--> a *wave*
//
// The single dispatcher thread executes waves back-to-back on the resident
// runtime (Runtime::run is reuse-safe; see runtime.hpp). A wave is either
//
//   * a BATCH: several small jobs compiled into one shared TaskGraph, each
//     under its own key_space so task keys never collide, each tagged with
//     its tenant's accounting lane (rt_lane_tasks_executed_total) and a
//     priority bias that maps deadline jobs onto higher scheduler levels; or
//   * a WINDOW: one checkpoint-delimited slice (checkpoint_supersteps CA
//     supersteps) of one large job. The superstep hook records every tile
//     core into the job's fault::CheckpointStore, and — when preemption has
//     been requested — aborts the wave at the next superstep boundary. The
//     farm rolls the job back to its newest complete checkpoint and requeues
//     it; because the Jacobi update is memoryless given the grid, the
//     resumed job's final field is bit-identical to an uninterrupted solve
//     (same argument as fault::run_resilient).
//
// Large jobs (cost >= preempt_cost_threshold) always run alone in windows,
// so preempting one can never destroy a co-scheduled small job's work. A
// window restarts from a Grid2D snapshot (stencil::restart_from), which holds
// one plane, so a rank-3 job at or above the threshold is rejected as
// BadRequest.
// Fused-wavefront jobs (SolveRequest::fuse_depth > 1) also always dispatch
// alone — their wave's graph is rewritten wholesale by rt::fuse_supersteps
// before running, which must never touch a co-batched tenant's subgraph.
//
// Preemption triggers: an explicit preempt(job_id) call, a deadline job
// arriving from another tenant (preempt_on_deadline_submit), and
// shutdown(false). All of them only set a flag; the job yields at the next
// globally consistent superstep boundary, never mid-superstep.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "runtime/runtime.hpp"
#include "serve/admission.hpp"
#include "serve/fair_queue.hpp"
#include "serve/serve.hpp"

namespace repro::serve {

struct FarmConfig {
  /// Virtual process grid of the resident runtime. Every request is
  /// decomposed over this grid (requests pick tile sizes only).
  int node_rows = 1;
  int node_cols = 1;
  int workers_per_rank = 2;
  rt::SchedPolicy scheduler = rt::SchedPolicy::WorkStealing;
  std::uint64_t sched_seed = 0;
  /// Schedule-fuzzing instrumentation, forwarded to the runtime (tests).
  std::shared_ptr<rt::SchedTestHook> sched_test_hook{};
  bool dedicated_comm_thread = true;
  /// Route every job's halo traffic over persistent channels: the resident
  /// runtime builds each wave's channel via net::persistent_channel_factory
  /// and every compiled subgraph annotates its remote halo flows with route
  /// ids (negotiated once per wave, before the wave's first task runs).
  bool persistent = false;

  AdmissionConfig admission{};

  /// DRR quantum in cost units (point updates) credited per lane visit.
  long long quantum = 1 << 20;
  /// Max small jobs batched into one shared graph.
  int max_batch_jobs = 8;
  /// Jobs at or above this cost run alone, in preemptible checkpoint
  /// windows, instead of joining batches (rank-3 jobs must stay below it).
  long long preempt_cost_threshold = 1 << 22;
  /// Window length for large jobs, in CA supersteps (window iterations =
  /// checkpoint_supersteps * steps, clamped to the job's remainder).
  int checkpoint_supersteps = 2;
  /// A submit with deadline_s > 0 preempts a running large job of another
  /// tenant (the deadline job still waits for the superstep boundary).
  bool preempt_on_deadline_submit = true;

  /// Registry for the serve_* families; the resident runtime and its
  /// transport scrape rt_* / net_* here too. Null = private registry.
  std::shared_ptr<obs::MetricsRegistry> metrics{};
  /// Live telemetry over the resident runtime: when true (or when
  /// telemetry_dump is non-empty) the farm samples every rank's
  /// flight-recorder counters after each dispatched wave into a
  /// TelemetryCollector under source="serve" — the wave index plays the
  /// superstep role, so the straggler detector's lag unit is waves here.
  bool telemetry = false;
  /// Rewritten atomically after every wave for `repro_top --file=<path>`.
  std::string telemetry_dump;
  obs::DetectorConfig telemetry_detectors{};
  /// Optional caller-owned collector (aggregate across farms / inspect after
  /// shutdown). Null = the farm builds its own; read it via telemetry().
  std::shared_ptr<obs::TelemetryCollector> telemetry_collector{};
  /// Test hook: observes every checkpointed superstep of windowed jobs
  /// (called from worker threads; must be thread-safe). The seeded
  /// preemption tests use it to preempt at exact supersteps.
  std::function<void(std::uint64_t job_id, int superstep)>
      superstep_observer{};
};

/// Aggregates the farm keeps per tenant, for reports and tests.
struct TenantStats {
  std::string tenant;
  int lane = -1;
  std::uint64_t submitted = 0;
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t preemptions = 0;
  std::uint64_t windows = 0;
  std::uint64_t deadline_misses = 0;
  long long goodput_points = 0;  ///< nominal points of completed jobs
  /// Submit-to-completion latencies of completed jobs, seconds (capped at
  /// kMaxLatencySamples to bound soak-test memory; the cap drops newest).
  std::vector<double> latency_s;
};

class SolverFarm {
 public:
  static constexpr std::size_t kMaxLatencySamples = 16384;

  explicit SolverFarm(FarmConfig config);
  ~SolverFarm();  ///< shutdown(false) + join if still running

  SolverFarm(const SolverFarm&) = delete;
  SolverFarm& operator=(const SolverFarm&) = delete;

  struct Submission {
    std::uint64_t job_id = 0;
    RejectReason rejected = RejectReason::None;
    /// Valid iff accepted(); resolves when the job reaches a terminal state.
    std::future<SolveResponse> response;

    bool accepted() const { return rejected == RejectReason::None; }
  };

  /// Admit-or-reject `request`. Never blocks on solver work. Thread-safe.
  Submission submit(SolveRequest request);

  /// Ask job `job_id` to yield at its next superstep boundary. Returns false
  /// if the job is unknown or already finished. Only windowed (large) jobs
  /// checkpoint, so only they can actually yield; the flag is a no-op for
  /// batched jobs.
  bool preempt(std::uint64_t job_id);

  /// Stop admitting. drain=true lets queued jobs finish; drain=false
  /// preempts the running window (checkpointing its progress) and resolves
  /// every unfinished job as Cancelled. Non-blocking — wait on the futures
  /// (or destroy the farm) to observe completion. Idempotent; a later
  /// drain=false upgrade cancels what is still queued.
  void shutdown(bool drain);

  std::vector<TenantStats> tenant_stats() const;
  const std::shared_ptr<obs::MetricsRegistry>& metrics() const {
    return metrics_;
  }
  int nodes() const { return config_.node_rows * config_.node_cols; }
  const FarmConfig& config() const { return config_; }
  /// Null unless FarmConfig::telemetry (or telemetry_dump) was set. Set once
  /// at construction, so reading it is safe from any thread.
  const std::shared_ptr<obs::TelemetryCollector>& telemetry() const {
    return telemetry_;
  }

 private:
  struct Job;
  using JobPtr = std::shared_ptr<Job>;

  void dispatcher_loop();
  void run_batch(std::vector<JobPtr>& wave);
  void run_window(const JobPtr& job);
  void sample_telemetry();
  void fulfill(const JobPtr& job, SolveResponse&& response);
  void cancel(const JobPtr& job);
  RejectReason validate(const SolveRequest& request) const;
  int lane_for_locked(const std::string& tenant);
  std::shared_ptr<obs::Counter> tenant_counter(const std::string& name,
                                               const std::string& tenant,
                                               const std::string& help);

  FarmConfig config_;
  std::shared_ptr<obs::MetricsRegistry> metrics_;
  AdmissionController admission_;
  std::unique_ptr<rt::Runtime> runtime_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  FairQueue<JobPtr> queue_;
  std::map<std::string, int> lanes_;          // tenant -> dense lane index
  std::map<std::string, TenantStats> stats_;  // tenant -> aggregates
  std::map<std::uint64_t, JobPtr> jobs_;      // in-flight (queued or running)
  std::weak_ptr<Job> running_;
  std::uint64_t next_id_ = 1;
  bool stopping_ = false;
  bool drain_ = true;

  std::shared_ptr<obs::Gauge> queue_depth_;
  std::shared_ptr<obs::Counter> waves_batch_;
  std::shared_ptr<obs::Counter> waves_window_;
  std::shared_ptr<obs::TelemetryCollector> telemetry_;
  // Dispatcher-thread-only telemetry state: the resident runtime re-attaches
  // fresh counters every run (= every wave), so each raw rank_sample() covers
  // one wave; cumulative_ folds them into monotonic counters for the
  // collector. Seeded from a caller-owned collector so sharing one across
  // successive farms keeps counters and the wave odometer continuous.
  std::uint64_t wave_index_ = 0;
  std::vector<obs::TelemetrySnapshot> cumulative_;

  std::thread dispatcher_;
};

}  // namespace repro::serve
