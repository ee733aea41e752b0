#include "serve/solver_farm.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "fault/checkpoint.hpp"
#include "net/persistent_channel.hpp"
#include "runtime/graph_transform.hpp"
#include "stencil/dist_stencil.hpp"
#include "stencil/tile_map.hpp"
#include "support/timing.hpp"

namespace repro::serve {

namespace {

using stencil::Grid2D;

/// Thrown from the superstep hook to abort a window at a consistent state.
/// The runtime reports it like any task failure; the farm distinguishes
/// preemption from a genuine error by the job's preempt flag, not by message.
struct PreemptSignal : std::runtime_error {
  PreemptSignal() : std::runtime_error("serve: preempted at superstep") {}
};

stencil::DistConfig make_dist_config(const SolveRequest& req, int node_rows,
                                     int node_cols, std::uint32_t key_space,
                                     int lane, bool persistent) {
  stencil::DistConfig cfg;
  cfg.decomp = {req.mb, req.nb, node_rows, node_cols};
  cfg.steps = req.steps;
  cfg.fuse_depth = req.fuse_depth;
  cfg.kernel = req.kernel;
  cfg.key_space = key_space;
  cfg.lane = lane;
  cfg.persistent = persistent;
  // Per-job task priorities span 0..2; a bias of 3 lifts every task of a
  // deadline job above every task of a best-effort one.
  cfg.priority_bias = req.deadline_s > 0 ? 3 : 0;
  return cfg;
}

}  // namespace

/// One admitted solve, from submit to terminal state. The dispatcher thread
/// owns all mutation except `preempt`, which any thread may set.
struct SolverFarm::Job {
  std::uint64_t id = 0;
  SolveRequest req;
  int lane = 0;
  long long admitted_cost = 0;
  bool preemptible = false;
  double submit_time = 0.0;
  double first_dispatch = -1.0;
  /// Iterations of the original problem completed and checkpointed.
  int done = 0;
  /// The consistent field at iteration `done` (windowed jobs only).
  std::shared_ptr<Grid2D> snapshot;
  fault::CheckpointStore store;
  std::atomic<bool> preempt{false};
  int preemptions = 0;
  int windows = 0;
  double run_s = 0.0;
  std::promise<SolveResponse> promise;

  long long remaining_cost() const {
    return static_cast<long long>(req.problem.rows) * req.problem.cols *
           (req.problem.iterations - done);
  }
};

SolverFarm::SolverFarm(FarmConfig config)
    : config_(std::move(config)),
      metrics_(config_.metrics ? config_.metrics
                               : std::make_shared<obs::MetricsRegistry>()),
      admission_(config_.admission),
      queue_(config_.quantum) {
  if (config_.node_rows < 1 || config_.node_cols < 1 ||
      config_.workers_per_rank < 1 || config_.quantum < 1 ||
      config_.max_batch_jobs < 1 || config_.preempt_cost_threshold < 1 ||
      config_.checkpoint_supersteps < 1) {
    throw std::invalid_argument("SolverFarm: config values must be >= 1");
  }
  rt::Config rc;
  rc.nranks = nodes();
  rc.workers_per_rank = config_.workers_per_rank;
  rc.dedicated_comm_thread = config_.dedicated_comm_thread;
  rc.scheduler = config_.scheduler;
  rc.sched_seed = config_.sched_seed;
  rc.sched_test_hook = config_.sched_test_hook;
  rc.metrics = metrics_;
  if (config_.persistent) {
    // Each wave gets a fresh channel from this factory (Runtime::run builds
    // one per run), so route negotiation restarts cleanly per wave even
    // though the runtime itself is resident.
    rc.channel_factory = net::persistent_channel_factory({}, metrics_);
  }
  runtime_ = std::make_unique<rt::Runtime>(rc);
  if (config_.telemetry || !config_.telemetry_dump.empty()) {
    config_.telemetry = true;
    telemetry_ = config_.telemetry_collector
                     ? config_.telemetry_collector
                     : std::make_shared<obs::TelemetryCollector>(
                           nodes(), config_.telemetry_detectors, metrics_,
                           "serve");
    cumulative_.assign(static_cast<std::size_t>(nodes()),
                       obs::TelemetrySnapshot{});
    // Resume where a shared collector left off: counters stay monotonic and
    // the wave odometer keeps counting instead of restarting at 0 (which
    // would read as every rank regressing — a spurious straggler storm).
    for (const obs::TelemetrySnapshot& s : telemetry_->latest()) {
      if (s.rank < 0 || s.rank >= nodes()) continue;
      cumulative_[static_cast<std::size_t>(s.rank)] = s;
      wave_index_ = std::max(wave_index_, s.superstep + 1);
    }
  }

  queue_depth_ = metrics_->gauge("serve_queue_depth", {},
                                 "Jobs admitted and not yet terminal");
  waves_batch_ = metrics_->counter("serve_waves_total", {{"kind", "batch"}},
                                   "Dispatched waves, by kind");
  waves_window_ = metrics_->counter("serve_waves_total", {{"kind", "window"}},
                                    "Dispatched waves, by kind");
  dispatcher_ = std::thread([this] { dispatcher_loop(); });
}

SolverFarm::~SolverFarm() {
  bool already = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    already = stopping_;
  }
  if (!already) shutdown(false);
  if (dispatcher_.joinable()) dispatcher_.join();
}

RejectReason SolverFarm::validate(const SolveRequest& request) const {
  const stencil::Problem& p = request.problem;
  // The farm's own policy: a job must do work, and a windowed job restarts
  // each window through stencil::restart_from, whose Grid2D snapshot holds
  // one plane. So rank-3 jobs must stay below the windowing threshold.
  if (p.iterations < 1) return RejectReason::BadRequest;
  if (p.spec.rank == 3 &&
      request_cost(request) >= config_.preempt_cost_threshold) {
    return RejectReason::BadRequest;
  }
  // Everything else is the builder's own check, run on the config this job
  // would be built with.
  try {
    stencil::validate_solve(
        p, make_dist_config(request, config_.node_rows, config_.node_cols,
                            /*key_space=*/0, /*lane=*/-1,
                            config_.persistent));
  } catch (const std::exception&) {
    return RejectReason::BadRequest;
  }
  return RejectReason::None;
}

int SolverFarm::lane_for_locked(const std::string& tenant) {
  const auto it = lanes_.find(tenant);
  if (it != lanes_.end()) return it->second;
  const int lane = static_cast<int>(lanes_.size());
  lanes_.emplace(tenant, lane);
  stats_[tenant].tenant = tenant;
  stats_[tenant].lane = lane;
  return lane;
}

std::shared_ptr<obs::Counter> SolverFarm::tenant_counter(
    const std::string& name, const std::string& tenant,
    const std::string& help) {
  return metrics_->counter(name, {{"tenant", tenant}}, help);
}

SolverFarm::Submission SolverFarm::submit(SolveRequest request) {
  Submission out;
  const long long cost = request_cost(request);
  RejectReason reason = validate(request);
  if (reason == RejectReason::None) {
    reason = admission_.try_admit(request.tenant, cost);
  }
  if (reason != RejectReason::None) {
    std::string label;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      // Unknown tenants fold into one "other" row/series so a reject storm
      // from arbitrary tenant names cannot grow state without bound.
      label = lanes_.count(request.tenant) != 0 ? request.tenant : "other";
      TenantStats& s = stats_[label];
      if (s.tenant.empty()) s.tenant = label;
      ++s.submitted;
      ++s.rejected;
    }
    tenant_counter("serve_requests_total", label, "Requests submitted")->inc();
    metrics_
        ->counter("serve_rejected_total",
                  {{"tenant", label}, {"reason", reject_reason_name(reason)}},
                  "Requests rejected, by reason")
        ->inc();
    out.rejected = reason;
    return out;
  }

  auto job = std::make_shared<Job>();
  job->req = std::move(request);
  job->admitted_cost = cost;
  job->preemptible = cost >= config_.preempt_cost_threshold;
  job->submit_time = wall_time();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    job->id = next_id_++;
    job->lane = lane_for_locked(job->req.tenant);
    TenantStats& s = stats_[job->req.tenant];
    ++s.submitted;
    ++s.accepted;
    // Fused jobs always dispatch alone: rt::fuse_supersteps rewrites every
    // fusable chain of the wave's graph, which must not touch co-batched
    // tenants' subgraphs.
    queue_.push(job->lane, cost, job, /*solo=*/job->req.fuse_depth > 1);
    jobs_.emplace(job->id, job);
    queue_depth_->set(static_cast<double>(jobs_.size()));
    if (config_.preempt_on_deadline_submit && job->req.deadline_s > 0) {
      if (const JobPtr running = running_.lock();
          running && running->req.tenant != job->req.tenant) {
        running->preempt.store(true, std::memory_order_relaxed);
      }
    }
  }
  tenant_counter("serve_requests_total", job->req.tenant,
                 "Requests submitted")
      ->inc();
  out.job_id = job->id;
  out.response = job->promise.get_future();
  cv_.notify_one();
  return out;
}

bool SolverFarm::preempt(std::uint64_t job_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = jobs_.find(job_id);
  if (it == jobs_.end()) return false;
  it->second->preempt.store(true, std::memory_order_relaxed);
  return true;
}

void SolverFarm::shutdown(bool drain) {
  admission_.close();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
    if (!drain) {
      drain_ = false;
      if (const JobPtr running = running_.lock()) {
        running->preempt.store(true, std::memory_order_relaxed);
      }
    }
  }
  cv_.notify_all();
}

void SolverFarm::dispatcher_loop() {
  for (;;) {
    std::vector<JobPtr> wave;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (stopping_ && (!drain_ || queue_.empty())) break;
      wave = queue_.pop_wave(static_cast<std::size_t>(config_.max_batch_jobs),
                             config_.preempt_cost_threshold);
    }
    if (wave.empty()) continue;
    if (wave.size() == 1 && wave[0]->preemptible) {
      run_window(wave[0]);
    } else {
      run_batch(wave);
    }
  }
  // Cancel whatever is still queued (shutdown without drain, or jobs that
  // arrived after the drain decision).
  std::vector<JobPtr> leftovers;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    leftovers = queue_.drain_all();
  }
  for (const JobPtr& job : leftovers) cancel(job);
}

void SolverFarm::run_batch(std::vector<JobPtr>& wave) {
  rt::TaskGraph graph;
  std::vector<stencil::SolveSubgraph> subgraphs;
  subgraphs.reserve(wave.size());
  const double start = wall_time();
  for (const JobPtr& job : wave) {
    if (job->first_dispatch < 0) job->first_dispatch = start;
  }
  std::string error;
  try {
    for (std::size_t i = 0; i < wave.size(); ++i) {
      subgraphs.push_back(stencil::add_solve_subgraph(
          graph, wave[i]->req.problem,
          make_dist_config(wave[i]->req, config_.node_rows, config_.node_cols,
                           static_cast<std::uint32_t>(i), wave[i]->lane,
                           config_.persistent)));
    }
    // Fused jobs arrive solo (the queue never co-batches them), so a
    // single-subgraph wave is the only shape the rewrite ever sees here.
    if (subgraphs.size() == 1) {
      if (const int window = subgraphs[0].fuse_window(); window > 1) {
        rt::fuse_supersteps(graph, window);
      }
    }
    waves_batch_->inc();
    runtime_->run(graph);
  } catch (const std::exception& e) {
    error = e.what();
  }
  const double elapsed = wall_time() - start;
  for (std::size_t i = 0; i < wave.size(); ++i) {
    const JobPtr& job = wave[i];
    job->run_s += elapsed;
    SolveResponse response;
    if (error.empty()) {
      response.status = JobStatus::Completed;
      response.grid = subgraphs[i].gather(*runtime_);
      response.iterations_done = job->req.problem.iterations;
    } else {
      response.status = JobStatus::Failed;
      response.error = error;
    }
    fulfill(job, std::move(response));
  }
  runtime_->release_run();
  sample_telemetry();
}

// One telemetry sample per dispatched wave: every rank of the resident
// runtime is scraped into the collector with the wave index standing in for
// the superstep, so repro_top's "superstep" column reads as waves served and
// the straggler detector flags a rank whose counters stop advancing across
// waves. Dispatcher thread only (wave_index_ is unsynchronized).
void SolverFarm::sample_telemetry() {
  if (!telemetry_) return;
  const std::uint64_t wave = wave_index_++;
  for (int rank = 0; rank < nodes(); ++rank) {
    const obs::TelemetrySnapshot raw = runtime_->rank_sample(rank);
    obs::TelemetrySnapshot& cum = cumulative_[static_cast<std::size_t>(rank)];
    // A raw sample covers only the wave that just finished (fresh counter
    // handles per run); fold it in so the collector sees monotonic series.
    cum.rank = rank;
    cum.superstep = wave;
    cum.tasks_executed += raw.tasks_executed;
    cum.sent_messages += raw.sent_messages;
    cum.sent_bytes += raw.sent_bytes;
    cum.steals += raw.steals;
    cum.idle_halo_s += raw.idle_halo_s;
    cum.idle_noready_s += raw.idle_noready_s;
    cum.idle_steal_s += raw.idle_steal_s;
    cum.queue_depth = raw.queue_depth;
    cum.t_s = raw.t_s;
    telemetry_->ingest(cum);
  }
  if (!config_.telemetry_dump.empty()) {
    telemetry_->write_dump(config_.telemetry_dump);
  }
}

void SolverFarm::run_window(const JobPtr& job) {
  const stencil::Problem& p = job->req.problem;
  const int steps = std::max(1, job->req.steps);
  const stencil::TileMap map(p.rows, p.cols, job->req.mb, job->req.nb,
                             config_.node_rows, config_.node_cols);
  const auto total_tiles =
      static_cast<std::size_t>(map.tiles_r()) * map.tiles_c();

  if (!job->snapshot) {
    job->snapshot = std::make_shared<Grid2D>(p.rows, p.cols);
    job->snapshot->fill(p.initial, p.boundary);
  }
  const int base = job->done;
  const int iters =
      std::min(config_.checkpoint_supersteps * steps, p.iterations - base);

  stencil::DistConfig cfg = make_dist_config(
      job->req, config_.node_rows, config_.node_cols, 0, job->lane,
      config_.persistent);
  const auto observer = config_.superstep_observer;
  const JobPtr hook_job = job;
  cfg.superstep_hook = [hook_job, base, observer](
                           int k, int ti, int tj,
                           const std::vector<double>& core) {
    hook_job->store.store(base + k, ti, tj, core);
    if (observer) observer(hook_job->id, base + k);
    // Yield only at a boundary with progress (k == 0 re-records the window
    // start — aborting there would spin without advancing).
    if (k > 0 && hook_job->preempt.load(std::memory_order_relaxed)) {
      throw PreemptSignal();
    }
  };

  {
    std::lock_guard<std::mutex> lock(mutex_);
    running_ = job;
  }
  if (job->first_dispatch < 0) job->first_dispatch = wall_time();
  ++job->windows;
  waves_window_->inc();

  rt::TaskGraph graph;
  std::string error;
  bool ok = true;
  const double start = wall_time();
  try {
    const stencil::SolveSubgraph subgraph = stencil::add_solve_subgraph(
        graph, stencil::restart_from(p, job->snapshot, iters), cfg);
    if (const int window = subgraph.fuse_window(); window > 1) {
      rt::fuse_supersteps(graph, window);
    }
    runtime_->run(graph);
    job->run_s += wall_time() - start;
    Grid2D result = subgraph.gather(*runtime_);
    runtime_->release_run();
    sample_telemetry();
    job->done = base + iters;
    job->store.trim_below(job->done);
    if (job->done >= p.iterations) {
      {
        std::lock_guard<std::mutex> lock(mutex_);
        running_.reset();
      }
      SolveResponse response;
      response.status = JobStatus::Completed;
      response.grid = std::move(result);
      response.iterations_done = job->done;
      fulfill(job, std::move(response));
      return;
    }
    job->snapshot = std::make_shared<Grid2D>(std::move(result));
  } catch (const std::exception& e) {
    ok = false;
    error = e.what();
    job->run_s += wall_time() - start;
    runtime_->release_run();
    sample_telemetry();
  }

  {
    std::lock_guard<std::mutex> lock(mutex_);
    running_.reset();
  }

  if (!ok) {
    if (job->preempt.exchange(false, std::memory_order_relaxed)) {
      // Preempted: roll back to the newest complete superstep (possibly
      // ahead of the window start) and requeue at the lane front.
      ++job->preemptions;
      const int resume = job->store.last_complete_superstep(total_tiles);
      if (resume > job->done) {
        job->snapshot = std::make_shared<Grid2D>(
            fault::assemble_checkpoint(job->store, resume, map, p.boundary));
        job->done = resume;
      }
      job->store.trim_below(job->done);
      tenant_counter("serve_preemptions_total", job->req.tenant,
                     "Superstep-boundary preemptions")
          ->inc();
    } else {
      SolveResponse response;
      response.status = JobStatus::Failed;
      response.error = error;
      response.iterations_done = job->done;
      fulfill(job, std::move(response));
      return;
    }
  }

  // Window done (or rolled back): requeue the remainder. push_front keeps
  // the job ahead of lane-mates so its checkpoints stay warm; DRR still
  // gives other lanes their quantum first.
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_front(job->lane, job->remaining_cost(), job,
                      /*solo=*/job->req.fuse_depth > 1);
  }
  cv_.notify_one();
}

void SolverFarm::cancel(const JobPtr& job) {
  SolveResponse response;
  response.status = JobStatus::Cancelled;
  response.iterations_done = job->done;
  if (job->snapshot && job->done > 0) {
    // Hand back the checkpointed progress so a client (or a future farm)
    // can resume from iteration `done`. No window runs any more, so nothing
    // else reads the snapshot.
    response.grid = std::move(*job->snapshot);
  }
  fulfill(job, std::move(response));
}

void SolverFarm::fulfill(const JobPtr& job, SolveResponse&& response) {
  response.job_id = job->id;
  response.tenant = job->req.tenant;
  response.preemptions = job->preemptions;
  response.windows = job->windows;
  response.run_s = job->run_s;
  const double now = wall_time();
  const double latency = now - job->submit_time;
  response.wait_s = job->first_dispatch >= 0
                        ? job->first_dispatch - job->submit_time
                        : latency;
  response.deadline_met =
      job->req.deadline_s <= 0 || latency <= job->req.deadline_s;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    TenantStats& s = stats_[job->req.tenant];
    switch (response.status) {
      case JobStatus::Completed:
        ++s.completed;
        s.goodput_points += job->admitted_cost;
        if (s.latency_s.size() < kMaxLatencySamples) {
          s.latency_s.push_back(latency);
        }
        break;
      case JobStatus::Failed:
        ++s.failed;
        break;
      case JobStatus::Cancelled:
        ++s.cancelled;
        break;
    }
    s.preemptions += static_cast<std::uint64_t>(job->preemptions);
    s.windows += static_cast<std::uint64_t>(job->windows);
    if (!response.deadline_met) ++s.deadline_misses;
    jobs_.erase(job->id);
    queue_depth_->set(static_cast<double>(jobs_.size()));
  }
  metrics_
      ->counter("serve_jobs_total",
                {{"tenant", job->req.tenant},
                 {"status", job_status_name(response.status)}},
                "Jobs reaching a terminal state, by status")
      ->inc();
  if (response.status == JobStatus::Completed) {
    tenant_counter("serve_goodput_points_total", job->req.tenant,
                   "Nominal point updates of completed jobs")
        ->add(static_cast<std::uint64_t>(job->admitted_cost));
    metrics_
        ->histogram("serve_latency_seconds", obs::duration_seconds_bounds(),
                    {{"tenant", job->req.tenant}},
                    "Submit-to-completion latency")
        ->observe(latency);
  }
  admission_.release(job->req.tenant, job->admitted_cost);
  job->promise.set_value(std::move(response));
}

std::vector<TenantStats> SolverFarm::tenant_stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<TenantStats> out;
  out.reserve(stats_.size());
  for (const auto& [tenant, s] : stats_) out.push_back(s);
  return out;
}

}  // namespace repro::serve
