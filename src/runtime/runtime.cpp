#include "runtime/runtime.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>

#include "net/persistent_channel.hpp"
#include "support/timing.hpp"

namespace repro::rt {

namespace {
constexpr std::uint64_t kWireSingle = 0;
constexpr std::uint64_t kWireMulti = 1;
// Telemetry snapshot: [2], payload = obs::encode_telemetry doubles. Routed
// to Config::telemetry_sink instead of the dataflow machinery.
constexpr std::uint64_t kWireTelemetry = 2;

// Flight-recorder throttle: a worker records at most one sample per this
// many seconds of wall time (keeps the ring coarse and the overhead in the
// sub-percent range even on microsecond tasks).
constexpr double kFlightSampleInterval = 1e-3;

// Which worker thread (of which rank) is running, so enqueue_ready can push
// a newly-ready task onto the enqueuing worker's own deque under the
// work-stealing scheduler. -1 outside worker threads.
thread_local int tl_rank = -1;
thread_local int tl_worker = -1;
}  // namespace

// ---------------------------------------------------------------- context --

/// The runtime-backed TaskContext: resolves inputs from live TaskState and
/// routes publishes into the dataflow machinery. Bodies wrapped by graph
/// transformations see shim contexts instead (graph_transform.cpp), which
/// ultimately delegate to one of these.
class RuntimeTaskContext final : public TaskContext {
 public:
  RuntimeTaskContext(Runtime& runtime, std::size_t task_index, int rank,
                     int worker)
      : runtime_(runtime), task_index_(task_index), rank_(rank),
        worker_(worker) {}

  const TaskSpec& spec() const override {
    return runtime_.graph_->spec(task_index_);
  }
  int rank() const override { return rank_; }
  int worker() const override { return worker_; }

  Buffer input_buffer(std::size_t i) const override {
    if (i >= num_inputs()) {
      throw std::out_of_range("TaskContext: input index " + std::to_string(i) +
                              " out of range for " + key().to_string());
    }
    const Buffer& buf =
        runtime_.inputs_[runtime_.input_base_[task_index_] + i].buffer;
    if (!buf) {
      throw std::logic_error("TaskContext: input " + std::to_string(i) +
                             " of " + key().to_string() + " not delivered");
    }
    return buf;
  }

  std::size_t num_inputs() const override {
    return runtime_.input_base_[task_index_ + 1] -
           runtime_.input_base_[task_index_];
  }

  using TaskContext::publish;
  void publish(std::uint16_t slot, Buffer buffer) override {
    if (!buffer) throw std::invalid_argument("publish: null buffer");
    runtime_.publish_output(task_index_, slot, std::move(buffer));
  }

  std::shared_ptr<std::vector<double>> acquire_route_buffer(
      std::uint16_t slot) override {
    if (runtime_.pchan_ == nullptr) return nullptr;
    for (const auto& edge : runtime_.graph_->consumers(task_index_)) {
      if (edge.slot == slot && edge.route != 0 &&
          runtime_.pchan_->route_spec(edge.route) != nullptr) {
        return runtime_.pchan_->acquire(edge.route);
      }
    }
    return nullptr;
  }

  void publish_fragments(
      std::uint16_t slot, std::shared_ptr<std::vector<double>> data) override {
    if (!data) throw std::invalid_argument("publish_fragments: null buffer");
    runtime_.publish_eager(task_index_, slot, std::move(data));
  }

 private:
  Runtime& runtime_;
  std::size_t task_index_;
  int rank_;
  int worker_;
};

// ----------------------------------------------------------------- outbox --

void Runtime::Outbox::push(net::Message msg) {
  {
    std::lock_guard lock(mutex_);
    if (closed_) return;  // shutdown already started; message is moot
    queue_.push_back(std::move(msg));
  }
  cv_.notify_one();
}

std::optional<net::Message> Runtime::Outbox::pop_blocking() {
  std::unique_lock lock(mutex_);
  cv_.wait(lock, [&] { return !queue_.empty() || closed_; });
  if (queue_.empty()) return std::nullopt;
  net::Message msg = std::move(queue_.front());
  queue_.pop_front();
  return msg;
}

void Runtime::Outbox::close() {
  {
    std::lock_guard lock(mutex_);
    closed_ = true;
  }
  cv_.notify_all();
}

// ---------------------------------------------------------------- runtime --

Runtime::Runtime(Config config)
    : config_(config),
      tracer_(config.trace),
      metrics_(config.metrics ? config.metrics
                              : std::make_shared<obs::MetricsRegistry>()),
      flight_(static_cast<std::size_t>(
          std::max(1, config.nranks) *
          std::max(1, config.workers_per_rank))),
      superstep_(static_cast<std::size_t>(std::max(1, config.nranks))) {
  if (config_.nranks < 1 || config_.workers_per_rank < 1) {
    throw std::invalid_argument("Runtime: need >=1 rank and >=1 worker");
  }
}

void Runtime::setup_metrics() {
  // Fresh handles per run, attached with replace semantics: a scrape always
  // reads the latest run, and stale series never accumulate across runs.
  const int W = config_.workers_per_rank;
  worker_tasks_.assign(static_cast<std::size_t>(config_.nranks * W), nullptr);
  tasks_enqueued_.assign(static_cast<std::size_t>(config_.nranks), nullptr);
  comm_busy_.assign(static_cast<std::size_t>(config_.nranks), nullptr);
  idle_gauges_.assign(static_cast<std::size_t>(config_.nranks * 3), nullptr);
  depth_gauges_.assign(static_cast<std::size_t>(config_.nranks), nullptr);
  steal_counters_.assign(static_cast<std::size_t>(config_.nranks), nullptr);
  sent_messages_.assign(static_cast<std::size_t>(config_.nranks), nullptr);
  sent_bytes_.assign(static_cast<std::size_t>(config_.nranks), nullptr);
  for (int r = 0; r < config_.nranks; ++r) {
    const std::string rank = std::to_string(r);
    for (int w = 0; w < W; ++w) {
      auto counter = std::make_shared<obs::Counter>();
      metrics_->attach("rt_tasks_executed_total",
                       {{"rank", rank}, {"worker", std::to_string(w)}},
                       counter, "Tasks executed, per worker thread");
      worker_tasks_[static_cast<std::size_t>(r * W + w)] = std::move(counter);
    }
    auto enqueued = std::make_shared<obs::Counter>();
    metrics_->attach("rt_tasks_enqueued_total", {{"rank", rank}}, enqueued,
                     "Tasks that became ready on this rank");
    tasks_enqueued_[static_cast<std::size_t>(r)] = std::move(enqueued);

    auto depth = std::make_shared<obs::Gauge>();
    metrics_->attach("rt_ready_queue_depth", {{"rank", rank}}, depth,
                     "Tasks currently ready but not yet picked up");
    depth_gauges_[static_cast<std::size_t>(r)] = depth;
    queues_[static_cast<std::size_t>(r)]->set_depth_gauge(std::move(depth));

    // Steal accounting is attached for every policy so scrapes and the
    // RunReport schema see a stable family set; non-stealing schedulers
    // simply leave both at zero.
    auto steals = std::make_shared<obs::Counter>();
    metrics_->attach("rt_steals_total", {{"rank", rank}}, steals,
                     "Ready tasks taken from another worker's deque");
    steal_counters_[static_cast<std::size_t>(r)] = steals;
    auto failed = std::make_shared<obs::Counter>();
    metrics_->attach("rt_failed_steals_total", {{"rank", rank}}, failed,
                     "Steal attempts that found the victim's deque empty");
    queues_[static_cast<std::size_t>(r)]->set_steal_counters(
        std::move(steals), std::move(failed));

    auto busy = std::make_shared<obs::Gauge>();
    metrics_->attach("rt_comm_busy_seconds_total", {{"rank", rank}}, busy,
                     "Seconds the comm threads spent sending or delivering "
                     "(busy fraction = value / wall time)");
    comm_busy_[static_cast<std::size_t>(r)] = std::move(busy);

    // Always-on idle taxonomy (the tracing path reuses the same clock reads;
    // see worker_loop). Class order: halo, noready, steal.
    static constexpr const char* kIdleClasses[3] = {"halo", "noready",
                                                    "steal"};
    for (int c = 0; c < 3; ++c) {
      auto idle = std::make_shared<obs::Gauge>();
      metrics_->attach("rt_idle_seconds_total",
                       {{"rank", rank}, {"class", kIdleClasses[c]}}, idle,
                       "Worker idle seconds by what ended the gap");
      idle_gauges_[static_cast<std::size_t>(r * 3 + c)] = std::move(idle);
    }

    auto sent_msgs = std::make_shared<obs::Counter>();
    metrics_->attach("rt_sent_messages_total", {{"rank", rank}}, sent_msgs,
                     "Messages this rank posted to the wire");
    sent_messages_[static_cast<std::size_t>(r)] = std::move(sent_msgs);
    auto sent_b = std::make_shared<obs::Counter>();
    metrics_->attach("rt_sent_bytes_total", {{"rank", rank}}, sent_b,
                     "Wire bytes this rank posted (tag + header + payload)");
    sent_bytes_[static_cast<std::size_t>(r)] = std::move(sent_b);
  }

  // Lane accounting: one counter per distinct TaskSpec::lane in this graph.
  // Series for lanes the previous run had but this graph lacks are retired,
  // so a resident runtime's registry tracks exactly the current tenant set.
  std::map<int, std::shared_ptr<obs::Counter>> lanes;
  for (std::size_t i = 0; i < graph_->size(); ++i) {
    const int lane = graph_->spec(i).lane;
    if (lane < 0 || lanes.count(lane) != 0) continue;
    auto counter = std::make_shared<obs::Counter>();
    metrics_->attach("rt_lane_tasks_executed_total",
                     {{"lane", std::to_string(lane)}}, counter,
                     "Tasks executed, per accounting lane (serve tenants)");
    lanes.emplace(lane, std::move(counter));
  }
  for (const auto& [lane, counter] : lane_tasks_) {
    if (lanes.count(lane) == 0) {
      metrics_->remove("rt_lane_tasks_executed_total",
                       {{"lane", std::to_string(lane)}});
    }
  }
  lane_tasks_ = std::move(lanes);
}

Runtime::~Runtime() = default;

void Runtime::release_run() {
  graph_ = nullptr;
  states_.clear();
  states_.shrink_to_fit();
  input_base_.clear();
  input_base_.shrink_to_fit();
  inputs_.reset();
  remaining_.reset();
  queues_.clear();
  outboxes_.clear();
  pchan_ = nullptr;
  channel_.reset();
  tracer_.clear();
}

RunStats Runtime::run(TaskGraph& graph) {
  if (!graph.sealed()) graph.seal(config_.nranks);
  if (graph.max_rank() >= config_.nranks) {
    throw std::invalid_argument(
        "Runtime: graph has a task on rank " +
        std::to_string(graph.max_rank()) + " but the runtime has nranks " +
        std::to_string(config_.nranks));
  }
  graph_ = &graph;

  // Flat task state: one allocation per array, not one per task.
  const std::size_t n = graph.size();
  states_ = std::vector<TaskState>(n);
  input_base_.resize(n + 1);
  remaining_ = std::make_unique<std::atomic<int>[]>(n);
  std::size_t inputs = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t count = graph.spec(i).inputs.size();
    input_base_[i] = inputs;
    remaining_[i].store(static_cast<int>(count), std::memory_order_relaxed);
    inputs += count;
  }
  input_base_[n] = inputs;
  inputs_ = std::make_unique<InputSlot[]>(inputs);

  queues_.clear();
  outboxes_.clear();
  for (int r = 0; r < config_.nranks; ++r) {
    queues_.push_back(make_scheduler(config_.scheduler, r,
                                     config_.workers_per_rank,
                                     config_.sched_seed,
                                     config_.sched_test_hook, &tracer_));
    outboxes_.push_back(std::make_unique<Outbox>());
  }
  setup_metrics();
  channel_ = config_.channel_factory
                 ? config_.channel_factory(config_.nranks)
                 : std::make_shared<net::Transport>(config_.nranks, metrics_);
  if (!channel_ || channel_->nranks() != config_.nranks) {
    throw std::invalid_argument("Runtime: channel factory returned a channel "
                                "with the wrong rank count");
  }
  // Route negotiation happens here — after the channel exists, before any
  // thread spawns — so the handshake is single-threaded and every receiver
  // observes OPEN before the first fragment (per-channel FIFO).
  pchan_ = dynamic_cast<net::PersistentChannel*>(channel_.get());
  if (pchan_ != nullptr) negotiate_routes(graph);

  seq_.store(0);
  next_flow_.store(1);
  for (auto& step : superstep_) step.store(0, std::memory_order_relaxed);
  remaining_tasks_.store(n);
  executed_tasks_.store(0);
  done_ = n == 0;
  aborted_.store(false);
  error_.clear();
  tracer_.clear();

  const Timer timer;

  for (std::size_t i = 0; i < n; ++i) {
    if (graph.spec(i).inputs.empty()) enqueue_ready(i);
  }

  std::vector<std::thread> receivers;
  std::vector<std::thread> senders;
  std::vector<std::thread> workers;
  for (int r = 0; r < config_.nranks; ++r) {
    receivers.emplace_back([this, r] { receiver_loop(r); });
    if (config_.dedicated_comm_thread) {
      senders.emplace_back([this, r] { sender_loop(r); });
    }
    for (int w = 0; w < config_.workers_per_rank; ++w) {
      workers.emplace_back([this, r, w] { worker_loop(r, w); });
    }
  }

  {
    std::unique_lock lock(done_mutex_);
    done_cv_.wait(lock, [&] { return done_ || aborted_.load(); });
  }

  // Orderly shutdown: compute first, then sends, then the transport.
  for (auto& queue : queues_) queue->stop();
  for (auto& thread : workers) thread.join();
  for (auto& outbox : outboxes_) outbox->close();
  for (auto& thread : senders) thread.join();
  channel_->close();
  for (auto& thread : receivers) thread.join();

  // All recording threads have joined: splice the per-thread trace buffers
  // into one timestamp-ordered stream.
  tracer_.merge();

  if (aborted_.load()) {
    std::lock_guard lock(error_mutex_);
    throw std::runtime_error("Runtime: " + error_);
  }

  RunStats stats;
  stats.wall_time_s = timer.elapsed();
  stats.tasks_executed = executed_tasks_.load();
  const auto traffic = channel_->stats();
  stats.messages = traffic.messages;
  stats.bytes = traffic.bytes;
  stats.message_sizes = traffic.sizes;
  return stats;
}

Buffer Runtime::result(const TaskKey& key, std::uint16_t slot) const {
  if (graph_ == nullptr) throw std::logic_error("Runtime: no graph run yet");
  const std::size_t index = graph_->index_of(key);
  for (const auto& [s, buf] : states_[index].outputs) {
    if (s == slot) return buf;
  }
  throw std::out_of_range("Runtime: no retained output " +
                          std::to_string(slot) + " on " + key.to_string());
}

void Runtime::worker_loop(int rank, int worker) {
  tl_rank = rank;
  tl_worker = worker;
  const SchedTestHook* hook = config_.sched_test_hook.get();
  auto& queue = *queues_[static_cast<std::size_t>(rank)];
  const bool tracing = tracer_.enabled();

  // Always-on idle taxonomy + flight recorder (compiled out entirely under
  // REPRO_OBS_DISABLE: no clock reads, no sample state). The taxonomy
  // classifies every pop gap by what ended it — the entry that arrived
  // (halo-released / stolen / plain ready) or the shutdown signal. That is
  // the paper's idle story: "waiting on halo" vs "no ready task" is exactly
  // the base-vs-CA causal difference. The tracing path reuses the same two
  // clock reads, so enabling tracing adds no extra clock cost here.
  const std::size_t lane =
      static_cast<std::size_t>(rank * config_.workers_per_rank + worker);
  obs::FlightSample acc;  // cumulative per-worker sample being built
  double last_flight = 0.0;
  const auto flight_tick = [&](double now, bool force) {
    if constexpr (obs::kEnabled) {
      if (!force && now - last_flight < kFlightSampleInterval) return;
      last_flight = now;
      acc.t_s = now;
      acc.superstep = superstep_[static_cast<std::size_t>(rank)].load(
          std::memory_order_relaxed);
      acc.wire_bytes = sent_bytes_[static_cast<std::size_t>(rank)]->value();
      acc.queue_depth = static_cast<std::uint64_t>(
          depth_gauges_[static_cast<std::size_t>(rank)]->value());
      flight_.record(lane, acc);
    }
  };

  for (;;) {
    const double gap_begin = (tracing || obs::kEnabled) ? wall_time() : 0.0;
    auto entry = queue.pop_blocking(worker);
    double gap_end = 0.0;
    if constexpr (obs::kEnabled) {
      gap_end = wall_time();
      const double gap = gap_end - gap_begin;
      // Class index matches setup_metrics' kIdleClasses order.
      if (entry) {
        if (entry->stolen) {
          acc.idle_steal_s += gap;
          ++acc.steals;
          idle_gauges_[static_cast<std::size_t>(rank * 3 + 2)]->add(gap);
        } else if (entry->halo) {
          acc.idle_halo_s += gap;
          idle_gauges_[static_cast<std::size_t>(rank * 3 + 0)]->add(gap);
        } else {
          acc.idle_noready_s += gap;
          idle_gauges_[static_cast<std::size_t>(rank * 3 + 1)]->add(gap);
        }
      }
      flight_tick(gap_end, /*force=*/!entry);
    }
    if (tracing) {
      TraceEvent event;
      event.kind = TraceEventKind::Idle;
      event.klass = !entry             ? "idle-shutdown"
                    : entry->stolen    ? "idle-steal"
                    : entry->halo      ? "idle-halo"
                                       : "idle-noready";
      event.rank = rank;
      event.worker = worker;
      event.begin_s = gap_begin;
      event.end_s = obs::kEnabled ? gap_end : wall_time();
      tracer_.record(std::move(event));
    }
    if (!entry) break;
    // The hook fires under every policy, so even PriorityFifo schedules can
    // be perturbed by the fuzz harness.
    if (hook != nullptr && hook->before_execute) {
      hook->before_execute(rank, worker, entry->seq);
    }
    execute_task(entry->task, rank, worker);
    if constexpr (obs::kEnabled) ++acc.tasks_executed;
  }
  tl_rank = -1;
  tl_worker = -1;
}

void Runtime::sender_loop(int rank) {
  auto& outbox = *outboxes_[static_cast<std::size_t>(rank)];
  obs::Gauge& busy = *comm_busy_[static_cast<std::size_t>(rank)];
  while (auto msg = outbox.pop_blocking()) {
    try {
      // Busy time is the send itself; blocking in pop_blocking is idle.
      obs::ScopedTimer timer(busy);
      channel_send(rank, std::move(*msg));
    } catch (const std::exception& e) {
      fail(std::string("sender: ") + e.what());
      return;
    }
  }
}

void Runtime::channel_send(int src_rank, net::Message msg) {
  if (!tracer_.enabled()) {
    channel_->send(std::move(msg));
    return;
  }
  TraceEvent event;
  event.kind = TraceEventKind::Send;
  event.klass = "send";
  event.rank = src_rank;
  event.worker = kTraceLaneSend;
  event.peer = msg.dst;
  event.flow = msg.trace.flow;
  event.bytes = msg.bytes();
  event.queued_s = msg.trace.queued_s;
  msg.trace.wire_s = wall_time();
  event.wire_s = msg.trace.wire_s;
  event.begin_s = event.wire_s;
  channel_->send(std::move(msg));
  event.end_s = wall_time();
  tracer_.record(std::move(event));
}

void Runtime::receiver_loop(int rank) {
  // Message wire format, self-describing via header[0]:
  //   kWireSingle: [0, type, a, b, c, input_pos], payload = the flow data
  //   kWireMulti:  [1, n, then n x (type, a, b, c, input_pos, len)],
  //                payload = the n flow payloads concatenated
  // recv() itself may throw (net::ChannelError when a reliability layer has
  // exhausted its retries), so the whole loop sits inside the try: a failed
  // channel aborts the run instead of terminating the process.
  obs::Gauge& busy = *comm_busy_[static_cast<std::size_t>(rank)];
  const bool tracing = tracer_.enabled();
  // One Recv span per delivered flow section, on the rank's rx lane: key =
  // the consuming task, deps = {producing task}, flow/queued/wire/attempt
  // copied from the message's trace metadata. These are the edges the
  // critical-path analysis walks when a binding predecessor is remote.
  const auto record_recv = [&](const net::Message& msg, std::size_t index,
                               std::uint16_t input_pos, std::uint64_t bytes,
                               double begin) {
    TraceEvent event;
    event.kind = TraceEventKind::Recv;
    event.klass = "recv";
    const TaskSpec& consumer = graph_->spec(index);
    event.key = consumer.key;
    if (input_pos < consumer.inputs.size()) {
      event.deps.push_back(consumer.inputs[input_pos].producer);
    }
    event.rank = rank;
    event.worker = kTraceLaneRecv;
    event.peer = msg.src;
    event.flow = msg.trace.flow;
    event.bytes = bytes;
    event.queued_s = msg.trace.queued_s;
    event.wire_s = msg.trace.wire_s;
    event.retransmits = msg.trace.attempt > 0 ? msg.trace.attempt - 1 : 0;
    event.begin_s = begin;
    event.end_s = wall_time();
    tracer_.record(std::move(event));
  };
  try {
    while (auto msg = channel_->recv(rank)) {
      // Busy time is decode + delivery; blocking in recv is idle.
      obs::ScopedTimer timer(busy);
      const double recv_begin = tracing ? wall_time() : 0.0;
      if (msg->header.empty()) throw std::runtime_error("empty header");
      if (msg->header[0] == kWireTelemetry) {
        // Progress snapshot, not dataflow: hand the payload to the sink (the
        // collector's ingest) and move on. No sink = run without telemetry.
        if (msg->header.size() != 1) {
          throw std::runtime_error("malformed telemetry header");
        }
        if (config_.telemetry_sink) {
          config_.telemetry_sink(msg->src, msg->payload);
        }
        continue;
      }
      if (msg->header[0] == kWireSingle) {
        if (msg->header.size() != 6) {
          throw std::runtime_error("malformed single-flow header");
        }
        TaskKey key;
        key.type = static_cast<std::uint32_t>(msg->header[1]);
        key.a = static_cast<std::int32_t>(msg->header[2]);
        key.b = static_cast<std::int32_t>(msg->header[3]);
        key.c = static_cast<std::int32_t>(msg->header[4]);
        const auto input_pos = static_cast<std::uint16_t>(msg->header[5]);
        const std::size_t index = graph_->index_of(key);
        const std::uint64_t bytes = msg->bytes();
        Buffer delivered;
        if (msg->shared_payload() && msg->view_offset == 0 &&
            msg->owner->size() == msg->view_len) {
          // Persistent-route delivery: the payload IS the producer's
          // registered buffer — share it instead of copying.
          delivered = std::move(msg->owner);
        } else if (msg->shared_payload()) {
          delivered = make_buffer(std::vector<double>(
              msg->payload_data(), msg->payload_data() + msg->payload_len()));
        } else {
          delivered = make_buffer(std::move(msg->payload));
        }
        deliver_input(index, input_pos, std::move(delivered),
                      /*remote=*/true);
        if (tracing) record_recv(*msg, index, input_pos, bytes, recv_begin);
      } else if (msg->header[0] == kWireMulti) {
        const auto sections = static_cast<std::size_t>(msg->header[1]);
        if (msg->header.size() != 2 + 6 * sections) {
          throw std::runtime_error("malformed multi-flow header");
        }
        std::size_t offset = 0;
        for (std::size_t s = 0; s < sections; ++s) {
          const std::uint64_t* h = msg->header.data() + 2 + 6 * s;
          TaskKey key;
          key.type = static_cast<std::uint32_t>(h[0]);
          key.a = static_cast<std::int32_t>(h[1]);
          key.b = static_cast<std::int32_t>(h[2]);
          key.c = static_cast<std::int32_t>(h[3]);
          const auto input_pos = static_cast<std::uint16_t>(h[4]);
          const auto len = static_cast<std::size_t>(h[5]);
          if (offset + len > msg->payload.size()) {
            throw std::runtime_error("multi-flow payload overrun");
          }
          std::vector<double> section(
              msg->payload.begin() + static_cast<std::ptrdiff_t>(offset),
              msg->payload.begin() + static_cast<std::ptrdiff_t>(offset + len));
          offset += len;
          const std::size_t index = graph_->index_of(key);
          deliver_input(index, input_pos, make_buffer(std::move(section)),
                        /*remote=*/true);
          if (tracing) {
            record_recv(*msg, index, input_pos, len * sizeof(double),
                        recv_begin);
          }
        }
      } else {
        throw std::runtime_error("unknown wire format");
      }
    }
  } catch (const std::exception& e) {
    fail(std::string("receiver: ") + e.what());
  }
}

void Runtime::execute_task(std::size_t index, int rank, int worker) {
  if (aborted_.load(std::memory_order_relaxed)) return;
  const TaskSpec& spec = graph_->spec(index);

  TraceEvent event;
  if (tracer_.enabled()) {
    event.key = spec.key;
    event.klass = spec.klass;
    event.rank = rank;
    event.worker = worker;
    // Predecessor keys straight from the spec's input flows: the executed
    // DAG is reconstructible from the event stream alone.
    event.deps.reserve(spec.inputs.size());
    for (const auto& input : spec.inputs) event.deps.push_back(input.producer);
    event.begin_s = wall_time();
  }

  try {
    RuntimeTaskContext context(*this, index, rank, worker);
    spec.body(context);
  } catch (const std::exception& e) {
    fail("task " + spec.key.to_string() + ": " + e.what());
    return;
  }

  if (tracer_.enabled()) {
    event.end_s = wall_time();
    tracer_.record(std::move(event));
  }

  complete_task(index, rank);

  worker_tasks_[static_cast<std::size_t>(rank * config_.workers_per_rank +
                                         worker)]
      ->inc();
  if (spec.lane >= 0) {
    // lane_tasks_ is read-only during the run; find() never races.
    const auto it = lane_tasks_.find(spec.lane);
    if (it != lane_tasks_.end()) it->second->inc();
  }
  executed_tasks_.fetch_add(1, std::memory_order_relaxed);
  if (remaining_tasks_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    {
      std::lock_guard lock(done_mutex_);
      done_ = true;
    }
    done_cv_.notify_all();
  }
}

void Runtime::negotiate_routes(const TaskGraph& graph) {
  // Routed remote flows straight from the sealed consumer edges, then put
  // back in (consumer, input position) order: the order the builder
  // declared them, which fixes the negotiated table's order.
  struct RoutedFlow {
    std::uint32_t consumer;
    std::uint16_t input_pos;
    net::RouteSpec spec;
  };
  std::vector<RoutedFlow> flows;
  for (std::size_t pi = 0; pi < graph.size(); ++pi) {
    const int src = graph.spec(pi).rank;
    for (const auto& edge : graph.consumers(pi)) {
      if (edge.route == 0) continue;
      const int dst = graph.spec(edge.consumer).rank;
      if (dst == src) continue;  // local: no wire
      flows.push_back({edge.consumer, edge.input_pos,
                       net::RouteSpec{edge.route, src, dst, edge.route_doubles,
                                      edge.route_fragments}});
    }
  }
  std::sort(flows.begin(), flows.end(),
            [](const RoutedFlow& a, const RoutedFlow& b) {
              return a.consumer != b.consumer ? a.consumer < b.consumer
                                              : a.input_pos < b.input_pos;
            });
  // A route id is shared by every superstep edge of its (producer tile,
  // slot) stream, so the same id recurs across many consumer tasks —
  // negotiate once per id, rejecting inconsistent redefinitions.
  std::unordered_map<std::uint64_t, net::RouteSpec> by_id;
  std::vector<net::RouteSpec> routes;
  for (const RoutedFlow& flow : flows) {
    const net::RouteSpec& spec = flow.spec;
    const auto [it, inserted] = by_id.emplace(spec.id, spec);
    if (!inserted) {
      const net::RouteSpec& seen = it->second;
      if (seen.src != spec.src || seen.dst != spec.dst ||
          seen.doubles != spec.doubles || seen.fragments != spec.fragments) {
        throw std::runtime_error(
            "Runtime: route " + std::to_string(spec.id) +
            " redefined with a different endpoint or size");
      }
      continue;
    }
    routes.push_back(spec);
  }
  if (!routes.empty()) pchan_->negotiate(routes);
}

void Runtime::publish_eager(std::size_t index, std::uint16_t slot,
                            std::shared_ptr<std::vector<double>> data) {
  const TaskSpec& spec = graph_->spec(index);
  const int rank = spec.rank;
  const Buffer view = data;  // Buffer is shared_ptr<const vector<double>>
  publish_output(index, slot, view);
  states_[index].eager_slots.push_back(slot);
  for (const auto& edge : graph_->consumers(index)) {
    if (edge.slot != slot) continue;
    const TaskSpec& consumer = graph_->spec(edge.consumer);
    if (consumer.rank == rank) {
      // Local consumers share the pointer and wake immediately — a body-time
      // release instead of a complete_task-time one.
      deliver_input(edge.consumer, edge.input_pos, view);
    } else if (pchan_ != nullptr && edge.route != 0 &&
               pchan_->route_spec(edge.route) != nullptr) {
      // Partitioned send out of the registered buffer: each fragment is a
      // shared view, posted the moment the producer marks the slot ready.
      const std::vector<std::uint64_t> rt_header = {
          kWireSingle,
          consumer.key.type,
          static_cast<std::uint64_t>(
              static_cast<std::uint32_t>(consumer.key.a)),
          static_cast<std::uint64_t>(
              static_cast<std::uint32_t>(consumer.key.b)),
          static_cast<std::uint64_t>(
              static_cast<std::uint32_t>(consumer.key.c)),
          edge.input_pos};
      for (std::uint32_t f = 0; f < edge.route_fragments; ++f) {
        net::Message msg =
            pchan_->make_fragment(edge.route, f, data, rt_header);
        msg.tag = consumer.key.pack();
        post_message(rank, std::move(msg));
      }
    } else {
      // No negotiated route (default channel stack): classic deep-copy wire,
      // still dispatched early.
      send_remote(rank, edge.consumer, edge.input_pos, view);
    }
  }
}

void Runtime::complete_task(std::size_t index, int rank) {
  TaskState& state = states_[index];
  const auto edges = graph_->consumers(index);

  // Remote edges grouped by destination when aggregation is on.
  std::map<int, std::vector<std::pair<const TaskGraph::ConsumerEdge*,
                                      const Buffer*>>> grouped;

  for (const auto& edge : edges) {
    // Slots already dispatched from inside the body (publish_fragments).
    if (std::find(state.eager_slots.begin(), state.eager_slots.end(),
                  edge.slot) != state.eager_slots.end()) {
      continue;
    }
    const Buffer* found = nullptr;
    for (const auto& [slot, buf] : state.outputs) {
      if (slot == edge.slot) {
        found = &buf;
        break;
      }
    }
    if (found == nullptr) {
      fail("task " + graph_->spec(index).key.to_string() +
           " finished without publishing slot " + std::to_string(edge.slot) +
           " needed by " + graph_->spec(edge.consumer).key.to_string());
      return;
    }
    const TaskSpec& consumer = graph_->spec(edge.consumer);
    if (consumer.rank == rank) {
      deliver_input(edge.consumer, edge.input_pos, *found);
    } else if (config_.aggregate_messages) {
      grouped[consumer.rank].emplace_back(&edge, found);
    } else {
      send_remote(rank, edge.consumer, edge.input_pos, *found);
    }
  }

  for (const auto& [dst, sections] : grouped) {
    send_remote_aggregated(rank, dst, sections);
  }

  // Release upstream data and any outputs that have been fanned out; keep
  // zero-consumer outputs for result() inspection.
  for (std::size_t i = input_base_[index]; i < input_base_[index + 1]; ++i) {
    inputs_[i].buffer.reset();
  }
  std::erase_if(state.outputs, [&](const auto& entry) {
    return graph_->slot_fanout(index, entry.first) > 0;
  });
}

void Runtime::deliver_input(std::size_t consumer_index,
                            std::uint16_t input_pos, Buffer buffer,
                            bool remote) {
  const std::size_t base = input_base_[consumer_index];
  if (input_pos >= input_base_[consumer_index + 1] - base) {
    fail("deliver: input position out of range for " +
         graph_->spec(consumer_index).key.to_string());
    return;
  }
  InputSlot& slot = inputs_[base + input_pos];
  if (slot.delivered.exchange(true)) {
    fail("input " + std::to_string(input_pos) + " of " +
         graph_->spec(consumer_index).key.to_string() + " delivered twice");
    return;
  }
  slot.buffer = std::move(buffer);
  if (remaining_[consumer_index].fetch_sub(1, std::memory_order_acq_rel) == 1) {
    enqueue_ready(consumer_index, /*halo=*/remote);
  }
}

void Runtime::enqueue_ready(std::size_t index, bool halo) {
  const TaskSpec& spec = graph_->spec(index);
  ReadyEntry entry;
  entry.task = static_cast<std::uint32_t>(index);
  entry.halo = halo;
  const std::uint64_t seq = seq_.fetch_add(1, std::memory_order_relaxed);
  switch (config_.scheduler) {
    case SchedPolicy::PriorityFifo:
    case SchedPolicy::WorkStealing:
      entry.priority = spec.priority;
      entry.seq = seq;
      break;
    case SchedPolicy::Fifo:
      entry.priority = 0;
      entry.seq = seq;
      break;
    case SchedPolicy::Lifo:
      // Newest first: invert the sequence so the FIFO tie-break runs
      // backwards.
      entry.priority = 0;
      entry.seq = ~seq;
      break;
  }
  tasks_enqueued_[static_cast<std::size_t>(spec.rank)]->inc();
  const int from_worker = tl_rank == spec.rank ? tl_worker : -1;
  queues_[static_cast<std::size_t>(spec.rank)]->push(entry, from_worker);
}

void Runtime::send_remote(int src_rank, std::size_t consumer_index,
                          std::uint16_t input_pos, const Buffer& buffer) {
  const TaskSpec& consumer = graph_->spec(consumer_index);
  net::Message msg;
  msg.src = src_rank;
  msg.dst = consumer.rank;
  msg.tag = consumer.key.pack();
  msg.header = {kWireSingle,
                consumer.key.type,
                static_cast<std::uint64_t>(static_cast<std::uint32_t>(consumer.key.a)),
                static_cast<std::uint64_t>(static_cast<std::uint32_t>(consumer.key.b)),
                static_cast<std::uint64_t>(static_cast<std::uint32_t>(consumer.key.c)),
                input_pos};
  msg.payload = *buffer;  // deep copy: this is the wire crossing
  post_message(src_rank, std::move(msg));
}

void Runtime::send_remote_aggregated(
    int src_rank, int dst_rank,
    const std::vector<std::pair<const TaskGraph::ConsumerEdge*,
                                const Buffer*>>& sections) {
  net::Message msg;
  msg.src = src_rank;
  msg.dst = dst_rank;
  msg.header = {kWireMulti, sections.size()};
  std::size_t total = 0;
  for (const auto& [edge, buffer] : sections) total += (*buffer)->size();
  msg.payload.reserve(total);
  for (const auto& [edge, buffer] : sections) {
    const TaskKey& key = graph_->spec(edge->consumer).key;
    msg.header.push_back(key.type);
    msg.header.push_back(
        static_cast<std::uint64_t>(static_cast<std::uint32_t>(key.a)));
    msg.header.push_back(
        static_cast<std::uint64_t>(static_cast<std::uint32_t>(key.b)));
    msg.header.push_back(
        static_cast<std::uint64_t>(static_cast<std::uint32_t>(key.c)));
    msg.header.push_back(edge->input_pos);
    msg.header.push_back((*buffer)->size());
    msg.payload.insert(msg.payload.end(), (*buffer)->begin(),
                       (*buffer)->end());
  }
  post_message(src_rank, std::move(msg));
}

void Runtime::post_telemetry(int src_rank, int dst_rank,
                             std::vector<double> payload) {
  net::Message msg;
  msg.src = src_rank;
  msg.dst = dst_rank;
  msg.tag = 0;
  msg.header = {kWireTelemetry};
  msg.payload = std::move(payload);
  post_message(src_rank, std::move(msg));
}

obs::TelemetrySnapshot Runtime::rank_sample(int rank) const {
  obs::TelemetrySnapshot snap;
  snap.rank = rank;
  snap.t_s = wall_time();
  const auto r = static_cast<std::size_t>(rank);
  snap.superstep = superstep_[r].load(std::memory_order_relaxed);
  if constexpr (obs::kEnabled) {
    if (sent_bytes_.empty()) return snap;  // no run yet: handles unattached
    const int W = config_.workers_per_rank;
    for (int w = 0; w < W; ++w) {
      snap.tasks_executed +=
          worker_tasks_[static_cast<std::size_t>(rank * W + w)]->value();
    }
    snap.steals = steal_counters_[r]->value();
    snap.sent_messages = sent_messages_[r]->value();
    snap.sent_bytes = sent_bytes_[r]->value();
    snap.queue_depth =
        static_cast<std::uint64_t>(depth_gauges_[r]->value());
    snap.idle_halo_s = idle_gauges_[r * 3 + 0]->value();
    snap.idle_noready_s = idle_gauges_[r * 3 + 1]->value();
    snap.idle_steal_s = idle_gauges_[r * 3 + 2]->value();
  }
  return snap;
}

void Runtime::set_superstep(int rank, std::uint64_t superstep) {
  superstep_[static_cast<std::size_t>(rank)].store(superstep,
                                                  std::memory_order_relaxed);
}

void Runtime::post_message(int src_rank, net::Message msg) {
  if constexpr (obs::kEnabled) {
    sent_messages_[static_cast<std::size_t>(src_rank)]->inc();
    sent_bytes_[static_cast<std::size_t>(src_rank)]->add(msg.bytes());
  }
  if (tracer_.enabled()) {
    msg.trace.flow = next_flow_.fetch_add(1, std::memory_order_relaxed);
    msg.trace.queued_s = wall_time();
  }
  if (config_.dedicated_comm_thread) {
    outboxes_[static_cast<std::size_t>(src_rank)]->push(std::move(msg));
  } else {
    try {
      channel_send(src_rank, std::move(msg));
    } catch (const std::exception& e) {
      fail(std::string("send: ") + e.what());
    }
  }
}

void Runtime::fail(const std::string& message) {
  {
    std::lock_guard lock(error_mutex_);
    if (error_.empty()) error_ = message;
  }
  aborted_.store(true);
  {
    std::lock_guard lock(done_mutex_);
  }
  done_cv_.notify_all();
}

void Runtime::publish_output(std::size_t task_index, std::uint16_t slot,
                             Buffer buffer) {
  TaskState& state = states_[task_index];
  for (const auto& [existing, _] : state.outputs) {
    if (existing == slot) {
      throw std::logic_error("publish: slot " + std::to_string(slot) +
                             " published twice by " +
                             graph_->spec(task_index).key.to_string());
    }
  }
  state.outputs.emplace_back(slot, std::move(buffer));
}

}  // namespace repro::rt
