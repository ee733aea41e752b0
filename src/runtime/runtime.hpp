// taskrt: a distributed dataflow task runtime (the PaRSEC substitute).
//
// The runtime executes a sealed TaskGraph over `nranks` virtual processes
// living in one OS process. Each virtual process owns:
//   * a pool of compute worker threads fed by a pluggable scheduler (shared
//     priority queue or per-worker deques with stealing; see scheduler.hpp),
//   * a dedicated communication thread pair (sender draining an outbox into
//     the Transport, receiver delivering incoming messages), mirroring the
//     paper's "one thread dedicated for communication" configuration.
//
// Dataflow semantics: a task becomes ready when every input flow has been
// satisfied. Local flows (producer and consumer on the same rank) share the
// published buffer pointer; remote flows are serialized into a net::Message
// and deep-copied on the receiving side, so cross-node traffic is explicit
// and measurable. Completed tasks release their inputs immediately and their
// consumed outputs after fan-out, keeping memory bounded across iterations;
// outputs with no consumers are retained and readable via result().
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <map>
#include <queue>
#include <string>
#include <thread>
#include <vector>

#include "net/transport.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "runtime/buffer.hpp"
#include "runtime/graph.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/trace.hpp"

namespace repro::net {
class PersistentChannel;
}

namespace repro::rt {

class RuntimeTaskContext;  // runtime-backed TaskContext (runtime.cpp)

struct Config {
  int nranks = 1;
  int workers_per_rank = 1;
  /// If false, worker threads call Transport::send inline instead of handing
  /// messages to the dedicated sender thread (ablation knob).
  bool dedicated_comm_thread = true;
  bool trace = false;
  SchedPolicy scheduler = SchedPolicy::PriorityFifo;
  /// Combine all flows a completing task sends to the same destination node
  /// into one message (PaRSEC-style per-node aggregation). Fewer, larger
  /// messages; ablation knob for the CA experiments.
  bool aggregate_messages = false;
  /// Builds the message channel for each run — the hook for fault-injection
  /// and reliability stacks (src/fault). Null = plain in-memory Transport.
  net::ChannelFactory channel_factory{};
  /// Registry the runtime scrapes into (rt_* families; the default Transport
  /// also registers its net_* families here). Null = private registry,
  /// reachable via Runtime::metrics().
  std::shared_ptr<obs::MetricsRegistry> metrics{};
  /// Seed for the WorkStealing victim-selection streams; each (rank, worker)
  /// derives its own deterministic sequence. Ignored by the other policies.
  std::uint64_t sched_seed = 0;
  /// Schedule-fuzzing instrumentation (see SchedTestHook). Null in
  /// production; set by tests to perturb victim choice and interleavings.
  std::shared_ptr<SchedTestHook> sched_test_hook{};
  /// Delivery hook for telemetry-format messages (wire format
  /// kWireTelemetry, payload = obs::encode_telemetry doubles). Called on the
  /// destination rank's receiver thread; null drops telemetry on the floor.
  std::function<void(int src_rank, const std::vector<double>& payload)>
      telemetry_sink{};
};

struct RunStats {
  double wall_time_s = 0.0;
  std::size_t tasks_executed = 0;
  std::uint64_t messages = 0;      ///< remote messages (inter-rank only)
  std::uint64_t bytes = 0;         ///< remote payload+header bytes
  net::SizeHistogram message_sizes;  ///< log2-bucket size distribution
};

/// Execution context handed to task bodies.
///
/// Abstract so a context can be *virtualized*: the runtime hands bodies a
/// RuntimeTaskContext bound to live task state, while graph transformations
/// (graph_transform.hpp) wrap member bodies of a fused task in a shim context
/// that reroutes inputs/outputs through in-task staging. Task bodies only
/// ever see this interface, so they compose with any such rewrite.
class TaskContext {
 public:
  virtual ~TaskContext() = default;

  const TaskKey& key() const { return spec().key; }
  virtual const TaskSpec& spec() const = 0;
  virtual int rank() const = 0;
  virtual int worker() const = 0;

  /// i-th input flow's data (i indexes TaskSpec::inputs).
  std::span<const double> input(std::size_t i) const {
    Buffer buffer = input_buffer(i);
    return {buffer->data(), buffer->size()};
  }
  virtual Buffer input_buffer(std::size_t i) const = 0;
  virtual std::size_t num_inputs() const = 0;

  /// Publish output slot `slot`. Each slot may be published at most once.
  void publish(std::uint16_t slot, std::vector<double>&& data) {
    publish(slot, make_buffer(std::move(data)));
  }
  virtual void publish(std::uint16_t slot, Buffer buffer) = 0;

  /// Persistent-channel mode (see net::PersistentChannel): a mutable
  /// pre-registered buffer for output slot `slot`, reused across instances
  /// with zero steady-state allocations. Returns nullptr when the run's
  /// channel stack has no persistent channel or the slot carries no
  /// negotiated route — callers fall back to the classic publish() path, so
  /// task bodies stay channel-agnostic.
  virtual std::shared_ptr<std::vector<double>> acquire_route_buffer(
      std::uint16_t slot) = 0;

  /// Publish `slot` with a buffer from acquire_route_buffer() and dispatch
  /// it immediately from inside the task body (early-bird): routed remote
  /// consumers receive it as partitioned fragment sends out of the
  /// registered buffer (zero-copy), local consumers are woken right away.
  /// complete_task skips slots already dispatched here. The slot must not
  /// also be publish()ed.
  virtual void publish_fragments(std::uint16_t slot,
                                 std::shared_ptr<std::vector<double>> data) = 0;
};

class Runtime {
 public:
  explicit Runtime(Config config);
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Execute the graph to completion. The graph is sealed here if the caller
  /// has not sealed it yet. Throws if any task body threw (first error wins)
  /// or if the graph deadlocks (cyclic dependencies).
  ///
  /// A Runtime instance is resident: run() may be called again with another
  /// graph (the serve layer runs a stream of graphs on one instance). Each
  /// run starts from a clean slate — fresh schedulers, outboxes, channel,
  /// task states, and re-attached metric handles — so no ready-queue or
  /// metric state leaks from one graph into the next (regression-tested by
  /// runtime_test's ResidentRuntime suite).
  RunStats run(TaskGraph& graph);

  /// Release everything retained from the last run (task states incl. kept
  /// output buffers, schedulers, outboxes, channel, graph pointer). After
  /// this, result() throws until the next run(). Call between back-to-back
  /// graphs on a resident runtime once results are extracted, so a large
  /// job's buffers don't sit in memory while unrelated jobs execute.
  void release_run();

  /// After run(): buffer published on (task, slot). Only slots with no
  /// consumers are guaranteed to be retained. Throws when absent.
  Buffer result(const TaskKey& key, std::uint16_t slot) const;

  const Tracer& tracer() const { return tracer_; }
  const Config& config() const { return config_; }

  /// Ship `payload` doubles to `dst_rank`'s telemetry sink as one wire
  /// message (format kWireTelemetry, charged to the channel like any other
  /// traffic: obs::kTelemetryWireBytes each). Callable from task bodies and
  /// hooks while the run is live; drivers use it to forward their rank-local
  /// snapshots to rank 0.
  void post_telemetry(int src_rank, int dst_rank, std::vector<double> payload);

  /// Cumulative progress counters for one rank, assembled from the run's
  /// live metric handles (zeros when obs is compiled out, except `superstep`
  /// and `t_s` which are tracked independently). The `rank` field is set.
  obs::TelemetrySnapshot rank_sample(int rank) const;

  /// Driver-visible superstep odometer feeding rank_sample() and the flight
  /// recorder (the runtime itself has no superstep notion).
  void set_superstep(int rank, std::uint64_t superstep);

  /// Always-on per-worker flight recorder (lane = rank * workers_per_rank +
  /// worker). Empty object when obs is compiled out.
  const obs::FlightRecorder& flight_recorder() const { return flight_; }

  /// Scrape point for this runtime's rt_* (and default transport's net_*)
  /// metric families. Never null.
  const std::shared_ptr<obs::MetricsRegistry>& metrics() const {
    return metrics_;
  }

 private:
  friend class RuntimeTaskContext;

  struct TaskState {
    std::vector<std::pair<std::uint16_t, Buffer>> outputs;
    /// Slots dispatched eagerly from inside the body (publish_fragments);
    /// complete_task skips them. Body-thread-only, then read by
    /// complete_task on the same thread — no lock needed.
    std::vector<std::uint16_t> eager_slots;
  };

  /// One input flow of one task. `delivered` is claimed by exactly one
  /// delivery (an atomic exchange); a second delivery fails the run.
  struct InputSlot {
    Buffer buffer;
    std::atomic<bool> delivered{false};
  };

  class Outbox {
   public:
    void push(net::Message msg);
    std::optional<net::Message> pop_blocking();
    void close();

   private:
    std::mutex mutex_;
    std::condition_variable cv_;
    std::deque<net::Message> queue_;
    bool closed_ = false;
  };

  void worker_loop(int rank, int worker);
  void sender_loop(int rank);
  void receiver_loop(int rank);

  void execute_task(std::size_t index, int rank, int worker);
  void complete_task(std::size_t index, int rank);
  /// `remote` marks deliveries arriving via the receiver thread; when such a
  /// delivery completes the consumer's inputs the ready entry is tagged as
  /// halo-released for the idle taxonomy.
  void deliver_input(std::size_t consumer_index, std::uint16_t input_pos,
                     Buffer buffer, bool remote = false);
  void enqueue_ready(std::size_t index, bool halo = false);
  void send_remote(int src_rank, std::size_t consumer_index,
                   std::uint16_t input_pos, const Buffer& buffer);
  void send_remote_aggregated(
      int src_rank, int dst_rank,
      const std::vector<std::pair<const TaskGraph::ConsumerEdge*,
                                  const Buffer*>>& sections);
  void post_message(int src_rank, net::Message msg);
  /// Hand `msg` to the channel, recording a Send span (wire timestamps,
  /// bytes, flow id) on the rank's tx lane when tracing. Throws like
  /// Channel::send; callers keep their own error handling.
  void channel_send(int src_rank, net::Message msg);
  void fail(const std::string& message);
  void publish_output(std::size_t task_index, std::uint16_t slot, Buffer buf);
  /// Body-side eager dispatch behind TaskContext::publish_fragments.
  void publish_eager(std::size_t task_index, std::uint16_t slot,
                     std::shared_ptr<std::vector<double>> data);
  /// Collect route-annotated remote flows and negotiate them on the run's
  /// PersistentChannel (no-op when the stack has none or no flow is routed).
  void negotiate_routes(const TaskGraph& graph);
  void setup_metrics();

  Config config_;
  Tracer tracer_;
  std::shared_ptr<obs::MetricsRegistry> metrics_;
  obs::FlightRecorder flight_;
  /// Per-rank superstep odometer (set_superstep / rank_sample). Plain
  /// atomics, live even when obs is compiled out.
  std::vector<std::atomic<std::uint64_t>> superstep_;

  // Per-run obs handles, re-attached by setup_metrics() (always non-null
  // during run(); no-op objects when obs is compiled out).
  std::vector<std::shared_ptr<obs::Counter>> worker_tasks_;  // rank * W + w
  std::vector<std::shared_ptr<obs::Counter>> tasks_enqueued_;  // per rank
  std::vector<std::shared_ptr<obs::Gauge>> comm_busy_;         // per rank
  std::vector<std::shared_ptr<obs::Gauge>> idle_gauges_;  // rank * 3 + class
  std::vector<std::shared_ptr<obs::Gauge>> depth_gauges_;      // per rank
  std::vector<std::shared_ptr<obs::Counter>> steal_counters_;  // per rank
  std::vector<std::shared_ptr<obs::Counter>> sent_messages_;   // per rank
  std::vector<std::shared_ptr<obs::Counter>> sent_bytes_;      // per rank
  /// Per-lane executed-task counters (rt_lane_tasks_executed_total{lane=}),
  /// one per distinct TaskSpec::lane >= 0 in the current graph. Lanes from
  /// the previous run that the current graph lacks are removed from the
  /// registry, so a resident runtime never scrapes stale tenant series.
  std::map<int, std::shared_ptr<obs::Counter>> lane_tasks_;

  // Per-run state (valid during/after run()).
  TaskGraph* graph_ = nullptr;
  std::vector<TaskState> states_;
  /// Flat input state: task i's inputs are inputs_[input_base_[i],
  /// input_base_[i + 1]), and remaining_[i] counts the undelivered ones.
  std::vector<std::size_t> input_base_;
  std::unique_ptr<InputSlot[]> inputs_;
  std::unique_ptr<std::atomic<int>[]> remaining_;
  std::vector<std::unique_ptr<Scheduler>> queues_;
  std::vector<std::unique_ptr<Outbox>> outboxes_;
  std::shared_ptr<net::Channel> channel_;
  /// The run's persistent channel, when the factory stacked one (owned by
  /// channel_); null otherwise. Set once before threads spawn.
  net::PersistentChannel* pchan_ = nullptr;
  std::atomic<std::uint64_t> seq_{0};
  std::atomic<std::uint64_t> next_flow_{1};  ///< trace flow-id source
  std::atomic<std::size_t> remaining_tasks_{0};
  std::atomic<std::size_t> executed_tasks_{0};

  std::mutex done_mutex_;
  std::condition_variable done_cv_;
  bool done_ = false;

  std::mutex error_mutex_;
  std::string error_;
  std::atomic<bool> aborted_{false};
};

}  // namespace repro::rt
