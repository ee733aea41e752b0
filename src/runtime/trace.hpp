// Causal task-execution tracing, the substitute for PaRSEC's profiling
// system.
//
// The trace is a flat event stream with five event kinds:
//   * Task  — one span per executed task body, carrying the task's
//             predecessor keys (`deps`) so the executed dataflow DAG can be
//             rebuilt offline,
//   * Steal — a scheduler steal (zero-width, thief lane),
//   * Send  — a remote message leaving a rank's comm path (enqueue -> wire
//             timestamps, bytes, destination, flow id),
//   * Recv  — one delivered flow section on the receiving rank (flow id
//             matches the Send; `deps` holds the producing task's key, `key`
//             the consuming task's),
//   * Idle  — a worker gap between pops, classified by what ended it
//             (idle-halo / idle-noready / idle-steal / idle-shutdown).
//
// From the stream we derive the paper's Fig. 10 artefacts — per-worker Gantt
// strips, per-rank occupancy, kernel-duration medians — and, via
// obs/trace_analysis, the causal story behind them: critical path, comm /
// compute overlap, idle taxonomy.
//
// Under REPRO_OBS_DISABLE the collection side compiles out like the metrics
// do: Tracer::enabled() is constant-false, so every recording site folds
// away. The analysis and CSV/Chrome I/O stay available (they operate on
// files, not on live runs).
#pragma once

#include <atomic>
#include <istream>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "runtime/task_key.hpp"

namespace repro::rt {

#ifdef REPRO_OBS_DISABLE
inline constexpr bool kTracingCompiledIn = false;
#else
inline constexpr bool kTracingCompiledIn = true;
#endif

/// What a trace event records (see file comment for the five kinds).
enum class TraceEventKind {
  Task,   ///< [begin_s, end_s] spent inside a task body
  Steal,  ///< instantaneous; `worker` is the thief, `steal_victim` the victim
  Send,   ///< remote message put on the wire; `worker` == kTraceLaneSend
  Recv,   ///< one flow section delivered; `worker` == kTraceLaneRecv
  Idle,   ///< worker gap between pops, classified via `klass`
};

/// Synthetic worker ids for the comm-thread lanes (Send/Recv events live on
/// per-rank lanes distinct from any compute worker 0..W-1).
inline constexpr int kTraceLaneSend = -2;
inline constexpr int kTraceLaneRecv = -3;

struct TraceEvent {
  TaskKey key;
  std::string klass;
  int rank = 0;
  int worker = 0;
  double begin_s = 0.0;
  double end_s = 0.0;
  TraceEventKind kind = TraceEventKind::Task;
  int steal_victim = -1;  ///< robbed worker id for Steal events, else -1

  // Message fields (Send/Recv events; zero/-1 elsewhere).
  int peer = -1;             ///< Send: destination rank; Recv: source rank
  std::uint64_t flow = 0;    ///< nonzero message id linking Send <-> Recv
  std::uint64_t bytes = 0;   ///< Send: wire bytes; Recv: section payload bytes
  double queued_s = 0.0;     ///< when the producer enqueued the message
  double wire_s = 0.0;       ///< when the channel accepted it
  std::uint32_t retransmits = 0;  ///< resends observed on the delivered copy

  /// Task events: predecessor task keys (one per input flow). Recv events:
  /// the producing task's key. Empty otherwise.
  std::vector<TaskKey> deps;

  double duration() const { return end_s - begin_s; }
};

/// Collects events from worker and comm threads without a per-event lock:
/// each recording thread appends to its own buffer (registered under the
/// mutex once per (tracer, run)), and merge() — called after the runtime has
/// joined its threads — splices the buffers into one stream ordered by begin
/// timestamp. clear()/merge() must not race record(); the runtime guarantees
/// that by clearing before spawning and merging after joining.
class Tracer {
 public:
  explicit Tracer(bool enabled = false);

  /// Whether record() stores events. Constant false when tracing is compiled
  /// out, so recording sites (and their TraceEvent construction) fold away.
  bool enabled() const { return kTracingCompiledIn && enabled_; }

  /// Append one event to the calling thread's buffer. Thread-safe (no
  /// per-event lock); a no-op when the tracer is disabled.
  void record(TraceEvent event);

  /// Splice all thread buffers into the merged stream, ordered by begin
  /// timestamp (stable, so same-instant events keep arrival order within a
  /// thread). Idempotent; call after the recording threads have joined.
  void merge();

  /// The merged event stream (empty until merge()).
  const std::vector<TraceEvent>& events() const { return merged_; }

  /// Discard all recorded events and detach every thread buffer (e.g.
  /// between repetitions of a bench). No thread may be recording.
  void clear();

 private:
  struct ThreadBuffer {
    std::vector<TraceEvent> events;
  };

  ThreadBuffer& local_buffer();

  bool enabled_;
  /// Registration identity for thread-local buffer caches. Drawn from a
  /// process-global counter at construction and on every clear(), so a
  /// (tracer address, generation) pair can never repeat — a stale cache from
  /// a destroyed tracer or an earlier run never aliases a live buffer.
  std::atomic<std::uint64_t> generation_;
  std::mutex mutex_;  ///< guards buffers_ registration and merge
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
  std::vector<TraceEvent> merged_;
};

/// Derived statistics over a finished trace.
struct TraceReport {
  double span_s = 0.0;  ///< max(end) - min(begin) over Task events
  /// fraction of (span * workers) spent inside task bodies, per rank.
  /// Busy time is the union of each worker's task intervals, so zero-width
  /// events and boundary-instant overlaps are never double-counted.
  std::map<int, double> occupancy_by_rank;
  /// union-of-intervals busy seconds per (rank, worker) compute lane
  std::map<std::pair<int, int>, double> busy_by_worker;
  /// median task duration in seconds, per task class
  std::map<std::string, double> median_duration_by_klass;
  /// task counts per class
  std::map<std::string, std::size_t> count_by_klass;
  /// number of Steal events (work-stealing scheduler only; 0 otherwise).
  std::size_t steals = 0;
  /// numbers of Send / Recv / Idle events. Like steals, these are excluded
  /// from span/occupancy/duration statistics (obs/trace_analysis digs into
  /// them).
  std::size_t sends = 0;
  std::size_t recvs = 0;
  std::size_t idles = 0;
};

TraceReport analyze_trace(const std::vector<TraceEvent>& events,
                          int workers_per_rank);

/// Write one CSV row per event:
///   rank,worker,klass,"key",begin_s,end_s,duration_s,kind,victim,
///   peer,flow,bytes,queued_s,wire_s,retransmits,"deps"
/// key and deps are quoted (TaskKey::to_string() contains commas; deps is a
/// ';'-joined key list) and timestamps use max_digits10 precision, so
/// read_trace_csv round-trips the stream exactly. kind is one of
/// task|steal|send|recv|idle.
void write_trace_csv(const std::vector<TraceEvent>& events, std::ostream& os);

/// Parse a stream produced by write_trace_csv back into events. Only that
/// 16-column header is accepted; throws std::runtime_error on any other
/// header and on malformed input.
std::vector<TraceEvent> read_trace_csv(std::istream& is);

/// Export in Chrome tracing format (chrome://tracing, Perfetto): one
/// complete event ("ph":"X") per task / send / recv / idle span, pid = rank,
/// tid = worker (comm lanes use the kTraceLane* ids), instant events for
/// steals, and flow arrows ("ph":"s"/"f") linking each remote producer task
/// to its consumer task across ranks. The counterpart of PaRSEC's binary
/// profile -> visualizer pipeline.
void write_chrome_trace(const std::vector<TraceEvent>& events,
                        std::ostream& os);

/// ASCII Gantt chart: one text row per (rank, worker), time bucketed into
/// `columns` cells; a cell shows the class initial of the task occupying the
/// majority of the bucket, or '.' when idle. Comm lanes render as "rNtx" /
/// "rNrx". Idle and Steal events are skipped (gaps already render as dots).
/// This is the console rendition of the paper's Fig. 10 trace plot.
void print_ascii_gantt(const std::vector<TraceEvent>& events, std::ostream& os,
                       int columns = 100);

}  // namespace repro::rt
