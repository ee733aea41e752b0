#include "runtime/trace.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

#include "support/stats.hpp"

namespace repro::rt {

namespace {

/// Process-global generation counter: every Tracer construction and clear()
/// draws a fresh value, so thread-local caches keyed on (tracer address,
/// generation) can never alias across tracer lifetimes or runs.
std::atomic<std::uint64_t> g_tracer_generation{0};

std::uint64_t next_generation() {
  return g_tracer_generation.fetch_add(1, std::memory_order_relaxed) + 1;
}

}  // namespace

Tracer::Tracer(bool enabled)
    : enabled_(enabled), generation_(next_generation()) {}

Tracer::ThreadBuffer& Tracer::local_buffer() {
  struct Cache {
    const Tracer* owner = nullptr;
    std::uint64_t generation = 0;
    ThreadBuffer* buffer = nullptr;
  };
  static thread_local Cache cache;
  const std::uint64_t generation =
      generation_.load(std::memory_order_acquire);
  if (cache.owner != this || cache.generation != generation) {
    auto buffer = std::make_unique<ThreadBuffer>();
    std::lock_guard lock(mutex_);
    cache.buffer = buffer.get();
    buffers_.push_back(std::move(buffer));
    cache.owner = this;
    cache.generation = generation;
  }
  return *cache.buffer;
}

void Tracer::record(TraceEvent event) {
  if (!enabled()) return;
  local_buffer().events.push_back(std::move(event));
}

void Tracer::merge() {
  std::lock_guard lock(mutex_);
  for (auto& buffer : buffers_) {
    merged_.insert(merged_.end(),
                   std::make_move_iterator(buffer->events.begin()),
                   std::make_move_iterator(buffer->events.end()));
    buffer->events.clear();
  }
  std::stable_sort(merged_.begin(), merged_.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.begin_s < b.begin_s;
                   });
}

void Tracer::clear() {
  std::lock_guard lock(mutex_);
  buffers_.clear();
  merged_.clear();
  generation_.store(next_generation(), std::memory_order_release);
}

namespace {

/// Union length of a set of [begin, end] intervals. Zero-width intervals and
/// shared boundary instants contribute nothing — the fix for steal events
/// landing exactly on a task boundary double-counting the instant.
double interval_union_seconds(std::vector<std::pair<double, double>>& spans) {
  if (spans.empty()) return 0.0;
  std::sort(spans.begin(), spans.end());
  double total = 0.0;
  double lo = spans.front().first;
  double hi = spans.front().second;
  for (std::size_t i = 1; i < spans.size(); ++i) {
    const auto& [b, e] = spans[i];
    if (b > hi) {
      total += hi - lo;
      lo = b;
      hi = e;
    } else {
      hi = std::max(hi, e);
    }
  }
  total += hi - lo;
  return std::max(total, 0.0);
}

}  // namespace

TraceReport analyze_trace(const std::vector<TraceEvent>& events,
                          int workers_per_rank) {
  TraceReport report;
  if (events.empty()) return report;

  double t0 = std::numeric_limits<double>::max();
  double t1 = std::numeric_limits<double>::lowest();
  std::map<std::pair<int, int>, std::vector<std::pair<double, double>>> lanes;
  std::map<std::string, std::vector<double>> durations;

  for (const auto& e : events) {
    // Non-task events are bookkeeping, not work: count them but keep them
    // out of the span/occupancy/duration statistics.
    switch (e.kind) {
      case TraceEventKind::Steal: report.steals += 1; continue;
      case TraceEventKind::Send: report.sends += 1; continue;
      case TraceEventKind::Recv: report.recvs += 1; continue;
      case TraceEventKind::Idle: report.idles += 1; continue;
      case TraceEventKind::Task: break;
    }
    t0 = std::min(t0, e.begin_s);
    t1 = std::max(t1, e.end_s);
    lanes[{e.rank, e.worker}].emplace_back(e.begin_s, e.end_s);
    durations[e.klass].push_back(e.duration());
    report.count_by_klass[e.klass] += 1;
  }
  if (t1 < t0) return report;  // no task events: no span to report
  report.span_s = t1 - t0;

  std::map<int, double> busy_by_rank;
  for (auto& [id, spans] : lanes) {
    const double busy = interval_union_seconds(spans);
    report.busy_by_worker[id] = busy;
    busy_by_rank[id.first] += busy;
  }
  for (const auto& [rank, busy] : busy_by_rank) {
    const double capacity = report.span_s * workers_per_rank;
    report.occupancy_by_rank[rank] = capacity > 0.0 ? busy / capacity : 0.0;
  }
  for (auto& [klass, samples] : durations) {
    report.median_duration_by_klass[klass] = median(samples);
  }
  return report;
}

namespace {

const char* kind_name(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::Task: return "task";
    case TraceEventKind::Steal: return "steal";
    case TraceEventKind::Send: return "send";
    case TraceEventKind::Recv: return "recv";
    case TraceEventKind::Idle: return "idle";
  }
  return "?";
}

/// The one header write_trace_csv emits and read_trace_csv accepts.
constexpr const char* kTraceCsvHeader =
    "rank,worker,klass,key,begin_s,end_s,duration_s,kind,victim,peer,flow,"
    "bytes,queued_s,wire_s,retransmits,deps";
constexpr std::size_t kTraceCsvColumns = 16;

TraceEventKind parse_kind(const std::string& name) {
  if (name == "task") return TraceEventKind::Task;
  if (name == "steal") return TraceEventKind::Steal;
  if (name == "send") return TraceEventKind::Send;
  if (name == "recv") return TraceEventKind::Recv;
  if (name == "idle") return TraceEventKind::Idle;
  throw std::runtime_error("read_trace_csv: bad kind '" + name + "'");
}

}  // namespace

void write_trace_csv(const std::vector<TraceEvent>& events, std::ostream& os) {
  // max_digits10 keeps the double -> text -> double round trip exact; key and
  // deps are quoted because TaskKey::to_string() contains commas.
  const auto flags = os.flags();
  const auto precision = os.precision();
  os.precision(std::numeric_limits<double>::max_digits10);
  os << kTraceCsvHeader << '\n';
  for (const auto& e : events) {
    os << e.rank << ',' << e.worker << ',' << e.klass << ",\""
       << e.key.to_string() << "\"," << e.begin_s << ',' << e.end_s << ','
       << e.duration() << ',' << kind_name(e.kind) << ',' << e.steal_victim
       << ',' << e.peer << ',' << e.flow << ',' << e.bytes << ','
       << e.queued_s << ',' << e.wire_s << ',' << e.retransmits << ",\"";
    for (std::size_t i = 0; i < e.deps.size(); ++i) {
      if (i > 0) os << ';';
      os << e.deps[i].to_string();
    }
    os << "\"\n";
  }
  os.precision(precision);
  os.flags(flags);
}

namespace {

// Split one CSV line into fields; only the key/deps columns are ever quoted
// and quotes never nest, so a simple state machine suffices.
std::vector<std::string> split_csv_line(const std::string& line) {
  std::vector<std::string> fields;
  std::string field;
  bool quoted = false;
  for (const char c : line) {
    if (c == '"') {
      quoted = !quoted;
    } else if (c == ',' && !quoted) {
      fields.push_back(std::move(field));
      field.clear();
    } else {
      field.push_back(c);
    }
  }
  fields.push_back(std::move(field));
  return fields;
}

TaskKey parse_task_key(const std::string& text) {
  TaskKey key;
  std::uint32_t type = 0;
  int a = 0;
  int b = 0;
  int c = 0;
  if (std::sscanf(text.c_str(), "t%" SCNu32 "(%d,%d,%d)", &type, &a, &b, &c) !=
      4) {
    throw std::runtime_error("read_trace_csv: bad task key '" + text + "'");
  }
  key.type = type;
  key.a = a;
  key.b = b;
  key.c = c;
  return key;
}

std::vector<TaskKey> parse_deps(const std::string& text) {
  std::vector<TaskKey> deps;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t stop = text.find(';', start);
    if (stop == std::string::npos) stop = text.size();
    deps.push_back(parse_task_key(text.substr(start, stop - start)));
    start = stop + 1;
  }
  return deps;
}

}  // namespace

std::vector<TraceEvent> read_trace_csv(std::istream& is) {
  std::string line;
  if (!std::getline(is, line)) return {};
  if (line != kTraceCsvHeader) {
    throw std::runtime_error("read_trace_csv: unrecognized header '" + line +
                             "'");
  }

  std::vector<TraceEvent> events;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    const auto fields = split_csv_line(line);
    if (fields.size() != kTraceCsvColumns) {
      throw std::runtime_error("read_trace_csv: bad row '" + line + "'");
    }
    TraceEvent e;
    e.rank = std::stoi(fields[0]);
    e.worker = std::stoi(fields[1]);
    e.klass = fields[2];
    e.key = parse_task_key(fields[3]);
    e.begin_s = std::stod(fields[4]);
    e.end_s = std::stod(fields[5]);
    e.kind = parse_kind(fields[7]);
    e.steal_victim = std::stoi(fields[8]);
    e.peer = std::stoi(fields[9]);
    e.flow = std::stoull(fields[10]);
    e.bytes = std::stoull(fields[11]);
    e.queued_s = std::stod(fields[12]);
    e.wire_s = std::stod(fields[13]);
    e.retransmits = static_cast<std::uint32_t>(std::stoul(fields[14]));
    e.deps = parse_deps(fields[15]);
    events.push_back(std::move(e));
  }
  return events;
}

namespace {

/// JSON string escaping for Chrome trace names (klass strings are plain
/// identifiers today, but the exporter should not corrupt the file if one
/// ever carries a quote or backslash).
std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

void write_chrome_trace(const std::vector<TraceEvent>& events,
                        std::ostream& os) {
  double t0 = std::numeric_limits<double>::max();
  for (const auto& e : events) t0 = std::min(t0, e.begin_s);
  if (events.empty()) t0 = 0.0;

  // Task events indexed by key so Recv events (consumer key + producer dep)
  // can be turned into producer-task -> consumer-task flow arrows.
  std::unordered_map<TaskKey, const TraceEvent*, TaskKeyHash> tasks;
  for (const auto& e : events) {
    if (e.kind == TraceEventKind::Task) tasks[e.key] = &e;
  }

  os << "[";
  bool first = true;
  const auto emit = [&](const std::string& entry) {
    if (!first) os << ",";
    first = false;
    os << "\n  " << entry;
  };

  std::uint64_t arrow_id = 0;
  for (const auto& e : events) {
    std::ostringstream entry;
    entry.precision(10);
    switch (e.kind) {
      case TraceEventKind::Steal:
        // Instant event on the thief's lane; the victim id rides in args.
        entry << "{\"name\":\"steal<-w" << e.steal_victim
              << "\",\"cat\":\"steal\",\"ph\":\"i\",\"s\":\"t\",\"pid\":"
              << e.rank << ",\"tid\":" << e.worker
              << ",\"ts\":" << (e.begin_s - t0) * 1e6 << "}";
        emit(entry.str());
        break;
      case TraceEventKind::Task:
        entry << "{\"name\":\"" << json_escape(e.klass) << ' '
              << e.key.to_string() << "\",\"cat\":\"" << json_escape(e.klass)
              << "\",\"ph\":\"X\",\"pid\":" << e.rank << ",\"tid\":"
              << e.worker << ",\"ts\":" << (e.begin_s - t0) * 1e6
              << ",\"dur\":" << e.duration() * 1e6 << "}";
        emit(entry.str());
        break;
      case TraceEventKind::Send:
      case TraceEventKind::Recv:
        entry << "{\"name\":\"" << json_escape(e.klass) << ' '
              << e.key.to_string() << "\",\"cat\":\"comm\",\"ph\":\"X\","
              << "\"pid\":" << e.rank << ",\"tid\":" << e.worker
              << ",\"ts\":" << (e.begin_s - t0) * 1e6
              << ",\"dur\":" << e.duration() * 1e6
              << ",\"args\":{\"peer\":" << e.peer << ",\"flow\":" << e.flow
              << ",\"bytes\":" << e.bytes
              << ",\"retransmits\":" << e.retransmits << "}}";
        emit(entry.str());
        break;
      case TraceEventKind::Idle:
        entry << "{\"name\":\"" << json_escape(e.klass)
              << "\",\"cat\":\"idle\",\"ph\":\"X\",\"pid\":" << e.rank
              << ",\"tid\":" << e.worker << ",\"ts\":" << (e.begin_s - t0) * 1e6
              << ",\"dur\":" << e.duration() * 1e6 << "}";
        emit(entry.str());
        break;
    }

    // One flow arrow per delivered remote section: anchored at the producer
    // task's end, terminating at the consumer task's begin (bp:"e" binds the
    // arrowhead to the enclosing slice).
    if (e.kind == TraceEventKind::Recv && !e.deps.empty()) {
      const auto producer = tasks.find(e.deps.front());
      const auto consumer = tasks.find(e.key);
      if (producer != tasks.end() && consumer != tasks.end()) {
        const TraceEvent& p = *producer->second;
        const TraceEvent& c = *consumer->second;
        const std::uint64_t id = ++arrow_id;
        std::ostringstream s;
        s.precision(10);
        s << "{\"name\":\"halo\",\"cat\":\"dataflow\",\"ph\":\"s\",\"id\":"
          << id << ",\"pid\":" << p.rank << ",\"tid\":" << p.worker
          << ",\"ts\":" << (p.end_s - t0) * 1e6 << "}";
        emit(s.str());
        std::ostringstream f;
        f.precision(10);
        f << "{\"name\":\"halo\",\"cat\":\"dataflow\",\"ph\":\"f\",\"bp\":"
          << "\"e\",\"id\":" << id << ",\"pid\":" << c.rank << ",\"tid\":"
          << c.worker << ",\"ts\":" << (c.begin_s - t0) * 1e6 << "}";
        emit(f.str());
      }
    }
  }
  os << "\n]\n";
}

void print_ascii_gantt(const std::vector<TraceEvent>& events, std::ostream& os,
                       int columns) {
  if (events.empty()) {
    os << "(empty trace)\n";
    return;
  }
  double t0 = std::numeric_limits<double>::max();
  double t1 = std::numeric_limits<double>::lowest();
  for (const auto& e : events) {
    if (e.kind == TraceEventKind::Steal || e.kind == TraceEventKind::Idle) {
      continue;
    }
    t0 = std::min(t0, e.begin_s);
    t1 = std::max(t1, e.end_s);
  }
  if (t1 < t0) {
    os << "(empty trace)\n";
    return;
  }
  const double span = std::max(t1 - t0, 1e-12);
  const double bucket = span / columns;

  // Lane per (rank, worker); within a bucket the class covering the most time
  // wins; idle buckets print '.'. Idle events are skipped (they are the gaps)
  // and steals are zero-width.
  std::map<std::pair<int, int>, std::vector<std::map<char, double>>> lanes;
  for (const auto& e : events) {
    if (e.kind == TraceEventKind::Steal || e.kind == TraceEventKind::Idle) {
      continue;
    }
    auto& lane = lanes[{e.rank, e.worker}];
    if (lane.empty()) lane.resize(static_cast<std::size_t>(columns));
    const char initial = e.klass.empty() ? '?' : e.klass.front();
    int first = static_cast<int>((e.begin_s - t0) / bucket);
    int last = static_cast<int>((e.end_s - t0) / bucket);
    first = std::clamp(first, 0, columns - 1);
    last = std::clamp(last, 0, columns - 1);
    for (int cell = first; cell <= last; ++cell) {
      const double cell_t0 = t0 + cell * bucket;
      const double cell_t1 = cell_t0 + bucket;
      const double overlap =
          std::min(e.end_s, cell_t1) - std::max(e.begin_s, cell_t0);
      if (overlap > 0.0) lane[static_cast<std::size_t>(cell)][initial] += overlap;
    }
  }

  os << "time -> (" << span * 1e3 << " ms total, " << columns << " buckets; "
     << "letter = first letter of dominant task class, '.' = idle)\n";
  for (const auto& [id, lane] : lanes) {
    if (id.second == kTraceLaneSend) {
      os << "r" << id.first << "tx |";
    } else if (id.second == kTraceLaneRecv) {
      os << "r" << id.first << "rx |";
    } else {
      os << "r" << id.first << "w" << id.second << " |";
    }
    for (const auto& cell : lane) {
      char best = '.';
      double best_time = 0.0;
      for (const auto& [initial, time] : cell) {
        if (time > best_time) {
          best_time = time;
          best = initial;
        }
      }
      os << best;
    }
    os << "|\n";
  }
}

}  // namespace repro::rt
