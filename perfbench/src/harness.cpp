#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "obs/metrics.hpp"
#include "stencil/kernel_opt.hpp"

namespace perfbench {

double now_s() {
  using namespace std::chrono;
  return duration<double>(steady_clock::now().time_since_epoch()).count();
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    if (key.rfind("--", 0) != 0) {
      throw std::invalid_argument("unexpected argument: " + key);
    }
    const auto eq = key.find('=');
    const bool is_flag = key == "--tiny" || key == "--corrupt-reference";
    if (eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (!is_flag) {
      if (i + 1 >= argc) throw std::invalid_argument(key + " needs a value");
      value = argv[++i];
    }
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
      if (!(args.seconds > 0.0) || args.seconds > 120.0) {
        throw std::invalid_argument("--seconds must be in (0, 120]");
      }
    } else if (key == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace must be 0 or 1");
      }
      args.trace = value == "1";
    } else if (key == "--tiny") {
      args.tiny = value.empty() || value == "1";
    } else if (key == "--corrupt-reference") {
      args.corrupt_reference = value.empty() || value == "1";
    } else if (key == "--spans-dir") {
      args.spans_dir = value;
    } else {
      throw std::invalid_argument("unknown option: " + key);
    }
  }
  if (args.workload.empty()) throw std::invalid_argument("--workload missing");
  return args;
}

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"mpts_per_s", "Mpt/s", kAll},
      {"op_s_p50", "s", kAll},
      {"op_s_tail", "s", kAll},
      {"setup_s", "s", kAll},
      {"peak_rss_mb", "MiB", kAll},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = {
      {"stencil.build_s", "s", kSolve},
      {"stencil.gather_s", "s", kSolve},
      {"stencil.kernel_ns_per_pt", "ns/pt", kSolve | kServe},
      {"stencil.kernel_gbs", "GB/s", kSolve | kServe},
      {"stencil.computed_pts", "count", kSolve},
      {"stencil.useful_frac", "ratio", kSolve},
      {"stencil.pack_ns_per_double", "ns/double", kSolve | kServe},
      {"stencil.unpack_ns_per_double", "ns/double", kSolve | kServe},
      {"runtime.seal_s", "s", kSolve},
      {"runtime.fuse_s", "s", kSolve},
      {"runtime.construct_s", "s", kSolve},
      {"runtime.run_s", "s", kSolve},
      {"runtime.tasks", "count", kSolve},
      {"runtime.dispatch_ns_per_task", "ns/task", kSolve},
      {"runtime.idle_halo_s", "s", kSolve},
      {"runtime.idle_noready_s", "s", kSolve},
      {"runtime.idle_steal_s", "s", kSolve},
      {"runtime.comm_busy_s", "s", kSolve},
      {"net.messages", "count", kSolve},
      {"net.bytes", "B", kSolve},
      {"net.msg_us", "us", kSolve},
      {"net.gbs", "GB/s", kSolve},
      {"net.persistent_msg_us", "us", kSolve},
      {"net.steady_allocs", "count", kSolve},
      {"obs.counter_add_ns", "ns", kAll},
      {"obs.flight_record_ns", "ns", kAll},
      {"obs.trace_overhead_frac", "ratio", kSolve},
      {"serve.submit_us", "us", kServe},
      {"serve.wait_s_p50", "s", kServe},
      {"serve.run_s_p50", "s", kServe},
      {"serve.jobs_per_s", "jobs/s", kServe},
      {"serve.jobs_per_wave", "jobs/wave", kServe},
      {"serve.preemptions", "count", kServe},
      {"serve.gen_lag_ms", "ms", kServe},
      {"sim.tasks", "count", kDes},
      {"sim.messages", "count", kDes},
      {"sim.bytes", "B", kDes},
      {"sim.des_ns_per_task", "ns/task", kDes},
      {"sim.model_build_s", "s", kDes},
      {"stream.copy_gbs", "GB/s", kAll},
      {"trace.cp_compute_s", "s", kSolve},
      {"trace.cp_network_s", "s", kSolve},
      {"trace.cp_runtime_s", "s", kSolve},
      {"trace.overlap_frac", "ratio", kSolve},
      {"ledger.other_s", "s", kSolve},
      {"ledger.residual_frac", "ratio", kSolve},
      {"fail_frac", "ratio", kAll},
  };
  return defs;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

Tail tail_of(std::vector<double> values) {
  Tail tail;
  if (values.empty()) return tail;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n < 11) {
    // No percentile has ten samples beyond it: fall back to the median.
    tail.value = median(values);
    tail.percentile = 50.0;
    tail.beyond = n / 2;
    return tail;
  }
  // values[n - 11] has exactly ten samples after it.
  tail.value = values[n - 11];
  tail.beyond = 10;
  tail.percentile = 100.0 * static_cast<double>(n - 10) /
                    static_cast<double>(n);
  return tail;
}

bool bits_equal(const repro::stencil::Grid2D& a,
                const repro::stencil::Grid2D& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (int i = 0; i < a.rows(); ++i) {
    for (int j = 0; j < a.cols(); ++j) {
      if (std::bit_cast<std::uint64_t>(a.at(i, j)) !=
          std::bit_cast<std::uint64_t>(b.at(i, j))) {
        return false;
      }
    }
  }
  return true;
}

std::uint64_t grid_hash(const repro::stencil::Grid2D& grid) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (int i = 0; i < grid.rows(); ++i) {
    for (int j = 0; j < grid.cols(); ++j) {
      h ^= std::bit_cast<std::uint64_t>(grid.at(i, j));
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

namespace {

std::string number(double v) {
  if (std::nearbyint(v) == v && std::fabs(v) < 9.0e15) {
    return std::to_string(static_cast<long long>(v));
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

const std::vector<MetricDef>& mode_metrics(const Args& args) {
  return args.trace ? per_layer_metrics() : end_to_end_metrics();
}

}  // namespace

Report::Report(const Args& args, unsigned scope) : args_(args), scope_(scope) {
  std::cout << "perfbench workload=" << args.workload << " seed=" << args.seed
            << " seconds=" << args.seconds << " trace=" << (args.trace ? 1 : 0)
            << (args.tiny ? " tiny" : "")
            << (args.corrupt_reference ? " corrupt-reference" : "") << "\n";
}

void Report::context(const std::string& key, const std::string& value) {
  std::cout << "  context " << key << " = " << value << "\n";
}

void Report::note(const std::string& text) { std::cout << "  " << text << "\n"; }

void Report::set(const std::string& name, double value) {
  const auto& defs = mode_metrics(args_);
  const auto it = std::find_if(defs.begin(), defs.end(), [&](const MetricDef& d) {
    return name == d.name;
  });
  if (it == defs.end()) throw std::logic_error("undeclared metric " + name);
  if ((it->scope & scope_) == 0) {
    throw std::logic_error("metric " + name + " is outside this workload");
  }
  if (!std::isfinite(value)) {
    throw std::logic_error("metric " + name + " is not finite");
  }
  if (!values_.emplace(name, value).second) {
    throw std::logic_error("metric " + name + " set twice");
  }
}

void Report::op(bool ok, const std::string& why_failed) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    ++failures_[why_failed.empty() ? "unspecified" : why_failed];
  }
}

void Report::finish() {
  if (attempted_ == 0) throw std::logic_error("no operation was attempted");
  if (args_.trace) {
    set("fail_frac",
        static_cast<double>(failed_) / static_cast<double>(attempted_));
  }
  for (const auto& [why, count] : failures_) {
    std::cout << "  FAILED x" << count << ": " << why << "\n";
  }
  std::cout << "  operations attempted=" << attempted_ << " failed=" << failed_
            << " fail_frac="
            << number(static_cast<double>(failed_) /
                      static_cast<double>(attempted_))
            << "\n";
  std::ostringstream json;
  json << "{\"correct\": " << (failed_ == 0 ? "true" : "false")
       << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
       << ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& def : mode_metrics(args_)) {
    double value = 0.0;
    const bool in_scope = (def.scope & scope_) != 0;
    if (in_scope) {
      const auto it = values_.find(def.name);
      if (it == values_.end()) {
        throw std::logic_error(std::string("metric ") + def.name +
                               " was never measured");
      }
      value = it->second;
    }
    std::cout << "  metric " << def.name << " = " << number(value) << " "
              << def.unit << (in_scope ? "" : "  (layer not on this path)")
              << "\n";
    json << (first ? "" : ", ") << json_string(def.name) << ": {\"value\": "
         << number(value) << ", \"unit\": " << json_string(def.unit) << "}";
    first = false;
  }
  json << "}}";
  std::cout << json.str() << std::endl;
}

int Spans::begin(const std::string& name, int parent, std::uint64_t op) {
  const double t = now_s();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({name, t, t, parent, op});
  return static_cast<int>(spans_.size() - 1);
}

void Spans::end(int id) {
  const double t = now_s();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(id)].end = t;
}

int Spans::add(const std::string& name, double start, double end, int parent,
               std::uint64_t op) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({name, start, end, parent, op});
  return static_cast<int>(spans_.size() - 1);
}

std::vector<std::string> Spans::names() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> out;
  for (const Span& s : spans_) {
    if (std::find(out.begin(), out.end(), s.name) == out.end()) {
      out.push_back(s.name);
    }
  }
  return out;
}

std::vector<double> Spans::durations(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(s.end - s.start);
  }
  return out;
}

std::vector<double> Spans::self_times(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start,
                                                                s.end);
    }
  }
  std::vector<double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.name != name) continue;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double reach = s.start;
    for (const auto& [a, b] : kids) {
      const double lo = std::max(a, reach);
      const double hi = std::min(b, s.end);
      if (hi > lo) covered += hi - lo;
      reach = std::max(reach, std::min(b, s.end));
    }
    out.push_back((s.end - s.start) - covered);
  }
  return out;
}

bool Spans::write_json(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"schema\": \"perfbench.spans/v1\", \"spans\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i ? ",\n" : "") << "{\"id\": " << i
        << ", \"name\": " << json_string(s.name)
        << ", \"start_s\": " << number(s.start)
        << ", \"end_s\": " << number(s.end) << ", \"parent\": " << s.parent
        << ", \"op\": " << s.op << "}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

void print_span_table(const Spans& spans, Report& report) {
  report.note("spans (name: count, median duration s, median self s):");
  for (const std::string& name : spans.names()) {
    const auto d = spans.durations(name);
    std::ostringstream row;
    row << "  span " << name << ": " << d.size() << ", " << median(d) << ", "
        << median(spans.self_times(name));
    report.note(row.str());
  }
}

void save_spans(const Spans& spans, const Args& args, Report& report) {
  if (args.spans_dir.empty()) return;
  std::error_code ec;
  std::filesystem::create_directories(args.spans_dir, ec);
  const std::string path = args.spans_dir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed) + ".json";
  report.note(spans.write_json(path) ? "spans written to " + path
                                     : "could not write spans to " + path);
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double report_setup(const std::vector<double>& setups, Report& report) {
  std::ostringstream row;
  row << "setup samples (s):";
  for (const double s : setups) row << " " << s;
  report.note(row.str());
  return median(setups);
}

void record_host_context(Report& report) {
  report.context("nproc", std::to_string(std::thread::hardware_concurrency()));
  report.context("avx2_selected",
                 repro::stencil::avx2_selected({}) ? "true" : "false");
  report.context("obs_enabled", repro::obs::kEnabled ? "true" : "false");
  report.context("build_type", PERFBENCH_BUILD_TYPE);
  report.context("compiler", __VERSION__);
}

}  // namespace perfbench
