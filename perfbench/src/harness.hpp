// Shared pieces of the perfbench harness: command-line arguments, the metric
// table every workload reports against, sample statistics, the result
// report, and the in-memory span recorder of the traced run.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "stencil/grid.hpp"

namespace perfbench {

/// Seconds on the steady clock (arbitrary epoch).
double now_s();

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< measured window of one run
  bool trace = false;     ///< per-layer run instead of the end-to-end run
  bool tiny = false;      ///< self-test sizes (seconds of work, not minutes)
  /// Self-test: perturb one value of every reference so each output check
  /// must fail.
  bool corrupt_reference = false;
  std::string spans_dir;  ///< where the traced run writes its spans
};

/// Parses --workload/--seed/--seconds/--trace/--tiny/--corrupt-reference/
/// --spans-dir (both "--key value" and "--key=value"). Throws
/// std::invalid_argument on anything else.
Args parse_args(int argc, char** argv);

/// Which workloads a metric is defined on (a bit set).
enum Scope : unsigned { kSolve = 1, kServe = 2, kDes = 4, kAll = 7 };

struct MetricDef {
  const char* name;
  const char* unit;
  unsigned scope;
};

/// The metrics of the untraced run (BENCHMARK.json "end_to_end").
const std::vector<MetricDef>& end_to_end_metrics();
/// The metrics of the traced run (BENCHMARK.json "per_layer").
const std::vector<MetricDef>& per_layer_metrics();

double median(std::vector<double> values);

/// The highest percentile with at least ten samples beyond it (nearest
/// rank); with fewer than eleven samples, the median.
struct Tail {
  double value = 0.0;
  double percentile = 100.0;
  std::size_t beyond = 0;
};
Tail tail_of(std::vector<double> values);

/// Bitwise equality of two grids' interiors.
bool bits_equal(const repro::stencil::Grid2D& a,
                const repro::stencil::Grid2D& b);
/// 64-bit FNV-1a over the bits of a grid's interior.
std::uint64_t grid_hash(const repro::stencil::Grid2D& grid);

/// Collects the run's context, metrics and operation outcomes; finish()
/// prints the human-readable summary and, last, the one-line JSON result.
class Report {
 public:
  Report(const Args& args, unsigned scope);

  void context(const std::string& key, const std::string& value);
  /// A human-readable line (printed immediately).
  void note(const std::string& text);
  /// Set a declared metric of this run's mode. Throws on an unknown name,
  /// a metric outside this workload's scope, a repeat, or a non-finite value.
  void set(const std::string& name, double value);
  /// One operation attempted; `ok` false counts it as failed.
  void op(bool ok, const std::string& why_failed = "");

  /// Prints every metric (metrics outside the workload's scope read 0 and
  /// are marked so) and the JSON result line. Throws if an in-scope metric
  /// was never set.
  void finish();

 private:
  const Args& args_;
  unsigned scope_;
  std::map<std::string, double> values_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::map<std::string, std::uint64_t> failures_;
};

/// Span recorder of the traced run: one span per public call, kept in memory
/// and written out as JSON when the run ends. Thread-safe.
class Spans {
 public:
  /// Open a span now; returns its id.
  int begin(const std::string& name, int parent, std::uint64_t op);
  void end(int id);
  /// Record a span whose interval is already known.
  int add(const std::string& name, double start, double end, int parent,
          std::uint64_t op);

  std::vector<std::string> names() const;
  std::vector<double> durations(const std::string& name) const;
  /// Duration minus the part of the span covered by its direct children.
  std::vector<double> self_times(const std::string& name) const;
  /// Writes {"spans": [...]} to `path`; returns false on I/O failure.
  bool write_json(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
    std::uint64_t op = 0;
  };
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// RAII span: begin() on construction, end() on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Spans& spans, const std::string& name, int parent,
             std::uint64_t op)
      : spans_(spans), id_(spans.begin(name, parent, op)) {}
  ~ScopedSpan() { spans_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  Spans& spans_;
  int id_;
};

/// Prints one row per span name: count, median duration, median self time.
void print_span_table(const Spans& spans, Report& report);
/// Writes the spans under args.spans_dir (when set) and notes the path.
void save_spans(const Spans& spans, const Args& args, Report& report);

/// Peak resident set of this process in MiB.
double peak_rss_mib();
/// Median of `setups` and the samples themselves, as a note.
double report_setup(const std::vector<double>& setups, Report& report);

/// Host and build fingerprint, recorded in every run's context.
void record_host_context(Report& report);

}  // namespace perfbench
