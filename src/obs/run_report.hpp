// Machine-readable run reports: one JSON file per benchmark/experiment run.
//
// Schema "repro.run_report/v1":
//
//   {
//     "schema":  "repro.run_report/v1",
//     "name":    "<benchmark id>",             // e.g. "bench_fig7_strong_scaling"
//     "params":  { scalar, ... },              // machine preset, N, tile, iters...
//     "results": [ { scalar, ... }, ... ],     // one row per measured config
//     "metrics": { "counters": [...],          // MetricsSnapshot export
//                  "gauges": [...],
//                  "histograms": [...] },
//     "derived": { scalar, ... },              // stats computed from the above
//     "stencil_spec": [ { "name", "rank",      // OPTIONAL: stencil specs the
//                         "radius", "points",  // run swept (spec-driven
//                         ... }, ... ]         // benches only)
//     "telemetry": { ... }                     // OPTIONAL: embedded
//                                              // repro.telemetry/v1 stream
//   }
//
// "scalar" means finite number, string, or bool — rows stay flat so reports
// diff cleanly across PRs. validate_run_report() enforces the schema; the
// tools/validate_report CLI wraps it for CI.
#pragma once

#include <string>

#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace repro::obs {

class RunReport {
 public:
  static constexpr const char* kSchema = "repro.run_report/v1";

  explicit RunReport(std::string name) : name_(std::move(name)) {}

  void set_param(const std::string& key, Json value);
  void set_derived(const std::string& key, Json value);
  /// Append one stencil-spec descriptor (object of scalars: name, rank,
  /// radius, points, ...). Emits the optional top-level
  /// "stencil_spec" array; reports that never call this are unchanged.
  void add_stencil_spec(Json descriptor);
  /// Append one result row; must be a JSON object of scalars.
  void add_result(Json row);
  /// Merge a metrics snapshot into the report (appends samples; callable
  /// once per registry when a run spans several).
  void add_metrics(const MetricsSnapshot& snapshot);
  void add_metrics(const MetricsRegistry& registry);
  /// Embed a live-telemetry stream (a repro.telemetry/v1 object, typically
  /// TelemetryCollector::to_json()). Emits the optional top-level
  /// "telemetry" block; throws std::invalid_argument if not an object.
  void set_telemetry(Json telemetry_doc);

  Json to_json() const;
  std::string to_string(int indent = 2) const;
  /// Serialize to `path`; throws std::runtime_error on I/O failure.
  void write(const std::string& path) const;

 private:
  std::string name_;
  Json params_ = Json::object();
  Json derived_ = Json::object();
  Json results_ = Json::array();
  Json stencil_specs_ = Json::array();
  Json telemetry_;  // null unless set_telemetry() was called
  Json counters_ = Json::array();
  Json gauges_ = Json::array();
  Json histograms_ = Json::array();
};

/// Validate a serialized report against repro.run_report/v1. Returns true on
/// success; otherwise false with a human-readable reason in *error.
bool validate_run_report(const std::string& json_text, std::string* error);

}  // namespace repro::obs
