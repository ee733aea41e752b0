#include "obs/run_report.hpp"

#include <cmath>
#include <fstream>
#include <limits>
#include <stdexcept>

#include "obs/telemetry.hpp"

namespace repro::obs {

void RunReport::set_param(const std::string& key, Json value) {
  params_[key] = std::move(value);
}

void RunReport::set_derived(const std::string& key, Json value) {
  derived_[key] = std::move(value);
}

void RunReport::add_stencil_spec(Json descriptor) {
  if (!descriptor.is_object()) {
    throw std::invalid_argument(
        "RunReport stencil_spec entries must be JSON objects");
  }
  stencil_specs_.push_back(std::move(descriptor));
}

void RunReport::add_result(Json row) {
  if (!row.is_object()) {
    throw std::invalid_argument("RunReport result rows must be JSON objects");
  }
  results_.push_back(std::move(row));
}

void RunReport::add_metrics(const MetricsSnapshot& snapshot) {
  Json exported = obs::to_json(snapshot);
  for (auto& entry : exported["counters"].as_array()) {
    counters_.push_back(entry);
  }
  for (auto& entry : exported["gauges"].as_array()) {
    gauges_.push_back(entry);
  }
  for (auto& entry : exported["histograms"].as_array()) {
    histograms_.push_back(entry);
  }
}

void RunReport::add_metrics(const MetricsRegistry& registry) {
  add_metrics(registry.snapshot());
}

void RunReport::set_telemetry(Json telemetry_doc) {
  if (!telemetry_doc.is_object()) {
    throw std::invalid_argument(
        "RunReport telemetry must be a repro.telemetry/v1 object");
  }
  telemetry_ = std::move(telemetry_doc);
}

Json RunReport::to_json() const {
  Json out = Json::object();
  out["schema"] = kSchema;
  out["name"] = name_;
  out["params"] = params_;
  out["results"] = results_;
  Json metrics = Json::object();
  metrics["counters"] = counters_;
  metrics["gauges"] = gauges_;
  metrics["histograms"] = histograms_;
  out["metrics"] = std::move(metrics);
  out["derived"] = derived_;
  if (stencil_specs_.size() > 0) out["stencil_spec"] = stencil_specs_;
  if (telemetry_.is_object()) out["telemetry"] = telemetry_;
  return out;
}

std::string RunReport::to_string(int indent) const {
  return to_json().dump(indent) + "\n";
}

void RunReport::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("RunReport: cannot open '" + path +
                             "' for writing");
  }
  out << to_string();
  if (!out) {
    throw std::runtime_error("RunReport: write to '" + path + "' failed");
  }
}

namespace {

/// Accumulates the first validation failure; all check_* helpers are no-ops
/// once an error is recorded.
struct Checker {
  std::string error;

  bool ok() const { return error.empty(); }
  bool fail(const std::string& what) {
    if (error.empty()) error = what;
    return false;
  }

  bool check_finite_number(const Json& v, const std::string& where) {
    if (!ok()) return false;
    if (!v.is_number()) return fail(where + ": expected a number");
    if (!std::isfinite(v.as_number())) {
      return fail(where + ": number is not finite");
    }
    return true;
  }

  bool check_scalar(const Json& v, const std::string& where) {
    if (!ok()) return false;
    if (v.is_string() || v.is_bool()) return true;
    if (v.is_number()) return check_finite_number(v, where);
    return fail(where + ": expected a scalar (number, string, or bool)");
  }

  bool check_scalar_object(const Json& v, const std::string& where) {
    if (!ok()) return false;
    if (!v.is_object()) return fail(where + ": expected an object");
    for (const auto& [key, value] : v.as_object()) {
      if (!check_scalar(value, where + "." + key)) return false;
    }
    return true;
  }

  bool check_label_object(const Json& v, const std::string& where) {
    if (!ok()) return false;
    if (!v.is_object()) return fail(where + ": expected a label object");
    for (const auto& [key, value] : v.as_object()) {
      if (!value.is_string()) {
        return fail(where + "." + key + ": label values must be strings");
      }
    }
    return true;
  }

  const Json* require(const Json& parent, const std::string& key,
                      const std::string& where) {
    if (!ok()) return nullptr;
    const Json* v = parent.find(key);
    if (v == nullptr) {
      fail(where + ": missing required key '" + key + "'");
      return nullptr;
    }
    return v;
  }

  bool check_sample_common(const Json& entry, const std::string& where) {
    const Json* name = require(entry, "name", where);
    if (name == nullptr) return false;
    if (!name->is_string() || name->as_string().empty()) {
      return fail(where + ".name: expected a non-empty string");
    }
    const Json* labels = require(entry, "labels", where);
    if (labels == nullptr) return false;
    return check_label_object(*labels, where + ".labels");
  }

  bool check_counter(const Json& entry, const std::string& where) {
    if (!entry.is_object()) return fail(where + ": expected an object");
    if (!check_sample_common(entry, where)) return false;
    const Json* value = require(entry, "value", where);
    if (value == nullptr) return false;
    if (!check_finite_number(*value, where + ".value")) return false;
    if (value->as_number() < 0.0) {
      return fail(where + ".value: counters cannot be negative");
    }
    return true;
  }

  bool check_gauge(const Json& entry, const std::string& where) {
    if (!entry.is_object()) return fail(where + ": expected an object");
    if (!check_sample_common(entry, where)) return false;
    const Json* value = require(entry, "value", where);
    if (value == nullptr) return false;
    return check_finite_number(*value, where + ".value");
  }

  bool check_histogram(const Json& entry, const std::string& where) {
    if (!entry.is_object()) return fail(where + ": expected an object");
    if (!check_sample_common(entry, where)) return false;
    const Json* bounds = require(entry, "bounds", where);
    const Json* counts = require(entry, "counts", where);
    const Json* sums = require(entry, "sums", where);
    if (bounds == nullptr || counts == nullptr || sums == nullptr) return false;
    if (!bounds->is_array()) return fail(where + ".bounds: expected an array");
    if (!counts->is_array()) return fail(where + ".counts: expected an array");
    if (!sums->is_array()) return fail(where + ".sums: expected an array");
    double prev = -std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < bounds->size(); ++i) {
      const Json& b = bounds->as_array()[i];
      const std::string slot = where + ".bounds[" + std::to_string(i) + "]";
      if (!check_finite_number(b, slot)) return false;
      if (!(b.as_number() > prev)) {
        return fail(slot + ": bounds must be strictly increasing");
      }
      prev = b.as_number();
    }
    const std::size_t expected =
        bounds->size() == 0 ? 0 : bounds->size() + 1;
    if (bounds->size() != 0 && counts->size() != expected) {
      return fail(where + ".counts: expected " + std::to_string(expected) +
                  " buckets (bounds + overflow)");
    }
    if (sums->size() != counts->size()) {
      return fail(where + ".sums: length must match counts");
    }
    for (std::size_t i = 0; i < counts->size(); ++i) {
      const std::string slot = where + ".counts[" + std::to_string(i) + "]";
      const Json& c = counts->as_array()[i];
      if (!check_finite_number(c, slot)) return false;
      if (c.as_number() < 0.0) return fail(slot + ": negative bucket count");
    }
    for (std::size_t i = 0; i < sums->size(); ++i) {
      if (!check_finite_number(sums->as_array()[i],
                               where + ".sums[" + std::to_string(i) + "]")) {
        return false;
      }
    }
    const Json* count = require(entry, "count", where);
    const Json* sum = require(entry, "sum", where);
    if (count == nullptr || sum == nullptr) return false;
    if (!check_finite_number(*count, where + ".count")) return false;
    return check_finite_number(*sum, where + ".sum");
  }
};

}  // namespace

bool validate_run_report(const std::string& json_text, std::string* error) {
  Json doc;
  std::string parse_error;
  if (!Json::parse(json_text, &doc, &parse_error)) {
    if (error != nullptr) *error = "invalid JSON: " + parse_error;
    return false;
  }
  Checker ck;
  auto done = [&]() {
    if (error != nullptr) *error = ck.error;
    return ck.ok();
  };
  if (!doc.is_object()) {
    ck.fail("top level: expected an object");
    return done();
  }
  const Json* schema = ck.require(doc, "schema", "top level");
  if (schema != nullptr) {
    if (!schema->is_string() || schema->as_string() != RunReport::kSchema) {
      ck.fail(std::string("schema: expected \"") + RunReport::kSchema + "\"");
    }
  }
  const Json* name = ck.require(doc, "name", "top level");
  if (name != nullptr && (!name->is_string() || name->as_string().empty())) {
    ck.fail("name: expected a non-empty string");
  }
  const Json* params = ck.require(doc, "params", "top level");
  if (params != nullptr) ck.check_scalar_object(*params, "params");
  const Json* derived = ck.require(doc, "derived", "top level");
  if (derived != nullptr) ck.check_scalar_object(*derived, "derived");
  const Json* results = ck.require(doc, "results", "top level");
  if (results != nullptr) {
    if (!results->is_array()) {
      ck.fail("results: expected an array");
    } else {
      for (std::size_t i = 0; i < results->size(); ++i) {
        ck.check_scalar_object(results->as_array()[i],
                               "results[" + std::to_string(i) + "]");
      }
    }
  }
  // Optional block: spec-driven benches describe the stencils they swept.
  const Json* stencil_spec = doc.find("stencil_spec");
  if (stencil_spec != nullptr) {
    if (!stencil_spec->is_array()) {
      ck.fail("stencil_spec: expected an array");
    } else {
      for (std::size_t i = 0; i < stencil_spec->size(); ++i) {
        const std::string where = "stencil_spec[" + std::to_string(i) + "]";
        const Json& entry = stencil_spec->as_array()[i];
        if (!ck.check_scalar_object(entry, where)) break;
        const Json* spec_name = ck.require(entry, "name", where);
        if (spec_name != nullptr &&
            (!spec_name->is_string() || spec_name->as_string().empty())) {
          ck.fail(where + ".name: expected a non-empty string");
        }
        for (const char* key : {"rank", "radius", "points"}) {
          const Json* v = ck.require(entry, key, where);
          if (v != nullptr) ck.check_finite_number(*v, where + "." + key);
        }
      }
    }
  }
  // Optional block: live-telemetry runs embed the full repro.telemetry/v1
  // stream (deltas, detector events, fingerprint).
  const Json* telemetry = doc.find("telemetry");
  if (telemetry != nullptr) {
    std::string telemetry_error;
    if (!validate_telemetry(*telemetry, &telemetry_error)) {
      ck.fail("telemetry: " + telemetry_error);
    }
  }
  const Json* metrics = ck.require(doc, "metrics", "top level");
  if (metrics != nullptr) {
    if (!metrics->is_object()) {
      ck.fail("metrics: expected an object");
    } else {
      const Json* counters = ck.require(*metrics, "counters", "metrics");
      if (counters != nullptr) {
        if (!counters->is_array()) {
          ck.fail("metrics.counters: expected an array");
        } else {
          for (std::size_t i = 0; i < counters->size(); ++i) {
            ck.check_counter(counters->as_array()[i],
                             "metrics.counters[" + std::to_string(i) + "]");
          }
        }
      }
      const Json* gauges = ck.require(*metrics, "gauges", "metrics");
      if (gauges != nullptr) {
        if (!gauges->is_array()) {
          ck.fail("metrics.gauges: expected an array");
        } else {
          for (std::size_t i = 0; i < gauges->size(); ++i) {
            ck.check_gauge(gauges->as_array()[i],
                           "metrics.gauges[" + std::to_string(i) + "]");
          }
        }
      }
      const Json* histograms = ck.require(*metrics, "histograms", "metrics");
      if (histograms != nullptr) {
        if (!histograms->is_array()) {
          ck.fail("metrics.histograms: expected an array");
        } else {
          for (std::size_t i = 0; i < histograms->size(); ++i) {
            ck.check_histogram(histograms->as_array()[i],
                               "metrics.histograms[" + std::to_string(i) + "]");
          }
        }
      }
    }
  }
  return done();
}

}  // namespace repro::obs
