// Minimal command-line option parsing for bench harnesses and examples.
//
// Accepted forms: --key=value and --flag (boolean true). The space-separated
// "--key value" form is deliberately unsupported: it is ambiguous with a flag
// followed by a positional argument. Positional arguments are collected
// separately.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace repro {

class Options {
 public:
  Options() = default;
  Options(int argc, char** argv);

  bool has(const std::string& key) const;

  /// Raw value of --key=..., or `fallback` when the key is absent.
  std::string get_string(const std::string& key,
                         const std::string& fallback) const;
  /// Integer value via strtoll; absent key -> fallback, garbage -> 0.
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  /// Double value via strtod; absent key -> fallback, garbage -> 0.
  double get_double(const std::string& key, double fallback) const;
  /// True for "true"/"1"/"yes" (and for a bare --flag); absent -> fallback.
  bool get_bool(const std::string& key, bool fallback) const;
  /// Value constrained to `allowed` (e.g. --kernel=scalar|vector|blocked).
  /// Absent key -> fallback; a value outside `allowed` throws
  /// std::invalid_argument listing the accepted spellings, so benches fail
  /// loudly instead of silently running the default configuration.
  std::string get_choice(const std::string& key, const std::string& fallback,
                         const std::vector<std::string>& allowed) const;

  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace repro
