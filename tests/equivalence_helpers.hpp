// Shared serial-oracle comparison helpers for the equivalence suites
// (fuzz_test, sched_fuzz_test, spec_dist_test, fault_e2e_test, ...).
//
// Every distributed variant in this repo is held to the same bar: bit
// identity with the serial reference. These helpers make a failure
// actionable — the assertion message carries the first mismatching cell
// (coordinates + both values), the mismatch count, and a one-line pretty
// print of the configuration, so a failing fuzz round reproduces from the
// log alone.
#pragma once

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "runtime/scheduler.hpp"
#include "stencil/dist_stencil.hpp"
#include "stencil/kernel_opt.hpp"
#include "stencil/serial.hpp"

namespace repro::test_support {

/// Bit-exact grid comparison; on mismatch names the first differing cell.
inline ::testing::AssertionResult grids_match(const stencil::Grid2D& expected,
                                              const stencil::Grid2D& actual,
                                              const std::string& label = "") {
  if (expected.rows() != actual.rows() || expected.cols() != actual.cols()) {
    return ::testing::AssertionFailure()
           << label << (label.empty() ? "" : ": ") << "shape mismatch: "
           << "expected " << expected.rows() << "x" << expected.cols()
           << ", got " << actual.rows() << "x" << actual.cols();
  }
  long long mismatches = 0;
  int first_i = -1;
  int first_j = -1;
  for (int i = 0; i < expected.rows(); ++i) {
    for (int j = 0; j < expected.cols(); ++j) {
      if (expected.at(i, j) != actual.at(i, j)) {
        if (mismatches == 0) {
          first_i = i;
          first_j = j;
        }
        ++mismatches;
      }
    }
  }
  if (mismatches == 0) return ::testing::AssertionSuccess();
  std::ostringstream out;
  out.precision(17);
  out << label << (label.empty() ? "" : ": ") << mismatches
      << " mismatching cell(s); first at (" << first_i << "," << first_j
      << "): expected " << expected.at(first_i, first_j) << ", got "
      << actual.at(first_i, first_j) << " (|diff|="
      << std::abs(expected.at(first_i, first_j) - actual.at(first_i, first_j))
      << ")";
  return ::testing::AssertionFailure() << out.str();
}

/// The 5-point update with `weights` run by serial_sweep alone: an oracle
/// that shares no code with the compiled-program path.
inline stencil::Grid2D serial_sweep_oracle(const stencil::Problem& problem,
                                           const stencil::Stencil5& weights) {
  stencil::Grid2D current(problem.rows, problem.cols);
  stencil::Grid2D next(problem.rows, problem.cols);
  current.fill(problem.initial, problem.boundary);
  next.fill(problem.initial, problem.boundary);
  for (int k = 0; k < problem.iterations; ++k) {
    stencil::serial_sweep(current, next, weights);
    std::swap(current, next);
  }
  return current;
}

/// A distributed result against the serial oracle's z planes. Rank-3 runs
/// carry every plane plus the grid == planes[0] invariant; below rank 3 the
/// oracle's one plane is the grid and `planes` stays empty.
inline ::testing::AssertionResult planes_match(
    const std::vector<stencil::Grid2D>& expected,
    const stencil::DistResult& result) {
  if (expected.size() == 1 && result.planes.empty()) {
    return grids_match(expected[0], result.grid);
  }
  if (result.planes.size() != expected.size()) {
    return ::testing::AssertionFailure()
           << "plane count mismatch: expected " << expected.size() << ", got "
           << result.planes.size();
  }
  for (std::size_t z = 0; z < expected.size(); ++z) {
    const auto planes =
        grids_match(expected[z], result.planes[z], "z=" + std::to_string(z));
    if (!planes) return planes;
  }
  return grids_match(result.planes[0], result.grid, "grid vs planes[0]");
}

/// One-line DistConfig pretty print for SCOPED_TRACE / assertion messages.
inline std::string describe(const stencil::DistConfig& config) {
  std::ostringstream out;
  out << "tiles " << config.decomp.mb << "x" << config.decomp.nb << " nodes "
      << config.decomp.node_rows << "x" << config.decomp.node_cols << " s="
      << config.steps << " fuse=" << config.fuse_depth << " kernel="
      << stencil::kernel_variant_name(config.kernel) << " sched="
      << rt::sched_policy_name(config.scheduler) << " workers="
      << config.workers_per_rank;
  if (config.persistent) out << " persistent";
  if (!config.dedicated_comm_thread) out << " no-comm-thread";
  if (config.sched_seed != 0) out << " sched_seed=" << config.sched_seed;
  return out.str();
}

/// The canonical failure tag: greppable, reproduces the round from the log.
inline std::string failing_seed(std::uint64_t seed,
                                const stencil::DistConfig& config) {
  return "FAILING SEED=" + std::to_string(seed) + " (" + describe(config) +
         ")";
}

}  // namespace repro::test_support
