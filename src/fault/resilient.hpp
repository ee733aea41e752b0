// ResilientRunner: checkpointed superstep recovery for the CA stencil.
//
// run_resilient() executes the distributed solve one *window* of supersteps
// at a time. Each window is an ordinary run_distributed() call whose initial
// condition is the snapshot grid left by the previous window and whose
// superstep hook feeds a CheckpointStore. When a window aborts (the reliable
// channel exhausted its retries, a rank blacked out, ...), the runner rolls
// back: if the store holds a complete superstep newer than the window start
// it resumes mid-window from there, otherwise it replays the whole window —
// with a fresh channel stack either way.
//
// Because the Jacobi update is memoryless given the grid, the recovered
// trajectory is bit-identical to a fault-free run: chaining windows (and
// re-running them after rollback) produces exactly the same doubles as one
// long run, which tests assert against solve_serial().
#pragma once

#include <cstdint>

#include "fault/checkpoint.hpp"
#include "net/channel.hpp"
#include "stencil/dist_stencil.hpp"
#include "stencil/problem.hpp"

namespace repro::fault {

struct ResilientConfig {
  stencil::DistConfig dist;  ///< decomposition, CA steps, workers, ...
  /// Built fresh for every attempt; wrap Transport in FaultInjector /
  /// ReliableChannel here. Empty = plain Transport (nothing to recover from,
  /// but the windowed execution still works).
  net::ChannelFactory channel_factory{};
  int checkpoint_supersteps = 1;  ///< window length, in supersteps
  int max_attempts = 5;           ///< consecutive failures before giving up
  int retain_supersteps = 2;      ///< checkpoint retention window
};

struct ResilientResult {
  stencil::Grid2D grid;           ///< final field, bit-identical to fault-free
  int windows = 0;                ///< successful window executions
  int attempts = 0;               ///< total run_distributed() calls
  int rollbacks = 0;              ///< failed windows rolled back
  int resumed_mid_window = 0;     ///< rollbacks that reused a mid-window ckpt
  std::uint64_t messages = 0;     ///< wire messages across all attempts
  std::uint64_t bytes = 0;        ///< wire bytes across all attempts
  long long computed_points = 0;  ///< stencil updates incl. replayed work
  CheckpointStore::Stats checkpoints{};
};

/// Run the CA stencil to completion despite channel failures. Throws the last
/// window's error once `max_attempts` consecutive attempts fail, and
/// std::invalid_argument for rank-3 problems (windows restart through
/// stencil::restart_from, and a Grid2D snapshot holds one plane).
ResilientResult run_resilient(const stencil::Problem& problem,
                              const ResilientConfig& config);

}  // namespace repro::fault
