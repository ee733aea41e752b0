#include "fault/resilient.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <utility>

#include "stencil/tile_map.hpp"

namespace repro::fault {

namespace {

using stencil::Grid2D;
using stencil::Problem;
using stencil::TileMap;

}  // namespace

ResilientResult run_resilient(const Problem& problem,
                              const ResilientConfig& config) {
  if (config.checkpoint_supersteps < 1 || config.max_attempts < 1 ||
      config.retain_supersteps < 1) {
    throw std::invalid_argument("run_resilient: bad config");
  }
  const int steps = std::max(1, config.dist.steps);
  const int window_iters = config.checkpoint_supersteps * steps;

  const TileMap map(problem.rows, problem.cols, config.dist.decomp.mb,
                    config.dist.decomp.nb, config.dist.decomp.node_rows,
                    config.dist.decomp.node_cols);
  const auto total_tiles =
      static_cast<std::size_t>(map.tiles_r()) * map.tiles_c();

  CheckpointStore store;
  ResilientResult result{Grid2D(problem.rows, problem.cols)};

  // The consistent state at iteration `done`: initially the problem's own
  // initial condition.
  auto snapshot = std::make_shared<Grid2D>(problem.rows, problem.cols);
  snapshot->fill(problem.initial, problem.boundary);
  int done = 0;
  int consecutive_failures = 0;

  while (done < problem.iterations) {
    const int iters = std::min(window_iters, problem.iterations - done);
    const int base = done;
    const Problem window = stencil::restart_from(problem, snapshot, iters);

    stencil::DistConfig dist = config.dist;
    dist.channel_factory = config.channel_factory;
    dist.superstep_hook = [&store, base](int k, int ti, int tj,
                                         const std::vector<double>& core) {
      store.store(base + k, ti, tj, core);
    };

    ++result.attempts;
    try {
      stencil::DistResult run = stencil::run_distributed(window, dist);
      result.messages += run.stats.messages;
      result.bytes += run.stats.bytes;
      result.computed_points += run.computed_points;
      ++result.windows;
      consecutive_failures = 0;
      done += iters;
      snapshot = std::make_shared<Grid2D>(std::move(run.grid));
      store.trim_below(done - config.retain_supersteps * steps);
      continue;
    } catch (const std::runtime_error&) {
      ++consecutive_failures;
      ++result.rollbacks;
      if (consecutive_failures >= config.max_attempts) throw;
    }

    // Roll back. A complete superstep newer than the window start lets us
    // resume mid-window instead of replaying from `base`.
    const int resume = store.last_complete_superstep(total_tiles);
    if (resume > done) {
      snapshot = std::make_shared<Grid2D>(
          assemble_checkpoint(store, resume, map, problem.boundary));
      done = resume;
      ++result.resumed_mid_window;
    }
    // else: replay the window from the last snapshot (nothing to change).
  }

  result.grid = std::move(*snapshot);
  result.checkpoints = store.stats();
  return result;
}

}  // namespace repro::fault
