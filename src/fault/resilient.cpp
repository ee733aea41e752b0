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

/// Deep-copy a grid (Grid2D is deliberately move-only; recovery is the one
/// place that legitimately needs value snapshots).
std::shared_ptr<Grid2D> copy_grid(const Grid2D& src, const Problem& problem) {
  auto dst = std::make_shared<Grid2D>(src.rows(), src.cols());
  dst->fill([&src](long i, long j) { return src.at(static_cast<int>(i),
                                                   static_cast<int>(j)); },
            problem.boundary);
  return dst;
}

}  // namespace

ResilientResult run_resilient(const Problem& problem,
                              const ResilientConfig& config) {
  if (config.checkpoint_supersteps < 1 || config.max_attempts < 1 ||
      config.retain_supersteps < 1) {
    throw std::invalid_argument("run_resilient: bad config");
  }
  if (problem.spec) {
    // Windows restart through Problem::initial; a spec problem samples
    // initial3, derives its exterior partials from the original field and
    // may carry nz planes, so a Grid2D snapshot cannot restart it.
    throw std::invalid_argument(
        "run_resilient: spec problems cannot restart from a Grid2D snapshot");
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

    Problem sub = problem;
    sub.iterations = iters;
    sub.initial = [snapshot](long i, long j) {
      return snapshot->at(static_cast<int>(i), static_cast<int>(j));
    };

    stencil::DistConfig dist = config.dist;
    dist.channel_factory = config.channel_factory;
    dist.superstep_hook = [&store, base](int k, int ti, int tj,
                                         const std::vector<double>& core) {
      store.store(base + k, ti, tj, core);
    };

    ++result.attempts;
    try {
      stencil::DistResult run = stencil::run_distributed(sub, dist);
      result.messages += run.stats.messages;
      result.bytes += run.stats.bytes;
      result.computed_points += run.computed_points;
      ++result.windows;
      consecutive_failures = 0;
      done += iters;
      snapshot = copy_grid(run.grid, problem);
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
      auto recovered = std::make_shared<Grid2D>(problem.rows, problem.cols);
      recovered->fill([](long, long) { return 0.0; }, problem.boundary);
      for (const auto& [coord, core] : store.tiles(resume)) {
        const auto [ti, tj] = coord;
        const int h = map.tile_h(ti);
        const int w = map.tile_w(tj);
        for (int i = 0; i < h; ++i) {
          for (int j = 0; j < w; ++j) {
            recovered->at(map.row0(ti) + i, map.col0(tj) + j) =
                core[static_cast<std::size_t>(i) * w + j];
          }
        }
      }
      snapshot = std::move(recovered);
      done = resume;
      ++result.resumed_mid_window;
    }
    // else: replay the window from the last snapshot (nothing to change).
  }

  result.grid.fill([&snapshot](long i, long j) {
    return snapshot->at(static_cast<int>(i), static_cast<int>(j));
  }, problem.boundary);
  result.checkpoints = store.stats();
  return result;
}

}  // namespace repro::fault
