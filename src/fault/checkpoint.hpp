// CheckpointStore: per-tile snapshots taken at CA superstep boundaries.
//
// The CA stencil only has a globally consistent state at superstep starts:
// every tile holds the field at iteration k where k % s == 0, and no halo is
// in flight. Those are exactly the points where a checkpoint is cheap and
// sufficient — the Jacobi update is memoryless given the grid, so restarting
// from the snapshot of superstep k is bit-identical to having never failed.
//
// The store keeps, per superstep, a map from tile coordinates to the tile's
// core values (h x w doubles, row-major). A superstep is "complete" once all
// expected tiles have reported; recovery rolls back to the newest complete
// superstep. trim_below() bounds memory to the retention window.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "stencil/grid.hpp"
#include "stencil/tile_map.hpp"

namespace repro::fault {

class CheckpointStore {
 public:
  struct Stats {
    std::uint64_t stored = 0;  ///< tile snapshots written (incl. overwrites)
    std::uint64_t bytes = 0;   ///< payload bytes currently retained
    int supersteps = 0;        ///< distinct supersteps currently retained
  };

  /// Record tile (ti,tj)'s core at the start of iteration `superstep`.
  /// Re-storing the same tile overwrites (idempotent on re-execution).
  void store(int superstep, int ti, int tj, const std::vector<double>& core);

  /// The snapshot of one tile at one superstep, if present.
  std::optional<std::vector<double>> find(int superstep, int ti, int tj) const;

  /// Newest superstep with at least `expected_tiles` tiles recorded, or -1.
  int last_complete_superstep(std::size_t expected_tiles) const;

  /// All tiles recorded for `superstep` (empty if none).
  std::map<std::pair<int, int>, std::vector<double>> tiles(int superstep) const;

  /// Drop snapshots older than `superstep` (retention window enforcement).
  void trim_below(int superstep);

  void clear();
  Stats stats() const;

 private:
  using TileMapSnapshot = std::map<std::pair<int, int>, std::vector<double>>;

  mutable std::mutex mutex_;
  std::map<int, TileMapSnapshot> snapshots_;
  std::uint64_t stored_ = 0;
};

/// The single-plane field checkpointed at `superstep`: each tile's core at
/// its place in `map`, the ring from `boundary`. Every tile must be present
/// (see last_complete_superstep).
stencil::Grid2D assemble_checkpoint(const CheckpointStore& store,
                                    int superstep, const stencil::TileMap& map,
                                    const stencil::CellFn& boundary);

}  // namespace repro::fault
