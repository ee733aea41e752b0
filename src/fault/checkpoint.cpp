#include "fault/checkpoint.hpp"

#include <algorithm>

namespace repro::fault {

void CheckpointStore::store(int superstep, int ti, int tj,
                            const std::vector<double>& core) {
  std::lock_guard lock(mutex_);
  snapshots_[superstep][{ti, tj}] = core;
  ++stored_;
}

std::optional<std::vector<double>> CheckpointStore::find(int superstep, int ti,
                                                         int tj) const {
  std::lock_guard lock(mutex_);
  const auto step = snapshots_.find(superstep);
  if (step == snapshots_.end()) return std::nullopt;
  const auto tile = step->second.find({ti, tj});
  if (tile == step->second.end()) return std::nullopt;
  return tile->second;
}

int CheckpointStore::last_complete_superstep(std::size_t expected_tiles) const {
  std::lock_guard lock(mutex_);
  for (auto it = snapshots_.rbegin(); it != snapshots_.rend(); ++it) {
    if (it->second.size() >= expected_tiles) return it->first;
  }
  return -1;
}

std::map<std::pair<int, int>, std::vector<double>> CheckpointStore::tiles(
    int superstep) const {
  std::lock_guard lock(mutex_);
  const auto step = snapshots_.find(superstep);
  if (step == snapshots_.end()) return {};
  return step->second;
}

void CheckpointStore::trim_below(int superstep) {
  std::lock_guard lock(mutex_);
  snapshots_.erase(snapshots_.begin(), snapshots_.lower_bound(superstep));
}

void CheckpointStore::clear() {
  std::lock_guard lock(mutex_);
  snapshots_.clear();
}

CheckpointStore::Stats CheckpointStore::stats() const {
  std::lock_guard lock(mutex_);
  Stats stats;
  stats.stored = stored_;
  stats.supersteps = static_cast<int>(snapshots_.size());
  for (const auto& [step, tiles] : snapshots_) {
    for (const auto& [key, core] : tiles) {
      stats.bytes += core.size() * sizeof(double);
    }
  }
  return stats;
}

stencil::Grid2D assemble_checkpoint(const CheckpointStore& store,
                                    int superstep, const stencil::TileMap& map,
                                    const stencil::CellFn& boundary) {
  stencil::Grid2D grid(map.rows(), map.cols());
  grid.fill_ring(boundary);
  for (const auto& [coord, core] : store.tiles(superstep)) {
    const auto [ti, tj] = coord;
    const int w = map.tile_w(tj);
    for (int i = 0; i < map.tile_h(ti); ++i) {
      std::copy_n(core.data() + static_cast<std::size_t>(i) * w, w,
                  &grid.at(map.row0(ti) + i, map.col0(tj)));
    }
  }
  return grid;
}

}  // namespace repro::fault
