// Dense 2D grid with a one-cell Dirichlet boundary ring.
//
// The interior is rows x cols; indices i in [-1, rows] and j in [-1, cols]
// are valid, with the ring holding fixed boundary values. Used by the serial
// reference implementation and as the result field of distributed runs.
#pragma once

#include <cstddef>
#include <functional>
#include <utility>

#include "support/aligned_buffer.hpp"

namespace repro::stencil {

/// Value sources for grid cells, as functions of *global* coordinates.
/// `initial` is sampled on the interior, `boundary` on the ring (called with
/// i == -1, i == rows, j == -1, or j == cols).
using CellFn = std::function<double(long, long)>;

class Grid2D {
 public:
  /// A zero-filled grid.
  Grid2D(int rows, int cols);

  /// A grid whose cells hold whatever the allocation held: no cell is
  /// written, so no page of it is touched here. Only for grids where every
  /// interior cell is written before it is read (the ring is filled with
  /// fill_ring).
  static Grid2D uninitialized(int rows, int cols);

  /// A deep copy (grids are move-only, so every copy is explicit).
  Grid2D clone() const;

  /// Interior extent (the boundary ring is not counted).
  int rows() const { return rows_; }
  int cols() const { return cols_; }

  /// Cell access; i in [-1, rows] and j in [-1, cols] are valid (ring cells
  /// hold the Dirichlet boundary). No bounds checking.
  double& at(int i, int j) { return data_[index(i, j)]; }
  double at(int i, int j) const { return data_[index(i, j)]; }

  /// Fill interior from `initial` and the ring from `boundary`.
  void fill(const CellFn& initial, const CellFn& boundary);

  /// Fill only the ring from `boundary`; the interior is left as it is.
  void fill_ring(const CellFn& boundary);

  /// Max |a-b| over the interior. Grids must have identical shape.
  static double max_abs_diff(const Grid2D& a, const Grid2D& b);

  /// Sum of interior values (used as a cheap checksum in benches).
  double interior_sum() const;

 private:
  Grid2D(int rows, int cols, AlignedBuffer<double> data)
      : rows_(rows), cols_(cols), data_(std::move(data)) {}

  std::size_t index(int i, int j) const {
    return static_cast<std::size_t>(i + 1) *
               static_cast<std::size_t>(cols_ + 2) +
           static_cast<std::size_t>(j + 1);
  }

  int rows_;
  int cols_;
  AlignedBuffer<double> data_;
};

}  // namespace repro::stencil
