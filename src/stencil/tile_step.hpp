// One Jacobi step of a halo-padded tile: refresh its ghost cells, sweep the
// compiled stage, and give the output every cell the sweep leaves unwritten.
//
// A step that refreshes ghosts splits its region in two. The inner
// rectangle holds the points whose stencil footprint reads no refreshed
// cell; the kernel sweeps it straight from the previous state. Only the
// frame around it reads refreshed cells, so only the frame's footprint is
// assembled (previous state, then the refreshes) in the worker's scratch.
// Tiles smaller than kInnerSweepMinExtent keep the inner rectangle empty:
// the frame is then the whole region and the scratch holds the whole tile,
// which costs less there than the split's five kernel calls and two short
// copies per row (DESIGN.md §6 item 8). Either way the output is
// bit-identical.
#pragma once

#include <span>

#include "spec/stages.hpp"
#include "stencil/halo.hpp"
#include "stencil/kernel_opt.hpp"

namespace repro::stencil {

/// Tiles whose core is at least this many cells in both extents sweep their
/// inner rectangle straight from the previous state: the crossover of
/// bench_micro_kernels' BM_RefreshStep, the smallest extent at which the
/// split step is no slower than assembly with either kernel (DESIGN.md §6
/// item 8). The same tiles give their same-node readers packed edge lines
/// instead of their state, which is also where that stops costing time.
inline constexpr int kInnerSweepMinExtent = 96;

/// Whether a tile of geometry g is large: it sweeps its inner rectangle from
/// the previous state and packs edge lines for its same-node readers. The
/// tile geometry alone decides.
constexpr bool sweeps_inner(const TileGeom& g) {
  return g.h >= kInnerSweepMinExtent && g.w >= kInnerSweepMinExtent;
}

/// The cells [r0,r1) x [c0,c1) in core coordinates.
struct Rect {
  int r0 = 0, r1 = 0, c0 = 0, c1 = 0;
  bool empty() const { return r1 <= r0 || c1 <= c0; }
  long long points() const {
    return empty() ? 0 : static_cast<long long>(r1 - r0) * (c1 - c0);
  }
};

/// The ghost cells a step overwrites before its sweep, slots indexed by Side
/// or Corner; an unset slot refreshes nothing. They are applied in this
/// order, later writes winning where they overlap: same-node lines,
/// same-node diagonal corners, then received deep bands and corner blocks.
struct GhostRefresh {
  /// Same-node neighbours: radius-deep lines over the full extended extent
  /// (copy_local_line_planes), read from the neighbour's state or its
  /// packed edge lines.
  CellView line[4];
  TileGeom line_geom[4];
  /// Same-node diagonals: ghost corner blocks (copy_local_corner_planes).
  CellView corner[4];
  TileGeom corner_geom[4];
  /// Received bands and corner blocks, `depth` deep (unpack_*_planes).
  std::span<const double> band[4];
  std::span<const double> block[4];
  int depth = 0;
};

/// Everything one step of a tile reads and writes.
struct TileStep {
  const spec::CompiledProgram* program = nullptr;
  TileGeom geom;
  const double* prev = nullptr;  ///< previous state, program->nfield planes
  double* out = nullptr;         ///< next state, same layout, stale on entry
  GhostRefresh refresh;
  Rect region;  ///< the cells the stage writes on planes [zlo, zlo + nz)
  /// kCoeffPlanes coefficient planes: the step runs jacobi5_var instead of
  /// the program's stage.
  const double* coeff = nullptr;
  KernelVariant kernel = KernelVariant::Scalar;
  KernelTuning tuning{};
};

/// Run one step. `out` receives the stage over `region`, applied to the
/// previous state with the refresh applied, and that refreshed previous
/// state everywhere else: ghosts, the ring and frozen z planes. With
/// `inner_sweep` false the inner rectangle is empty and the scratch holds
/// the whole tile; the bits are the same either way. Tasks pass
/// sweeps_inner(geom); tests and benchmarks force either path.
void step_tile(const TileStep& step, bool inner_sweep);

}  // namespace repro::stencil
