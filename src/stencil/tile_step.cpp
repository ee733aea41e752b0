#include "stencil/tile_step.hpp"

#include <algorithm>
#include <memory>

#include "stencil/spec_kernel.hpp"

namespace repro::stencil {

namespace {

/// The calling worker thread's step-assembly buffer: at least n doubles of
/// stale data, grown on demand and reused by every step body the thread runs.
double* worker_scratch(std::size_t n) {
  thread_local std::unique_ptr<double[]> buffer;
  thread_local std::size_t capacity = 0;
  if (capacity < n) {
    buffer.reset();
    buffer = std::make_unique_for_overwrite<double[]>(n);
    capacity = n;
  }
  return buffer.get();
}

/// Copy n cells. The frame's row pieces are a few cells each, where a plain
/// loop beats a memmove call.
void copy_cells(const double* src, std::size_t n, double* dst) {
  if (n > 8) {
    std::copy_n(src, n, dst);
    return;
  }
  for (std::size_t k = 0; k < n; ++k) dst[k] = src[k];
}

/// Copy the cells of one plane outside `rect`; an empty rect copies them all.
void copy_outside(const double* src, double* dst, const TileGeom& g,
                  const Rect& rect) {
  if (rect.empty()) {
    std::copy_n(src, g.size(), dst);
    return;
  }
  const std::size_t ld = static_cast<std::size_t>(g.ld());
  const std::size_t top = g.idx(rect.r0, -g.gw);
  const std::size_t bottom = g.idx(rect.r1, -g.gw);
  const auto west = static_cast<std::size_t>(rect.c0 + g.gw);
  const auto east = static_cast<std::size_t>(rect.c1 + g.gw);
  std::copy(src, src + top, dst);
  for (std::size_t row = top; row < bottom; row += ld) {
    copy_cells(src + row, west, dst + row);
    copy_cells(src + row + east, ld - east, dst + row + east);
  }
  std::copy(src + bottom, src + g.size(), dst + bottom);
}

/// Copy the cells of one plane inside `rect`.
void copy_inside(const double* src, double* dst, const TileGeom& g,
                 const Rect& rect) {
  if (rect.empty()) return;
  for (int i = rect.r0; i < rect.r1; ++i) {
    copy_cells(src + g.idx(i, rect.c0),
               static_cast<std::size_t>(rect.c1 - rect.c0),
               dst + g.idx(i, rect.c0));
  }
}

/// Write the refreshed ghost cells of all nfield planes into `ext`.
void apply_refresh(const GhostRefresh& refresh, double* ext, const TileGeom& g,
                   int radius, int nfield) {
  for (Side s : kAllSides) {
    const auto i = static_cast<int>(s);
    if (refresh.line[i].data != nullptr) {
      copy_local_line_planes(ext, g, s, refresh.line[i], refresh.line_geom[i],
                             radius, nfield);
    }
  }
  for (Corner c : kAllCorners) {
    const auto i = static_cast<int>(c);
    if (refresh.corner[i].data != nullptr) {
      copy_local_corner_planes(ext, g, c, refresh.corner[i],
                               refresh.corner_geom[i], nfield);
    }
  }
  for (Side s : kAllSides) {
    const auto i = static_cast<int>(s);
    if (!refresh.band[i].empty()) {
      unpack_band_planes(ext, g, s, refresh.band[i], refresh.depth, nfield);
    }
  }
  for (Corner c : kAllCorners) {
    const auto i = static_cast<int>(c);
    if (!refresh.block[i].empty()) {
      unpack_corner_planes(ext, g, c, refresh.block[i], refresh.depth, nfield);
    }
  }
}

/// Whether some cell `refresh` writes lies beyond the core's edge on
/// `side`. A corner's cells lie beyond both edges that meet there.
bool beyond(const GhostRefresh& refresh, Side side) {
  const auto i = static_cast<int>(side);
  if (refresh.line[i].data != nullptr || !refresh.band[i].empty()) {
    return true;
  }
  for (Corner c : kAllCorners) {
    const auto j = static_cast<int>(c);
    const bool adjacent = d_ti(c) == d_ti(side) || d_tj(c) == d_tj(side);
    if (adjacent &&
        (refresh.corner[j].data != nullptr || !refresh.block[j].empty())) {
      return true;
    }
  }
  return false;
}

}  // namespace

void step_tile(const TileStep& step, bool inner_sweep) {
  const spec::CompiledProgram& prog = *step.program;
  const TileGeom& g = step.geom;
  const Rect& region = step.region;
  const int r = prog.radius;
  const std::size_t plane = g.size();

  const bool north = beyond(step.refresh, Side::North);
  const bool south = beyond(step.refresh, Side::South);
  const bool west = beyond(step.refresh, Side::West);
  const bool east = beyond(step.refresh, Side::East);
  const bool refreshes = north || south || west || east;

  // The inner rectangle: the region's points whose footprint, r cells
  // around each, stays inside the core toward every refreshed edge. Without
  // a refresh it is the whole region. When it is empty it sits at the
  // region's foot, so the frame's top strip is the whole region.
  Rect inner = region;
  if (refreshes) {
    if (north) inner.r0 = std::max(inner.r0, r);
    if (south) inner.r1 = std::min(inner.r1, g.h - r);
    if (west) inner.c0 = std::max(inner.c0, r);
    if (east) inner.c1 = std::min(inner.c1, g.w - r);
    if (!inner_sweep || inner.empty()) {
      inner = {region.r1, region.r1, region.c0, region.c1};
    }
  }
  const Rect frame[] = {
      {region.r0, inner.r0, region.c0, region.c1},  // top
      {inner.r1, region.r1, region.c0, region.c1},  // bottom
      {inner.r0, inner.r1, region.c0, inner.c0},    // left
      {inner.r0, inner.r1, inner.c1, region.c1},    // right
  };

  // The cells only inner points read. The scratch leaves them out; when
  // there are none it holds the whole tile.
  Rect reused{inner.r0 + r, inner.r1 - r, inner.c0 + r, inner.c1 - r};
  if (!refreshes || reused.empty()) reused = {};

  // Every cell outside the region comes from `src`: the previous state, or,
  // when ghosts are refreshed, this worker's scratch holding the previous
  // state outside `reused` with the refresh written over it. No refresh
  // writes inside `reused`, which keeps r cells clear of every refreshed
  // edge.
  const double* src = step.prev;
  if (refreshes) {
    double* scratch =
        worker_scratch(static_cast<std::size_t>(prog.nfield) * plane);
    for (int p = 0; p < prog.nfield; ++p) {
      const std::size_t off = static_cast<std::size_t>(p) * plane;
      copy_outside(step.prev + off, scratch + off, g, reused);
    }
    apply_refresh(step.refresh, scratch, g, r, prog.nfield);
    src = scratch;
  }

  // The output receives what the sweep leaves unwritten: on the written
  // planes [zlo, zlo + nz) everything outside the region, frozen planes
  // whole.
  for (int p = 0; p < prog.nfield; ++p) {
    const std::size_t off = static_cast<std::size_t>(p) * plane;
    if (p >= prog.zlo && p < prog.zlo + prog.nz) {
      copy_outside(src + off, step.out + off, g, region);
    } else {
      copy_outside(src + off, step.out + off, g, reused);
      copy_inside(step.prev + off, step.out + off, g, reused);
    }
  }

  const auto sweep = [&](const double* in, const Rect& rect) {
    if (rect.empty()) return;
    if (step.coeff != nullptr) {
      jacobi5_var(in, step.out, g, step.coeff, rect.r0, rect.r1, rect.c0,
                  rect.c1);
    } else {
      apply_program_stage(in, step.out, g, prog, rect.r0, rect.r1, rect.c0,
                          rect.c1, step.kernel, step.tuning);
    }
  };
  sweep(step.prev, inner);
  for (const Rect& strip : frame) sweep(src, strip);
}

}  // namespace repro::stencil
