#include "stencil/halo.hpp"

#include <cstring>
#include <stdexcept>
#include <string>

namespace repro::stencil {

namespace {

void require(bool ok, const char* what) {
  if (!ok) throw std::invalid_argument(std::string("halo: ") + what);
}

}  // namespace

const char* side_name(Side s) {
  switch (s) {
    case Side::North: return "north";
    case Side::South: return "south";
    case Side::West: return "west";
    case Side::East: return "east";
  }
  return "?";
}

namespace {

/// Doubles in one plane's band on `side`, `depth` deep.
std::size_t band_size(const TileGeom& g, Side side, int depth) {
  require(depth >= 1, "band depth must be >= 1");
  if (side == Side::North || side == Side::South) {
    require(depth <= g.h, "band depth exceeds tile height");
    return static_cast<std::size_t>(depth) * g.w;
  }
  require(depth <= g.w, "band depth exceeds tile width");
  return static_cast<std::size_t>(g.h) * depth;
}

/// Doubles in one plane's s x s corner block.
std::size_t corner_size(const TileGeom& g, int s) {
  require(s >= 1 && s <= g.h && s <= g.w, "corner block exceeds tile");
  return static_cast<std::size_t>(s) * s;
}

/// Copy the rows x cols cells of plane view `src` from its cell (i0, j0)
/// on into `dst`, row-major. Rows of a few cells are copied with a loop,
/// which beats a memcpy call there.
void copy_block(double* dst, const CellView& src, int i0, int j0, int rows,
                int cols) {
  for (int r = 0; r < rows; ++r) {
    const double* from = src.at(i0 + r, j0);
    double* to = dst + static_cast<std::size_t>(r) * cols;
    if (cols > 8) {
      std::memcpy(to, from, static_cast<std::size_t>(cols) * sizeof(double));
      continue;
    }
    for (int c = 0; c < cols; ++c) to[c] = from[c];
  }
}

/// Doubles per field plane in a tile's packed edge lines: `depth` rows
/// along the north and south edges over the full extended width, then
/// `depth` columns along the west and east edges over the full extended
/// height.
std::size_t edge_lines_per_plane(const TileGeom& g, int depth) {
  return 2 * static_cast<std::size_t>(depth) *
         static_cast<std::size_t>(g.ld() + g.rows());
}

/// Where the edge on `side` sits in one plane of packed edge lines: its
/// offset, the core coordinates of its first cell, and its extent (the
/// columns are row-major, `depth` cells per row).
struct EdgeLayout {
  std::size_t offset = 0;
  int row0 = 0, col0 = 0, rows = 0, cols = 0;
};

EdgeLayout edge_layout(const TileGeom& g, Side side, int depth) {
  const std::size_t row_block = static_cast<std::size_t>(depth) * g.ld();
  const std::size_t col_block = static_cast<std::size_t>(depth) * g.rows();
  switch (side) {
    case Side::North: return {0, 0, -g.gw, depth, g.ld()};
    case Side::South: return {row_block, g.h - depth, -g.gw, depth, g.ld()};
    case Side::West: return {2 * row_block, -g.gn, 0, g.rows(), depth};
    case Side::East:
      return {2 * row_block + col_block, -g.gn, g.w - depth, g.rows(), depth};
  }
  return {};
}

/// Core of pack_band writing into caller storage; returns doubles written.
std::size_t pack_band_into(double* dst, const double* ext, const TileGeom& g,
                           Side side, int depth) {
  const std::size_t n = band_size(g, side, depth);
  switch (side) {
    case Side::North:
    case Side::South:
      copy_block(dst, CellView(ext, g), side == Side::North ? 0 : g.h - depth,
                 0, depth, g.w);
      break;
    case Side::West:
    case Side::East:
      copy_block(dst, CellView(ext, g), 0, side == Side::West ? 0 : g.w - depth,
                 g.h, depth);
      break;
  }
  return n;
}

/// Core of pack_corner writing into caller storage; returns doubles written.
std::size_t pack_corner_into(double* dst, const double* ext, const TileGeom& g,
                             Corner corner, int s) {
  const std::size_t n = corner_size(g, s);
  const int r0 = (corner == Corner::NW || corner == Corner::NE) ? 0 : g.h - s;
  const int c0 = (corner == Corner::NW || corner == Corner::SW) ? 0 : g.w - s;
  copy_block(dst, CellView(ext, g), r0, c0, s, s);
  return n;
}

}  // namespace

std::vector<double> pack_band(const double* ext, const TileGeom& g, Side side,
                              int depth) {
  return pack_band_planes(ext, g, side, depth, 1);
}

void unpack_band(double* ext, const TileGeom& g, Side side,
                 std::span<const double> band, int depth) {
  switch (side) {
    case Side::North:
    case Side::South: {
      const int ghost = side == Side::North ? g.gn : g.gs;
      require(depth == ghost, "band depth must equal ghost depth");
      require(band.size() == static_cast<std::size_t>(depth) * g.w,
              "band size mismatch");
      // North ghost rows -depth..-1 map to band rows 0..depth-1 (producer's
      // bottom rows, global row order preserved). South ghost rows h..h+d-1
      // map to the producer's top rows in the same order.
      const int first = side == Side::North ? -depth : g.h;
      for (int r = 0; r < depth; ++r) {
        std::memcpy(ext + g.idx(first + r, 0),
                    band.data() + static_cast<std::size_t>(r) * g.w,
                    static_cast<std::size_t>(g.w) * sizeof(double));
      }
      break;
    }
    case Side::West:
    case Side::East: {
      const int ghost = side == Side::West ? g.gw : g.ge;
      require(depth == ghost, "band depth must equal ghost depth");
      require(band.size() == static_cast<std::size_t>(g.h) * depth,
              "band size mismatch");
      const int first = side == Side::West ? -depth : g.w;
      for (int i = 0; i < g.h; ++i) {
        for (int c = 0; c < depth; ++c) {
          ext[g.idx(i, first + c)] =
              band[static_cast<std::size_t>(i) * depth + c];
        }
      }
      break;
    }
  }
}

std::vector<double> pack_corner(const double* ext, const TileGeom& g,
                                Corner corner, int s) {
  return pack_corner_planes(ext, g, corner, s, 1);
}

void unpack_corner(double* ext, const TileGeom& g, Corner corner,
                   std::span<const double> block, int s) {
  require(block.size() == static_cast<std::size_t>(s) * s,
          "corner block size mismatch");
  // Ghost extents at this corner.
  const int depth_r = (corner == Corner::NW || corner == Corner::NE) ? g.gn : g.gs;
  const int depth_c = (corner == Corner::NW || corner == Corner::SW) ? g.gw : g.ge;
  require(depth_r <= s && depth_c <= s, "ghost deeper than corner block");

  for (int a = 1; a <= depth_r; ++a) {
    for (int b = 1; b <= depth_c; ++b) {
      // Consumer ghost cell at distance (a,b) into the corner equals the
      // diagonal producer's core cell at distance (a,b) from its opposite
      // corner, i.e. block element (s-a, s-b) mirrored appropriately.
      int gi = 0;
      int gj = 0;
      int br = 0;
      int bc = 0;
      switch (corner) {
        case Corner::NW:
          gi = -a; gj = -b; br = s - a; bc = s - b; break;
        case Corner::NE:
          gi = -a; gj = g.w - 1 + b; br = s - a; bc = b - 1; break;
        case Corner::SW:
          gi = g.h - 1 + a; gj = -b; br = a - 1; bc = s - b; break;
        case Corner::SE:
          gi = g.h - 1 + a; gj = g.w - 1 + b; br = a - 1; bc = b - 1; break;
      }
      ext[g.idx(gi, gj)] = block[static_cast<std::size_t>(br) * s + bc];
    }
  }
}

std::vector<double> pack_edge_lines(const double* ext, const TileGeom& g,
                                    int depth, int nplanes) {
  require(nplanes >= 1, "nplanes must be >= 1");
  require(depth >= 1 && depth <= g.h && depth <= g.w,
          "edge lines deeper than the tile");
  const std::size_t per = edge_lines_per_plane(g, depth);
  std::vector<double> lines(per * static_cast<std::size_t>(nplanes));
  for (int p = 0; p < nplanes; ++p) {
    const CellView src = CellView(ext, g).plane_view(p);
    double* dst = lines.data() + static_cast<std::size_t>(p) * per;
    for (Side s : kAllSides) {
      const EdgeLayout e = edge_layout(g, s, depth);
      copy_block(dst + e.offset, src, e.row0, e.col0, e.rows, e.cols);
    }
  }
  return lines;
}

CellView edge_line_view(const double* lines, const TileGeom& g, Side side,
                        int depth) {
  const EdgeLayout e = edge_layout(g, side, depth);
  return {lines + e.offset, edge_lines_per_plane(g, depth),
          static_cast<std::size_t>(e.cols), e.row0, e.col0};
}

void copy_local_line(double* ext, const TileGeom& g, Side side,
                     const CellView& nbr, const TileGeom& ng, int depth) {
  require(depth >= 1, "local line depth must be >= 1");
  switch (side) {
    case Side::West:
    case Side::East: {
      require(g.gn == ng.gn && g.gs == ng.gs && g.h == ng.h,
              "row extents misaligned for local line copy");
      require((side == Side::West ? g.gw : g.ge) == depth,
              "local line depth must equal ghost depth");
      require(depth <= ng.w, "local line deeper than neighbor tile");
      for (int d = 0; d < depth; ++d) {
        const int dst_col = side == Side::West ? -depth + d : g.w + d;
        const int src_col = side == Side::West ? ng.w - depth + d : d;
        const double* src = nbr.at(-g.gn, src_col);
        for (int i = -g.gn; i < g.h + g.gs; ++i, src += nbr.stride) {
          ext[g.idx(i, dst_col)] = *src;
        }
      }
      break;
    }
    case Side::North:
    case Side::South: {
      require(g.gw == ng.gw && g.ge == ng.ge && g.w == ng.w,
              "col extents misaligned for local line copy");
      require((side == Side::North ? g.gn : g.gs) == depth,
              "local line depth must equal ghost depth");
      require(depth <= ng.h, "local line deeper than neighbor tile");
      for (int d = 0; d < depth; ++d) {
        const int dst_row = side == Side::North ? -depth + d : g.h + d;
        const int src_row = side == Side::North ? ng.h - depth + d : d;
        std::memcpy(ext + g.idx(dst_row, -g.gw), nbr.at(src_row, -ng.gw),
                    static_cast<std::size_t>(g.ld()) * sizeof(double));
      }
      break;
    }
  }
}

void copy_local_corner(double* ext, const TileGeom& g, Corner corner,
                       const CellView& diag, const TileGeom& dg) {
  const int depth_r = (corner == Corner::NW || corner == Corner::NE) ? g.gn : g.gs;
  const int depth_c = (corner == Corner::NW || corner == Corner::SW) ? g.gw : g.ge;
  require(depth_r <= dg.h && depth_c <= dg.w,
          "local corner deeper than diagonal tile");
  for (int a = 1; a <= depth_r; ++a) {
    for (int b = 1; b <= depth_c; ++b) {
      int gi = 0, gj = 0, si = 0, sj = 0;
      switch (corner) {
        case Corner::NW:
          gi = -a; gj = -b; si = dg.h - a; sj = dg.w - b; break;
        case Corner::NE:
          gi = -a; gj = g.w - 1 + b; si = dg.h - a; sj = b - 1; break;
        case Corner::SW:
          gi = g.h - 1 + a; gj = -b; si = a - 1; sj = dg.w - b; break;
        case Corner::SE:
          gi = g.h - 1 + a; gj = g.w - 1 + b; si = a - 1; sj = b - 1; break;
      }
      ext[g.idx(gi, gj)] = *diag.at(si, sj);
    }
  }
}

std::vector<double> pack_band_planes(const double* ext, const TileGeom& g,
                                     Side side, int depth, int nplanes) {
  require(nplanes >= 1, "nplanes must be >= 1");
  std::vector<double> out(band_size(g, side, depth) *
                          static_cast<std::size_t>(nplanes));
  pack_band_planes_into(out.data(), ext, g, side, depth, nplanes);
  return out;
}

void unpack_band_planes(double* ext, const TileGeom& g, Side side,
                        std::span<const double> band, int depth, int nplanes) {
  require(nplanes >= 1 && band.size() % static_cast<std::size_t>(nplanes) == 0,
          "band size not a multiple of nplanes");
  const std::size_t per = band.size() / static_cast<std::size_t>(nplanes);
  for (int p = 0; p < nplanes; ++p) {
    unpack_band(ext + static_cast<std::size_t>(p) * g.size(), g, side,
                band.subspan(static_cast<std::size_t>(p) * per, per), depth);
  }
}

std::vector<double> pack_corner_planes(const double* ext, const TileGeom& g,
                                       Corner corner, int s, int nplanes) {
  require(nplanes >= 1, "nplanes must be >= 1");
  std::vector<double> out(corner_size(g, s) *
                          static_cast<std::size_t>(nplanes));
  pack_corner_planes_into(out.data(), ext, g, corner, s, nplanes);
  return out;
}

void unpack_corner_planes(double* ext, const TileGeom& g, Corner corner,
                          std::span<const double> block, int s, int nplanes) {
  require(nplanes >= 1 && block.size() % static_cast<std::size_t>(nplanes) == 0,
          "corner block size not a multiple of nplanes");
  const std::size_t per = block.size() / static_cast<std::size_t>(nplanes);
  for (int p = 0; p < nplanes; ++p) {
    unpack_corner(ext + static_cast<std::size_t>(p) * g.size(), g, corner,
                  block.subspan(static_cast<std::size_t>(p) * per, per), s);
  }
}

std::size_t pack_band_planes_into(double* dst, const double* ext,
                                  const TileGeom& g, Side side, int depth,
                                  int nplanes) {
  require(nplanes >= 1, "nplanes must be >= 1");
  std::size_t written = 0;
  for (int p = 0; p < nplanes; ++p) {
    written += pack_band_into(dst + written,
                              ext + static_cast<std::size_t>(p) * g.size(), g,
                              side, depth);
  }
  return written;
}

std::size_t pack_corner_planes_into(double* dst, const double* ext,
                                    const TileGeom& g, Corner corner, int s,
                                    int nplanes) {
  require(nplanes >= 1, "nplanes must be >= 1");
  std::size_t written = 0;
  for (int p = 0; p < nplanes; ++p) {
    written += pack_corner_into(dst + written,
                                ext + static_cast<std::size_t>(p) * g.size(),
                                g, corner, s);
  }
  return written;
}

void copy_local_line_planes(double* ext, const TileGeom& g, Side side,
                            const CellView& nbr, const TileGeom& ng, int depth,
                            int nplanes) {
  require(nplanes >= 1, "nplanes must be >= 1");
  for (int p = 0; p < nplanes; ++p) {
    copy_local_line(ext + static_cast<std::size_t>(p) * g.size(), g, side,
                    nbr.plane_view(p), ng, depth);
  }
}

void copy_local_corner_planes(double* ext, const TileGeom& g, Corner corner,
                              const CellView& diag, const TileGeom& dg,
                              int nplanes) {
  require(nplanes >= 1, "nplanes must be >= 1");
  for (int p = 0; p < nplanes; ++p) {
    copy_local_corner(ext + static_cast<std::size_t>(p) * g.size(), g, corner,
                      diag.plane_view(p), dg);
  }
}

}  // namespace repro::stencil
