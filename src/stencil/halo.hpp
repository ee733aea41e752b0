// Halo packing/unpacking between halo-padded tiles.
//
// Terminology (all in a tile's core coordinates, see TileGeom):
//   * a BAND is `depth` rows/cols of a producer's core adjacent to one side,
//     shipped to the neighbor on that side, which stores it in its ghost
//     region: producer's South band becomes its south neighbor's north ghost.
//   * a CORNER block is an s x s piece of a producer's core corner, shipped
//     to the diagonal neighbor (PA1's "buffer additional data from the four
//     corner neighbors"); the consumer uses the gn x gw (etc.) sub-block its
//     ghost geometry actually has.
//   * a LOCAL LINE is the radius-deep ghost line refreshed every inner step
//     from a same-node neighbor; it spans the full *extended* lateral extent
//     so that the lateral cells of deep (remote-side) ghost bands are
//     refreshed transparently — this is what keeps the CA shrinking regions
//     of adjacent boundary tiles consistent without extra messages. The
//     reader copies it through a CellView: out of the neighbor's whole
//     extended state, or out of the EDGE LINES a large neighbor packs for
//     its same-node readers (its radius-deep edge rows and columns over the
//     full extended extent), so that the state itself has one reader, the
//     tile's own next step. Either source yields the same cells in the same
//     order.
#pragma once

#include <span>
#include <vector>

#include "stencil/kernel.hpp"

namespace repro::stencil {

enum class Side { North = 0, South = 1, West = 2, East = 3 };
enum class Corner { NW = 0, NE = 1, SW = 2, SE = 3 };

inline constexpr Side kAllSides[] = {Side::North, Side::South, Side::West,
                                     Side::East};
inline constexpr Corner kAllCorners[] = {Corner::NW, Corner::NE, Corner::SW,
                                         Corner::SE};

/// Tile-coordinate delta of the neighbor on `side` / at `corner`.
constexpr int d_ti(Side s) { return s == Side::North ? -1 : s == Side::South ? 1 : 0; }
constexpr int d_tj(Side s) { return s == Side::West ? -1 : s == Side::East ? 1 : 0; }
constexpr int d_ti(Corner c) { return (c == Corner::NW || c == Corner::NE) ? -1 : 1; }
constexpr int d_tj(Corner c) { return (c == Corner::NW || c == Corner::SW) ? -1 : 1; }

/// The side/corner seen from the other end of the edge.
constexpr Side opposite(Side s) {
  switch (s) {
    case Side::North: return Side::South;
    case Side::South: return Side::North;
    case Side::West: return Side::East;
    case Side::East: return Side::West;
  }
  return Side::North;
}
constexpr Corner opposite(Corner c) {
  switch (c) {
    case Corner::NW: return Corner::SE;
    case Corner::NE: return Corner::SW;
    case Corner::SW: return Corner::NE;
    case Corner::SE: return Corner::NW;
  }
  return Corner::NW;
}

/// Static display name of a side ("north", "south", "west", "east").
const char* side_name(Side s);

/// Pack `depth` core rows/cols adjacent to `side`. North/South bands are
/// depth x w row-major; West/East bands are h x depth row-major.
std::vector<double> pack_band(const double* ext, const TileGeom& g, Side side,
                              int depth);

/// Fill this tile's ghost band on `side` (core-width lateral extent, full
/// ghost depth on that side) from the band packed by the neighbor's opposite
/// side with the same depth.
void unpack_band(double* ext, const TileGeom& g, Side side,
                 std::span<const double> band, int depth);

/// Pack the s x s core block at `corner`.
std::vector<double> pack_corner(const double* ext, const TileGeom& g,
                                Corner corner, int s);

/// Fill this tile's ghost corner region at `corner` (gn x gw cells etc.) from
/// the s x s block packed by the diagonal neighbor's opposite corner.
void unpack_corner(double* ext, const TileGeom& g, Corner corner,
                   std::span<const double> block, int s);

/// Where a same-node reader finds a neighbor's cells, one field plane after
/// another: cell (i, j) of plane p, in the neighbor's core coordinates, is
/// at data[p * plane + (i - row0) * stride + (j - col0)]. Either the
/// neighbor's whole extended state or one edge of its packed edge lines.
struct CellView {
  const double* data = nullptr;  ///< null: nothing to read
  std::size_t plane = 0;         ///< doubles from one field plane to the next
  std::size_t stride = 0;        ///< doubles from one row to the next
  int row0 = 0, col0 = 0;        ///< core coordinates of data[0]

  CellView() = default;
  /// A tile's whole extended state of geometry g.
  CellView(const double* ext, const TileGeom& g)
      : data(ext), plane(g.size()), stride(static_cast<std::size_t>(g.ld())),
        row0(-g.gn), col0(-g.gw) {}
  CellView(const double* d, std::size_t pl, std::size_t st, int r0, int c0)
      : data(d), plane(pl), stride(st), row0(r0), col0(c0) {}

  const double* at(int i, int j) const {
    return data + static_cast<std::size_t>(i - row0) * stride +
           static_cast<std::size_t>(j - col0);
  }
  /// Plane p's cells.
  CellView plane_view(int p) const {
    return {data + static_cast<std::size_t>(p) * plane, plane, stride, row0,
            col0};
  }
};

/// Pack a tile's edge lines, plane-major over the first nplanes planes of
/// `ext`: per plane its `depth` core rows along the north and south edges
/// over the full extended width, then its `depth` core columns along the
/// west and east edges over the full extended height.
std::vector<double> pack_edge_lines(const double* ext, const TileGeom& g,
                                    int depth, int nplanes);

/// The packed lines (pack_edge_lines output) of the edge on `side`, as the
/// producer's cells.
CellView edge_line_view(const double* lines, const TileGeom& g, Side side,
                        int depth);

/// Refresh the `depth`-deep ghost band on `side`, spanning the full extended
/// lateral extent, from the same-node neighbor's cells (depth = the stencil
/// radius; 1 for the paper's 5-point case): a block of rows for a north or
/// south line, columns read with the view's row stride for a west or east
/// one. The two geometries must agree on the lateral extents (guaranteed by
/// blocked distribution), and the ghost depth on `side` must equal `depth`.
void copy_local_line(double* ext, const TileGeom& g, Side side,
                     const CellView& nbr, const TileGeom& ng, int depth = 1);

/// Refresh this tile's ghost corner region at `corner` (gn x gw cells etc.)
/// from the same-node DIAGONAL neighbor's core corner — needed every step by
/// stencils with diagonal taps, whose points read diagonal neighbors
/// directly. A same-node diagonal's two adjacent sides are same-node too, so
/// the region is radius deep both ways and lies in the diagonal's edge rows.
void copy_local_corner(double* ext, const TileGeom& g, Corner corner,
                       const CellView& diag, const TileGeom& dg);

// ------------------------------------------------------- multi-plane variants
//
// Tiles hold their program's nfield planes of g.size() doubles each (plane p
// of buffer `ext` starts at ext + p * g.size()). These variants apply the
// single-plane operation to the first `nplanes` planes, packing/unpacking
// payloads plane-major (plane 0's band first). The single-plane functions are
// the nplanes == 1 case, which every rank <= 2 program runs.

std::vector<double> pack_band_planes(const double* ext, const TileGeom& g,
                                     Side side, int depth, int nplanes);

/// Zero-allocation variants for persistent-channel registered buffers: pack
/// straight into caller-provided storage (plane-major, same layout the
/// allocating packers produce). `dst` must hold band/block doubles x nplanes;
/// returns the doubles written so callers can assert against the negotiated
/// route size.
std::size_t pack_band_planes_into(double* dst, const double* ext,
                                  const TileGeom& g, Side side, int depth,
                                  int nplanes);
std::size_t pack_corner_planes_into(double* dst, const double* ext,
                                    const TileGeom& g, Corner corner, int s,
                                    int nplanes);
void unpack_band_planes(double* ext, const TileGeom& g, Side side,
                        std::span<const double> band, int depth, int nplanes);
std::vector<double> pack_corner_planes(const double* ext, const TileGeom& g,
                                       Corner corner, int s, int nplanes);
void unpack_corner_planes(double* ext, const TileGeom& g, Corner corner,
                          std::span<const double> block, int s, int nplanes);
void copy_local_line_planes(double* ext, const TileGeom& g, Side side,
                            const CellView& nbr, const TileGeom& ng, int depth,
                            int nplanes);
void copy_local_corner_planes(double* ext, const TileGeom& g, Corner corner,
                              const CellView& diag, const TileGeom& dg,
                              int nplanes);

}  // namespace repro::stencil
