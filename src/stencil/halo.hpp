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
//   * a LOCAL LINE is the one-deep ghost line refreshed every inner step from
//     a same-node neighbor's buffer; it spans the full *extended* lateral
//     extent so that the lateral cells of deep (remote-side) ghost bands are
//     refreshed transparently — this is what keeps the CA shrinking regions
//     of adjacent boundary tiles consistent without extra messages.
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

/// Refresh the `depth`-deep ghost band on `side`, spanning the full extended
/// lateral extent, from the same-node neighbor's buffer (depth = the stencil
/// radius; 1 for the paper's 5-point case). The two geometries must agree on
/// the lateral extents (guaranteed by blocked distribution), and the ghost
/// depth on `side` must equal `depth`.
void copy_local_line(double* ext, const TileGeom& g, Side side,
                     const double* nbr, const TileGeom& ng, int depth = 1);

/// Refresh this tile's ghost corner region at `corner` (gn x gw cells etc.)
/// from the same-node DIAGONAL neighbor's core corner — needed every step by
/// stencils with diagonal taps, whose points read diagonal neighbors
/// directly.
void copy_local_corner(double* ext, const TileGeom& g, Corner corner,
                       const double* diag, const TileGeom& dg);

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
                            const double* nbr, const TileGeom& ng, int depth,
                            int nplanes);
void copy_local_corner_planes(double* ext, const TileGeom& g, Corner corner,
                              const double* diag, const TileGeom& dg,
                              int nplanes);

}  // namespace repro::stencil
