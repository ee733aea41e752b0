// Compile a StencilSpec into the one direct stage the kernels sweep: every
// point of the spec becomes a tap at its full offset, so a radius-r spec reads
// r cells deep on the decomposed axes and the distributed builder runs it
// with r-deep halos and r*s-deep CA ghost bands (PA1 for wider stencils).
//
// Rank 3 runs as 2.5D: z is folded into field planes (one plane per z index,
// Dirichlet z-boundary planes included), and z offsets become plane deltas of
// the taps; only the two decomposed axes are distributed.
#pragma once

#include <array>
#include <optional>
#include <vector>

#include "spec/stencil_spec.hpp"

namespace repro::spec {

/// One read of the stage: field plane + decomposed-axis shift. Taps are
/// accumulated in listed order (semantic: pins FP rounding).
struct StageTap {
  int plane = 0;
  int di = 0;  ///< row shift, |di| <= radius
  int dj = 0;  ///< col shift, |dj| <= radius
  double w = 0.0;
};

/// One field plane the stage writes (one per interior z plane).
struct StageOutput {
  int plane = 0;
  std::vector<StageTap> taps;
};

/// A compiled stencil: one stage over nfield field planes per cell. Plane c
/// holds z index (c - zlo); planes outside [zlo, zlo + nz) are frozen
/// Dirichlet z-boundary planes the stage reads but never writes.
struct CompiledProgram {
  int rank = 2;
  int nz = 1;       ///< interior z planes
  int zlo = 0;      ///< z ghost planes below (rank 3 only)
  int zhi = 0;      ///< z ghost planes above
  int nfield = 1;   ///< nz + zlo + zhi — the planes halo exchange carries
  int radius = 1;   ///< reach on the decomposed axes: max(1, radius_xy())
  bool diagonal_taps = false;  ///< any tap with di != 0 && dj != 0
  std::vector<StageOutput> outputs;
  /// Set when the program is the 2D 5-point stencil in jacobi5 tap order
  /// (c, n, s, w, e) — the kernels dispatch jacobi5/jacobi5_opt for it, and
  /// coefficient problems and kernel_ratio < 1 require it.
  std::optional<std::array<double, 5>> star5;

  /// Flops per computed cell of one sweep, all z planes together (the
  /// 5-point program's 9 matches kFlopsPerPoint).
  double flops_per_point() const;
};

/// Compile `spec` for `nz` interior z planes (must be 1 for rank <= 2).
/// Validates the spec; throws std::invalid_argument on malformed input.
CompiledProgram compile_spec(const StencilSpec& spec, int nz = 1);

}  // namespace repro::spec
