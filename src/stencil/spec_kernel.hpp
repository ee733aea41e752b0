// Generic spec kernel: execute a compiled stencil stage (spec/stages.hpp)
// over halo-padded multi-plane tile buffers, plus the serial solve of any
// problem's compiled program (solve_serial_spec) — the bit-exact oracle for
// every distributed run.
//
// Buffer layout: nfield planes of geom.size() doubles each, plane-major —
// plane c's cell (i, j) lives at c * geom.size() + geom.idx(i, j) (the same
// layout as the variable-coefficient kCoeffPlanes buffers).
//
// Bit-exactness contract: the serial oracle and the distributed driver call
// the SAME apply_program_stage with the same per-point tap order, and Jacobi
// sweeps have no cross-point ordering, so any tiling/traversal yields
// identical bits. The recognized star5 program additionally dispatches the
// jacobi5 kernels (bit-identical by kernel_opt.hpp's rule).
#pragma once

#include <vector>

#include "spec/stages.hpp"
#include "stencil/grid.hpp"
#include "stencil/kernel_opt.hpp"
#include "stencil/problem.hpp"

namespace repro::stencil {

/// Compile problem.spec for problem.nz and check the problem can run it: the
/// field samplers its rank reads are set (initial/boundary, or
/// initial3/boundary3 for rank 3) and a coefficient problem's program is the
/// 5-point one. Throws std::invalid_argument on violations.
spec::CompiledProgram compile_problem_spec(const Problem& problem);

/// The initial condition of field plane `plane` (in [0, nfield)), chosen once
/// per plane: `initial` inside the interior box, `boundary` outside. Rank <= 2
/// programs read Problem::initial/boundary; rank-3 programs read
/// initial3/boundary3 at the plane's z, and their frozen z-boundary planes
/// read boundary3 only (`initial` is empty there).
struct PlaneSample {
  CellFn initial;
  CellFn boundary;
};
PlaneSample spec_sample(const spec::CompiledProgram& prog,
                        const Problem& problem, int plane);

/// Fill field plane `plane` of `dst` (one plane of geometry g) over its
/// padded extents with spec_sample's values; core cell (0, 0) sits at global
/// (gr0, gc0). The serial oracle and the distributed INIT tasks both start
/// from it.
void sample_plane(const spec::CompiledProgram& prog, const Problem& problem,
                  int plane, const TileGeom& g, long gr0, long gc0,
                  double* dst);

/// Apply the program's stage over [r0,r1) x [c0,c1) in core coordinates
/// (bounds may reach into ghost regions; the stage reads prog.radius cells
/// deep). `in` and `out` are nfield-plane buffers; planes the stage does not
/// write (the frozen z-boundary planes) must already hold their values in
/// `out`. Blocked/Vector variants change the traversal only (bit-identical);
/// the recognized star5 program dispatches jacobi5_opt.
void apply_program_stage(const double* in, double* out, const TileGeom& geom,
                         const spec::CompiledProgram& prog, int r0, int r1,
                         int c0, int c1,
                         KernelVariant kernel = KernelVariant::Scalar,
                         const KernelTuning& tuning = {});

/// The serial solve of the problem's compiled program: one radius-padded
/// buffer, one apply_program_stage sweep per iteration through kernel
/// `variant` (every variant is bit-identical). Returns the nz interior z
/// planes (rank <= 2: exactly one); ring cells hold the boundary, like the
/// distributed gather. Coefficient problems throw (solve_serial runs them).
std::vector<Grid2D> solve_serial_spec(
    const Problem& problem, KernelVariant variant = KernelVariant::Scalar,
    const KernelTuning& tuning = {});

}  // namespace repro::stencil
