// Generic spec kernel: execute a compiled stencil stage (spec/stages.hpp)
// over halo-padded multi-plane tile buffers, plus the spec-driven serial
// reference (solve_serial_spec) — the bit-exact oracle for every spec-driven
// distributed run.
//
// Buffer layout: nfield planes of geom.size() doubles each, plane-major —
// plane c's cell (i, j) lives at c * geom.size() + geom.idx(i, j) (the same
// layout as the variable-coefficient kCoeffPlanes buffers).
//
// Bit-exactness contract: the serial oracle and the distributed driver call
// the SAME apply_program_stage with the same per-point tap order, and Jacobi
// sweeps have no cross-point ordering, so any tiling/traversal yields
// identical bits. The recognized star5 program additionally dispatches the
// classic jacobi5 kernels (bit-identical by kernel_opt.hpp's rule).
#pragma once

#include <vector>

#include "spec/stages.hpp"
#include "stencil/grid.hpp"
#include "stencil/kernel_opt.hpp"
#include "stencil/problem.hpp"

namespace repro::stencil {

/// Compile problem.spec for problem.nz, validating the spec-path invariants
/// (spec set; initial3/boundary3 present; no coefficient; nz matches the
/// rank). Throws std::invalid_argument on violations.
spec::CompiledProgram compile_problem_spec(const Problem& problem);

/// Initial value of field plane `plane` (in [0, nfield)) at global (gi, gj):
/// initial3 inside the interior box (all three axes), boundary3 outside.
/// Used identically by the serial oracle and the distributed INIT tasks.
double spec_sample(const spec::CompiledProgram& prog, const Problem& problem,
                   int plane, long gi, long gj);

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

/// The spec-driven serial reference: runs the SAME compiled stage as the
/// distributed driver on one radius-padded buffer and returns the nz interior
/// z planes (rank <= 2: exactly one). Ring cells hold boundary3, like the
/// distributed gather.
std::vector<Grid2D> solve_serial_spec(const Problem& problem);

}  // namespace repro::stencil
