// Serial reference Jacobi solver: the ground truth every distributed
// implementation must match bit-for-bit (identical per-point operation
// order; Jacobi has no cross-point ordering, so determinism is exact).
#pragma once

#include "stencil/grid.hpp"
#include "stencil/problem.hpp"

namespace repro::stencil {

/// Run `problem.iterations` Jacobi sweeps and return the final grid. The
/// 5-point program (and its coefficient variant) runs the independent
/// serial_sweep/serial_sweep_var loop below; every other spec runs
/// solve_serial_spec (spec_kernel.hpp) and returns its z plane 0.
Grid2D solve_serial(const Problem& problem);

/// One sweep: out.interior = stencil(in), ring copied through.
void serial_sweep(const Grid2D& in, Grid2D& out, const Stencil5& weights);

/// Variable-coefficient sweep; evaluation order per point matches the
/// constant-weight sweep, so constant planes give bit-identical results.
void serial_sweep_var(const Grid2D& in, Grid2D& out, const CoeffFn& coeff);

}  // namespace repro::stencil
