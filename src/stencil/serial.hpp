// Serial reference Jacobi solver: the ground truth every distributed
// implementation must match bit-for-bit (identical per-point operation
// order; Jacobi has no cross-point ordering, so determinism is exact).
#pragma once

#include "stencil/grid.hpp"
#include "stencil/kernel_opt.hpp"
#include "stencil/problem.hpp"

namespace repro::stencil {

/// Run `problem.iterations` Jacobi sweeps and return the final grid. Spec
/// problems run the compiled stage (solve_serial_spec in spec_kernel.hpp)
/// and return its z plane 0.
Grid2D solve_serial(const Problem& problem);

/// Serial solve through an optimized kernel variant (kernel_opt.hpp): one
/// sweep of the whole interior per iteration, bit-identical to
/// solve_serial. Only the plain constant-coefficient problem is supported;
/// coefficient problems throw.
Grid2D solve_serial_opt(const Problem& problem, KernelVariant variant,
                        const KernelTuning& tuning = {});

/// One sweep: out.interior = stencil(in), ring copied through.
void serial_sweep(const Grid2D& in, Grid2D& out, const Stencil5& weights);

/// Variable-coefficient sweep; evaluation order per point matches the
/// constant-weight sweep, so constant planes give bit-identical results.
void serial_sweep_var(const Grid2D& in, Grid2D& out, const CoeffFn& coeff);

}  // namespace repro::stencil
