// Mini-PETSc distributed Jacobi: x_{k+1} = A x_k over row-partitioned CSR.
//
// Reproduces the paper's baseline implementation: the grid is flattened into
// a (ring-extended) 1D vector, the Jacobi update is a CSR matrix partitioned
// by contiguous row blocks with one single-threaded rank per (virtual) core,
// and each iteration performs a VecScatter-style ghost exchange followed by
// a local SpMV. Ranks run as real threads communicating only through the
// in-memory Transport, mirroring MPI point-to-point semantics.
//
// The scatter plan is negotiated at setup time with request-list messages
// (each rank tells every other rank which of its rows it needs), exactly the
// handshake a VecScatterCreate performs.
#pragma once

#include <cstdint>
#include <memory>

#include "obs/metrics.hpp"
#include "stencil/grid.hpp"
#include "stencil/problem.hpp"

namespace repro::spmv {

struct SpmvRunResult {
  stencil::Grid2D grid;       ///< gathered final field (interior + ring)
  double wall_time_s = 0.0;
  std::uint64_t messages = 0;        ///< iteration-phase messages
  std::uint64_t bytes = 0;           ///< iteration-phase bytes
  std::uint64_t setup_messages = 0;  ///< scatter-plan handshake messages
  double local_traffic_bytes_per_iter = 0.0;  ///< CSR memory-traffic model
};

/// Run the PETSc-like solver on `nranks` single-threaded virtual MPI ranks.
/// The problem's spec must be the 5-point program (build_problem_matrix
/// throws std::invalid_argument otherwise). `metrics`, when given, receives
/// the transport's net_* families plus spmv_iteration_messages_total /
/// spmv_setup_messages_total / spmv_iteration_bytes_total.
SpmvRunResult run_petsc_like(
    const stencil::Problem& problem, int nranks,
    std::shared_ptr<obs::MetricsRegistry> metrics = nullptr);

/// Analytic memory traffic per grid point per iteration for the CSR SpMV
/// formulation (values + 64-bit indices + vector traffic), in bytes. The
/// stencil formulation moves 16-24 B/point; the ratio of the two is the
/// paper's explanation for PETSc's ~2x deficit.
double spmv_bytes_per_point();

/// The stencil formulation's bytes/point bounds (paper section V: "16 to 24
/// Bytes ... depending on the size of tiles").
inline constexpr double kStencilBytesPerPointMin = 16.0;
inline constexpr double kStencilBytesPerPointMax = 24.0;

}  // namespace repro::spmv
