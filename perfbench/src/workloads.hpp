// The five perfbench workloads. Each runs either the untraced end-to-end
// measurement or, with args.trace, the traced per-layer decomposition, and
// reports through one Report whose finish() prints the result line.
#pragma once

#include "harness.hpp"

namespace perfbench {

/// The virtual cluster every solve runs on: 2 x 2 nodes, one compute worker
/// each (four workers on a four-core host).
inline constexpr int kNodeRows = 2;
inline constexpr int kNodeCols = 2;
inline constexpr int kWorkersPerRank = 1;

/// kernel_bound, latency_bound, ca_fused.
bool is_solve_workload(const std::string& name);
void run_solve_workload(const Args& args);

/// serve_open_loop.
void run_serve_workload(const Args& args);

/// des_fig8.
void run_des_workload(const Args& args);

}  // namespace perfbench
