// Unit-cost probes of the traced run. Each one times a public call of one
// module in isolation, at the shape the workload drives it with, so the
// ledger can multiply it by the exact counts a solve returns.
#pragma once

#include <cstddef>

#include "stencil/kernel_opt.hpp"

namespace perfbench {

struct KernelProbe {
  double ns_per_pt = 0.0;
  double computed_gbs = 0.0;  ///< 16 computed bytes per point / kernel time
};
/// jacobi5_opt over one tile x tile core with `ghost`-deep halos, cache-warm.
KernelProbe probe_kernel(int tile, int ghost,
                         repro::stencil::KernelVariant variant, bool tiny);

struct PackProbe {
  double pack_ns_per_double = 0.0;
  double unpack_ns_per_double = 0.0;
};
/// pack_band_planes_into / unpack_band_planes on all four sides at `depth`
/// (plus the s x s corner packers when `corners`).
PackProbe probe_pack(int tile, int depth, bool corners, bool tiny);

/// Runtime::run over an empty-body graph: `tiles` x `tiles` tasks per
/// iteration, each depending on itself and its four neighbours one
/// iteration back, blocked over node_rows x node_cols ranks, about `tasks`
/// tasks in total. Returns worker-busy nanoseconds per task.
double probe_dispatch_ns_per_task(int node_rows, int node_cols, int workers,
                                  int tiles, std::size_t tasks, bool tiny);

struct NetProbe {
  double msg_us = 0.0;             ///< one-way Transport send -> recv
  double gbs = 0.0;                ///< Transport streaming throughput
  double persistent_msg_us = 0.0;  ///< one-way through a PersistentChannel
};
/// Messages of `message_bytes` wire bytes between one sender and one
/// receiver thread.
NetProbe probe_net(std::size_t message_bytes, bool tiny);

struct ObsProbe {
  double counter_add_ns = 0.0;
  double flight_record_ns = 0.0;
};
/// obs::Counter::add on one shared counter and FlightRecorder::record into
/// per-thread lanes, from `threads` threads at once.
ObsProbe probe_obs(int threads, bool tiny);

struct StreamProbe {
  double copy_gbs = 0.0;
  std::size_t array_bytes = 0;
  std::size_t llc_bytes = 0;
};
/// Single-thread STREAM COPY with each array at least four times the
/// last-level cache.
StreamProbe probe_stream(bool tiny);

/// sim::simulate on a synthetic stencil-shaped SimGraph of about `tasks`
/// tasks (4x4 nodes, `tiles` x `tiles` tiles, five in-edges per task).
double probe_des_ns_per_task(std::size_t tasks, int tiles, int tile);

}  // namespace perfbench
