// Paper-scale performance models built on the DES and machine presets.
//
// Three models cover the evaluation section:
//   * simulate_stencil(): unfolds the SAME tile task graph the real runtime
//     executes (base or CA, any step size/ratio) into a SimGraph with
//     calibrated task costs and message sizes, and replays it through the
//     DES. Drives Figs. 7, 8, 9 and the simulated half of Fig. 10.
//   * single_node_gflops_model(): closed-form shared-memory model of
//     GFLOP/s vs tile size (task overhead at small tiles, cache spill /
//     load imbalance at large tiles). Drives the preset curves of Fig. 6.
//   * simulate_petsc(): closed-form model of the PETSc baseline (1 MPI rank
//     per core, 1D row partition, 2x memory traffic from CSR indices).
//     Drives the PETSc series of Fig. 7.
#pragma once

#include <memory>

#include "obs/metrics.hpp"
#include "sim/des.hpp"
#include "sim/machine.hpp"
#include "spec/stencil_spec.hpp"

namespace repro::sim {

/// Task classes recorded in the DES trace.
inline constexpr std::uint16_t kKlassInit = 0;
inline constexpr std::uint16_t kKlassInterior = 1;
inline constexpr std::uint16_t kKlassBoundary = 2;

/// Expected retransmission cost of a lossy link under the capped-retry
/// policy of fault::ReliableChannel: messages are dropped i.i.d. with
/// probability `loss_rate`, retransmitted after an exponentially backed-off
/// timeout, and given up after `max_retries` resends. The model feeds the
/// DES two aggregates:
///   * expected_attempts() scales every send's wire cost (the NIC/comm
///     thread pays for each transmission, including the doomed ones);
///   * expected_extra_latency_s() adds the mean timeout wait a delivered
///     message accumulated before its successful transmission.
struct LossModel {
  double loss_rate = 0.0;  ///< per-transmission drop probability in [0, 1)
  double retransmit_timeout_s = 5e-3;
  double backoff = 2.0;
  int max_retries = 12;

  /// Mean transmissions per message: (1 - p^{R+1}) / (1 - p), capped at R+1.
  double expected_attempts() const {
    const double p = loss_rate;
    if (p <= 0.0) return 1.0;
    double attempts = 0.0, prob = 1.0;
    for (int k = 0; k <= max_retries; ++k, prob *= p) attempts += prob;
    return attempts;
  }

  /// Mean timeout wait before the transmission that succeeds, conditioned on
  /// delivery within the retry budget.
  double expected_extra_latency_s() const {
    const double p = loss_rate;
    if (p <= 0.0) return 0.0;
    double wait = 0.0, norm = 0.0, prob = 1.0;  // prob = p^k
    for (int k = 0; k <= max_retries; ++k, prob *= p) {
      // k failed transmissions first: wait the first k backoff intervals.
      double intervals = 0.0, t = retransmit_timeout_s;
      for (int j = 0; j < k; ++j, t *= backoff) intervals += t;
      wait += prob * (1.0 - p) * intervals;
      norm += prob * (1.0 - p);
    }
    return norm > 0.0 ? wait / norm : 0.0;
  }
};

struct StencilSimParams {
  Machine machine;
  int N = 0;            ///< square problem size
  int tile = 0;         ///< square tile size (paper's mb = nb)
  int node_rows = 1;
  int node_cols = 1;
  int iterations = 100;
  int steps = 1;        ///< 1 = base-PaRSEC, >1 = CA-PaRSEC
  double ratio = 1.0;   ///< kernel-adjustment ratio (Figs. 8/9)
  /// Fused-wavefront depth (DistConfig::fuse_depth analog). With fuse = f >
  /// 1 the model unfolds the REWRITTEN graph rt::fuse_supersteps produces:
  /// one task per tile per window of steps * f iterations (task overhead
  /// paid once per window), radius * steps * f deep ghost bands on EVERY
  /// neighbor side (local neighbors included — their per-step edges become
  /// in-task staging), and one remote exchange per window whose band and
  /// corner payloads match the real driver's byte for byte.
  int fuse = 1;
  /// Stencil spec the run models. The default star5 reproduces the classic
  /// model exactly; other specs change the message schedule the way the real
  /// driver does — bands and corner blocks are radius * steps deep and carry
  /// the program's nfield field planes, and diagonal-tap specs (box9, ...)
  /// add corner exchanges at every superstep.
  spec::StencilSpec stencil = spec::StencilSpec::star5();
  int nz = 1;           ///< interior z planes (rank-3 specs)
  /// Schedule node-boundary tiles ahead of interior tiles (the runtime's
  /// default). Ablation knob.
  bool boundary_priority = true;
  /// Merge per-destination messages (rt::Config::aggregate_messages analog).
  bool aggregate_messages = false;
  /// Model the persistent-channel wire schedule (DistConfig::persistent
  /// analog): every remote halo edge is carried as the route's nfield FRAG
  /// messages with the exact net::PersistentChannel framing, the one-time
  /// OPEN/ACK handshake is added to the traffic totals, and the per-byte
  /// payload alloc+copy cost the default path pays at both comm threads is
  /// removed (registered buffers, zero-copy delivery).
  bool persistent = false;
  /// Model live cross-rank telemetry (DistConfig::telemetry analog): at
  /// every superstep boundary — 1 + iterations/steps per run, INIT's k = 0
  /// included — each rank > 0 ships one fixed-size snapshot message to rank
  /// 0 (obs::kTelemetryWireBytes, byte-exact vs the real wire format), added
  /// to the traffic totals. With `metrics` set, the obs_telemetry_* families
  /// are also published under source="sim" via a synthetic collector.
  bool telemetry = false;
  /// Lossy-link retry cost (loss_rate 0 = exact lossless model).
  LossModel loss{};
  /// When set, the model publishes its counters into this registry under the
  /// SAME family names the real stack uses (net_messages_total,
  /// net_bytes_total, rt_tasks_executed_total; label source="sim"), so
  /// model-vs-real cross-validation is a metrics diff.
  std::shared_ptr<obs::MetricsRegistry> metrics{};
};

struct StencilSimOutput {
  SimResult sim;
  double time_s = 0.0;
  double gflops = 0.0;         ///< nominal 9*N^2*ratio^2*iters / time
  double redundant_fraction = 0.0;  ///< extra CA compute vs nominal
  /// Persistent mode only: one-time OPEN/ACK route negotiation traffic,
  /// already included in sim.messages / sim.message_bytes.
  std::uint64_t handshake_messages = 0;
  double handshake_bytes = 0.0;
  /// Telemetry mode only: modeled snapshot traffic ((nodes - 1) x superstep
  /// boundaries), already included in sim.messages / sim.message_bytes.
  std::uint64_t telemetry_messages = 0;
  double telemetry_bytes = 0.0;
};

StencilSimOutput simulate_stencil(const StencilSimParams& params,
                                  bool trace = false);

/// Shared-memory single-node GFLOP/s for a given tile size (Fig. 6 model).
double single_node_gflops_model(const Machine& machine, int N, int tile);

struct PetscSimParams {
  Machine machine;
  int N = 0;
  int nodes = 1;
  int iterations = 100;
};

struct PetscSimOutput {
  double time_s = 0.0;
  double gflops = 0.0;
};

PetscSimOutput simulate_petsc(const PetscSimParams& params);

}  // namespace repro::sim
