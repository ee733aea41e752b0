#include "sim/models.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>
#include <utility>
#include <vector>

#include "net/persistent_channel.hpp"
#include "obs/telemetry.hpp"
#include "spec/stages.hpp"
#include "stencil/halo.hpp"
#include "stencil/tile_map.hpp"

namespace repro::sim {

namespace {

using stencil::Side;
using stencil::Corner;
using stencil::kAllSides;
using stencil::kAllCorners;
using stencil::d_ti;
using stencil::d_tj;

double smoothstep01(double x) {
  x = std::clamp(x, 0.0, 1.0);
  return x * x * (3.0 - 2.0 * x);
}

/// Cache-spill slowdown factor for a task touching `working_set` bytes on a
/// machine whose per-worker cache share is `share`.
double spill_factor(const Machine& m, double working_set) {
  const double share = m.llc_bytes / m.compute_workers();
  const double t = smoothstep01((working_set / share - 1.0) / 3.0);
  return 1.0 + m.cache_spill_penalty * t;
}

}  // namespace

StencilSimOutput simulate_stencil(const StencilSimParams& p, bool trace) {
  const stencil::TileMap map(p.N, p.N, p.tile, p.tile, p.node_rows,
                             p.node_cols);
  // Compile the spec exactly like the real driver: ghost bands are
  // radius * steps deep, remote payloads carry the nfield field planes, and
  // diagonal-tap programs exchange corners every superstep.
  const spec::CompiledProgram program = spec::compile_spec(p.stencil, p.nz);
  const int radius = program.radius;
  const int nfield = program.nfield;
  const bool diag_taps = program.diagonal_taps;
  const double flops_pp = program.flops_per_point();
  // Task costs are calibrated in 9-FLOP 5-point units; other programs scale
  // by their tap work (approximate — the real kernel's cache behavior
  // differs — but message counts and bytes below are exact).
  const double flops_scale = flops_pp / 9.0;
  // Fused wavefronts: the window W of steps * fuse iterations replaces steps
  // everywhere the exchange cadence matters; ghost bands are radius * W deep
  // (the real fuse-ready builder's radius * steps).
  const int W = p.steps * p.fuse;
  const int depth = radius * W;
  if (p.steps < 1 || p.fuse < 1 || depth > map.min_tile_extent()) {
    throw std::invalid_argument("simulate_stencil: bad step size");
  }
  const bool fused = p.fuse > 1;
  const double worker_rate = p.machine.worker_point_rate();
  const double working_set =
      3.0 * static_cast<double>(p.tile) * p.tile * sizeof(double);
  const double point_time =
      spill_factor(p.machine, working_set) / worker_rate;

  SimGraph graph;
  const int tr = map.tiles_r();
  const int tc = map.tiles_c();
  // Task id layout: id(k, ti, tj) = k*tr*tc + ti*tc + tj, k in 0..iterations
  // (k = 0 is INIT).
  auto id = [&](int k, int ti, int tj) {
    return static_cast<std::uint32_t>(
        (static_cast<std::size_t>(k) * tr + ti) * tc + tj);
  };

  double redundant_points = 0.0;

  // Fused runs unfold one task per tile per W-iteration window (the shape
  // rt::fuse_supersteps leaves behind); classic runs unfold one task per
  // tile per iteration. Window 0 / iteration 0 is INIT either way.
  const int nblocks = fused ? (p.iterations + W - 1) / W : p.iterations;

  // First pass: tasks.
  for (int k = 0; k <= nblocks; ++k) {
    for (int ti = 0; ti < tr; ++ti) {
      for (int tj = 0; tj < tc; ++tj) {
        const int h = map.tile_h(ti);
        const int w = map.tile_w(tj);
        bool remote[4];
        bool deep[4];
        bool boundary = false;
        for (Side s : kAllSides) {
          const auto i = static_cast<int>(s);
          remote[i] = map.neighbor_remote(ti, tj, d_ti(s), d_tj(s));
          // Fused windows carry deep bands on every neighbor side (local
          // neighbors too), so every existing side shrinks; classic CA only
          // shrinks the remote sides.
          deep[i] = fused ? map.valid(ti + d_ti(s), tj + d_tj(s)) : remote[i];
          boundary |= remote[i];
        }

        SimTaskSpec task;
        task.node = map.rank_of(ti, tj);
        task.priority = (boundary && p.boundary_priority) ? 1 : 0;
        if (k == 0) {
          task.klass = kKlassInit;
          task.cost_s = p.machine.task_overhead_s +
                        static_cast<double>(h) * w / worker_rate;
        } else {
          task.klass = boundary ? kKlassBoundary : kKlassInterior;
          // One task models either one iteration or a whole fused window
          // (one runtime task, overhead paid ONCE — the modeled upside of
          // the rewrite). Each step's region loses radius layers, exactly
          // as the real driver's shrink does.
          const int members =
              fused ? std::min(W, p.iterations - (k - 1) * W) : 1;
          double points = 0.0;
          const double core = std::max(1.0, std::round(h * p.ratio)) *
                              std::max(1.0, std::round(w * p.ratio));
          for (int t = 0; t < members; ++t) {
            const int jj = fused ? t : (k - 1) % W;
            const int extra = radius * (W - (jj + 1));
            double rows = h + (deep[0] ? extra : 0) + (deep[1] ? extra : 0);
            double cols = w + (deep[2] ? extra : 0) + (deep[3] ? extra : 0);
            rows = std::max(1.0, std::round(rows * p.ratio));
            cols = std::max(1.0, std::round(cols * p.ratio));
            points += rows * cols;
            redundant_points += rows * cols - core;
          }
          task.cost_s =
              p.machine.task_overhead_s + points * flops_scale * point_time;
        }
        graph.add_task(task);
      }
    }
  }

  // Second pass: edges (mirrors the real graph builder's input flows).
  const double header_bytes = 5.0 * sizeof(std::uint64_t);
  // Persistent-channel framing, matching net::PersistentChannel and the
  // runtime wire format exactly: a FRAG message carries the 5 frag framing
  // words, the embedded 6-word runtime header, and the 8-byte tag on top of
  // its payload slice.
  const double frag_frame_bytes =
      (net::PersistentChannel::kFragHeaderWords + 6 + 1) *
      static_cast<double>(sizeof(std::uint64_t));
  // Ordered (src_rank, dst_rank) -> negotiated routes, for the handshake.
  std::map<std::pair<int, int>, std::uint64_t> route_pairs;
  // One remote halo flow: the default path sends one deep-copied message;
  // the persistent path sends the route's nfield registered fragments. Every
  // superstep-start flow recurs with the same route id, so routes are
  // counted once, at the first superstep (k == 1).
  const auto add_remote_edge = [&](std::uint32_t src_id, std::uint32_t dst_id,
                                   int src_rank, int dst_rank,
                                   std::size_t payload_doubles, int k) {
    if (!p.persistent) {
      graph.add_edge(src_id, dst_id,
                     header_bytes + static_cast<double>(payload_doubles) *
                                        sizeof(double));
      return;
    }
    if (k == 1) ++route_pairs[{src_rank, dst_rank}];
    for (std::uint32_t f = 0; f < static_cast<std::uint32_t>(nfield); ++f) {
      const auto [begin, len] = net::PersistentChannel::fragment_slice(
          payload_doubles, static_cast<std::uint32_t>(nfield), f);
      static_cast<void>(begin);
      graph.add_edge(src_id, dst_id,
                     frag_frame_bytes +
                         static_cast<double>(len) * sizeof(double));
    }
  };
  for (int k = 1; k <= nblocks; ++k) {
    // Fused windows exchange at EVERY window boundary; classic CA at
    // superstep starts only.
    const bool superstep_start = fused || (k - 1) % p.steps == 0;
    for (int ti = 0; ti < tr; ++ti) {
      for (int tj = 0; tj < tc; ++tj) {
        const std::uint32_t me = id(k, ti, tj);
        graph.add_edge(id(k - 1, ti, tj), me);
        for (Side s : kAllSides) {
          const int ni = ti + d_ti(s);
          const int nj = tj + d_tj(s);
          if (!map.valid(ni, nj)) continue;
          const bool is_remote = map.rank_of(ni, nj) != map.rank_of(ti, tj);
          if (!is_remote) {
            // Classic: per-step local line copy. Fused: the neighbor's
            // packed window-boundary band, still a local (zero-byte) edge.
            graph.add_edge(id(k - 1, ni, nj), me);
          } else if (superstep_start) {
            const int lateral = (s == Side::North || s == Side::South)
                                    ? map.tile_w(tj)
                                    : map.tile_h(ti);
            add_remote_edge(id(k - 1, ni, nj), me, map.rank_of(ni, nj),
                            map.rank_of(ti, tj),
                            static_cast<std::size_t>(depth) * lateral * nfield,
                            k);
          }
        }
        if (superstep_start && (diag_taps || W > 1)) {
          for (Corner c : kAllCorners) {
            const int ni = ti + d_ti(c);
            const int nj = tj + d_tj(c);
            if (!map.valid(ni, nj)) continue;
            const bool diag_remote =
                map.rank_of(ni, nj) != map.rank_of(ti, tj);
            if (fused) {
              // Mirrors the fuse-ready TileInfo::corner_in: every existing
              // diagonal supplies its corner block (deep bands on every
              // side need their corners), remote ones as messages.
              if (diag_remote) {
                add_remote_edge(
                    id(k - 1, ni, nj), me, map.rank_of(ni, nj),
                    map.rank_of(ti, tj),
                    static_cast<std::size_t>(depth) * depth * nfield, k);
              } else {
                graph.add_edge(id(k - 1, ni, nj), me);
              }
              continue;
            }
            if (!diag_remote) continue;
            const Side row_side = d_ti(c) < 0 ? Side::North : Side::South;
            const Side col_side = d_tj(c) < 0 ? Side::West : Side::East;
            const bool adjacent_remote =
                map.neighbor_remote(ti, tj, d_ti(row_side), d_tj(row_side)) ||
                map.neighbor_remote(ti, tj, d_ti(col_side), d_tj(col_side));
            // Mirrors TileInfo::corner_in: diagonal-tap programs read their
            // corners every superstep; cross programs only while redundantly
            // recomputing next to a remote side.
            if (!(diag_taps || (W > 1 && adjacent_remote))) continue;
            add_remote_edge(id(k - 1, ni, nj), me, map.rank_of(ni, nj),
                            map.rank_of(ti, tj),
                            static_cast<std::size_t>(depth) * depth * nfield,
                            k);
          }
        }
        if (diag_taps && !fused) {
          // Mirrors TileInfo::corner_local: diagonal-tap programs read each
          // same-node diagonal's previous state on every step.
          for (Corner c : kAllCorners) {
            const int ni = ti + d_ti(c);
            const int nj = tj + d_tj(c);
            if (map.valid(ni, nj) &&
                map.rank_of(ni, nj) == map.rank_of(ti, tj)) {
              graph.add_edge(id(k - 1, ni, nj), me);
            }
          }
        }
      }
    }
  }

  SimMachineConfig config;
  config.nodes = map.nodes();
  config.workers_per_node = p.machine.compute_workers();
  config.link = p.machine.link;
  config.comm_overhead_s = p.machine.comm_overhead_s;
  config.aggregate_per_destination = p.aggregate_messages;
  config.message_cost_multiplier = p.loss.expected_attempts();
  config.extra_latency_s = p.loss.expected_extra_latency_s();
  // Default path: both comm threads copy every payload byte (sender deep
  // copy into the message, receiver materialization into the consumer's
  // buffer) at the single-core streaming rate. Persistent channels send
  // registered buffers and deliver zero-copy, removing that cost.
  config.msg_copy_s_per_byte =
      (!p.persistent && p.machine.core_stream_bw_Bps > 0.0)
          ? 1.0 / p.machine.core_stream_bw_Bps
          : 0.0;

  StencilSimOutput out;
  out.sim = simulate(graph, config, trace);
  if (p.persistent) {
    // One-time negotiation per ordered rank pair: an OPEN listing the pair's
    // n routes ({magic, kind, n} + n x {id, doubles, fragments} + tag) and a
    // fixed-size ACK. Setup traffic, outside the DES critical path.
    for (const auto& [pair, nroutes] : route_pairs) {
      static_cast<void>(pair);
      out.handshake_messages += 2;
      out.handshake_bytes +=
          (4.0 + 3.0 * static_cast<double>(nroutes) + 4.0) *
          sizeof(std::uint64_t);
    }
    out.sim.messages += out.handshake_messages;
    out.sim.message_bytes += out.handshake_bytes;
  }
  if (p.telemetry) {
    // Telemetry rides the same wire as halos: at every superstep boundary
    // (INIT's k = 0 included) each rank > 0 posts one fixed-size snapshot to
    // rank 0. Fixed cost per message keeps the model byte-exact vs the real
    // kWireTelemetry framing.
    const std::uint64_t boundaries =
        1 + static_cast<std::uint64_t>(p.iterations / p.steps);
    out.telemetry_messages =
        static_cast<std::uint64_t>(map.nodes() - 1) * boundaries;
    out.telemetry_bytes = static_cast<double>(out.telemetry_messages) *
                          static_cast<double>(obs::kTelemetryWireBytes);
    out.sim.messages += out.telemetry_messages;
    out.sim.message_bytes += out.telemetry_bytes;
  }
  out.time_s = out.sim.makespan_s;
  // Nominal work on the same basis the real driver accounts (star5: exactly
  // the classic 9 * N^2 * iters).
  const double nominal = flops_pp * static_cast<double>(p.N) * p.N *
                         p.iterations * p.ratio * p.ratio;
  out.gflops = nominal / out.time_s / 1e9;
  out.redundant_fraction =
      redundant_points * flops_pp / std::max(nominal, 1.0);

  if (p.metrics) {
    // Modeled counters under the real stack's family names: a registry diff
    // against a real run IS the model-vs-real cross-validation.
    auto& registry = *p.metrics;
    const obs::Labels sim_labels{{"source", "sim"}};
    const auto publish = [&](const char* name, std::uint64_t value,
                             const char* help) {
      auto counter = std::make_shared<obs::Counter>();
      counter->add(value);
      registry.attach(name, sim_labels, std::move(counter), help);
    };
    publish("net_messages_total", out.sim.messages,
            "Modeled remote messages");
    publish("net_bytes_total",
            static_cast<std::uint64_t>(std::llround(out.sim.message_bytes)),
            "Modeled wire bytes (5-word headers)");
    publish("rt_tasks_executed_total", out.sim.tasks_executed,
            "Modeled tasks executed");
    registry.gauge("sim_makespan_seconds", sim_labels, "Modeled makespan")
        ->set(out.sim.makespan_s);
    registry
        .gauge("sim_network_busy_seconds", sim_labels,
               "Modeled network busy time")
        ->set(out.sim.network_busy_s);
    if (p.telemetry) {
      // Synthetic collector: ingest the snapshot schedule the model predicts
      // (every rank reaches every boundary, no straggler), so the
      // obs_telemetry_* families appear under source="sim" with the same
      // stream shape a healthy real run produces.
      obs::TelemetryCollector collector(map.nodes(), obs::DetectorConfig{},
                                        p.metrics, "sim");
      const int boundaries = 1 + p.iterations / p.steps;
      for (int b = 0; b < boundaries; ++b) {
        for (int rank = 0; rank < map.nodes(); ++rank) {
          obs::TelemetrySnapshot snap;
          snap.rank = rank;
          snap.superstep = static_cast<std::uint64_t>(b);
          collector.ingest(snap);
        }
      }
    }
  }
  return out;
}

double single_node_gflops_model(const Machine& m, int N, int tile) {
  if (tile < 1 || N < tile) {
    throw std::invalid_argument("single_node_gflops_model: bad tile");
  }
  const int tiles = (N + tile - 1) / tile;
  const double tasks = static_cast<double>(tiles) * tiles;
  const double points = static_cast<double>(tile) * tile;
  const double working_set = 3.0 * points * sizeof(double);

  const double task_time =
      m.task_overhead_s +
      points * spill_factor(m, working_set) / m.worker_point_rate();

  // Load imbalance: the last wave of tasks may not fill every worker.
  const int workers = m.compute_workers();
  const double waves = std::ceil(tasks / workers);
  const double iter_time = waves * task_time;
  const double flops = 9.0 * static_cast<double>(N) * N;
  return flops / iter_time / 1e9;
}

PetscSimOutput simulate_petsc(const PetscSimParams& p) {
  const Machine& m = p.machine;
  const double points = static_cast<double>(p.N) * p.N;
  // Compute: 1D-row-partitioned CSR SpMV at petsc_traffic_factor x the tile
  // stencil's effective traffic, node-bandwidth bound (one rank per core
  // saturates the memory interface).
  const double bytes_per_point =
      m.effective_bytes_per_point() * m.petsc_traffic_factor;
  const double compute =
      points / p.nodes * bytes_per_point / m.node_stream_bw_Bps;

  // Communication: with a 1D partition each node block exchanges one grid
  // row (8N bytes) up and down across node boundaries. On-node rank
  // exchanges ride shared memory. PETSc overlaps the scatter with the
  // interior product, so the iteration takes max(compute, wire) plus one
  // latency that cannot be hidden.
  const double wire =
      (p.nodes > 1)
          ? 2.0 * m.link.transfer_time(static_cast<std::size_t>(8 * p.N))
          : 0.0;
  const double iter = std::max(compute, wire) +
                      (p.nodes > 1 ? m.link.latency_s : 0.0);

  PetscSimOutput out;
  out.time_s = iter * p.iterations;
  out.gflops = 9.0 * points * p.iterations / out.time_s / 1e9;
  return out;
}

}  // namespace repro::sim
