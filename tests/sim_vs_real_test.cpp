// Cross-validation: the discrete-event simulator unfolds the SAME task-graph
// shape as the real runtime builder, so for any configuration the two must
// agree exactly on the number of remote messages and (modulo the identical
// header constant) the bytes on the wire. This pins the simulator's fidelity
// to the implementation it models.
#include <gtest/gtest.h>

#include <memory>

#include "obs/metrics.hpp"
#include "sim/models.hpp"
#include "spec/stencil_spec.hpp"
#include "stencil/dist_stencil.hpp"
#include "stencil/problem.hpp"

namespace repro {
namespace {

struct XCase {
  int n, tile, side, iters, steps;
  friend std::ostream& operator<<(std::ostream& os, const XCase& c) {
    return os << "n" << c.n << "_t" << c.tile << "_p" << c.side << "_it"
              << c.iters << "_s" << c.steps;
  }
};

class SimVsReal : public ::testing::TestWithParam<XCase> {};

TEST_P(SimVsReal, MessageCountsAgreeExactly) {
  const XCase c = GetParam();

  // Real execution, instrumented with its own metrics registry.
  const stencil::Problem problem = stencil::random_problem(c.n, c.n, c.iters);
  stencil::DistConfig config;
  config.decomp = {c.tile, c.tile, c.side, c.side};
  config.steps = c.steps;
  config.metrics = std::make_shared<obs::MetricsRegistry>();
  const stencil::DistResult real = run_distributed(problem, config);

  // Simulated execution of the same configuration, publishing its modeled
  // counters into a second registry under the same family names.
  sim::StencilSimParams params{sim::nacl(), c.n, c.tile, c.side, c.side,
                               c.iters, c.steps, 1.0};
  params.metrics = std::make_shared<obs::MetricsRegistry>();
  const sim::StencilSimOutput simulated = sim::simulate_stencil(params);

  EXPECT_EQ(real.stats.messages, simulated.sim.messages);

  // Bytes: the real wire format carries 6 header words per single-flow
  // message + the 8-byte tag; the model charges a 5-word header. Compare the
  // payload volume: real bytes - messages*(7 words) vs model bytes -
  // messages*(5 words).
  const double real_payload =
      static_cast<double>(real.stats.bytes) -
      static_cast<double>(real.stats.messages) * 7 * sizeof(std::uint64_t);
  const double sim_payload =
      simulated.sim.message_bytes -
      static_cast<double>(simulated.sim.messages) * 5 * sizeof(std::uint64_t);
  EXPECT_DOUBLE_EQ(real_payload, sim_payload);

  // The same cross-validation as a metrics diff: both stacks publish
  // net_messages_total / net_bytes_total into their registries, so agreement
  // is a snapshot comparison — no private accessors required.
  if constexpr (obs::kEnabled) {
    const obs::MetricsSnapshot rs = config.metrics->snapshot();
    const obs::MetricsSnapshot ss = params.metrics->snapshot();
    EXPECT_EQ(rs.counter_total("net_messages_total"),
              ss.counter_total("net_messages_total"));
    const double real_metric_payload =
        static_cast<double>(rs.counter_total("net_bytes_total")) -
        static_cast<double>(rs.counter_total("net_messages_total")) * 7 *
            sizeof(std::uint64_t);
    const double sim_metric_payload =
        static_cast<double>(ss.counter_total("net_bytes_total")) -
        static_cast<double>(ss.counter_total("net_messages_total")) * 5 *
            sizeof(std::uint64_t);
    EXPECT_DOUBLE_EQ(real_metric_payload, sim_metric_payload);
  }
}

// Telemetry cross-check: DistConfig::telemetry adds one fixed-size snapshot
// message per non-zero rank per superstep boundary to the real wire, and
// StencilSimParams::telemetry charges the identical schedule. Comparing the
// with-vs-without DELTAS on each side cancels the header-constant difference
// the base test compensates for, so the telemetry traffic itself must agree
// byte for byte.
TEST_P(SimVsReal, TelemetryTrafficAgreesExactly) {
  const XCase c = GetParam();

  const stencil::Problem problem = stencil::random_problem(c.n, c.n, c.iters);
  stencil::DistConfig config;
  config.decomp = {c.tile, c.tile, c.side, c.side};
  config.steps = c.steps;
  const stencil::DistResult plain = run_distributed(problem, config);
  config.telemetry = true;
  const stencil::DistResult live = run_distributed(problem, config);

  sim::StencilSimParams params{sim::nacl(), c.n, c.tile, c.side, c.side,
                               c.iters, c.steps, 1.0};
  const sim::StencilSimOutput sim_plain = sim::simulate_stencil(params);
  params.telemetry = true;
  params.metrics = std::make_shared<obs::MetricsRegistry>();
  const sim::StencilSimOutput sim_live = sim::simulate_stencil(params);

  const std::uint64_t boundaries =
      1 + static_cast<std::uint64_t>(c.iters / c.steps);
  const std::uint64_t nodes = static_cast<std::uint64_t>(c.side) * c.side;
  const std::uint64_t expected_messages = (nodes - 1) * boundaries;

  EXPECT_EQ(live.stats.messages - plain.stats.messages, expected_messages);
  EXPECT_EQ(sim_live.telemetry_messages, expected_messages);
  EXPECT_EQ(sim_live.sim.messages - sim_plain.sim.messages, expected_messages);

  EXPECT_EQ(live.stats.bytes - plain.stats.bytes,
            expected_messages * obs::kTelemetryWireBytes);
  EXPECT_DOUBLE_EQ(sim_live.sim.message_bytes - sim_plain.sim.message_bytes,
                   static_cast<double>(expected_messages *
                                       obs::kTelemetryWireBytes));

  // Rank 0 aggregates the full stream: every rank, every boundary.
  ASSERT_NE(live.telemetry, nullptr);
  EXPECT_EQ(live.telemetry->deltas_total(), nodes * boundaries);

  // The model publishes the same obs_telemetry_* families under
  // source="sim" with the stream shape a healthy run produces.
  if constexpr (obs::kEnabled) {
    const obs::MetricsSnapshot ss = params.metrics->snapshot();
    EXPECT_EQ(ss.counter_total("obs_telemetry_snapshots_total"),
              static_cast<double>(nodes * boundaries));
  }
}

// Persistent-channel cross-check: with DistConfig::persistent the real stack
// replaces each remote halo message with the route's registered FRAG
// fragments plus a one-time OPEN/ACK negotiation; the model replays the same
// schedule with the exact wire framing, so messages AND total bytes agree
// with no header compensation at all.
TEST_P(SimVsReal, PersistentTrafficAgreesExactly) {
  const XCase c = GetParam();

  const stencil::Problem problem = stencil::random_problem(c.n, c.n, c.iters);
  stencil::DistConfig config;
  config.decomp = {c.tile, c.tile, c.side, c.side};
  config.steps = c.steps;
  config.persistent = true;
  const stencil::DistResult real = run_distributed(problem, config);

  sim::StencilSimParams params{sim::nacl(), c.n, c.tile, c.side, c.side,
                               c.iters, c.steps, 1.0};
  params.persistent = true;
  const sim::StencilSimOutput simulated = sim::simulate_stencil(params);

  EXPECT_GT(simulated.handshake_messages, 0u);
  EXPECT_EQ(real.stats.messages, simulated.sim.messages);
  EXPECT_DOUBLE_EQ(static_cast<double>(real.stats.bytes),
                   simulated.sim.message_bytes);
}

// Fused-wavefront cross-check: with DistConfig::fuse_depth the real stack
// emits a fuse-ready graph and rewrites it through rt::fuse_supersteps; the
// model unfolds the rewritten shape directly. Message counts and payload
// bytes must agree exactly — one exchange per window, W-deep band and W^2
// corner payloads — including the composition with persistent channels
// (FRAG framing plus the one-time handshake).
TEST_P(SimVsReal, FusedTrafficAgreesExactly) {
  const XCase c = GetParam();
  for (const int fuse : {2, 3}) {
    if (c.steps * fuse > c.tile) continue;  // window must fit the tile
    SCOPED_TRACE("fuse=" + std::to_string(fuse));

    const stencil::Problem problem =
        stencil::random_problem(c.n, c.n, c.iters);
    stencil::DistConfig config;
    config.decomp = {c.tile, c.tile, c.side, c.side};
    config.steps = c.steps;
    config.fuse_depth = fuse;
    const stencil::DistResult real = run_distributed(problem, config);

    sim::StencilSimParams params{sim::nacl(), c.n, c.tile, c.side, c.side,
                                 c.iters, c.steps, 1.0};
    params.fuse = fuse;
    const sim::StencilSimOutput simulated = sim::simulate_stencil(params);

    EXPECT_EQ(real.stats.messages, simulated.sim.messages);
    const double real_payload =
        static_cast<double>(real.stats.bytes) -
        static_cast<double>(real.stats.messages) * 7 * sizeof(std::uint64_t);
    const double sim_payload =
        simulated.sim.message_bytes -
        static_cast<double>(simulated.sim.messages) * 5 *
            sizeof(std::uint64_t);
    EXPECT_DOUBLE_EQ(real_payload, sim_payload);
    // The fused redundant-compute accounting must agree too: every existing
    // side (local neighbors included) recomputes its deep band.
    EXPECT_DOUBLE_EQ(real.redundancy(), simulated.redundant_fraction);

    stencil::DistConfig pconfig = config;
    pconfig.persistent = true;
    const stencil::DistResult preal = run_distributed(problem, pconfig);
    sim::StencilSimParams pparams = params;
    pparams.persistent = true;
    const sim::StencilSimOutput psim = sim::simulate_stencil(pparams);
    EXPECT_EQ(preal.stats.messages, psim.sim.messages);
    EXPECT_DOUBLE_EQ(static_cast<double>(preal.stats.bytes),
                     psim.sim.message_bytes);
  }
}

// Spec-driven cross-check: the simulator's neighbor-set parameterization
// (per-spec corner gating, radius-deep bands, field-plane payload scaling)
// must reproduce the real driver's traffic exactly. box9 at steps=1 is the
// sharp case — diagonal taps force corner messages every superstep even
// without CA fusing, which the 5-point model never does; star9 exercises
// 2-deep bands, with corners only once steps > 1; heat3d the multi-plane
// payload widths.
TEST(SimVsRealSpec, SpecTrafficAgreesExactly) {
  struct SpecCase {
    spec::StencilSpec sp;
    int nz;
    int steps;
  };
  const SpecCase cases[] = {{spec::StencilSpec::box9(), 1, 1},
                            {spec::StencilSpec::box9(), 1, 3},
                            {spec::StencilSpec::star9(), 1, 1},
                            {spec::StencilSpec::star9(), 1, 2},
                            {spec::StencilSpec::heat3d(), 2, 2}};
  for (const SpecCase& c : cases) {
    SCOPED_TRACE(c.sp.name + " nz=" + std::to_string(c.nz) + " s=" +
                 std::to_string(c.steps));
    const stencil::Problem problem =
        stencil::spec_problem(c.sp, 24, 24, 6, c.nz);
    stencil::DistConfig config;
    config.decomp = {4, 4, 2, 2};
    config.steps = c.steps;
    const stencil::DistResult real = run_distributed(problem, config);

    sim::StencilSimParams params{sim::nacl(), 24, 4, 2, 2, 6, c.steps, 1.0};
    params.stencil = c.sp;
    params.nz = c.nz;
    const sim::StencilSimOutput simulated = sim::simulate_stencil(params);

    EXPECT_EQ(real.stats.messages, simulated.sim.messages);
    const double real_payload =
        static_cast<double>(real.stats.bytes) -
        static_cast<double>(real.stats.messages) * 7 * sizeof(std::uint64_t);
    const double sim_payload =
        simulated.sim.message_bytes -
        static_cast<double>(simulated.sim.messages) * 5 *
            sizeof(std::uint64_t);
    EXPECT_DOUBLE_EQ(real_payload, sim_payload);
    // The modeled redundant-compute volume must match the driver's
    // accounting too, not just the wire traffic (both normalize by
    // N^2 * iterations).
    EXPECT_DOUBLE_EQ(real.redundancy(), simulated.redundant_fraction);

    // The persistent wire schedule must agree exactly too — the sharp part
    // is nfield > 1 (heat3d), where every route splits into multiple
    // fragments with the remainder on the leading slices.
    stencil::DistConfig pconfig = config;
    pconfig.persistent = true;
    const stencil::DistResult preal = run_distributed(problem, pconfig);
    sim::StencilSimParams pparams = params;
    pparams.persistent = true;
    const sim::StencilSimOutput psim = sim::simulate_stencil(pparams);
    EXPECT_EQ(preal.stats.messages, psim.sim.messages);
    EXPECT_DOUBLE_EQ(static_cast<double>(preal.stats.bytes),
                     psim.sim.message_bytes);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, SimVsReal,
    ::testing::Values(XCase{24, 4, 2, 6, 1},    // base
                      XCase{24, 4, 2, 12, 3},   // CA with corners
                      XCase{36, 4, 3, 8, 2},    // 3x3 nodes
                      XCase{24, 4, 2, 7, 4},    // ragged superstep
                      XCase{32, 8, 2, 10, 5},
                      XCase{30, 5, 3, 9, 3}));

}  // namespace
}  // namespace repro
