#include <gtest/gtest.h>

#include <vector>

#include "sim/des.hpp"
#include "sim/machine.hpp"
#include "sim/models.hpp"
#include "spec/stencil_spec.hpp"
#include "stencil/tile_map.hpp"
#include "support/units.hpp"

namespace repro::sim {
namespace {

SimMachineConfig ideal_machine(int nodes, int workers) {
  SimMachineConfig m;
  m.nodes = nodes;
  m.workers_per_node = workers;
  m.link = net::ideal_link();
  return m;
}

TEST(Des, EmptyGraph) {
  SimGraph graph;
  const SimResult r = simulate(graph, ideal_machine(1, 1));
  EXPECT_EQ(r.makespan_s, 0.0);
  EXPECT_EQ(r.tasks_executed, 0u);
}

TEST(Des, SerialChainSumsCosts) {
  SimGraph graph;
  std::uint32_t prev = graph.add_task({0, 1.0, 0, 0});
  for (int i = 0; i < 4; ++i) {
    const std::uint32_t next = graph.add_task({0, 2.0, 0, 0});
    graph.add_edge(prev, next);
    prev = next;
  }
  const SimResult r = simulate(graph, ideal_machine(1, 4));
  EXPECT_DOUBLE_EQ(r.makespan_s, 1.0 + 4 * 2.0);  // chain defeats parallelism
  EXPECT_DOUBLE_EQ(r.node_busy_s[0], 9.0);
}

TEST(Des, IndependentTasksPackOntoWorkers) {
  SimGraph graph;
  for (int i = 0; i < 8; ++i) graph.add_task({0, 1.0, 0, 0});
  EXPECT_DOUBLE_EQ(simulate(graph, ideal_machine(1, 1)).makespan_s, 8.0);
  EXPECT_DOUBLE_EQ(simulate(graph, ideal_machine(1, 2)).makespan_s, 4.0);
  EXPECT_DOUBLE_EQ(simulate(graph, ideal_machine(1, 8)).makespan_s, 1.0);
  EXPECT_DOUBLE_EQ(simulate(graph, ideal_machine(1, 16)).makespan_s, 1.0);
}

TEST(Des, PriorityWinsOnContention) {
  SimGraph graph;
  const auto low = graph.add_task({0, 1.0, 0, 7});
  const auto high = graph.add_task({0, 1.0, 5, 9});
  (void)low;
  (void)high;
  const SimResult r = simulate(graph, ideal_machine(1, 1), /*trace=*/true);
  ASSERT_EQ(r.trace.size(), 2u);
  EXPECT_EQ(r.trace[0].klass, 9);  // high priority first
  EXPECT_EQ(r.trace[1].klass, 7);
}

TEST(Des, RemoteEdgePaysLatencyAndBandwidth) {
  SimMachineConfig m = ideal_machine(2, 1);
  m.link.latency_s = 0.5;
  m.link.effective_bw_Bps = 100.0;  // 100 B/s
  SimGraph graph;
  const auto a = graph.add_task({0, 1.0, 0, 0});
  const auto b = graph.add_task({1, 1.0, 0, 0});
  graph.add_edge(a, b, 200.0);  // 2 s of wire time
  const SimResult r = simulate(graph, m);
  // 1 (task a) + 2 (bytes) + 0.5 (latency) + 1 (task b)
  EXPECT_DOUBLE_EQ(r.makespan_s, 4.5);
  EXPECT_EQ(r.messages, 1u);
  EXPECT_DOUBLE_EQ(r.message_bytes, 200.0);
}

TEST(Des, NicSerializesConcurrentSends) {
  SimMachineConfig m = ideal_machine(2, 4);
  m.link.effective_bw_Bps = 100.0;
  SimGraph graph;
  // Four source tasks finish simultaneously; each sends 100 B (1 s wire).
  std::vector<std::uint32_t> sinks;
  for (int i = 0; i < 4; ++i) {
    const auto src = graph.add_task({0, 1.0, 0, 0});
    const auto dst = graph.add_task({1, 0.0, 0, 0});
    graph.add_edge(src, dst, 100.0);
    sinks.push_back(dst);
  }
  const SimResult r = simulate(graph, m);
  // Sends serialize on node 0's comm resource: last arrives at 1 + 4*1.
  EXPECT_DOUBLE_EQ(r.makespan_s, 5.0);
}

TEST(Des, CommOverheadChargesBothSides) {
  SimMachineConfig m = ideal_machine(2, 1);
  m.comm_overhead_s = 0.25;
  SimGraph graph;
  const auto a = graph.add_task({0, 1.0, 0, 0});
  const auto b = graph.add_task({1, 1.0, 0, 0});
  graph.add_edge(a, b, 0.0);
  const SimResult r = simulate(graph, m);
  // 1 + tx overhead 0.25 + rx overhead 0.25 + 1.
  EXPECT_DOUBLE_EQ(r.makespan_s, 2.5);
}

TEST(Des, BusyConservation) {
  SimGraph graph;
  double total = 0.0;
  for (int i = 0; i < 20; ++i) {
    const double cost = 0.1 * (i + 1);
    graph.add_task({i % 3, cost, 0, 0});
    total += cost;
  }
  const SimResult r = simulate(graph, ideal_machine(3, 2));
  double busy = 0.0;
  for (double b : r.node_busy_s) busy += b;
  EXPECT_NEAR(busy, total, 1e-12);
  // Occupancy of each node never exceeds 1.
  for (int node = 0; node < 3; ++node) {
    EXPECT_LE(r.occupancy(node, 2), 1.0 + 1e-12);
  }
}

TEST(Des, TraceIntervalsNeverOverlapPerWorker) {
  SimGraph graph;
  // Random-ish diamond mesh over 2 nodes.
  std::vector<std::uint32_t> prev;
  for (int layer = 0; layer < 5; ++layer) {
    std::vector<std::uint32_t> cur;
    for (int i = 0; i < 6; ++i) {
      const auto t = graph.add_task({i % 2, 0.3 + 0.1 * i, 0, 0});
      for (std::uint32_t p : prev) {
        if ((p + t) % 3 == 0) graph.add_edge(p, t, 64.0);
      }
      cur.push_back(t);
    }
    prev = cur;
  }
  SimMachineConfig m = ideal_machine(2, 2);
  m.link = net::nacl_link();
  m.comm_overhead_s = 1e-5;
  const SimResult r = simulate(graph, m, /*trace=*/true);
  EXPECT_EQ(r.trace.size(), graph.num_tasks());

  std::map<std::pair<int, int>, std::vector<SimInterval>> lanes;
  for (const auto& iv : r.trace) lanes[{iv.node, iv.worker}].push_back(iv);
  for (auto& [lane, ivs] : lanes) {
    std::sort(ivs.begin(), ivs.end(), [](const auto& a, const auto& b) {
      return a.begin_s < b.begin_s;
    });
    for (std::size_t i = 1; i < ivs.size(); ++i) {
      EXPECT_GE(ivs[i].begin_s, ivs[i - 1].end_s - 1e-12);
    }
  }
}

TEST(Des, RejectsBadInput) {
  SimGraph graph;
  const auto a = graph.add_task({0, 1.0, 0, 0});
  EXPECT_THROW(graph.add_edge(a, a), std::invalid_argument);
  EXPECT_THROW(graph.add_edge(a, 99), std::out_of_range);
  EXPECT_THROW(graph.add_task({0, -1.0, 0, 0}), std::invalid_argument);
  SimGraph bad_node;
  bad_node.add_task({5, 1.0, 0, 0});
  EXPECT_THROW(simulate(bad_node, ideal_machine(2, 1)), std::out_of_range);
}



TEST(Des, DeterministicAcrossRuns) {
  // The DES must be bit-deterministic: same graph, same result, twice.
  auto build = [] {
    SimGraph graph;
    std::vector<std::uint32_t> prev;
    for (int layer = 0; layer < 6; ++layer) {
      std::vector<std::uint32_t> cur;
      for (int i = 0; i < 5; ++i) {
        const auto t =
            graph.add_task({(layer + i) % 3, 0.1 * (i + 1), i % 2, 0});
        for (std::uint32_t p : prev) {
          if ((p + t) % 2 == 0) graph.add_edge(p, t, 128.0 * (i + 1));
        }
        cur.push_back(t);
      }
      prev = cur;
    }
    return graph;
  };
  SimMachineConfig m = ideal_machine(3, 2);
  m.link = net::nacl_link();
  m.comm_overhead_s = 2e-5;
  const SimGraph g1 = build();
  const SimGraph g2 = build();
  const SimResult a = simulate(g1, m, true);
  const SimResult b = simulate(g2, m, true);
  EXPECT_EQ(a.makespan_s, b.makespan_s);
  EXPECT_EQ(a.messages, b.messages);
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    EXPECT_EQ(a.trace[i].task, b.trace[i].task);
    EXPECT_EQ(a.trace[i].begin_s, b.trace[i].begin_s);
    EXPECT_EQ(a.trace[i].worker, b.trace[i].worker);
  }
}

TEST(Des, AggregationMergesPerDestination) {
  // One producer with three remote consumers: 2 on node 1, 1 on node 2.
  for (bool aggregate : {false, true}) {
    SimMachineConfig m = ideal_machine(3, 2);
    m.aggregate_per_destination = aggregate;
    m.link.effective_bw_Bps = 100.0;
    SimGraph graph;
    const auto src = graph.add_task({0, 1.0, 0, 0});
    for (int i = 0; i < 3; ++i) {
      const auto dst = graph.add_task({i < 2 ? 1 : 2, 0.5, 0, 0});
      graph.add_edge(src, dst, 50.0);
    }
    const SimResult r = simulate(graph, m);
    EXPECT_EQ(r.messages, aggregate ? 2u : 3u);
    EXPECT_DOUBLE_EQ(r.message_bytes, 150.0);  // bytes conserved either way
    EXPECT_EQ(r.tasks_executed, 4u);
  }
}

TEST(Models, AggregationHelpsSmallStepCa) {
  // The small-s corner blowup: s=2 CA at paper scale sends many tiny corner
  // strips; aggregation merges them with the band to the same node.
  StencilSimParams p{nacl(), 11520, 288, 4, 4, 20, 2, 0.2};
  StencilSimParams agg = p;
  agg.aggregate_messages = true;
  const auto plain = simulate_stencil(p);
  const auto merged = simulate_stencil(agg);
  EXPECT_LT(merged.sim.messages, plain.sim.messages);
  EXPECT_GE(merged.gflops, plain.gflops);
  EXPECT_NEAR(merged.sim.message_bytes, plain.sim.message_bytes,
              0.01 * plain.sim.message_bytes);
}

TEST(Models, DiagonalTapsWaitForSameNodeDiagonals) {
  // Every classic STEP of a box spec reads each same-node diagonal's
  // previous state (TileInfo::corner_local), so in the trace no such step
  // may begin before that diagonal's previous step has ended. Task ids are
  // simulate_stencil's layout: (k * tiles + ti) * tiles + tj.
  constexpr int kN = 2304, kTile = 288, kIters = 20;
  constexpr int kTiles = kN / kTile;
  const stencil::TileMap map(kN, kN, kTile, kTile, 2, 2);
  const auto id = [](int k, int ti, int tj) {
    return static_cast<std::size_t>((k * kTiles + ti) * kTiles + tj);
  };
  for (int steps : {1, 2}) {
    StencilSimParams p{nacl(), kN, kTile, 2, 2, kIters, steps, 0.4};
    p.stencil = spec::StencilSpec::box9();
    const StencilSimOutput out = simulate_stencil(p, /*trace=*/true);
    std::vector<double> begin(out.sim.trace.size());
    std::vector<double> end(out.sim.trace.size());
    for (const SimInterval& iv : out.sim.trace) {
      begin[iv.task] = iv.begin_s;
      end[iv.task] = iv.end_s;
    }
    int reads = 0;
    int early = 0;
    for (int k = 1; k <= kIters; ++k) {
      for (int ti = 0; ti < kTiles; ++ti) {
        for (int tj = 0; tj < kTiles; ++tj) {
          for (int di : {-1, 1}) {
            for (int dj : {-1, 1}) {
              if (!map.valid(ti + di, tj + dj) ||
                  map.neighbor_remote(ti, tj, di, dj)) {
                continue;
              }
              ++reads;
              if (begin[id(k, ti, tj)] < end[id(k - 1, ti + di, tj + dj)]) {
                ++early;
              }
            }
          }
        }
      }
    }
    // 36 directed diagonal pairs in each node's 4 x 4 tiles, 4 nodes.
    EXPECT_EQ(reads, 4 * 36 * kIters) << "steps=" << steps;
    EXPECT_EQ(early, 0) << "steps=" << steps;
  }
}

TEST(Machine, PresetsMatchPaperAnchors) {
  const Machine n = nacl();
  EXPECT_EQ(n.cores_per_node, 12);
  EXPECT_EQ(n.compute_workers(), 11);
  EXPECT_NEAR(n.node_stream_bw_Bps, 39.1e9, 1e6);
  EXPECT_NEAR(n.link.theoretical_bw_Bps, gbit_per_s(32.0), 1.0);

  const Machine s = stampede2();
  EXPECT_EQ(s.compute_workers(), 47);
  EXPECT_NEAR(s.node_stream_bw_Bps, 172.5e9, 1e6);
  EXPECT_NEAR(s.link.theoretical_bw_Bps, gbit_per_s(100.0), 1.0);
}

TEST(Machine, RooflineMatchesPaperSectionVIA) {
  // "We expect the effective peak performance between 14.5 to 21.9 GFLOP/s
  // and 63.8 to 96.6 GFLOP/s".
  const Roofline n = stencil_roofline(nacl());
  EXPECT_NEAR(n.gflops_low, 14.5, 0.25);
  EXPECT_NEAR(n.gflops_high, 21.9, 0.25);
  EXPECT_NEAR(n.ai_low, 0.375, 1e-12);
  EXPECT_NEAR(n.ai_high, 0.5625, 1e-12);
  const Roofline s = stencil_roofline(stampede2());
  EXPECT_NEAR(s.gflops_low, 63.8, 1.0);
  EXPECT_NEAR(s.gflops_high, 96.6, 1.0);
}

TEST(Models, SingleNodeModelHitsMeasuredPlateaus) {
  // Fig. 6: NaCL ~11 GFLOP/s at tiles 200-300 (N=20k); Stampede2 ~43.5 at
  // tiles 400-2000 (N=27k).
  const Machine n = nacl();
  for (int tile : {200, 250, 288}) {
    EXPECT_NEAR(single_node_gflops_model(n, 20000, tile), 11.0, 1.2) << tile;
  }
  const Machine s = stampede2();
  for (int tile : {500, 864, 1000}) {
    EXPECT_NEAR(single_node_gflops_model(s, 27000, tile), 43.5, 6.0) << tile;
  }
  // Shape: small tiles lose to task overhead, large NaCL tiles to cache.
  EXPECT_LT(single_node_gflops_model(n, 20000, 50),
            single_node_gflops_model(n, 20000, 250));
  EXPECT_LT(single_node_gflops_model(n, 20000, 2000),
            single_node_gflops_model(n, 20000, 250));
}

TEST(Models, CaStepOneEqualsBaseGraph) {
  const StencilSimParams base{nacl(), 2304, 288, 2, 2, 10, 1, 1.0};
  StencilSimParams ca = base;
  ca.steps = 1;
  const auto a = simulate_stencil(base);
  const auto b = simulate_stencil(ca);
  EXPECT_DOUBLE_EQ(a.time_s, b.time_s);
  EXPECT_EQ(a.sim.messages, b.sim.messages);
}

TEST(Models, MessageCountsScaleInverselyWithStepSize) {
  const StencilSimParams base{nacl(), 4608, 288, 2, 2, 30, 1, 1.0};
  StencilSimParams ca = base;
  ca.steps = 15;
  const auto rb = simulate_stencil(base);
  const auto rc = simulate_stencil(ca);
  // 30 iterations: base exchanges 30 rounds, CA s=15 exchanges at k=1,16.
  EXPECT_GT(rb.sim.messages, 10 * rc.sim.messages / 2);
  EXPECT_LT(rc.sim.messages, rb.sim.messages / 5);
  // CA total bytes are comparable (same data, fewer messages) but CA adds
  // corner blocks; allow a modest envelope.
  EXPECT_NEAR(rc.sim.message_bytes, rb.sim.message_bytes,
              0.35 * rb.sim.message_bytes);
}

TEST(Models, CaDoesRedundantWork) {
  const StencilSimParams base{nacl(), 4608, 288, 2, 2, 30, 1, 1.0};
  StencilSimParams ca = base;
  ca.steps = 8;
  EXPECT_DOUBLE_EQ(simulate_stencil(base).redundant_fraction, 0.0);
  EXPECT_GT(simulate_stencil(ca).redundant_fraction, 0.0);
  EXPECT_LT(simulate_stencil(ca).redundant_fraction, 0.25);
}

TEST(Models, StrongScalingIsMonotoneAndSublinear) {
  double prev_gflops = 0.0;
  for (int nr : {1, 2, 4}) {
    const StencilSimParams p{nacl(), 11520, 288, nr, nr, 10, 1, 1.0};
    const auto out = simulate_stencil(p);
    EXPECT_GT(out.gflops, prev_gflops);
    prev_gflops = out.gflops;
  }
  // At most linear: 16 nodes <= 16x one node (equality when communication is
  // fully hidden, as it is at full kernel time).
  const StencilSimParams one{nacl(), 11520, 288, 1, 1, 10, 1, 1.0};
  const StencilSimParams sixteen{nacl(), 11520, 288, 4, 4, 10, 1, 1.0};
  EXPECT_LE(simulate_stencil(sixteen).gflops,
            16.0 * simulate_stencil(one).gflops * (1 + 1e-9));
  // But with a fast kernel the communication shows: strictly sub-linear.
  StencilSimParams one_fast = one;
  one_fast.ratio = 0.2;
  StencilSimParams sixteen_fast = sixteen;
  sixteen_fast.ratio = 0.2;
  EXPECT_LT(simulate_stencil(sixteen_fast).gflops,
            16.0 * simulate_stencil(one_fast).gflops);
}

TEST(Models, CaBeatsBaseOnlyWhenKernelIsFast) {
  // The paper's central claim (Figs. 8/9): base == CA at full kernel time,
  // CA wins when the kernel-adjustment ratio shrinks kernel time.
  const Machine m = nacl();
  const StencilSimParams full_base{m, 23040, 288, 4, 4, 15, 1, 1.0};
  StencilSimParams full_ca = full_base;
  full_ca.steps = 15;
  const double b1 = simulate_stencil(full_base).gflops;
  const double c1 = simulate_stencil(full_ca).gflops;
  EXPECT_NEAR(c1 / b1, 1.0, 0.05);  // indistinguishable when memory-bound

  StencilSimParams fast_base = full_base;
  fast_base.ratio = 0.2;
  StencilSimParams fast_ca = full_ca;
  fast_ca.ratio = 0.2;
  const double b2 = simulate_stencil(fast_base).gflops;
  const double c2 = simulate_stencil(fast_ca).gflops;
  EXPECT_GT(c2 / b2, 1.3);  // paper: up to 57% on NaCL at 16 nodes
}

TEST(Models, PetscModelIsHalfOfParsecOnOneNode) {
  const Machine m = nacl();
  const PetscSimParams p{m, 23040, 1, 10};
  const auto out = simulate_petsc(p);
  EXPECT_NEAR(out.gflops, m.node_stencil_gflops / m.petsc_traffic_factor,
              0.5);
}

TEST(Models, PetscScalesButStaysBelowParsec) {
  const Machine m = nacl();
  for (int nodes : {4, 16, 64}) {
    const PetscSimParams pp{m, 23040, nodes, 10};
    const StencilSimParams sp{m, 23040, 288,
                              nodes == 4 ? 2 : nodes == 16 ? 4 : 8,
                              nodes == 4 ? 2 : nodes == 16 ? 4 : 8, 10, 1,
                              1.0};
    const double petsc = simulate_petsc(pp).gflops;
    const double parsec = simulate_stencil(sp).gflops;
    EXPECT_LT(petsc, parsec) << nodes;
    EXPECT_NEAR(parsec / petsc, 2.0, 0.5) << nodes;  // paper: ~2x
  }
}

TEST(Models, SimulatedTraceHasBoundaryAndInteriorClasses) {
  const StencilSimParams p{nacl(), 4608, 288, 2, 2, 5, 3, 0.4};
  const auto out = simulate_stencil(p, /*trace=*/true);
  std::size_t boundary = 0, interior = 0, init = 0;
  for (const auto& iv : out.sim.trace) {
    if (iv.klass == kKlassBoundary) ++boundary;
    else if (iv.klass == kKlassInterior) ++interior;
    else if (iv.klass == kKlassInit) ++init;
  }
  EXPECT_EQ(init, 16u * 16u);
  EXPECT_EQ(boundary + interior, 16u * 16u * 5u);
  EXPECT_GT(boundary, 0u);
  EXPECT_GT(interior, 0u);
}

}  // namespace
}  // namespace repro::sim
