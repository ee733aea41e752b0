// Tests for the two PaRSEC-style DSLs (PTG and DTD), the scheduler policies,
// and the trace exporters. The headline test writes the base 5-point stencil
// as a PTG program — one task class per JDF "function", dataflow expressions
// naming peer tasks symbolically — and checks it against the serial
// reference bit for bit, with every tile on its own rank so every halo
// crosses the (virtual) network.
#include <gtest/gtest.h>

#include <atomic>
#include <sstream>

#include "runtime/dtd.hpp"
#include "runtime/ptg.hpp"
#include "runtime/runtime.hpp"
#include "stencil/halo.hpp"
#include "stencil/problem.hpp"
#include "stencil/serial.hpp"

namespace repro::rt {
namespace {

using ptg::Params;
using ptg::PtgProgram;

TEST(Ptg, EnumeratesConstantRanges) {
  PtgProgram program;
  std::atomic<int> runs{0};
  program.task_class("grid")
      .parameter("i", 0, 2)
      .parameter("j", 0, 3)
      .body([&](TaskContext&, const Params&) { ++runs; });
  TaskGraph graph = program.unfold();
  EXPECT_EQ(graph.size(), 12u);
  Runtime runtime(Config{1, 2});
  runtime.run(graph);
  EXPECT_EQ(runs.load(), 12);
}

TEST(Ptg, DependentRangesFormTriangle) {
  PtgProgram program;
  program.task_class("tri")
      .parameter("i", 0, 3)
      .parameter("j", [](const Params&) { return 0; },
                 [](const Params& p) { return p[0]; })  // j <= i
      .body([](TaskContext&, const Params&) {});
  EXPECT_EQ(program.unfold().size(), 4u + 3u + 2u + 1u);
}

TEST(Ptg, EmptyRangeYieldsNoInstances) {
  PtgProgram program;
  program.task_class("none")
      .parameter("i", 5, 4)
      .body([](TaskContext&, const Params&) {});
  EXPECT_EQ(program.unfold().size(), 0u);
}

TEST(Ptg, RejectsMissingBodyAndTooManyParams) {
  {
    PtgProgram program;
    program.task_class("nobody").parameter("i", 0, 0);
    EXPECT_THROW(program.unfold(), std::runtime_error);
  }
  {
    PtgProgram program;
    auto& tc = program.task_class("big")
                   .parameter("a", 0, 0)
                   .parameter("b", 0, 0)
                   .parameter("c", 0, 0);
    EXPECT_THROW(tc.parameter("d", 0, 0), std::runtime_error);
  }
}

TEST(Ptg, PipelineAcrossClassesAndRanks) {
  // source -> stage(k), k = 0..4, alternating ranks; each stage adds k.
  PtgProgram program;
  auto& source = program.task_class("source");
  source.rank([](const Params&) { return 0; })
      .body([](TaskContext& ctx, const Params&) {
        ctx.publish(0, std::vector<double>{10.0});
      });
  auto& stage = program.task_class("stage");
  stage.parameter("k", 0, 4)
      .rank([](const Params& p) { return p[0] % 2; })
      .flow([&](const Params& p) -> std::vector<ptg::FlowEnd> {
        if (p[0] == 0) return {PtgProgram::ref(source, Params{})};
        return {PtgProgram::ref(stage, Params{{p[0] - 1, 0, 0}})};
      })
      .body([](TaskContext& ctx, const Params& p) {
        ctx.publish(0, std::vector<double>{ctx.input(0)[0] + p[0]});
      });

  TaskGraph graph = program.unfold();
  Runtime runtime(Config{2, 1});
  const RunStats stats = runtime.run(graph);
  const Buffer out =
      runtime.result(PtgProgram::key_of(stage, Params{{4, 0, 0}}), 0);
  EXPECT_DOUBLE_EQ((*out)[0], 10.0 + 0 + 1 + 2 + 3 + 4);
  EXPECT_GT(stats.messages, 0u);
}

// ---- The showcase: the base stencil as a PTG program, one tile per rank --

TEST(Ptg, BaseStencilMatchesSerialWithEveryHaloRemote) {
  using namespace repro::stencil;
  const int T = 3;        // 3x3 tiles, each on its own rank
  const int tile = 5;     // 15x15 grid
  const int n = T * tile;
  const int iters = 6;
  const Problem problem = random_problem(n, n, iters);
  const TileGeom g{tile, tile, 1, 1, 1, 1};

  PtgProgram program;
  auto rank_of = [T](const Params& p) { return p[1] * T + p[2]; };

  // Slot layout: 0 = STATE, 1 + side = band packed from that side of core.
  auto band_slot = [](Side s) {
    return static_cast<std::uint16_t>(1 + static_cast<int>(s));
  };

  auto& init = program.task_class("init");
  auto& step = program.task_class("step");

  auto publish_state_and_bands = [=, &problem](TaskContext& ctx, int k,
                                               int ti, int tj,
                                               std::vector<double>&& ext) {
    if (k < iters) {
      for (Side s : kAllSides) {
        const int ni = ti + d_ti(s);
        const int nj = tj + d_tj(s);
        if (ni < 0 || ni >= T || nj < 0 || nj >= T) continue;
        ctx.publish(band_slot(s), pack_band(ext.data(), g, s, 1));
      }
    }
    ctx.publish(0, std::move(ext));
    (void)problem;
  };

  init.parameter("zero", 0, 0)
      .parameter("ti", 0, T - 1)
      .parameter("tj", 0, T - 1)
      .rank(rank_of)
      .body([=, &problem](TaskContext& ctx, const Params& p) {
        const int ti = p[1];
        const int tj = p[2];
        std::vector<double> ext(g.size());
        for (int i = -1; i <= tile; ++i) {
          for (int j = -1; j <= tile; ++j) {
            const long gi = static_cast<long>(ti) * tile + i;
            const long gj = static_cast<long>(tj) * tile + j;
            const bool inside = gi >= 0 && gi < n && gj >= 0 && gj < n;
            ext[g.idx(i, j)] =
                inside ? problem.initial(gi, gj) : problem.boundary(gi, gj);
          }
        }
        publish_state_and_bands(ctx, 0, ti, tj, std::move(ext));
      });

  step.parameter("k", 1, iters)
      .parameter("ti", 0, T - 1)
      .parameter("tj", 0, T - 1)
      .rank(rank_of)
      .flow([&](const Params& p) {
        // Own previous state, then the opposite-side band of each existing
        // neighbor (all remote here: one tile per rank).
        std::vector<ptg::FlowEnd> flows;
        const Params prev{{p[0] - 1, p[1], p[2]}};
        flows.push_back(p[0] == 1 ? PtgProgram::ref(init, Params{{0, p[1], p[2]}})
                                  : PtgProgram::ref(step, prev));
        for (Side s : kAllSides) {
          const int ni = p[1] + d_ti(s);
          const int nj = p[2] + d_tj(s);
          if (ni < 0 || ni >= T || nj < 0 || nj >= T) continue;
          const Params nbr_prev{{p[0] - 1, ni, nj}};
          const auto& producer = p[0] == 1 ? init : step;
          const Params key = p[0] == 1 ? Params{{0, ni, nj}} : nbr_prev;
          flows.push_back(
              PtgProgram::ref(producer, key, band_slot(opposite(s))));
        }
        return flows;
      })
      .body([=, &problem](TaskContext& ctx, const Params& p) {
        const int ti = p[1];
        const int tj = p[2];
        const auto prev = ctx.input(0);
        std::vector<double> assembled(prev.begin(), prev.end());
        std::size_t next = 1;
        for (Side s : kAllSides) {
          const int ni = ti + d_ti(s);
          const int nj = tj + d_tj(s);
          if (ni < 0 || ni >= T || nj < 0 || nj >= T) continue;
          unpack_band(assembled.data(), g, s, ctx.input(next), 1);
          ++next;
        }
        std::vector<double> out = assembled;
        // random_problem's stencil: star5 with the test weights.
        jacobi5(assembled.data(), out.data(), g, Stencil5::test_weights(), 0,
                tile, 0, tile);
        publish_state_and_bands(ctx, p[0], ti, tj, std::move(out));
      });

  TaskGraph graph = program.unfold();
  EXPECT_EQ(graph.size(), static_cast<std::size_t>(T * T * (iters + 1)));

  Runtime runtime(Config{T * T, 1});
  const RunStats stats = runtime.run(graph);
  // Every halo crosses ranks: 2*T*(T-1) directed tile pairs * 2 sides...
  // = 12 interior edges * 2 directions = 24 band messages per round.
  EXPECT_EQ(stats.messages, static_cast<std::uint64_t>(24 * iters));

  const Grid2D expected = solve_serial(problem);
  for (int ti = 0; ti < T; ++ti) {
    for (int tj = 0; tj < T; ++tj) {
      const Buffer state = runtime.result(
          PtgProgram::key_of(step, Params{{iters, ti, tj}}), 0);
      for (int i = 0; i < tile; ++i) {
        for (int j = 0; j < tile; ++j) {
          EXPECT_EQ((*state)[g.idx(i, j)],
                    expected.at(ti * tile + i, tj * tile + j))
              << ti << "," << tj << " cell " << i << "," << j;
        }
      }
    }
  }
}

// ------------------------------------------------------------------- DTD --

TEST(Dtd, SequentialInsertionBuildsCorrectChain) {
  dtd::DtdProgram program;
  const auto x = program.data("x", 0, {1.0, 2.0, 3.0});
  for (int step = 0; step < 5; ++step) {
    program.insert_task("incr", step % 2,
                        {{x, dtd::Access::ReadWrite}},
                        [](dtd::DtdTaskView& t) {
                          dtd::DtdProgram dummy;  // ensure no accidental state
                          (void)dummy;
                          auto v = t.read_vector(dtd::DataHandle{0});
                          for (double& e : v) e += 1.0;
                          t.write(dtd::DataHandle{0}, std::move(v));
                        });
  }
  TaskGraph graph = program.compile();
  EXPECT_EQ(graph.size(), 6u);  // source + 5 increments

  Runtime runtime(Config{2, 1});
  const RunStats stats = runtime.run(graph);
  const Buffer out =
      runtime.result(program.result_key(x), program.result_slot(x));
  EXPECT_DOUBLE_EQ((*out)[0], 6.0);
  EXPECT_DOUBLE_EQ((*out)[2], 8.0);
  EXPECT_GT(stats.messages, 0u);  // chain alternates ranks
}

TEST(Dtd, ReadersShareOneVersionWritersMakeNewOnes) {
  dtd::DtdProgram program;
  const auto src = program.data("src", 0, {5.0});
  std::vector<dtd::DataHandle> sums;
  // Fan-out: four readers of version 0 each write their own datum.
  for (int r = 0; r < 4; ++r) {
    sums.push_back(program.data("sum" + std::to_string(r), 0, {0.0}));
    program.insert_task(
        "reader", 0,
        {{src, dtd::Access::Read}, {sums.back(), dtd::Access::Write}},
        [r, src, sum = sums.back()](dtd::DtdTaskView& t) {
          t.write(sum, std::vector<double>{t.read(src)[0] * (r + 1)});
        });
  }
  // A subsequent writer to src must NOT affect what the readers saw.
  program.insert_task("overwrite", 0, {{src, dtd::Access::Write}},
                      [src](dtd::DtdTaskView& t) {
                        t.write(src, std::vector<double>{-1.0});
                      });

  TaskGraph graph = program.compile();
  Runtime runtime(Config{1, 2});
  runtime.run(graph);
  for (int r = 0; r < 4; ++r) {
    const Buffer out = runtime.result(program.result_key(sums[r]),
                                      program.result_slot(sums[r]));
    EXPECT_DOUBLE_EQ((*out)[0], 5.0 * (r + 1));
  }
  const Buffer final_src =
      runtime.result(program.result_key(src), program.result_slot(src));
  EXPECT_DOUBLE_EQ((*final_src)[0], -1.0);
}

TEST(Dtd, MultiDataTaskGetsDistinctSlots) {
  dtd::DtdProgram program;
  const auto a = program.data("a", 0, {1.0});
  const auto b = program.data("b", 0, {2.0});
  program.insert_task("swap", 0,
                      {{a, dtd::Access::ReadWrite}, {b, dtd::Access::ReadWrite}},
                      [a, b](dtd::DtdTaskView& t) {
                        auto va = t.read_vector(a);
                        auto vb = t.read_vector(b);
                        t.write(a, std::move(vb));
                        t.write(b, std::move(va));
                      });
  TaskGraph graph = program.compile();
  Runtime runtime(Config{1, 1});
  runtime.run(graph);
  EXPECT_DOUBLE_EQ(
      (*runtime.result(program.result_key(a), program.result_slot(a)))[0],
      2.0);
  EXPECT_DOUBLE_EQ(
      (*runtime.result(program.result_key(b), program.result_slot(b)))[0],
      1.0);
}

TEST(Dtd, RejectsDoubleAccessAndUnknownData) {
  dtd::DtdProgram program;
  const auto a = program.data("a", 0, {1.0});
  EXPECT_THROW(program.insert_task(
                   "bad", 0,
                   {{a, dtd::Access::Read}, {a, dtd::Access::Write}},
                   [](dtd::DtdTaskView&) {}),
               std::invalid_argument);
  EXPECT_THROW(program.insert_task("bad2", 0,
                                   {{dtd::DataHandle{42}, dtd::Access::Read}},
                                   [](dtd::DtdTaskView&) {}),
               std::out_of_range);
  EXPECT_THROW(program.result_key(dtd::DataHandle{42}), std::out_of_range);
}

TEST(Dtd, BodyAccessOutsideDeclarationThrows) {
  dtd::DtdProgram program;
  const auto a = program.data("a", 0, {1.0});
  const auto b = program.data("b", 0, {2.0});
  program.insert_task("sneaky", 0, {{a, dtd::Access::Read}},
                      [b](dtd::DtdTaskView& t) {
                        (void)t.read(b);  // b was never declared
                      });
  TaskGraph graph = program.compile();
  Runtime runtime(Config{1, 1});
  EXPECT_THROW(runtime.run(graph), std::runtime_error);
  (void)a;
}

// -------------------------------------------------------- sched policies --

std::vector<int> run_order(SchedPolicy policy) {
  static std::mutex mutex;
  static std::vector<int> order;
  {
    std::lock_guard lock(mutex);
    order.clear();
  }
  TaskGraph graph;
  for (int i = 0; i < 4; ++i) {
    TaskSpec t;
    t.key = TaskKey{1, i, 0, 0};
    t.priority = i;
    t.body = [i](TaskContext&) {
      std::lock_guard lock(mutex);
      order.push_back(i);
    };
    graph.add_task(t);
  }
  Config config{1, 1};
  config.scheduler = policy;
  Runtime runtime(config);
  runtime.run(graph);
  std::lock_guard lock(mutex);
  return order;
}

TEST(Scheduler, PolicyControlsReadyOrder) {
  EXPECT_EQ(run_order(SchedPolicy::PriorityFifo),
            (std::vector<int>{3, 2, 1, 0}));
  EXPECT_EQ(run_order(SchedPolicy::Fifo), (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(run_order(SchedPolicy::Lifo), (std::vector<int>{3, 2, 1, 0}));
  // Work stealing with a single worker degenerates to the owner draining
  // its priority lane (priority order, FIFO within) then its low lane.
  EXPECT_EQ(run_order(SchedPolicy::WorkStealing),
            (std::vector<int>{3, 2, 1, 0}));
}

TEST(Scheduler, PolicyNamesRoundTrip) {
  for (const auto policy :
       {SchedPolicy::PriorityFifo, SchedPolicy::Fifo, SchedPolicy::Lifo,
        SchedPolicy::WorkStealing}) {
    EXPECT_EQ(parse_sched_policy(sched_policy_name(policy)), policy);
  }
  EXPECT_THROW(parse_sched_policy("roundrobin"), std::invalid_argument);
}

TEST(Scheduler, LifoDiffersFromFifoOnDynamicGraph) {
  // A source fans out to a,b; with LIFO the most recently enqueued of the
  // two runs first. (Both were enqueued by the same completion, so LIFO
  // runs 'b' (enqueued last) before 'a'; FIFO the reverse.)
  for (auto [policy, expect_first] :
       {std::pair{SchedPolicy::Fifo, 1}, std::pair{SchedPolicy::Lifo, 2}}) {
    static std::mutex mutex;
    static std::vector<int> order;
    {
      std::lock_guard lock(mutex);
      order.clear();
    }
    TaskGraph graph;
    TaskSpec src;
    src.key = TaskKey{0, 0, 0, 0};
    src.body = [](TaskContext& ctx) { ctx.publish(0, {1.0}); };
    graph.add_task(src);
    for (int i = 1; i <= 2; ++i) {
      TaskSpec t;
      t.key = TaskKey{0, i, 0, 0};
      t.inputs = {{TaskKey{0, 0, 0, 0}, 0}};
      t.body = [i](TaskContext&) {
        std::lock_guard lock(mutex);
        order.push_back(i);
      };
      graph.add_task(t);
    }
    Config config{1, 1};
    config.scheduler = policy;
    Runtime runtime(config);
    runtime.run(graph);
    std::lock_guard lock(mutex);
    ASSERT_EQ(order.size(), 2u);
    EXPECT_EQ(order.front(), expect_first)
        << (policy == SchedPolicy::Fifo ? "fifo" : "lifo");
  }
}

// -------------------------------------------------------- trace exporters --

TEST(TraceExport, ChromeTraceIsWellFormedJsonArray) {
  std::vector<TraceEvent> events;
  TraceEvent e;
  e.key = TaskKey{1, 2, 3, 4};
  e.klass = "jacobi";
  e.rank = 1;
  e.worker = 0;
  e.begin_s = 10.0;
  e.end_s = 10.001;
  events.push_back(e);
  e.worker = 1;
  e.begin_s = 10.0005;
  e.end_s = 10.002;
  events.push_back(e);

  std::ostringstream os;
  write_chrome_trace(events, os);
  const std::string json = os.str();
  EXPECT_EQ(json.front(), '[');
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"pid\":1"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":1000"), std::string::npos);  // 1 ms = 1000 us
  // Timestamps are rebased to the earliest event.
  EXPECT_NE(json.find("\"ts\":0"), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'), 2);
}

TEST(TraceExport, CsvHasHeaderAndOneRowPerEvent) {
  std::vector<TraceEvent> events(3);
  for (int i = 0; i < 3; ++i) {
    events[static_cast<std::size_t>(i)].klass = "k";
    events[static_cast<std::size_t>(i)].begin_s = i;
    events[static_cast<std::size_t>(i)].end_s = i + 0.5;
  }
  std::ostringstream os;
  write_trace_csv(events, os);
  const std::string csv = os.str();
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 4);
  EXPECT_EQ(csv.rfind("rank,worker,klass,key,begin_s,end_s,duration_s", 0), 0u);
}

}  // namespace
}  // namespace repro::rt
