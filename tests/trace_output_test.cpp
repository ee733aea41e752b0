// Output-format tests: ASCII Gantt rendering, trace analysis corner cases,
// table CSV emission, and NetPIPE size sweeps.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <utility>
#include <vector>

#include "net/netpipe.hpp"
#include "runtime/runtime.hpp"
#include "runtime/trace.hpp"
#include "support/table.hpp"

namespace repro {
namespace {

rt::TraceEvent event(const char* klass, int rank, int worker, double begin,
                     double end) {
  rt::TraceEvent e;
  e.klass = klass;
  e.rank = rank;
  e.worker = worker;
  e.begin_s = begin;
  e.end_s = end;
  return e;
}

TEST(Gantt, EmptyTraceSaysSo) {
  std::ostringstream os;
  rt::print_ascii_gantt({}, os);
  EXPECT_NE(os.str().find("empty trace"), std::string::npos);
}

TEST(Gantt, LanesAndDominantClasses) {
  std::vector<rt::TraceEvent> events{
      event("alpha", 0, 0, 0.0, 0.6),   // dominates first half of lane r0w0
      event("beta", 0, 0, 0.6, 1.0),    // second part
      event("gamma", 1, 0, 0.0, 1.0)};  // full lane r1w0
  std::ostringstream os;
  rt::print_ascii_gantt(events, os, /*columns=*/10);
  const std::string text = os.str();
  // One lane per (rank, worker).
  EXPECT_NE(text.find("r0w0"), std::string::npos);
  EXPECT_NE(text.find("r1w0"), std::string::npos);
  EXPECT_EQ(text.find("r0w1"), std::string::npos);
  // Lane r1w0 is solid 'g'; lane r0w0 starts with 'a' and ends with 'b'.
  EXPECT_NE(text.find("gggggggggg"), std::string::npos);
  EXPECT_NE(text.find("|aaaa"), std::string::npos);
  EXPECT_NE(text.find("bb|"), std::string::npos);
}

TEST(Gantt, IdleGapsRenderAsDots) {
  std::vector<rt::TraceEvent> events{event("x", 0, 0, 0.0, 0.2),
                                     event("x", 0, 0, 0.8, 1.0)};
  std::ostringstream os;
  rt::print_ascii_gantt(events, os, /*columns=*/10);
  EXPECT_NE(os.str().find("..."), std::string::npos);
}

TEST(TraceAnalysis, OccupancySplitsByRank) {
  // Rank 0: one worker busy 1.0 of a 2.0 span with 2 workers -> 25%.
  std::vector<rt::TraceEvent> events{event("k", 0, 0, 0.0, 1.0),
                                     event("k", 1, 0, 0.0, 2.0),
                                     event("k", 1, 1, 0.0, 2.0)};
  const rt::TraceReport report = rt::analyze_trace(events, /*workers=*/2);
  EXPECT_DOUBLE_EQ(report.span_s, 2.0);
  EXPECT_DOUBLE_EQ(report.occupancy_by_rank.at(0), 0.25);
  EXPECT_DOUBLE_EQ(report.occupancy_by_rank.at(1), 1.0);
  EXPECT_DOUBLE_EQ(report.median_duration_by_klass.at("k"), 2.0);
  EXPECT_EQ(report.count_by_klass.at("k"), 3u);
}

TEST(TraceAnalysis, EmptyTraceIsZeroes) {
  const rt::TraceReport report = rt::analyze_trace({}, 4);
  EXPECT_EQ(report.span_s, 0.0);
  EXPECT_TRUE(report.occupancy_by_rank.empty());
}

TEST(TraceAnalysis, StealEventsAreCountedButExcludedFromOccupancy) {
  std::vector<rt::TraceEvent> events{event("k", 0, 0, 0.0, 1.0),
                                     event("k", 0, 1, 0.0, 1.0)};
  rt::TraceEvent steal;
  steal.kind = rt::TraceEventKind::Steal;
  steal.klass = "steal";
  steal.rank = 0;
  steal.worker = 1;
  steal.steal_victim = 0;
  steal.begin_s = steal.end_s = 0.5;
  events.push_back(steal);

  const rt::TraceReport report = rt::analyze_trace(events, /*workers=*/2);
  EXPECT_EQ(report.steals, 1u);
  // The steal neither widens the span nor shows up as a task class.
  EXPECT_DOUBLE_EQ(report.span_s, 1.0);
  EXPECT_DOUBLE_EQ(report.occupancy_by_rank.at(0), 1.0);
  EXPECT_EQ(report.count_by_klass.count("steal"), 0u);
}

TEST(TraceCsv, RoundTripsTaskAndStealEventsExactly) {
  // Keys contain commas ("t7(1,2,3)") and timestamps are full-precision
  // doubles: the writer must quote and the reader must recover every field
  // bit for bit.
  std::vector<rt::TraceEvent> events;
  rt::TraceEvent task = event("boundary", 2, 3, 0.1234567890123456789, 0.5);
  task.key = rt::TaskKey{7, 1, -2, 3};
  events.push_back(task);
  rt::TraceEvent steal;
  steal.kind = rt::TraceEventKind::Steal;
  steal.klass = "steal";
  steal.rank = 1;
  steal.worker = 0;
  steal.steal_victim = 3;
  steal.begin_s = steal.end_s = 1.0 / 3.0;
  events.push_back(steal);

  std::stringstream ss;
  rt::write_trace_csv(events, ss);
  const std::vector<rt::TraceEvent> back = rt::read_trace_csv(ss);

  ASSERT_EQ(back.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(back[i].kind, events[i].kind) << i;
    EXPECT_EQ(back[i].key, events[i].key) << i;
    EXPECT_EQ(back[i].klass, events[i].klass) << i;
    EXPECT_EQ(back[i].rank, events[i].rank) << i;
    EXPECT_EQ(back[i].worker, events[i].worker) << i;
    EXPECT_EQ(back[i].steal_victim, events[i].steal_victim) << i;
    EXPECT_EQ(back[i].begin_s, events[i].begin_s) << i;  // exact, not near
    EXPECT_EQ(back[i].end_s, events[i].end_s) << i;
  }
}

TEST(TraceAnalysis, ZeroWidthAndBoundaryEventsDontInflateBusyTime) {
  // Two back-to-back tasks on one worker share the instant t=1.0, and a
  // zero-width Steal sits exactly on that boundary. Busy time is the union
  // of intervals, so the lane reports exactly 2.0 s busy — the old
  // sum-of-durations accounting would have been correct here, but any
  // overlap (or a nonzero-width event at the seam) must not double-count.
  std::vector<rt::TraceEvent> events{event("k", 0, 0, 0.0, 1.0),
                                     event("k", 0, 0, 1.0, 2.0)};
  rt::TraceEvent steal;
  steal.kind = rt::TraceEventKind::Steal;
  steal.klass = "steal";
  steal.rank = 0;
  steal.worker = 0;
  steal.steal_victim = 1;
  steal.begin_s = steal.end_s = 1.0;
  events.push_back(steal);
  // An overlapping duplicate span (e.g. from a merged multi-run stream) only
  // extends the union by its uncovered part.
  events.push_back(event("k", 0, 0, 0.5, 1.5));

  const rt::TraceReport report = rt::analyze_trace(events, /*workers=*/1);
  EXPECT_DOUBLE_EQ(report.busy_by_worker.at({0, 0}), 2.0);
  EXPECT_DOUBLE_EQ(report.occupancy_by_rank.at(0), 1.0);
  EXPECT_EQ(report.steals, 1u);
}

TEST(TraceCsv, RoundTripsCausalMessageAndIdleEvents) {
  // The causal kinds carry the message fields (peer, flow, bytes, enqueue /
  // wire timestamps, retransmits) and dependency-key lists; all must
  // round-trip exactly, including multi-entry deps on Task events.
  std::vector<rt::TraceEvent> events;

  rt::TraceEvent task = event("boundary", 0, 1, 0.1, 0.2);
  task.key = rt::TaskKey{7, 1, 2, 3};
  task.deps = {rt::TaskKey{7, 0, 2, 3}, rt::TaskKey{7, 0, 1, 3}};
  events.push_back(task);

  rt::TraceEvent send = event("send", 0, rt::kTraceLaneSend, 0.25, 0.26);
  send.kind = rt::TraceEventKind::Send;
  send.peer = 3;
  send.flow = 42;
  send.bytes = 4096;
  send.queued_s = 0.24;
  send.wire_s = 0.25;
  events.push_back(send);

  rt::TraceEvent recv = event("recv", 3, rt::kTraceLaneRecv, 0.27, 0.28);
  recv.kind = rt::TraceEventKind::Recv;
  recv.key = rt::TaskKey{7, 2, 2, 3};
  recv.deps = {rt::TaskKey{7, 1, 2, 3}};
  recv.peer = 0;
  recv.flow = 42;
  recv.bytes = 4000;
  recv.queued_s = 0.24;
  recv.wire_s = 0.25;
  recv.retransmits = 2;
  events.push_back(recv);

  rt::TraceEvent idle = event("idle-halo", 3, 0, 0.2, 0.28);
  idle.kind = rt::TraceEventKind::Idle;
  events.push_back(idle);

  std::stringstream ss;
  rt::write_trace_csv(events, ss);
  const std::vector<rt::TraceEvent> back = rt::read_trace_csv(ss);

  ASSERT_EQ(back.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(back[i].kind, events[i].kind) << i;
    EXPECT_EQ(back[i].key, events[i].key) << i;
    EXPECT_EQ(back[i].klass, events[i].klass) << i;
    EXPECT_EQ(back[i].peer, events[i].peer) << i;
    EXPECT_EQ(back[i].flow, events[i].flow) << i;
    EXPECT_EQ(back[i].bytes, events[i].bytes) << i;
    EXPECT_EQ(back[i].queued_s, events[i].queued_s) << i;
    EXPECT_EQ(back[i].wire_s, events[i].wire_s) << i;
    EXPECT_EQ(back[i].retransmits, events[i].retransmits) << i;
    ASSERT_EQ(back[i].deps.size(), events[i].deps.size()) << i;
    for (std::size_t d = 0; d < events[i].deps.size(); ++d) {
      EXPECT_EQ(back[i].deps[d], events[i].deps[d]) << i << "/" << d;
    }
  }
}

TEST(TraceChrome, EmitsCommSpansAndFlowArrows) {
  // Producer task on rank 0, consumer on rank 1, linked by a Recv whose dep
  // names the producer: the Chrome export must contain complete events for
  // both comm lanes and a flow-arrow start/finish pair.
  std::vector<rt::TraceEvent> events;
  rt::TraceEvent producer = event("p", 0, 0, 0.0, 1.0);
  producer.key = rt::TaskKey{1, 0, 0, 0};
  events.push_back(producer);
  rt::TraceEvent consumer = event("c", 1, 0, 2.0, 3.0);
  consumer.key = rt::TaskKey{1, 1, 0, 0};
  consumer.deps = {producer.key};
  events.push_back(consumer);
  rt::TraceEvent send = event("send", 0, rt::kTraceLaneSend, 1.0, 1.1);
  send.kind = rt::TraceEventKind::Send;
  send.peer = 1;
  send.flow = 7;
  events.push_back(send);
  rt::TraceEvent recv = event("recv", 1, rt::kTraceLaneRecv, 1.5, 1.9);
  recv.kind = rt::TraceEventKind::Recv;
  recv.key = consumer.key;
  recv.deps = {producer.key};
  recv.peer = 0;
  recv.flow = 7;
  events.push_back(recv);

  std::ostringstream os;
  rt::write_chrome_trace(events, os);
  const std::string text = os.str();
  EXPECT_NE(text.find("\"ph\":\"s\""), std::string::npos);  // arrow start
  EXPECT_NE(text.find("\"ph\":\"f\""), std::string::npos);  // arrow finish
  EXPECT_NE(text.find("\"name\":\"send "), std::string::npos);
  EXPECT_NE(text.find("\"name\":\"recv "), std::string::npos);
  EXPECT_NE(text.find("\"cat\":\"comm\""), std::string::npos);
  EXPECT_EQ(text.front(), '[');
  EXPECT_EQ(text.back(), '\n');
}

TEST(TraceCsv, RejectsMalformedRows) {
  std::stringstream bad_header;
  bad_header << "rank,worker\n";
  EXPECT_THROW(rt::read_trace_csv(bad_header), std::runtime_error);

  // Only the header write_trace_csv writes is accepted: the older 9-column
  // (pre-causal) layout is rejected rather than read with defaults.
  std::stringstream nine_columns;
  nine_columns << "rank,worker,klass,key,begin_s,end_s,duration_s,kind,victim\n"
               << "0,0,k,\"t0(0,0,0)\",0,1,1,task,-1\n";
  EXPECT_THROW(rt::read_trace_csv(nine_columns), std::runtime_error);

  std::stringstream header;
  rt::write_trace_csv({}, header);
  std::stringstream bad_key;
  bad_key << header.str()
          << "0,0,k,\"nonsense\",0,1,1,task,-1,-1,0,0,0,0,0,\"\"\n";
  EXPECT_THROW(rt::read_trace_csv(bad_key), std::runtime_error);
}

// Concurrent workers write one shared tracer; per worker, task events must
// still be well-formed and monotone (a worker executes serially, so after
// sorting its events by begin time they may not overlap). Exercised under
// both schedulers with enough tasks to keep every worker busy.
TEST(TraceConcurrency, PerWorkerTimestampsAreMonotone) {
#ifdef REPRO_OBS_DISABLE
  GTEST_SKIP() << "tracing is compiled out";
#endif
  for (const auto policy :
       {rt::SchedPolicy::PriorityFifo, rt::SchedPolicy::WorkStealing}) {
    rt::TaskGraph graph;
    constexpr int kTasks = 120;
    for (int i = 0; i < kTasks; ++i) {
      rt::TaskSpec t;
      t.key = rt::TaskKey{4, i, 0, 0};
      t.rank = i % 2;
      t.body = [](rt::TaskContext&) {
        volatile double sink = 0.0;
        for (int n = 0; n < 500; ++n) sink = sink + n;
      };
      graph.add_task(std::move(t));
    }

    rt::Config config;
    config.nranks = 2;
    config.workers_per_rank = 3;
    config.trace = true;
    config.scheduler = policy;
    rt::Runtime runtime(config);
    runtime.run(graph);

    std::map<std::pair<int, int>, std::vector<rt::TraceEvent>> by_worker;
    std::size_t task_events = 0;
    for (const auto& e : runtime.tracer().events()) {
      if (e.kind != rt::TraceEventKind::Task) continue;
      ++task_events;
      by_worker[{e.rank, e.worker}].push_back(e);
    }
    EXPECT_EQ(task_events, static_cast<std::size_t>(kTasks))
        << rt::sched_policy_name(policy);

    for (auto& [id, lane] : by_worker) {
      std::sort(lane.begin(), lane.end(),
                [](const rt::TraceEvent& a, const rt::TraceEvent& b) {
                  return a.begin_s < b.begin_s;
                });
      for (std::size_t i = 0; i < lane.size(); ++i) {
        ASSERT_LE(lane[i].begin_s, lane[i].end_s)
            << "r" << id.first << "w" << id.second << " event " << i;
        if (i > 0) {
          ASSERT_LE(lane[i - 1].end_s, lane[i].begin_s)
              << "r" << id.first << "w" << id.second << " events " << i - 1
              << "," << i << " overlap under "
              << rt::sched_policy_name(policy);
        }
      }
    }
  }
}

TEST(Table, CsvRoundTrip) {
  Table t({"a", "b"});
  t.add_row({"1", "x"});
  t.add_row({"2", "y"});
  const std::string path = "/tmp/repro_table_test.csv";
  t.write_csv(path);
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,b");
  std::getline(in, line);
  EXPECT_EQ(line, "1,x");
  std::getline(in, line);
  EXPECT_EQ(line, "2,y");
  EXPECT_FALSE(std::getline(in, line));
  std::remove(path.c_str());
}

TEST(Table, CellFormatting) {
  EXPECT_EQ(Table::cell(3.14159, 2), "3.14");
  EXPECT_EQ(Table::cell(3.14159, 0), "3");
  EXPECT_EQ(Table::cell(static_cast<long long>(-42)), "-42");
}

TEST(Netpipe, SizesArePowersOfTwoWithinBounds) {
  const auto sizes = net::netpipe_sizes(64, 4096);
  ASSERT_EQ(sizes.size(), 7u);  // 64..4096
  for (std::size_t i = 1; i < sizes.size(); ++i) {
    EXPECT_EQ(sizes[i], 2 * sizes[i - 1]);
  }
  EXPECT_EQ(sizes.front(), 64u);
  EXPECT_EQ(sizes.back(), 4096u);
}

}  // namespace
}  // namespace repro
