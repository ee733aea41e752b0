// des_fig8: one operation is one pass of sim::simulate_stencil over the four
// legs of the Fig. 8/10 point (NaCL, N = 23040, tile 288, 4x4 nodes, 100
// iterations, kernel ratio 0.4): base, CA s = 15, CA s = 15 fused 3, and CA
// s = 15 over persistent channels. The model is deterministic and
// single-threaded; its inputs are the paper's fixed configuration, so the
// seed is echoed but changes nothing.
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "probes.hpp"
#include "sim/machine.hpp"
#include "sim/models.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace sim = repro::sim;

namespace {

constexpr int kSetups = 3;

struct Leg {
  std::string name;
  sim::StencilSimParams params;
  /// Committed exact traffic (bench/baselines), 0 = only check repetition.
  std::uint64_t expect_messages = 0;
  std::uint64_t expect_bytes = 0;
};

std::vector<Leg> legs_of(const Args& args) {
  // Tiny mode: the same legs on a 2x2-node, 2304-point problem.
  const int n = args.tiny ? 2304 : 23040;
  const int side = args.tiny ? 2 : 4;
  const int iterations = args.tiny ? 30 : 100;
  const sim::StencilSimParams base{sim::nacl(), n,          288, side, side,
                                   iterations,  1,          0.4};
  std::vector<Leg> legs;
  legs.push_back({"base", base, 0, 0});
  sim::StencilSimParams ca = base;
  ca.steps = 15;
  legs.push_back({"ca_s15", ca, args.tiny ? 0u : 19740u,
                  args.tiny ? 0u : 256468800u});
  sim::StencilSimParams fused = ca;
  fused.fuse = 3;
  legs.push_back({"ca_s15_fuse3", fused, args.tiny ? 0u : 8460u,
                  args.tiny ? 0u : 389332800u});
  sim::StencilSimParams persistent = ca;
  persistent.persistent = true;
  legs.push_back({"ca_s15_persistent", persistent, 0, 0});
  return legs;
}

struct Traffic {
  std::uint64_t tasks = 0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  friend bool operator==(const Traffic&, const Traffic&) = default;
};

}  // namespace

void run_des_workload(const Args& args) {
  Report report(args, kDes);
  record_host_context(report);
  const std::vector<Leg> legs = legs_of(args);
  {
    const auto& p = legs.front().params;
    std::ostringstream os;
    os << "sim::simulate_stencil, machine " << p.machine.name << ", N " << p.N
       << ", tile " << p.tile << ", " << p.node_rows << "x" << p.node_cols
       << " nodes, " << p.iterations << " iterations, ratio " << p.ratio
       << "; legs base, CA s=15, CA s=15 fuse 3, CA s=15 persistent";
    report.context("input", os.str());
    report.context("seed", std::to_string(args.seed) + " (inputs are fixed)");
  }

  std::vector<Traffic> first_pass;
  Spans spans;
  std::uint64_t pass_id = 0;
  // One pass; checks every leg's exact traffic. Spans only when tracing.
  const auto pass = [&]() {
    ++pass_id;
    const double t0 = now_s();
    std::vector<Traffic> traffic;
    std::vector<std::pair<double, double>> leg_times;
    for (const Leg& leg : legs) {
      const double l0 = now_s();
      const sim::StencilSimOutput out = sim::simulate_stencil(leg.params);
      leg_times.emplace_back(l0, now_s());
      traffic.push_back({out.sim.tasks_executed, out.sim.messages,
                         static_cast<std::uint64_t>(out.sim.message_bytes)});
    }
    const double t1 = now_s();
    if (args.trace) {
      const int parent = spans.add("sim.pass", t0, t1, -1, pass_id);
      for (std::size_t i = 0; i < legs.size(); ++i) {
        spans.add("sim.leg." + legs[i].name, leg_times[i].first,
                  leg_times[i].second, parent, pass_id);
      }
    }
    std::string why;
    if (first_pass.empty()) first_pass = traffic;
    for (std::size_t i = 0; i < legs.size() && why.empty(); ++i) {
      const Leg& leg = legs[i];
      std::uint64_t expect_messages = leg.expect_messages;
      if (args.corrupt_reference && expect_messages != 0) ++expect_messages;
      if (args.corrupt_reference && args.tiny && i == 0) {
        why = "corrupted reference";  // tiny legs have no committed values
      } else if (!(traffic[i] == first_pass[i])) {
        why = leg.name + ": traffic differs from the first pass";
      } else if (expect_messages != 0 &&
                 (traffic[i].messages != expect_messages ||
                  traffic[i].bytes != leg.expect_bytes)) {
        why = leg.name + ": traffic differs from the committed baseline";
      }
    }
    report.op(why.empty(), why);
    return t1 - t0;
  };

  // Set-up: the first pass, three times (the inputs are constants).
  std::vector<double> setups;
  for (int k = 0; k < kSetups; ++k) setups.push_back(pass());
  const double setup_s = report_setup(setups, report);

  std::vector<double> passes;
  const double start = now_s();
  while (now_s() - start < args.seconds || passes.size() < 3) {
    passes.push_back(pass());
  }
  double points = 0.0;
  for (const Leg& leg : legs) {
    points += static_cast<double>(leg.params.N) * leg.params.N *
              leg.params.iterations;
  }
  for (std::size_t i = 0; i < legs.size(); ++i) {
    std::ostringstream row;
    row << "leg " << legs[i].name << ": tasks " << first_pass[i].tasks
        << ", messages " << first_pass[i].messages << ", bytes "
        << first_pass[i].bytes;
    report.note(row.str());
  }
  const double p50 = median(passes);
  if (!args.trace) {
    const Tail tail = tail_of(passes);
    std::ostringstream row;
    row << "passes=" << passes.size() << " tail=p" << tail.percentile
        << " with " << tail.beyond << " samples beyond";
    report.note(row.str());
    report.set("mpts_per_s", points / p50 / 1e6);
    report.set("op_s_p50", p50);
    report.set("op_s_tail", tail.value);
    report.set("setup_s", setup_s);
    report.set("peak_rss_mb", peak_rss_mib());
    report.finish();
    return;
  }

  save_spans(spans, args, report);
  print_span_table(spans, report);
  Traffic total;
  for (const Traffic& t : first_pass) {
    total.tasks += t.tasks;
    total.messages += t.messages;
    total.bytes += t.bytes;
  }
  const auto& base = legs.front().params;
  const double des_ns = probe_des_ns_per_task(
      first_pass.front().tasks, base.N / base.tile, base.tile);
  report.set("sim.tasks", static_cast<double>(total.tasks));
  report.set("sim.messages", static_cast<double>(total.messages));
  report.set("sim.bytes", static_cast<double>(total.bytes));
  report.set("sim.des_ns_per_task", des_ns);
  report.set("sim.model_build_s",
             p50 - des_ns * 1e-9 * static_cast<double>(total.tasks));
  const ObsProbe obs_probe = probe_obs(kNodeRows * kNodeCols * kWorkersPerRank,
                                       args.tiny);
  const StreamProbe stream = probe_stream(args.tiny);
  report.set("obs.counter_add_ns", obs_probe.counter_add_ns);
  report.set("obs.flight_record_ns", obs_probe.flight_record_ns);
  report.set("stream.copy_gbs", stream.copy_gbs);
  report.note("stream: arrays of " + std::to_string(stream.array_bytes) +
              " B each, last-level cache " + std::to_string(stream.llc_bytes) +
              " B");
  report.finish();
}

}  // namespace perfbench
