// Spec sweep: the fig. 8-style CA-vs-base comparison run over the stencil
// spec pool instead of the single hard-wired 5-point stencil.
//
// For every requested spec (--specs=star5,box9,heat3d,... — any spelling
// spec_by_name accepts) the bench runs the distributed solver in base
// (steps = 1) and CA (--steps) mode, reports points/s, remote halo traffic,
// and the redundant-compute fraction, and checks every run bit-for-bit
// against the spec's own serial reference (solve_serial_spec) on all z
// planes. The --report= artefact carries the optional "stencil_spec" block
// (one descriptor per swept spec) and is validated before writing.
//
// What to expect: wider specs (star9: radius 2) exchange radius * steps deep
// bands and pay more redundant recompute per CA superstep; diagonal-tap specs
// (box9, box27) add corner messages every superstep; rank-3 specs multiply
// halo bytes by their field-plane count.
#include <algorithm>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "spec/stages.hpp"
#include "spec/stencil_spec.hpp"
#include "stencil/dist_stencil.hpp"
#include "stencil/spec_kernel.hpp"

namespace {

using namespace repro;

std::vector<std::string> split_csv(const std::string& text) {
  std::vector<std::string> out;
  std::string item;
  for (const char c : text) {
    if (c == ',') {
      if (!item.empty()) out.push_back(item);
      item.clear();
    } else {
      item += c;
    }
  }
  if (!item.empty()) out.push_back(item);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options(argc, argv);
  bench::header("Spec sweep: CA vs base across the stencil-spec pool",
                "per-spec points/s, halo bytes, and redundant-compute "
                "fraction; every run bit-identical to its serial reference");

  const int n = static_cast<int>(options.get_int("n", 384));
  const int tile = static_cast<int>(options.get_int("tile", 48));
  const int nodes = static_cast<int>(options.get_int("nodes", 2));
  const int iters = static_cast<int>(options.get_int("iters", 12));
  const int steps = static_cast<int>(options.get_int("steps", 3));
  // --fuse=F adds a "CA+fused" mode per spec: the fuse-ready graph rewritten
  // by rt::fuse_supersteps into windows of steps * F iterations per
  // exchange. Specs whose radius * window exceeds the tile extent are
  // skipped (the builder would reject them). F=1 keeps the sweep unchanged.
  const int fuse = static_cast<int>(options.get_int("fuse", 1));
  const int nz = static_cast<int>(options.get_int("nz", 4));
  const rt::SchedPolicy sched = rt::parse_sched_policy(
      options.get_choice("sched", "priority",
                         {"priority", "fifo", "lifo", "steal"}));
  // --channel=persistent routes every remote halo over pre-registered route
  // buffers (net::PersistentChannel); results must stay bit-identical.
  const bool persistent =
      options.get_choice("channel", "default", {"default", "persistent"}) ==
      "persistent";
  std::vector<std::string> names;
  if (options.has("specs")) {
    names = split_csv(options.get_string("specs", ""));
  } else {
    names = spec::spec_names();
  }

  obs::RunReport report("bench_spec_sweep");
  report.set_param("n", obs::Json(n));
  report.set_param("tile", obs::Json(tile));
  report.set_param("nodes", obs::Json(nodes * nodes));
  report.set_param("iters", obs::Json(iters));
  report.set_param("steps", obs::Json(steps));
  report.set_param("fuse", obs::Json(fuse));
  report.set_param("nz", obs::Json(nz));
  report.set_param("sched", obs::Json(rt::sched_policy_name(sched)));
  report.set_param("channel",
                   obs::Json(persistent ? "persistent" : "default"));

  Table table({"spec", "radius", "mode", "time ms", "Mpoints/s", "messages",
               "halo KiB", "redundant", "exact"});
  bool all_exact = true;

  for (const std::string& name : names) {
    const spec::StencilSpec sp = spec::spec_by_name(name);
    const spec::CompiledProgram program =
        spec::compile_spec(sp, sp.rank == 3 ? nz : 1);
    const stencil::Problem problem = stencil::spec_problem(
        sp, n, n, iters, sp.rank == 3 ? nz : 1);
    const std::vector<stencil::Grid2D> expected =
        stencil::solve_serial_spec(problem);

    obs::Json descriptor = obs::Json::object();
    descriptor["name"] = obs::Json(sp.name);
    descriptor["rank"] = obs::Json(sp.rank);
    descriptor["radius"] = obs::Json(sp.radius());
    descriptor["points"] = obs::Json(static_cast<long>(sp.points.size()));
    descriptor["field_planes"] = obs::Json(program.nfield);
    descriptor["diagonal_taps"] = obs::Json(program.diagonal_taps);
    report.add_stencil_spec(std::move(descriptor));

    struct Mode {
      const char* label;
      int steps;
      int fuse;
    };
    std::vector<Mode> modes = {{"base", 1, 1}, {"CA", steps, 1}};
    if (fuse > 1) {
      modes.push_back({"CA+fused", steps, fuse});
    }
    for (const Mode& m : modes) {
      const int run_steps = m.steps;
      if (program.radius * run_steps * m.fuse > tile) {
        std::cout << "  (skipping " << sp.name << " " << m.label
                  << ": ghost depth " << program.radius * run_steps * m.fuse
                  << " exceeds tile extent " << tile << ")\n";
        continue;
      }
      stencil::DistConfig config;
      config.decomp = {tile, tile, nodes, nodes};
      config.steps = run_steps;
      config.fuse_depth = m.fuse;
      config.scheduler = sched;
      config.workers_per_rank = 2;
      config.persistent = persistent;
      const stencil::DistResult r = stencil::run_distributed(problem, config);

      // Below rank 3 the grid is the whole field and `planes` stays empty.
      bool exact = true;
      for (std::size_t z = 0; z < expected.size(); ++z) {
        const stencil::Grid2D& got = r.planes.empty() ? r.grid : r.planes[z];
        exact = exact && stencil::Grid2D::max_abs_diff(expected[z], got) == 0.0;
      }
      all_exact = all_exact && exact;

      const double mpoints_s =
          static_cast<double>(r.computed_points) / r.stats.wall_time_s / 1e6;
      const char* mode = m.label;
      table.add_row({sp.name,
                     Table::cell(static_cast<long long>(program.radius)), mode,
                     Table::cell(r.stats.wall_time_s * 1e3, 2),
                     Table::cell(mpoints_s, 1),
                     Table::cell(static_cast<double>(r.stats.messages), 0),
                     Table::cell(static_cast<double>(r.stats.bytes) / 1024.0,
                                 1),
                     Table::cell(r.redundancy(), 3), exact ? "yes" : "NO"});

      obs::Json row = obs::Json::object();
      row["spec"] = obs::Json(sp.name);
      row["mode"] = obs::Json(mode);
      row["steps"] = obs::Json(run_steps);
      row["fuse"] = obs::Json(m.fuse);
      row["radius"] = obs::Json(program.radius);
      row["time_ms"] = obs::Json(r.stats.wall_time_s * 1e3);
      row["mpoints_per_s"] = obs::Json(mpoints_s);
      row["messages"] = obs::Json(static_cast<long>(r.stats.messages));
      row["halo_bytes"] = obs::Json(static_cast<long>(r.stats.bytes));
      row["redundant_fraction"] = obs::Json(r.redundancy());
      row["exact"] = obs::Json(exact);
      report.add_result(std::move(row));
    }
  }

  table.print(std::cout);
  std::cout << "\nall runs bit-identical to their serial reference: "
            << (all_exact ? "yes" : "NO") << "\n";
  report.set_derived("all_exact", obs::Json(all_exact));
  bench::maybe_csv(table, options, "spec_sweep.csv");
  bench::maybe_report(report, options, "spec_sweep_report.json");
  return all_exact ? 0 : 1;
}
