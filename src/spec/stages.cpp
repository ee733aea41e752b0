#include "spec/stages.hpp"

#include <algorithm>
#include <stdexcept>

namespace repro::spec {

double CompiledProgram::flops_per_point() const {
  double total = 0.0;
  for (const StageOutput& out : outputs) {
    total += 2.0 * static_cast<double>(out.taps.size()) - 1.0;
  }
  return total;
}

CompiledProgram compile_spec(const StencilSpec& spec, int nz) {
  spec.validate();
  if (nz < 1) throw std::invalid_argument("compile_spec: nz must be >= 1");
  if (spec.rank < 3 && nz != 1) {
    throw std::invalid_argument("compile_spec: nz > 1 requires a rank-3 spec");
  }

  CompiledProgram prog;
  prog.rank = spec.rank;
  prog.nz = nz;
  prog.zlo = spec.reach(2, -1);
  prog.zhi = spec.reach(2, +1);
  prog.nfield = nz + prog.zlo + prog.zhi;
  prog.radius = std::max(1, spec.radius_xy());

  // The spec applied directly, z offsets as plane deltas.
  for (int z = 0; z < nz; ++z) {
    StageOutput out;
    out.plane = prog.zlo + z;
    for (const StencilPoint& p : spec.points) {
      out.taps.push_back(
          {prog.zlo + z + p.offset[2], p.offset[0], p.offset[1], p.coeff});
      if (p.offset[0] != 0 && p.offset[1] != 0) prog.diagonal_taps = true;
    }
    prog.outputs.push_back(std::move(out));
  }

  // Recognize the classic 2D 5-point stencil in jacobi5 tap order so the
  // driver can dispatch the optimized cache-blocked kernels.
  if (spec.rank == 2 && prog.outputs.size() == 1) {
    const auto& taps = prog.outputs[0].taps;
    constexpr std::array<std::array<int, 2>, 5> pattern = {
        {{0, 0}, {-1, 0}, {1, 0}, {0, -1}, {0, 1}}};
    if (taps.size() == 5) {
      bool match = true;
      std::array<double, 5> w{};
      for (std::size_t i = 0; i < 5; ++i) {
        if (taps[i].di != pattern[i][0] || taps[i].dj != pattern[i][1]) {
          match = false;
          break;
        }
        w[i] = taps[i].w;
      }
      if (match) prog.star5 = w;
    }
  }
  return prog;
}

}  // namespace repro::spec
