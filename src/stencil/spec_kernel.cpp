#include "stencil/spec_kernel.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace repro::stencil {

spec::CompiledProgram compile_problem_spec(const Problem& problem) {
  if (problem.nz < 1) {
    throw std::invalid_argument("compile_problem_spec: nz < 1");
  }
  spec::CompiledProgram prog = spec::compile_spec(problem.spec, problem.nz);
  if (problem.coefficient && !prog.star5) {
    throw std::invalid_argument(
        "compile_problem_spec: coefficient problems need the star5 spec");
  }
  const bool sampled = prog.rank == 3
                           ? problem.initial3 && problem.boundary3
                           : problem.initial && problem.boundary;
  if (!sampled) {
    throw std::invalid_argument(
        "compile_problem_spec: initial/boundary (rank 3: initial3/boundary3) "
        "unset");
  }
  return prog;
}

PlaneSample spec_sample(const spec::CompiledProgram& prog,
                        const Problem& problem, int plane) {
  if (prog.rank < 3) return {problem.initial, problem.boundary};
  const long z = static_cast<long>(plane - prog.zlo);
  CellFn boundary = [&problem, z](long i, long j) {
    return problem.boundary3(i, j, z);
  };
  if (z < 0 || z >= prog.nz) return {CellFn{}, std::move(boundary)};
  return {[&problem, z](long i, long j) { return problem.initial3(i, j, z); },
          std::move(boundary)};
}

void sample_plane(const spec::CompiledProgram& prog, const Problem& problem,
                  int plane, const TileGeom& g, long gr0, long gc0,
                  double* dst) {
  const PlaneSample sample = spec_sample(prog, problem, plane);
  const bool interior_plane = static_cast<bool>(sample.initial);
  for (int i = -g.gn; i < g.h + g.gs; ++i) {
    const long gi = gr0 + i;
    const bool row_inside = interior_plane && gi >= 0 && gi < problem.rows;
    for (int j = -g.gw; j < g.w + g.ge; ++j) {
      const long gj = gc0 + j;
      dst[g.idx(i, j)] = row_inside && gj >= 0 && gj < problem.cols
                             ? sample.initial(gi, gj)
                             : sample.boundary(gi, gj);
    }
  }
}

namespace {

// One output plane over a row range: linear tap deltas precomputed per call,
// per-point accumulation "w0*x0 then += wk*xk" in listed order with every
// multiply and add individually rounded.
void apply_output(const double* in, double* out, const TileGeom& geom,
                  const spec::StageOutput& output, int r0, int r1, int c0,
                  int c1) {
  const int ld = geom.ld();
  const std::size_t plane = geom.size();
  const std::size_t n = output.taps.size();
  std::vector<std::ptrdiff_t> deltas(n);
  std::vector<double> w(n);
  for (std::size_t k = 0; k < n; ++k) {
    const spec::StageTap& t = output.taps[k];
    deltas[k] = static_cast<std::ptrdiff_t>(t.plane) *
                    static_cast<std::ptrdiff_t>(plane) +
                static_cast<std::ptrdiff_t>(t.di) * ld + t.dj;
    w[k] = t.w;
  }
  double* out_plane = out + static_cast<std::size_t>(output.plane) * plane;

  for (int i = r0; i < r1; ++i) {
    const std::size_t row = geom.idx(i, 0);
    double* dst = out_plane + row;
    const double* src = in + row;
    for (int j = c0; j < c1; ++j) {
      double sum = w[0] * src[j + deltas[0]];
      for (std::size_t k = 1; k < n; ++k) {
        sum += w[k] * src[j + deltas[k]];
      }
      dst[j] = sum;
    }
  }
}

}  // namespace

void apply_program_stage(const double* in, double* out, const TileGeom& geom,
                         const spec::CompiledProgram& prog, int r0, int r1,
                         int c0, int c1, KernelVariant kernel,
                         const KernelTuning& tuning) {
  if (prog.star5) {
    // Recognized 5-point program: single plane, tap order (c,n,s,w,e) —
    // dispatch the jacobi5 kernels (bit-identical to the generic loop by the
    // repo-wide per-point rounding rule). The only special dispatch.
    const auto& s5 = *prog.star5;
    jacobi5_opt(in, out, geom, Stencil5{s5[0], s5[1], s5[2], s5[3], s5[4]},
                r0, r1, c0, c1, kernel, tuning);
    return;
  }

  if (kernel == KernelVariant::Scalar || r1 - r0 <= tuning.block_rows) {
    for (const spec::StageOutput& output : prog.outputs) {
      apply_output(in, out, geom, output, r0, r1, c0, c1);
    }
    return;
  }
  // Blocked traversal (Vector degenerates to it for generic programs):
  // row-band blocking keeps all nfield input planes' working rows
  // resident; traversal order cannot change bits (Jacobi sweeps have no
  // cross-point ordering).
  const int br = std::max(1, tuning.block_rows);
  for (int i0 = r0; i0 < r1; i0 += br) {
    const int i1 = std::min(r1, i0 + br);
    for (const spec::StageOutput& output : prog.outputs) {
      apply_output(in, out, geom, output, i0, i1, c0, c1);
    }
  }
}

std::vector<Grid2D> solve_serial_spec(const Problem& problem,
                                      KernelVariant variant,
                                      const KernelTuning& tuning) {
  if (problem.coefficient) {
    throw std::invalid_argument(
        "solve_serial_spec: coefficient problems run through solve_serial");
  }
  const spec::CompiledProgram prog = compile_problem_spec(problem);
  const int rows = problem.rows;
  const int cols = problem.cols;
  if (rows < 1 || cols < 1) {
    throw std::invalid_argument("solve_serial_spec: empty interior");
  }

  // One radius-padded "tile" covering the whole grid, nfield planes deep.
  // Both buffers start identical and each sweep rewrites only the interior
  // of the output planes, so the ring and the frozen z-boundary planes carry
  // over without copies.
  const int r = prog.radius;
  const TileGeom g{rows, cols, r, r, r, r};
  const std::size_t plane = g.size();
  std::vector<double> current(static_cast<std::size_t>(prog.nfield) * plane);
  for (int c = 0; c < prog.nfield; ++c) {
    sample_plane(prog, problem, c, g, 0, 0,
                 current.data() + static_cast<std::size_t>(c) * plane);
  }
  std::vector<double> next = current;
  for (int k = 0; k < problem.iterations; ++k) {
    apply_program_stage(current.data(), next.data(), g, prog, 0, rows, 0,
                        cols, variant, tuning);
    std::swap(current, next);
  }

  std::vector<Grid2D> result;
  result.reserve(static_cast<std::size_t>(prog.nz));
  for (int z = 0; z < prog.nz; ++z) {
    const double* src =
        current.data() + static_cast<std::size_t>(prog.zlo + z) * plane;
    Grid2D grid(rows, cols);
    grid.fill(
        [&](long i, long j) {
          return src[g.idx(static_cast<int>(i), static_cast<int>(j))];
        },
        spec_sample(prog, problem, prog.zlo + z).boundary);
    result.push_back(std::move(grid));
  }
  return result;
}

}  // namespace repro::stencil
