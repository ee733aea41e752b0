#include "stencil/problem.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

namespace repro::stencil {

Problem laplace_problem(int n, int iterations) {
  Problem p;
  p.rows = n;
  p.cols = n;
  p.iterations = iterations;
  // The spec stays Problem{}'s: star5 with the Laplace-Jacobi weights.
  p.initial = [](long, long) { return 0.0; };
  p.boundary = [n](long /*i*/, long j) {
    // Hot (1.0) west wall, cold east wall, linear ramp north/south.
    if (j < 0) return 1.0;
    if (j >= n) return 0.0;
    return 1.0 - static_cast<double>(j) / static_cast<double>(n - 1);
  };
  return p;
}

Problem random_problem(int rows, int cols, int iterations,
                       unsigned long seed) {
  Problem p;
  p.rows = rows;
  p.cols = cols;
  p.iterations = iterations;
  p.spec = spec::StencilSpec::star5();  // Stencil5::test_weights()
  // Hash-based field: reproducible, no shared RNG state, and every cell
  // differs from its neighbors. Kept in [0,1) to avoid growth under the
  // contraction weights.
  auto field = [seed](long i, long j) {
    unsigned long z = static_cast<unsigned long>(i) * 0x9e3779b97f4a7c15UL ^
                      (static_cast<unsigned long>(j) + seed) * 0xbf58476d1ce4e5b9UL;
    z = (z ^ (z >> 30)) * 0x94d049bb133111ebUL;
    z ^= z >> 31;
    return static_cast<double>(z >> 11) * 0x1.0p-53;
  };
  p.initial = field;
  p.boundary = field;
  return p;
}

Problem spec_problem(spec::StencilSpec stencil, int rows, int cols,
                     int iterations, int nz, unsigned long seed) {
  Problem p;
  p.rows = rows;
  p.cols = cols;
  p.iterations = iterations;
  p.spec = std::move(stencil);
  p.nz = nz;
  // Hash-based 3D field in [0,1): same construction as random_problem with z
  // mixed in, so plane transpositions and z-offset bugs change the answer.
  auto field = [seed](long i, long j, long z) {
    unsigned long h = static_cast<unsigned long>(i) * 0x9e3779b97f4a7c15UL ^
                      (static_cast<unsigned long>(j) + seed) *
                          0xbf58476d1ce4e5b9UL ^
                      (static_cast<unsigned long>(z) + 17UL) *
                          0x94d049bb133111ebUL;
    h = (h ^ (h >> 30)) * 0x94d049bb133111ebUL;
    h ^= h >> 31;
    return static_cast<double>(h >> 11) * 0x1.0p-53;
  };
  p.initial = [field](long i, long j) { return field(i, j, 0); };
  p.boundary = [field](long i, long j) { return field(i, j, 0); };
  if (p.spec.rank == 3) {
    p.initial3 = field;
    p.boundary3 = field;
  }
  return p;
}

Problem random_variable_problem(int rows, int cols, int iterations,
                                unsigned long seed) {
  Problem p = random_problem(rows, cols, iterations, seed);
  p.coefficient = [seed](long i, long j) {
    auto h = [seed](long a, long b, unsigned long salt) {
      unsigned long z = static_cast<unsigned long>(a) * 0x9e3779b97f4a7c15UL ^
                        static_cast<unsigned long>(b) * 0xbf58476d1ce4e5b9UL ^
                        (seed + salt) * 0x94d049bb133111ebUL;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9UL;
      z ^= z >> 31;
      return static_cast<double>(z >> 11) * 0x1.0p-53;  // [0,1)
    };
    // Five weights in [0.02, 0.21), summing to < 1.05 worst case but
    // typically ~0.6 — effectively contractive over random fields.
    return std::array<double, 5>{0.02 + 0.19 * h(i, j, 1),
                                 0.02 + 0.19 * h(i, j, 2),
                                 0.02 + 0.19 * h(i, j, 3),
                                 0.02 + 0.19 * h(i, j, 4),
                                 0.02 + 0.19 * h(i, j, 5)};
  };
  return p;
}

Problem restart_from(const Problem& problem,
                     std::shared_ptr<const Grid2D> snapshot, int iterations) {
  if (problem.spec.rank == 3) {
    throw std::invalid_argument(
        "restart_from: a Grid2D snapshot cannot restart a rank-3 problem");
  }
  if (snapshot->rows() != problem.rows || snapshot->cols() != problem.cols) {
    throw std::invalid_argument("restart_from: snapshot shape mismatch");
  }
  Problem next = problem;
  next.iterations = iterations;
  next.initial = [snapshot = std::move(snapshot)](long i, long j) {
    return snapshot->at(static_cast<int>(i), static_cast<int>(j));
  };
  return next;
}

}  // namespace repro::stencil
