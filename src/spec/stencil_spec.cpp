#include "spec/stencil_spec.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace repro::spec {

namespace {

/// SplitMix64-style hash, the same construction the stencil problems use for
/// reproducible fields: no shared RNG state, stable across platforms.
unsigned long hash64(unsigned long z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9UL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebUL;
  return z ^ (z >> 31);
}

double unit_double(unsigned long h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;  // [0, 1)
}

}  // namespace

int StencilSpec::radius() const {
  int r = 0;
  for (const StencilPoint& p : points) {
    for (int a = 0; a < kMaxRank; ++a) r = std::max(r, std::abs(p.offset[a]));
  }
  return r;
}

int StencilSpec::radius_xy() const {
  int r = 0;
  for (const StencilPoint& p : points) {
    r = std::max(r, std::max(std::abs(p.offset[0]), std::abs(p.offset[1])));
  }
  return r;
}

int StencilSpec::reach(int axis, int dir) const {
  int r = 0;
  for (const StencilPoint& p : points) {
    const int o = p.offset[static_cast<std::size_t>(axis)];
    if (dir > 0 && o > 0) r = std::max(r, o);
    if (dir < 0 && o < 0) r = std::max(r, -o);
  }
  return r;
}

double StencilSpec::coeff_sum() const {
  double sum = 0.0;
  for (const StencilPoint& p : points) sum += p.coeff;
  return sum;
}

void StencilSpec::validate() const {
  auto fail = [](const std::string& what) {
    throw std::invalid_argument("StencilSpec: " + what);
  };
  if (rank < 1 || rank > kMaxRank) {
    fail("rank must be in [1, " + std::to_string(kMaxRank) + "]");
  }
  if (points.empty()) fail("point set is empty");
  for (const StencilPoint& p : points) {
    for (int a = 0; a < kMaxRank; ++a) {
      const int o = p.offset[static_cast<std::size_t>(a)];
      if (a >= rank && o != 0) {
        fail("offset on inactive axis " + std::to_string(a));
      }
      if (std::abs(o) > kMaxRadius) {
        fail("offset exceeds max radius " + std::to_string(kMaxRadius));
      }
    }
  }
  for (std::size_t i = 0; i < points.size(); ++i) {
    for (std::size_t j = i + 1; j < points.size(); ++j) {
      if (points[i].offset == points[j].offset) fail("duplicate offset");
    }
  }
}

std::string StencilSpec::to_literal() const {
  std::string out = "StencilSpec{.name=\"" + name +
                    "\", .rank=" + std::to_string(rank) + ", .points={";
  char buf[64];
  for (std::size_t i = 0; i < points.size(); ++i) {
    const StencilPoint& p = points[i];
    // %a round-trips the coefficient exactly.
    std::snprintf(buf, sizeof(buf), "{{%d,%d,%d},%a}", p.offset[0],
                  p.offset[1], p.offset[2], p.coeff);
    if (i != 0) out += ",";
    out += buf;
  }
  out += "}}";
  return out;
}

// ------------------------------------------------------- named constructors

StencilSpec StencilSpec::star5(const std::array<double, 5>& w) {
  StencilSpec s;
  s.name = "star5";
  s.rank = 2;
  // jacobi5's accumulation order: center, north, south, west, east.
  s.points = {{{0, 0, 0}, w[0]},  {{-1, 0, 0}, w[1]}, {{1, 0, 0}, w[2]},
              {{0, -1, 0}, w[3]}, {{0, 1, 0}, w[4]}};
  return s;
}

StencilSpec StencilSpec::star5() {
  // The repo's asymmetric test weights (Stencil5::test_weights): designed so
  // index bugs and transpositions change the answer.
  return star5({0.20, 0.23, 0.17, 0.19, 0.21});
}

StencilSpec StencilSpec::star9() {
  StencilSpec s;
  s.name = "star9";
  s.rank = 2;
  s.points = {{{0, 0, 0}, 0.5},     {{-1, 0, 0}, 0.1},  {{1, 0, 0}, 0.1},
              {{0, -1, 0}, 0.1},    {{0, 1, 0}, 0.1},   {{-2, 0, 0}, 0.025},
              {{2, 0, 0}, 0.025},   {{0, -2, 0}, 0.025},{{0, 2, 0}, 0.025}};
  return s;
}

StencilSpec StencilSpec::box9() {
  StencilSpec s;
  s.name = "box9";
  s.rank = 2;
  s.points = {{{0, 0, 0}, 0.2},     {{-1, 0, 0}, 0.125}, {{1, 0, 0}, 0.125},
              {{0, -1, 0}, 0.125},  {{0, 1, 0}, 0.125},  {{-1, -1, 0}, 0.075},
              {{-1, 1, 0}, 0.075},  {{1, -1, 0}, 0.075}, {{1, 1, 0}, 0.075}};
  return s;
}

StencilSpec StencilSpec::heat3d() {
  StencilSpec s;
  s.name = "heat3d";
  s.rank = 3;
  s.points = {{{0, 0, 0}, 0.4},  {{-1, 0, 0}, 0.1}, {{1, 0, 0}, 0.1},
              {{0, -1, 0}, 0.1}, {{0, 1, 0}, 0.1},  {{0, 0, -1}, 0.1},
              {{0, 0, 1}, 0.1}};
  return s;
}

StencilSpec StencilSpec::advect2d() {
  // First-order upwind advection with velocity (cy, cx) = (0.2, 0.3): an
  // asymmetric 3-point subset — exercises arbitrary point sets (no south or
  // east taps at all).
  StencilSpec s;
  s.name = "advect2d";
  s.rank = 2;
  s.points = {{{0, 0, 0}, 0.5}, {{0, -1, 0}, 0.3}, {{-1, 0, 0}, 0.2}};
  return s;
}

StencilSpec StencilSpec::box27() {
  StencilSpec s;
  s.name = "box27";
  s.rank = 3;
  s.points.push_back({{0, 0, 0}, 0.2});
  const double w = 0.8 / 26.0;
  for (int di = -1; di <= 1; ++di) {
    for (int dj = -1; dj <= 1; ++dj) {
      for (int dz = -1; dz <= 1; ++dz) {
        if (di == 0 && dj == 0 && dz == 0) continue;
        s.points.push_back({{di, dj, dz}, w});
      }
    }
  }
  return s;
}

const std::vector<std::string>& spec_names() {
  static const std::vector<std::string> names = {
      "star5", "star9", "box9", "heat3d", "advect2d", "box27"};
  return names;
}

StencilSpec spec_by_name(const std::string& name) {
  if (name == "star5") return StencilSpec::star5();
  if (name == "star9") return StencilSpec::star9();
  if (name == "box9") return StencilSpec::box9();
  if (name == "heat3d") return StencilSpec::heat3d();
  if (name == "advect2d") return StencilSpec::advect2d();
  if (name == "box27") return StencilSpec::box27();
  std::string all;
  for (const std::string& n : spec_names()) {
    if (!all.empty()) all += "|";
    all += n;
  }
  throw std::invalid_argument("unknown stencil spec '" + name + "' (" + all +
                              ")");
}

StencilSpec random_spec(unsigned long seed) {
  StencilSpec s;
  s.name = "rand" + std::to_string(seed);
  unsigned long h = hash64(seed * 0x9e3779b97f4a7c15UL + 1);
  s.rank = 1 + static_cast<int>(h % 3);
  h = hash64(h);
  // Keep the halo depth and the z plane count small: xy radius <= 3 for 2D,
  // <= 2 once z participates (field planes grow with the z radius).
  const int radius = 1 + static_cast<int>(h % (s.rank == 3 ? 2 : 3));

  // Always include the center, then an independent coin per candidate offset
  // within the Chebyshev ball. Enumerate in deterministic row-major order.
  s.points.push_back({{0, 0, 0}, 0.0});
  const int rz = s.rank == 3 ? radius : 0;
  const int rj = s.rank >= 2 ? radius : 0;
  for (int di = -radius; di <= radius; ++di) {
    for (int dj = -rj; dj <= rj; ++dj) {
      for (int dz = -rz; dz <= rz; ++dz) {
        if (di == 0 && dj == 0 && dz == 0) continue;
        h = hash64(h);
        if (unit_double(h) < 0.35) s.points.push_back({{di, dj, dz}, 0.0});
      }
    }
  }
  // Raw weights in [0.05, 1.05), then normalized to sum 0.9 so iterating the
  // spec contracts any bounded field.
  double sum = 0.0;
  for (StencilPoint& p : s.points) {
    h = hash64(h);
    p.coeff = 0.05 + unit_double(h);
    sum += p.coeff;
  }
  for (StencilPoint& p : s.points) p.coeff *= 0.9 / sum;
  s.validate();
  return s;
}

// ------------------------------------------------------------ derived halos

int HaloRegion::order() const {
  int n = 0;
  for (int a = 0; a < kMaxRank; ++a) n += dir[static_cast<std::size_t>(a)] != 0;
  return n;
}

std::vector<HaloRegion> derive_halos(const StencilSpec& spec) {
  std::vector<HaloRegion> regions;
  for (int di = -1; di <= 1; ++di) {
    for (int dj = -1; dj <= 1; ++dj) {
      for (int dz = -1; dz <= 1; ++dz) {
        if (di == 0 && dj == 0 && dz == 0) continue;
        const std::array<int, 3> dir{di, dj, dz};
        HaloRegion region;
        region.dir = dir;
        bool needed = false;
        for (const StencilPoint& p : spec.points) {
          bool matches = true;
          for (std::size_t a = 0; a < 3; ++a) {
            if (dir[a] > 0 && p.offset[a] <= 0) matches = false;
            if (dir[a] < 0 && p.offset[a] >= 0) matches = false;
          }
          if (!matches) continue;
          needed = true;
          for (std::size_t a = 0; a < 3; ++a) {
            if (dir[a] != 0) {
              region.depth[a] =
                  std::max(region.depth[a], std::abs(p.offset[a]));
            }
          }
        }
        if (needed) regions.push_back(region);
      }
    }
  }
  return regions;
}

int ca_ghost_depth(const StencilSpec& spec, int steps) {
  if (steps < 1) throw std::invalid_argument("ca_ghost_depth: steps < 1");
  return std::max(1, spec.radius_xy()) * steps;
}

}  // namespace repro::spec
