#include "stencil/dist_stencil.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <memory>
#include <mutex>
#include <stdexcept>

#include "net/persistent_channel.hpp"
#include "runtime/graph_transform.hpp"
#include "stencil/halo.hpp"
#include "stencil/spec_kernel.hpp"
#include "stencil/tile_step.hpp"

namespace repro::stencil {

namespace {

// Task types and output slots of the stencil graph. A solve's key space
// shifts both types by key_space * 2, so batched solves sharing one graph
// stay collision-free.
constexpr std::uint32_t kTypeInit = 0;  // INIT(0, ti, tj)
constexpr std::uint32_t kTypeStep = 1;  // STEP(k, ti, tj), k in 1..iterations

constexpr std::uint16_t kSlotState = 0;
constexpr std::uint16_t kSlotBand(Side s) {
  return static_cast<std::uint16_t>(1 + static_cast<int>(s));
}
constexpr std::uint16_t kSlotCorner(Corner c) {
  return static_cast<std::uint16_t>(5 + static_cast<int>(c));
}
/// Variable-coefficient planes, published once per tile by INIT.
constexpr std::uint16_t kSlotCoeff = 9;
/// Packed edge lines (pack_edge_lines) for same-node readers of a tile that
/// publishes them (TileInfo::edge_lines).
constexpr std::uint16_t kSlotLines = 10;

/// Static per-tile facts derived from the TileMap.
struct TileInfo {
  int ti = 0, tj = 0;
  int rank = 0;
  TileGeom geom;
  bool side_exists[4] = {};
  bool side_remote[4] = {};
  bool side_local[4] = {};
  /// Deep (radius*steps) ghost band on this side, refreshed by packed bands
  /// at superstep starts. Classic: the remote sides. Fuse-ready graphs:
  /// every side with a neighbor — there is no per-inner-step local exchange
  /// inside a fused window, so local neighbors need deep bands too.
  bool side_deep[4] = {};
  /// This tile consumes a corner block from the diagonal neighbor at Corner c.
  bool corner_in[4] = {};
  /// Diagonal-tap stencils only: this tile reads the same-node diagonal's
  /// state at c.
  bool corner_local[4] = {};
  bool boundary = false;  ///< any remote side (paper's "boundary tile")
  /// Its same-node readers read its packed edge lines (kSlotLines), not its
  /// state, so each state it publishes has one reader: its own next step.
  /// Large tiles only (sweeps_inner, DESIGN.md §6 item 8); a smaller tile's
  /// state is read in place by every same-node neighbour.
  bool edge_lines = false;
};

TileInfo make_tile_info(const TileMap& map, int steps, int radius, bool box,
                        bool fuse_ready, int ti, int tj) {
  TileInfo info;
  info.ti = ti;
  info.tj = tj;
  info.rank = map.rank_of(ti, tj);

  for (Side s : kAllSides) {
    const auto i = static_cast<int>(s);
    info.side_exists[i] = map.neighbor_exists(ti, tj, d_ti(s), d_tj(s));
    info.side_remote[i] = map.neighbor_remote(ti, tj, d_ti(s), d_tj(s));
    // Fused windows exchange packed bands with every neighbor; per-inner-step
    // local line copies only happen in the classic graph.
    info.side_deep[i] = fuse_ready ? info.side_exists[i] : info.side_remote[i];
    info.side_local[i] =
        !fuse_ready && info.side_exists[i] && !info.side_remote[i];
    if (info.side_remote[i]) info.boundary = true;
  }

  auto ghost = [&](Side s) {
    return info.side_deep[static_cast<int>(s)] ? radius * steps : radius;
  };
  info.geom = TileGeom{map.tile_h(ti), map.tile_w(tj),
                       ghost(Side::North), ghost(Side::South),
                       ghost(Side::West), ghost(Side::East)};

  for (Corner c : kAllCorners) {
    const bool diag_exists = map.neighbor_exists(ti, tj, d_ti(c), d_tj(c));
    const bool diag_remote = map.neighbor_remote(ti, tj, d_ti(c), d_tj(c));
    if (fuse_ready) {
      // Fused windows redundantly compute into every neighbor-facing band,
      // so every existing diagonal must supply its corner block (steps > 1;
      // a 1-step window only reads the cross halo — unless the stencil has
      // diagonal taps and reads diagonals every step).
      info.corner_in[static_cast<int>(c)] = diag_exists && (steps > 1 || box);
      info.corner_local[static_cast<int>(c)] = false;
      continue;
    }
    // The corner is read only when the tile redundantly computes into a
    // neighboring ghost band (steps > 1) adjacent to this corner.
    const Side row_side = d_ti(c) < 0 ? Side::North : Side::South;
    const Side col_side = d_tj(c) < 0 ? Side::West : Side::East;
    const bool adjacent_remote = info.side_remote[static_cast<int>(row_side)] ||
                                 info.side_remote[static_cast<int>(col_side)];
    // Cross stencils read into the ghost corners only while redundantly
    // computing (steps > 1); diagonal-tap stencils read diagonals on every
    // step.
    info.corner_in[static_cast<int>(c)] =
        diag_exists && diag_remote &&
        (box || (steps > 1 && adjacent_remote));
    info.corner_local[static_cast<int>(c)] = box && diag_exists && !diag_remote;
  }

  bool local_reader = false;
  for (int i = 0; i < 4; ++i) {
    local_reader = local_reader || info.side_local[i] || info.corner_local[i];
  }
  info.edge_lines = local_reader && sweeps_inner(info.geom);
  return info;
}

/// State-buffer storage for one rank. take() hands out a buffer whose deleter
/// gives the storage back when the last reference drops, on whichever thread
/// drops it, so reuse follows reference counts and never dataflow reasoning.
/// The pool lives as long as any buffer it handed out.
class StatePool : public std::enable_shared_from_this<StatePool> {
 public:
  /// Free buffers kept per rank; a buffer returned past this is freed on the
  /// releasing thread. Uncapped retention raised kernel_bound's peak RSS by
  /// 11-17 %; four buffers still serve most outputs (DESIGN.md §6).
  static constexpr std::size_t kRetained = 4;

  /// Every buffer is allocated with `capacity` doubles, the rank's largest
  /// extended state, so any free buffer serves any take on the rank.
  /// Reserved up front so giving a buffer back never allocates.
  explicit StatePool(std::size_t capacity) : capacity_(capacity) {
    free_.reserve(kRetained);
  }

  /// A buffer of n doubles with stale contents.
  std::shared_ptr<std::vector<double>> take(std::size_t n) {
    std::unique_ptr<std::vector<double>> storage;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      if (!free_.empty()) {
        // Prefer an exact fit: growing a buffer's size zero-fills the growth.
        auto it = std::find_if(free_.begin(), free_.end(),
                               [n](const auto& v) { return v->size() == n; });
        if (it == free_.end()) it = free_.end() - 1;
        storage = std::move(*it);
        *it = std::move(free_.back());
        free_.pop_back();
      }
    }
    if (!storage) {
      misses_.fetch_add(1, std::memory_order_relaxed);
      storage = std::make_unique<std::vector<double>>();
      storage->reserve(capacity_);
    }
    storage->resize(n);
    return {storage.release(), GiveBack{shared_from_this()}};
  }

  /// Buffers take() had to allocate.
  long long misses() const { return misses_.load(std::memory_order_relaxed); }

 private:
  struct GiveBack {
    std::shared_ptr<StatePool> pool;
    void operator()(std::vector<double>* v) const {
      pool->give_back(std::unique_ptr<std::vector<double>>(v));
    }
  };

  void give_back(std::unique_ptr<std::vector<double>> v) {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      if (free_.size() < kRetained) {
        free_.push_back(std::move(v));
        return;
      }
    }
    v.reset();  // over the cap: free outside the lock
  }

  const std::size_t capacity_;
  std::mutex mu_;
  std::vector<std::unique_ptr<std::vector<double>>> free_;
  std::atomic<long long> misses_{0};
};

/// Immutable per-run context shared by all task bodies. The graph retains it
/// (TaskGraph::retain); every body captures one plain pointer to it.
///
/// Every problem runs its compiled stage once per iteration: ghost bands are
/// radius * steps deep (radius = the spec's reach on the decomposed axes),
/// the valid region shrinks by radius per inner step, diagonal taps read the
/// diagonal neighbors every step, and state buffers carry the program's
/// nfield field planes.
struct Shared {
  /// Derives the run's geometry and rejects every config the builder cannot
  /// run. Constructing one IS validate_solve().
  Shared(const Problem& p, const DistConfig& config)
      : problem(p),
        program(compile_problem_spec(p)),
        map(p.rows, p.cols, config.decomp.mb, config.decomp.nb,
            config.decomp.node_rows, config.decomp.node_cols),
        steps(config.steps),
        ratio(config.kernel_ratio),
        hook(config.superstep_hook),
        kernel(config.kernel),
        tuning(config.tuning),
        fuse_ready(config.fuse_depth > 1) {
    if (config.key_space >
        (std::numeric_limits<std::uint32_t>::max() - 1) / 2) {
      throw std::invalid_argument("key_space out of range");
    }
    if (config.persistent && config.key_space >= (1u << 20)) {
      throw std::invalid_argument(
          "persistent mode packs key_space into 20 route-id bits");
    }
    if (config.steps < 1) {
      throw std::invalid_argument("steps must be >= 1");
    }
    if (config.fuse_depth < 1) {
      throw std::invalid_argument("fuse_depth must be >= 1");
    }
    if (config.kernel_ratio <= 0.0 || config.kernel_ratio > 1.0) {
      throw std::invalid_argument("kernel_ratio must be in (0, 1]");
    }
    if (fuse_ready && config.kernel_ratio != 1.0) {
      throw std::invalid_argument(
          "fused wavefronts (fuse_depth > 1) require kernel_ratio == 1");
    }
    if (!program.star5 && config.kernel_ratio != 1.0) {
      throw std::invalid_argument(
          "kernel_ratio < 1 requires the 5-point program");
    }
    // Fused wavefronts widen the exchange window: `steps` becomes the full
    // window (fuse_depth supersteps) so every downstream mechanism — ghost
    // depth, superstep gating, shrink, pack plans — sees one exchange per
    // window. hook_period keeps the ORIGINAL superstep cadence, so
    // checkpoints/snapshots stay every config.steps iterations regardless of
    // fusing (fuse-ready tile cores are consistent at every step boundary).
    // The window is bounded in 64 bits: steps and fuse_depth may be any
    // client-supplied int (the solver farm validates requests here), and an
    // int product can wrap to a window that passes.
    const long long window =
        static_cast<long long>(config.steps) * config.fuse_depth;
    if (program.radius * window > map.min_tile_extent()) {
      throw std::invalid_argument(
          "radius * steps exceeds the smallest tile extent (" +
          std::to_string(map.min_tile_extent()) + ")");
    }
    hook_period = config.steps;
    steps = static_cast<int>(window);

    tiles.reserve(static_cast<std::size_t>(map.tiles_r()) * map.tiles_c());
    std::vector<std::size_t> capacity(static_cast<std::size_t>(map.nodes()));
    for (int ti = 0; ti < map.tiles_r(); ++ti) {
      for (int tj = 0; tj < map.tiles_c(); ++tj) {
        const TileInfo& info = tiles.emplace_back(
            make_tile_info(map, steps, program.radius, program.diagonal_taps,
                           fuse_ready, ti, tj));
        std::size_t& cap = capacity[static_cast<std::size_t>(info.rank)];
        cap = std::max(cap,
                       static_cast<std::size_t>(program.nfield) *
                           info.geom.size());
      }
    }
    pools.reserve(capacity.size());
    for (const std::size_t cap : capacity) {
      pools.push_back(std::make_shared<StatePool>(cap));
    }
  }

  Problem problem;
  /// The stage every STEP applies. Its nfield planes make up each state
  /// buffer and halo payload; its radius sets the halo depth.
  spec::CompiledProgram program;
  TileMap map;
  int steps;
  double ratio;
  int hook_period = 1;  ///< superstep-hook cadence in iterations
  /// One state-buffer pool per rank: a pool shared by all ranks cost
  /// latency_bound 13 % and ca_fused 20 % (DESIGN.md §6).
  std::vector<std::shared_ptr<StatePool>> pools;
  SuperstepHook hook;  ///< superstep-boundary snapshot callback (may be empty)
  /// Every tile's static facts, row-major, read by task bodies for their own
  /// and their neighbors' geometry.
  std::vector<TileInfo> tiles;
  const TileInfo& tile(int ti, int tj) const {
    return tiles[static_cast<std::size_t>(ti) * map.tiles_c() + tj];
  }
  /// Whether iteration k opens a superstep (receives bands and corners).
  bool superstep_start(int k) const { return (k - 1) % steps == 0; }
  /// Whether the task publishing state k sends bands and corners: at every
  /// superstep end that has a next iteration.
  bool exchanges(int k) const {
    return k < problem.iterations && k % steps == 0;
  }
  KernelVariant kernel = KernelVariant::Scalar;
  KernelTuning tuning{};
  /// Per-step graph emitted in fuse-ready shape (fuse_depth > 1): deep
  /// bands on EVERY neighbor side, cross-tile edges only at window
  /// boundaries — the precondition for rt::fuse_supersteps.
  bool fuse_ready = false;
  std::atomic<long long> computed_points{0};

  /// The solve's result, one grid per interior z plane: the task producing
  /// each tile's final state writes its core rows here (write_back) instead
  /// of publishing that state, and gather() fills the ring and hands the
  /// grids over. Allocated untouched by reset_field(), so the rank workers
  /// first-touch its pages while other tiles still sweep.
  std::vector<Grid2D> field;
  /// Tiles written into `field` since it was last reset.
  std::atomic<int> tiles_written{0};

  /// A fresh untouched field of `planes` planes (0: none).
  void reset_field(int planes) {
    field.clear();
    field.reserve(static_cast<std::size_t>(planes));
    for (int z = 0; z < planes; ++z) {
      field.push_back(Grid2D::uninitialized(problem.rows, problem.cols));
    }
    tiles_written.store(0, std::memory_order_relaxed);
  }
};

/// Exact input count of a tile's step task (the inputs make_step_task
/// declares): own state, local lines and corners, then at superstep starts
/// the deep bands and corner blocks, then coefficients.
std::size_t step_inputs(const TileInfo& info, bool start, bool variable) {
  std::size_t n = variable ? 2 : 1;
  for (int i = 0; i < 4; ++i) {
    n += static_cast<std::size_t>(info.side_local[i]) + info.corner_local[i];
    if (start) {
      n += static_cast<std::size_t>(info.side_deep[i]) + info.corner_in[i];
    }
  }
  return n;
}

/// Hand the tile's h x w core (row-major) of each of the nfield field planes
/// (plane-major) to the superstep hook.
void call_hook(const Shared& shared, const TileInfo& info, int k,
               const double* ext) {
  const TileGeom& g = info.geom;
  const int planes = shared.program.nfield;
  std::vector<double> core(static_cast<std::size_t>(planes) * g.h * g.w);
  for (int p = 0; p < planes; ++p) {
    const double* src = ext + static_cast<std::size_t>(p) * g.size();
    double* dst = core.data() + static_cast<std::size_t>(p) * g.h * g.w;
    for (int i = 0; i < g.h; ++i) {
      for (int j = 0; j < g.w; ++j) {
        dst[static_cast<std::size_t>(i) * g.w + j] = src[g.idx(i, j)];
      }
    }
  }
  shared.hook(k, info.ti, info.tj, core);
}

/// The final task's output: copy the tile's core rows of the interior z
/// planes [zlo, zlo + nz) into the solve's field. Tiles write disjoint cells.
void write_back(Shared& shared, const TileInfo& info, const double* ext) {
  const TileGeom& g = info.geom;
  const int row0 = shared.map.row0(info.ti);
  const int col0 = shared.map.col0(info.tj);
  for (int z = 0; z < shared.program.nz; ++z) {
    const double* src =
        ext + static_cast<std::size_t>(shared.program.zlo + z) * g.size();
    Grid2D& dst = shared.field[static_cast<std::size_t>(z)];
    for (int i = 0; i < g.h; ++i) {
      std::copy_n(src + g.idx(i, 0), g.w, &dst.at(row0 + i, col0));
    }
  }
  shared.tiles_written.fetch_add(1, std::memory_order_relaxed);
}

/// What a task publishes besides its state. pack_plan decides it from the
/// task's key alone; the builder prices each tile from its exchanging plan
/// and Shared::exchanges, so builder and body agree by construction.
struct PackPlan {
  bool bands[4] = {};
  bool corners[4] = {};
  bool lines = false;  ///< edge lines for same-node readers
};

/// Does this plan ship bands/corners to a remote node?
bool publishes_remote(const PackPlan& plan) {
  for (const bool band : plan.bands) {
    if (band) return true;
  }
  for (const bool corner : plan.corners) {
    if (corner) return true;
  }
  return false;
}

/// What the task publishing state k of this tile packs: edge lines for
/// every step that has a next one, bands and corners at superstep ends.
PackPlan pack_plan(const Shared& shared, const TileInfo& info, int k) {
  PackPlan plan;
  if (k >= shared.problem.iterations) return plan;
  plan.lines = info.edge_lines;
  if (!shared.exchanges(k)) return plan;
  for (Side s : kAllSides) {
    plan.bands[static_cast<int>(s)] = info.side_deep[static_cast<int>(s)];
  }
  for (Corner c : kAllCorners) {
    // We pack corner c iff the diagonal neighbor consumes from its
    // opposite corner.
    const int dti = d_ti(c);
    const int dtj = d_tj(c);
    if (!shared.map.neighbor_exists(info.ti, info.tj, dti, dtj)) continue;
    const TileInfo& diag = shared.tile(info.ti + dti, info.tj + dtj);
    plan.corners[static_cast<int>(c)] =
        diag.corner_in[static_cast<int>(opposite(c))];
  }
  return plan;
}

// Task priorities, highest first: tasks whose outputs cross the wire leave
// earliest (the paper's overlap argument — remote sends should depart while
// interior work still fills the workers), then boundary tiles, then interior.
constexpr int kPriorityHaloPublish = 2;
constexpr int kPriorityBoundary = 1;
constexpr int kPriorityInterior = 0;

int task_priority(bool boundary, const PackPlan& plan) {
  if (publishes_remote(plan)) return kPriorityHaloPublish;
  return boundary ? kPriorityBoundary : kPriorityInterior;
}

/// Publish state + any planned bands, corners and edge lines from the
/// freshly computed extended buffer, every one of the program's nfield
/// planes (1 below rank 3, where the _planes variants reduce to the
/// single-plane pack functions byte-for-byte).
void publish_all(rt::TaskContext& ctx, const Shared& shared,
                 const TileInfo& info, const PackPlan& plan,
                 std::shared_ptr<std::vector<double>> state) {
  const double* ext = state->data();
  const TileGeom& g = info.geom;
  const int radius = shared.program.radius;
  const int depth = radius * shared.steps;
  const int nplanes = shared.program.nfield;
  // Persistent-channel runs hand back a pre-registered route buffer per
  // halo slot: pack straight into it (no allocation) and publish the
  // fragments immediately, so remote bands depart while the state publish
  // and bookkeeping below are still pending. Slots without a negotiated
  // route (default runs, local fused edges) take the classic path.
  for (Side s : kAllSides) {
    if (plan.bands[static_cast<int>(s)]) {
      const auto slot = kSlotBand(s);
      if (auto buf = ctx.acquire_route_buffer(slot)) {
        pack_band_planes_into(buf->data(), ext, g, s, depth, nplanes);
        ctx.publish_fragments(slot, std::move(buf));
      } else {
        ctx.publish(slot, pack_band_planes(ext, g, s, depth, nplanes));
      }
    }
  }
  for (Corner c : kAllCorners) {
    if (plan.corners[static_cast<int>(c)]) {
      const auto slot = kSlotCorner(c);
      if (auto buf = ctx.acquire_route_buffer(slot)) {
        pack_corner_planes_into(buf->data(), ext, g, c, depth, nplanes);
        ctx.publish_fragments(slot, std::move(buf));
      } else {
        ctx.publish(slot, pack_corner_planes(ext, g, c, depth, nplanes));
      }
    }
  }
  if (plan.lines) {
    ctx.publish(kSlotLines, pack_edge_lines(ext, g, radius, nplanes));
  }
  ctx.publish(kSlotState, std::move(state));
}

/// Neighbour `nbr`'s cells as its same-node reader sees them: the lines of
/// its edge `edge` when it packs edge lines, else its whole state.
CellView local_view(const TileInfo& nbr, const double* input, Side edge,
                    int radius) {
  return nbr.edge_lines ? edge_line_view(input, nbr.geom, edge, radius)
                        : CellView(input, nbr.geom);
}

/// INIT(0, ti, tj): sample the tile's extended initial state (and its
/// coefficient planes) and publish it.
void run_init(Shared& shared, rt::TaskContext& ctx) {
  const TileInfo& tile_info = shared.tile(ctx.key().b, ctx.key().c);
  const TileGeom& g = tile_info.geom;
  const TileMap& map = shared.map;
  const long gr0 = map.row0(tile_info.ti);
  const long gc0 = map.col0(tile_info.tj);

  const int nfield = shared.program.nfield;
  auto state = shared.pools[static_cast<std::size_t>(tile_info.rank)]->take(
      static_cast<std::size_t>(nfield) * g.size());
  double* ext = state->data();
  // Every field plane at every padded cell samples what the serial oracle
  // samples.
  for (int c = 0; c < nfield; ++c) {
    sample_plane(shared.program, shared.problem, c, g, gr0, gc0,
                 ext + static_cast<std::size_t>(c) * g.size());
  }

  // Variable-coefficient problems: materialize the coefficient planes over
  // the full extended geometry (the CA scheme evaluates the stencil inside
  // the ghost bands too, so planes must cover them).
  if (shared.problem.coefficient) {
    std::vector<double> coeff(kCoeffPlanes * g.size());
    for (int i = -g.gn; i < g.h + g.gs; ++i) {
      for (int j = -g.gw; j < g.w + g.ge; ++j) {
        const auto w = shared.problem.coefficient(gr0 + i, gc0 + j);
        for (int plane = 0; plane < kCoeffPlanes; ++plane) {
          coeff[plane * g.size() + g.idx(i, j)] =
              w[static_cast<std::size_t>(plane)];
        }
      }
    }
    ctx.publish(kSlotCoeff, std::move(coeff));
  }
  if (shared.hook) call_hook(shared, tile_info, 0, ext);
  if (shared.problem.iterations == 0) {
    write_back(shared, tile_info, ext);
    return;
  }
  publish_all(ctx, shared, tile_info, pack_plan(shared, tile_info, 0),
              std::move(state));
}

/// STEP(k, ti, tj): one Jacobi iteration of the tile, inputs in the order
/// Builder::make_step_task declares them.
void run_step(Shared& shared, rt::TaskContext& ctx) {
  const int k = ctx.key().a;
  const TileInfo& tile_info = shared.tile(ctx.key().b, ctx.key().c);
  const TileGeom& g = tile_info.geom;
  const int steps = shared.steps;
  const int radius = shared.program.radius;
  const int exchange_depth = radius * steps;

  // 1. The previous state and the ghost cells this step refreshes:
  //    radius-deep local lines (full extended extent) and, for diagonal-tap
  //    stencils, local corner blocks every step, read from a same-node
  //    neighbour's state or edge lines; at superstep starts the received
  //    deep bands and corner blocks.
  const std::span<const double> prev = ctx.input(0);
  TileStep step;
  step.program = &shared.program;
  step.geom = g;
  step.prev = prev.data();
  GhostRefresh& refresh = step.refresh;
  std::size_t next_input = 1;
  for (Side s : kAllSides) {
    const auto i = static_cast<int>(s);
    if (!tile_info.side_local[i]) continue;
    const TileInfo& nbr =
        shared.tile(tile_info.ti + d_ti(s), tile_info.tj + d_tj(s));
    refresh.line[i] = local_view(nbr, ctx.input(next_input++).data(),
                                 opposite(s), radius);
    refresh.line_geom[i] = nbr.geom;
  }
  for (Corner c : kAllCorners) {
    const auto i = static_cast<int>(c);
    if (!tile_info.corner_local[i]) continue;
    // The diagonal's corner cells lie in its edge rows facing this tile.
    const TileInfo& diag =
        shared.tile(tile_info.ti + d_ti(c), tile_info.tj + d_tj(c));
    refresh.corner[i] =
        local_view(diag, ctx.input(next_input++).data(),
                   d_ti(c) < 0 ? Side::South : Side::North, radius);
    refresh.corner_geom[i] = diag.geom;
  }
  if (shared.superstep_start(k)) {
    refresh.depth = exchange_depth;
    for (Side s : kAllSides) {
      const auto i = static_cast<int>(s);
      if (tile_info.side_deep[i]) refresh.band[i] = ctx.input(next_input++);
    }
    for (Corner c : kAllCorners) {
      const auto i = static_cast<int>(c);
      if (tile_info.corner_in[i]) refresh.block[i] = ctx.input(next_input++);
    }
  }

  // 2. The (possibly shrunken) region for this inner step: the valid region
  //    loses `radius` layers per step on deep sides (the remote sides
  //    classically; every neighbor side when fuse-ready).
  const int jj = (k - 1) % steps;  // inner step within the superstep
  const int shrink = radius * (jj + 1);
  Rect& region = step.region;
  region.r0 = tile_info.side_deep[0] ? -(exchange_depth - shrink) : 0;
  region.r1 = g.h + (tile_info.side_deep[1] ? exchange_depth - shrink : 0);
  region.c0 = tile_info.side_deep[2] ? -(exchange_depth - shrink) : 0;
  region.c1 = g.w + (tile_info.side_deep[3] ? exchange_depth - shrink : 0);
  if (shared.ratio < 1.0) {
    // Kernel-time tuning (paper section VI-D): update only a ratio-scaled
    // sub-rectangle. Timing experiments only.
    region.r1 = region.r0 + std::max(1, static_cast<int>(std::lround(
                                            shared.ratio *
                                            (region.r1 - region.r0))));
    region.c1 = region.c0 + std::max(1, static_cast<int>(std::lround(
                                            shared.ratio *
                                            (region.c1 - region.c0))));
  }

  // 3. The output comes from the rank's pool; step_tile sweeps into it and
  //    fills every cell the sweep leaves unwritten.
  auto state = shared.pools[static_cast<std::size_t>(tile_info.rank)]->take(
      prev.size());
  step.out = state->data();
  if (shared.problem.coefficient) {
    step.coeff = ctx.input(ctx.num_inputs() - 1).data();
  }
  step.kernel = shared.kernel;
  step.tuning = shared.tuning;
  step_tile(step, sweeps_inner(g));
  shared.computed_points.fetch_add(region.points(), std::memory_order_relaxed);

  // The tile is globally consistent again at superstep boundaries — the
  // natural checkpoint instant. Fused windows keep the original cadence:
  // hook_period is the pre-fuse superstep length, and the tile core is
  // consistent at every one of those interior boundaries (all deep sides
  // shrink uniformly past the core only at window end).
  if (shared.hook && k % shared.hook_period == 0) {
    call_hook(shared, tile_info, k, step.out);
  }
  // The final state goes straight into the field; its buffer returns to the
  // pool when `state` drops.
  if (k == shared.problem.iterations) {
    write_back(shared, tile_info, step.out);
    return;
  }
  publish_all(ctx, shared, tile_info, pack_plan(shared, tile_info, k),
              std::move(state));
}

class Builder {
 public:
  Builder(const Problem& problem, const DistConfig& config)
      : shared_(std::make_shared<Shared>(problem, config)),
        type_base_(config.key_space * 2),
        key_space_(config.key_space),
        priority_bias_(config.priority_bias),
        lane_(config.lane),
        persistent_(config.persistent) {}

  const TileMap& map() const { return shared_->map; }
  std::shared_ptr<Shared> shared() const { return shared_; }

  const TileInfo& tile(int ti, int tj) const { return shared_->tile(ti, tj); }

  /// Every body points into Shared, which the graph keeps alive.
  void build(rt::TaskGraph& graph) {
    graph.retain(shared_);
    const TileMap& map = shared_->map;
    const int iters = shared_->problem.iterations;
    graph.reserve(graph.size() + static_cast<std::size_t>(map.tiles_r()) *
                                     map.tiles_c() * (iters + 1));
    for (int ti = 0; ti < map.tiles_r(); ++ti) {
      for (int tj = 0; tj < map.tiles_c(); ++tj) {
        const TileInfo& info = tile(ti, tj);
        // A task's priority is task_priority of its pack plan, whose bands
        // and corners depend on k only through Shared::exchanges: INIT's
        // plan (empty at zero iterations) prices every exchanging step.
        const int exchange =
            task_priority(info.boundary, pack_plan(*shared_, info, 0)) +
            priority_bias_;
        const int plain =
            task_priority(info.boundary, PackPlan{}) + priority_bias_;
        graph.add_task(make_init_task(info, exchange));
        for (int k = 1; k <= iters; ++k) {
          graph.add_task(make_step_task(
              info, k, shared_->exchanges(k) ? exchange : plain));
        }
      }
    }
  }

  rt::TaskKey init_key(int ti, int tj) const {
    return rt::TaskKey{type_base_ + kTypeInit, 0, ti, tj};
  }
  rt::TaskKey step_key(int k, int ti, int tj) const {
    return rt::TaskKey{type_base_ + kTypeStep, k, ti, tj};
  }
  /// The task holding tile (ti,tj)'s state after iteration k.
  rt::TaskKey state_key(int k, int ti, int tj) const {
    return k == 0 ? init_key(ti, tj) : step_key(k, ti, tj);
  }

  std::uint32_t type_base() const { return type_base_; }

 private:
  /// Persistent route id for the halo stream published by producer tile
  /// (ti, tj) on output slot `slot` (one id shared by every superstep of
  /// that stream). Bit layout: 63 = route marker, [36..55] = key_space
  /// (keeps batched solves collision-free), [32..35] = slot (1..8),
  /// [16..31] = ti, [0..15] = tj.
  std::uint64_t route_id(int ti, int tj, std::uint16_t slot) const {
    return (1ull << 63) | (static_cast<std::uint64_t>(key_space_) << 36) |
           (static_cast<std::uint64_t>(slot) << 32) |
           (static_cast<std::uint64_t>(static_cast<std::uint16_t>(ti)) << 16) |
           static_cast<std::uint64_t>(static_cast<std::uint16_t>(tj));
  }

  /// Doubles in one packed band instance published by a tile with geometry
  /// `g` on `side` (plane-major, nfield planes).
  std::uint32_t band_doubles(const TileGeom& g, Side side) const {
    const int depth = shared_->program.radius * shared_->steps;
    const long lateral =
        (side == Side::North || side == Side::South) ? g.w : g.h;
    return static_cast<std::uint32_t>(static_cast<long>(depth) * lateral *
                                      shared_->program.nfield);
  }

  /// Doubles in one packed corner-block instance.
  std::uint32_t corner_doubles() const {
    const int depth = shared_->program.radius * shared_->steps;
    return static_cast<std::uint32_t>(static_cast<long>(depth) * depth *
                                      shared_->program.nfield);
  }

  /// Annotate `flow` (a remote band/corner flow from producer tile
  /// (pti, ptj)) with its persistent route when the mode is on. Fragments =
  /// nfield: the pack layout is plane-major, so each field plane is one
  /// equal even-split partition, publishable independently.
  void annotate_route(rt::FlowRef& flow, int pti, int ptj,
                      std::uint32_t doubles) const {
    if (!persistent_) return;
    flow.route = route_id(pti, ptj, flow.slot);
    flow.route_doubles = doubles;
    flow.route_fragments = static_cast<std::uint16_t>(shared_->program.nfield);
  }

  rt::TaskSpec make_init_task(const TileInfo& info, int priority) {
    rt::TaskSpec spec;
    spec.key = init_key(info.ti, info.tj);
    spec.rank = info.rank;
    spec.lane = lane_;
    spec.klass = "init";
    spec.priority = priority;
    spec.body = [shared = shared_.get()](rt::TaskContext& ctx) {
      run_init(*shared, ctx);
    };
    return spec;
  }

  rt::TaskSpec make_step_task(const TileInfo& info, int k, int priority) {
    rt::TaskSpec spec;
    spec.key = step_key(k, info.ti, info.tj);
    spec.rank = info.rank;
    spec.lane = lane_;
    spec.priority = priority;
    spec.klass = info.boundary ? "boundary" : "interior";
    // Dependence-cone metadata: each tile's STEP tasks form one totally
    // ordered chain (k is the position), which is exactly what
    // rt::fuse_supersteps needs to window them into wavefront tasks. +1
    // keeps key_space 0 distinguishable from "no chain".
    spec.chain = (static_cast<std::uint64_t>(key_space_) + 1) << 32 |
                 (static_cast<std::uint64_t>(info.ti) *
                      static_cast<std::uint64_t>(shared_->map.tiles_c()) +
                  static_cast<std::uint64_t>(info.tj));
    spec.chain_step = k;

    const bool start = shared_->superstep_start(k);
    const bool variable = static_cast<bool>(shared_->problem.coefficient);

    // Input order: own prev state; local neighbors (N,S,W,E) and local
    // diagonals (NW,NE,SW,SE), each its state or its edge lines; then at
    // superstep starts, remote bands (N,S,W,E) and remote corners
    // (NW,NE,SW,SE). run_step indexes inputs in exactly this order.
    spec.inputs.reserve(step_inputs(info, start, variable));
    spec.inputs.push_back({state_key(k - 1, info.ti, info.tj),
                           kSlotState});
    const auto local_input = [&](int dti, int dtj) {
      const TileInfo& nbr = tile(info.ti + dti, info.tj + dtj);
      spec.inputs.push_back({state_key(k - 1, nbr.ti, nbr.tj),
                             nbr.edge_lines ? kSlotLines : kSlotState});
    };
    for (Side s : kAllSides) {
      if (info.side_local[static_cast<int>(s)]) local_input(d_ti(s), d_tj(s));
    }
    for (Corner c : kAllCorners) {
      if (info.corner_local[static_cast<int>(c)]) {
        local_input(d_ti(c), d_tj(c));
      }
    }
    if (start) {
      for (Side s : kAllSides) {
        if (info.side_deep[static_cast<int>(s)]) {
          // Our north ghost comes from the north neighbor's south band.
          // Fuse-ready graphs exchange packed bands with local neighbors
          // too; only the remote ones cross the wire and get a route.
          const int pti = info.ti + d_ti(s);
          const int ptj = info.tj + d_tj(s);
          rt::FlowRef flow{state_key(k - 1, pti, ptj),
                           kSlotBand(opposite(s))};
          if (info.side_remote[static_cast<int>(s)]) {
            annotate_route(flow, pti, ptj,
                           band_doubles(tile(pti, ptj).geom, opposite(s)));
          }
          spec.inputs.push_back(flow);
        }
      }
      for (Corner c : kAllCorners) {
        if (info.corner_in[static_cast<int>(c)]) {
          const int pti = info.ti + d_ti(c);
          const int ptj = info.tj + d_tj(c);
          rt::FlowRef flow{state_key(k - 1, pti, ptj),
                           kSlotCorner(opposite(c))};
          if (shared_->map.neighbor_remote(info.ti, info.tj, d_ti(c),
                                           d_tj(c))) {
            annotate_route(flow, pti, ptj, corner_doubles());
          }
          spec.inputs.push_back(flow);
        }
      }
    }
    if (variable) {
      // The tile's coefficient planes, published once by INIT; always the
      // last input so the earlier positional indexing is undisturbed.
      spec.inputs.push_back({init_key(info.ti, info.tj), kSlotCoeff});
    }
    spec.body = [shared = shared_.get()](rt::TaskContext& ctx) {
      run_step(*shared, ctx);
    };
    return spec;
  }

  std::shared_ptr<Shared> shared_;
  std::uint32_t type_base_ = 0;
  std::uint32_t key_space_ = 0;
  int priority_bias_ = 0;
  int lane_ = -1;
  bool persistent_ = false;
};

}  // namespace

// ----------------------------------------------------------- subgraph API --

/// Everything gather() needs, captured at build time. Holds the Builder
/// itself (its Shared context carries the field and the live counters the
/// task bodies update).
struct SolveSubgraph::Impl {
  Impl(const Problem& problem, const DistConfig& config)
      : builder(problem, config), kernel_ratio(config.kernel_ratio) {}

  Builder builder;
  double kernel_ratio;
};

int SolveSubgraph::nodes() const { return impl_->builder.map().nodes(); }

Grid2D SolveSubgraph::gather(const rt::Runtime& /*runtime*/) const {
  return std::move(take_field(true).front());
}

std::vector<Grid2D> SolveSubgraph::gather_planes(
    const rt::Runtime& /*runtime*/) const {
  return take_field(true);
}

std::vector<Grid2D> SolveSubgraph::take_field(bool rearm) const {
  Shared& shared = *impl_->builder.shared();
  const TileMap& map = shared.map;
  if (shared.tiles_written.load(std::memory_order_relaxed) <
      map.tiles_r() * map.tiles_c()) {
    throw std::logic_error(
        "SolveSubgraph::gather: no completed run since the last gather");
  }
  // The tiles wrote every interior cell; only the ring is sampled.
  std::vector<Grid2D> planes = std::move(shared.field);
  for (int z = 0; z < shared.program.nz; ++z) {
    planes[static_cast<std::size_t>(z)].fill_ring(
        spec_sample(shared.program, shared.problem, shared.program.zlo + z)
            .boundary);
  }
  shared.reset_field(rearm ? shared.program.nz : 0);
  return planes;
}

long long SolveSubgraph::computed_points() const {
  return impl_->builder.shared()->computed_points.load();
}

long long SolveSubgraph::state_buffer_allocs() const {
  long long allocs = 0;
  for (const auto& pool : impl_->builder.shared()->pools) {
    allocs += pool->misses();
  }
  return allocs;
}

int SolveSubgraph::fuse_window() const {
  const Shared& shared = *impl_->builder.shared();
  // Fuse-ready graphs want one wavefront task per full window of steps
  // (shared.steps is that window: steps * fuse_depth).
  return shared.fuse_ready ? shared.steps : 1;
}

long long SolveSubgraph::nominal_points() const {
  const Problem& problem = impl_->builder.shared()->problem;
  auto nominal = static_cast<long long>(problem.rows) * problem.cols *
                 problem.iterations;
  if (impl_->kernel_ratio < 1.0) {
    // Nominal work shrinks with the ratio squared (paper's definition).
    nominal = static_cast<long long>(static_cast<double>(nominal) *
                                     impl_->kernel_ratio *
                                     impl_->kernel_ratio);
  }
  return nominal;
}

void validate_solve(const Problem& problem, const DistConfig& config) {
  const Shared checked(problem, config);
}

SolveSubgraph add_solve_subgraph(rt::TaskGraph& graph, const Problem& problem,
                                 const DistConfig& config) {
  SolveSubgraph subgraph;
  subgraph.impl_ = std::make_shared<SolveSubgraph::Impl>(problem, config);
  subgraph.impl_->builder.build(graph);
  // After the tasks: a field allocated first pushed the graph's many small
  // allocations onto fresh heap pages, about 1,900 page faults per build at
  // N = 768.
  subgraph.impl_->builder.shared()->reset_field(
      subgraph.impl_->builder.shared()->program.nz);
  return subgraph;
}

namespace {

/// Shared state behind the telemetry-wrapped superstep hook. The hook fires
/// once per tile per boundary from worker threads; the pump counts tiles down
/// per (rank, boundary) and, when a rank's boundary completes, condenses that
/// rank's runtime counters into one TelemetrySnapshot. Rank 0 ingests its own
/// snapshot directly; every other rank ships it to rank 0 as a real wire
/// message (obs::kTelemetryWireBytes), so telemetry traffic is charged to the
/// channel stack exactly like halo traffic and the DES can model it.
struct TelemetryPump {
  TelemetryPump(const Problem& problem, const DistConfig& config)
      : map(problem.rows, problem.cols, config.decomp.mb, config.decomp.nb,
            config.decomp.node_rows, config.decomp.node_cols),
        steps(config.steps),
        boundaries(1 + problem.iterations / config.steps),
        dump_path(config.telemetry_dump) {
    pending = std::make_unique<std::atomic<int>[]>(
        static_cast<std::size_t>(map.nodes()) * boundaries);
    std::vector<int> tiles(map.nodes(), 0);
    for (int ti = 0; ti < map.tiles_r(); ++ti) {
      for (int tj = 0; tj < map.tiles_c(); ++tj) ++tiles[map.rank_of(ti, tj)];
    }
    for (int rank = 0; rank < map.nodes(); ++rank) {
      for (int b = 0; b < boundaries; ++b) {
        pending[static_cast<std::size_t>(rank) * boundaries + b].store(
            tiles[rank], std::memory_order_relaxed);
      }
    }
  }

  /// Wrapped-hook body: countdown for (rank-of-tile, boundary k/steps), and
  /// on the last tile emit that rank's snapshot.
  void on_boundary(int k, int ti, int tj) {
    const int b = k / steps;
    if (b < 0 || b >= boundaries) return;
    const int rank = map.rank_of(ti, tj);
    auto& counter = pending[static_cast<std::size_t>(rank) * boundaries + b];
    if (counter.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
    rt::Runtime* rt = runtime.load(std::memory_order_acquire);
    if (rt == nullptr) return;
    rt->set_superstep(rank, static_cast<std::uint64_t>(b));
    obs::TelemetrySnapshot snap = rt->rank_sample(rank);
    snap.superstep = static_cast<std::uint64_t>(b);
    if (rank == 0) {
      ingest(snap);
    } else {
      rt->post_telemetry(rank, 0, obs::encode_telemetry(snap));
    }
  }

  /// Rank-0 side: feed the collector and keep the live dump fresh.
  void ingest(const obs::TelemetrySnapshot& snap) {
    collector->ingest(snap);
    maybe_dump(false);
  }

  void maybe_dump(bool force) {
    if (dump_path.empty()) return;
    if (!force) {
      // Throttle rewrites: one per completed cross-rank wave is plenty for a
      // live view, and the final forced dump always lands.
      const std::uint64_t n = dumps_pending.fetch_add(1) + 1;
      if (n % static_cast<std::uint64_t>(std::max(1, map.nodes())) != 0) return;
    }
    collector->write_dump(dump_path);
  }

  TileMap map;
  int steps;
  int boundaries;
  std::string dump_path;
  std::shared_ptr<obs::TelemetryCollector> collector;
  std::atomic<rt::Runtime*> runtime{nullptr};
  std::unique_ptr<std::atomic<int>[]> pending;
  std::atomic<std::uint64_t> dumps_pending{0};
};

}  // namespace

DistResult run_distributed(const Problem& problem, const DistConfig& config) {
  // Live telemetry rides the superstep hook: wrap it on a local config copy
  // BEFORE building the graph (the builder captures the hook at
  // construction).
  DistConfig build_config = config;
  std::shared_ptr<TelemetryPump> pump;
  if (config.telemetry) {
    validate_solve(problem, config);  // the pump divides by config.steps
    pump = std::make_shared<TelemetryPump>(problem, config);
    SuperstepHook inner = config.superstep_hook;
    std::shared_ptr<TelemetryPump> captured = pump;
    build_config.superstep_hook = [captured, inner](
                                      int k, int ti, int tj,
                                      const std::vector<double>& core) {
      if (inner) inner(k, ti, tj, core);
      captured->on_boundary(k, ti, tj);
    };
  }

  rt::TaskGraph graph;
  const SolveSubgraph subgraph = add_solve_subgraph(graph, problem, build_config);
  // Fused wavefronts: the builder emitted a fuse-ready per-step graph; the
  // generic pass windows each tile chain into one cache-resident task and
  // collapses cross-rank halo edges to one exchange per window.
  if (const int window = subgraph.fuse_window(); window > 1) {
    rt::fuse_supersteps(graph, window);
  }

  rt::Config rt_config;
  rt_config.nranks = subgraph.nodes();
  rt_config.workers_per_rank = config.workers_per_rank;
  rt_config.dedicated_comm_thread = config.dedicated_comm_thread;
  rt_config.trace = config.trace;
  rt_config.scheduler = config.scheduler;
  rt_config.aggregate_messages = config.aggregate_messages;
  rt_config.metrics = config.metrics ? config.metrics
                                     : std::make_shared<obs::MetricsRegistry>();
  rt_config.channel_factory =
      config.persistent ? net::persistent_channel_factory(
                              config.channel_factory, rt_config.metrics)
                        : config.channel_factory;
  rt_config.sched_seed = config.sched_seed;
  rt_config.sched_test_hook = config.sched_test_hook;
  if (pump) {
    pump->collector = config.telemetry_collector
                          ? config.telemetry_collector
                          : std::make_shared<obs::TelemetryCollector>(
                                rt_config.nranks, config.telemetry_detectors,
                                rt_config.metrics, "real");
    std::shared_ptr<TelemetryPump> captured = pump;
    rt_config.telemetry_sink = [captured](int /*src_rank*/,
                                          const std::vector<double>& payload) {
      obs::TelemetrySnapshot snap;
      if (obs::decode_telemetry(payload, &snap)) captured->ingest(snap);
    };
  }

  rt::Runtime runtime(rt_config);
  if (pump) pump->runtime.store(&runtime, std::memory_order_release);
  rt::RunStats stats = runtime.run(graph);
  if (pump) {
    pump->runtime.store(nullptr, std::memory_order_release);
    pump->maybe_dump(true);
  }

  // The graph runs once, so the field is taken without a fresh one behind
  // it. Rank-3 runs return every plane and a copy of plane 0 as `grid`.
  std::vector<Grid2D> planes = subgraph.take_field(false);
  const bool rank3 = problem.spec.rank == 3;
  DistResult result{rank3 ? planes.front().clone() : std::move(planes.front()),
                    std::move(stats), {}, {}, 0, 0, kFlopsPerPoint, {}};
  result.flops_per_point =
      spec::compile_spec(problem.spec, problem.nz).flops_per_point();
  if (rank3) result.planes = std::move(planes);
  result.trace_events = runtime.tracer().events();
  result.computed_points = subgraph.computed_points();
  result.nominal_points = subgraph.nominal_points();

  result.metrics = rt_config.metrics;
  if (pump) result.telemetry = pump->collector;
  if constexpr (obs::kEnabled) {
    // Publish driver-level counters into the same registry the runtime and
    // transport scraped into, so one snapshot tells the whole story.
    auto& registry = *result.metrics;
    const auto publish = [&registry](const char* name, std::uint64_t value,
                                     const char* help) {
      auto counter = std::make_shared<obs::Counter>();
      counter->add(value);
      registry.attach(name, {}, std::move(counter), help);
    };
    const int iters = problem.iterations;
    // Fused wavefronts widen the exchange window: one remote round per
    // fuse_depth supersteps.
    const int window = config.steps * config.fuse_depth;
    publish("stencil_iterations_total", static_cast<std::uint64_t>(iters),
            "Jacobi iterations performed");
    publish("stencil_supersteps_total",
            static_cast<std::uint64_t>((iters + window - 1) / window),
            "CA supersteps (remote halo-exchange rounds)");
    auto fuse = registry.gauge("stencil_fuse_depth", {},
                               "Supersteps fused per wavefront window "
                               "(1 = no temporal blocking across nodes)");
    fuse->set(static_cast<double>(config.fuse_depth));
    publish("stencil_computed_points_total",
            static_cast<std::uint64_t>(result.computed_points),
            "Stencil points updated, redundant recompute included");
    publish("stencil_state_buffer_allocs_total",
            static_cast<std::uint64_t>(subgraph.state_buffer_allocs()),
            "State buffers allocated because the rank's pool was empty");
    const long long redundant =
        std::max(0LL, result.computed_points - result.nominal_points);
    publish("stencil_redundant_points_total",
            static_cast<std::uint64_t>(redundant),
            "Ghost-band points recomputed beyond nominal work");
    auto flops = registry.gauge("stencil_flops_total", {},
                                "Floating-point ops, redundancy included");
    flops->set(result.flops());
    auto variant = registry.gauge(
        "stencil_kernel_variant_info",
        {{"variant", kernel_variant_name(config.kernel)}},
        "Selected compute-kernel variant (value is always 1)");
    variant->set(1.0);
    auto spec_info = registry.gauge(
        "stencil_spec_info", {{"spec", problem.spec.name}},
        "Stencil spec of this run (value is always 1)");
    spec_info->set(1.0);
    if (result.stats.wall_time_s > 0.0) {
      auto rate = registry.gauge("stencil_points_per_second", {},
                                 "Computed points (redundancy included) "
                                 "per wall-clock second");
      rate->set(static_cast<double>(result.computed_points) /
                result.stats.wall_time_s);
    }
  }
  return result;
}

}  // namespace repro::stencil
