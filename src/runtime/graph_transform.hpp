// Task-graph transformation passes (Eijkhout, "Task Graph Transformations
// for Latency Tolerance"): rewrites that change the granularity of a sealed
// algorithm unfolding without changing its dataflow semantics.
//
// The one pass implemented today is fuse_supersteps: given dependence-cone
// metadata on tasks (TaskSpec::chain / chain_step), collapse k consecutive
// members of each chain into one pipelined wavefront task. The fused task
// runs its members' bodies back to back on one worker — intra-chain buffers
// stay in-task (cache-resident, never enter the dataflow engine) and every
// cross-chain edge that used to fire once per member now fires once per k
// members. For the CA stencil this is exactly cross-node temporal blocking:
// the builder emits a fuse-ready graph (deep halos on every neighbor side,
// cross-tile edges only at window boundaries) and this pass turns the k
// per-step tasks of each tile window into one wavefront sweep.
//
// The pass is generic: it never inspects task bodies or keys beyond the
// chain metadata, so any workload whose unfolding marks its pipelines
// (task_cg, multigrid smoothers, ...) can reuse it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "runtime/graph.hpp"

namespace repro::rt {

/// A fuse request was structurally illegal for the given graph: fusing would
/// invert an edge (intra-group backward dependence), create a dependence
/// cycle between fused groups, mix ranks or lanes inside one group, or the
/// chain metadata itself is malformed (duplicate chain_step).
class GraphTransformError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// What fuse_supersteps did, for logs / metrics / tests.
struct FuseReport {
  int depth = 1;                  ///< requested k
  std::size_t chains = 0;         ///< distinct nonzero chain ids seen
  std::size_t tasks_before = 0;   ///< graph size going in
  std::size_t tasks_after = 0;    ///< graph size coming out
  std::size_t fused_tasks = 0;    ///< emitted tasks wrapping >= 2 members
  std::size_t fused_members = 0;  ///< input tasks absorbed into fused tasks
};

/// Fuse k consecutive supersteps along every dependence chain of `graph`,
/// rewriting it in place (the graph must be unsealed; it stays unsealed).
///
/// Members of each nonzero chain are ordered by chain_step and grouped into
/// ordinal windows of k; each window becomes one task that keeps the LAST
/// member's key, rank, lane and chain metadata (so downstream key-based
/// lookups such as result() keep working) and whose klass is
/// "fused<m>|<last member's klass>". Edges are rewired:
///   * member -> member inside a window becomes in-task staging: the fused
///     body runs members in chain order under shim TaskContexts that resolve
///     those inputs from a staging table instead of the dataflow engine;
///   * edges crossing a window boundary survive as real flows, with the
///     producer-side slot remapped onto the fused task (the last member's
///     slots keep their numbers; earlier members' externally-consumed slots
///     get ids handed out downward from 65535, which must all stay above
///     every slot a flow of the input graph reads). Route annotations
///     (persistent channels) are preserved verbatim.
/// Outputs of non-last members that nobody consumes are dropped; the last
/// member's unconsumed outputs are re-published so result() still sees them.
/// A last member publishing an unconsumed slot onto an id its window
/// remapped fails the run with an error naming the slot and the window.
///
/// Legality is checked, not assumed: an intra-window edge from a later to an
/// earlier member, a window-level dependence cycle (which is what fusing a
/// graph whose chains exchange every step produces), or running out of
/// remapped slot ids throws GraphTransformError and leaves the graph
/// untouched. k == 1 or a graph with no chain metadata is an exact no-op.
/// Tasks per chain after fusing = ceil(members / k).
///
/// Cost: one sort of the chained tasks plus work linear in tasks and flows
/// (one producer lookup per flow); member specs are moved into one plan the
/// graph retains (TaskGraph::retain), never copied, and each fused body is a
/// pointer into that plan plus a window index.
FuseReport fuse_supersteps(TaskGraph& graph, int k);

}  // namespace repro::rt
