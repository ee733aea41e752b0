// Task graph specification: the application-facing half of the runtime.
//
// The application unfolds its algorithm into tasks before execution (the
// moral equivalent of PaRSEC's JDF unfolding): each task has a key, an owning
// rank (virtual process), a priority, a body, and a list of input flows. An
// input flow names the producing task and one of its output slots; the
// runtime derives every dependency and every communication from these flows,
// exactly as PaRSEC infers communication from task descriptions.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "runtime/buffer.hpp"
#include "runtime/task_key.hpp"

namespace repro::rt {

class TaskContext;

/// Reference to one output slot of a producing task.
///
/// A nonzero `route` marks the flow as a persistent halo route (see
/// net::PersistentChannel): the edge carries a fixed-size payload every
/// superstep, so the endpoints can pre-register buffers at run start. The
/// builder that unfolds the graph assigns route ids (unique per graph) and
/// the exact instance size; the runtime collects them into the negotiation
/// table. Routes are ignored — byte-identical default path — unless the
/// run's channel stack contains a PersistentChannel. The consumer's FlowRef
/// is the only copy of a route: the runtime reads it through
/// TaskGraph::flow(edge).
struct FlowRef {
  TaskKey producer;
  std::uint16_t slot = 0;
  std::uint16_t route_fragments = 1;  ///< partitions per instance
  std::uint32_t route_doubles = 0;    ///< payload doubles of one instance
  std::uint64_t route = 0;            ///< nonzero: persistent route id
};
// Largest field last: no padding (40 bytes with the route id after `slot`).
static_assert(sizeof(FlowRef) == 32);

using TaskBody = std::function<void(TaskContext&)>;

struct TaskSpec {
  TaskKey key;
  int rank = 0;      ///< owning virtual process; the body runs there
  int priority = 0;  ///< higher value runs earlier among ready tasks
  /// Accounting lane (serve: the tenant's lane id). Tasks with lane >= 0 are
  /// counted in rt_lane_tasks_executed_total{lane=...}; -1 = unlabeled.
  /// Purely observational — scheduling order comes from `priority` alone.
  int lane = -1;
  /// Dependence-cone metadata for graph transformations (see
  /// graph_transform.hpp). Tasks sharing a nonzero `chain` id assert that
  /// they form a totally ordered pipeline — each member depends (directly or
  /// transitively) only on members with smaller `chain_step` — so a rewrite
  /// pass may fuse consecutive members. 0 = not part of any chain; the
  /// builder that unfolds the graph owns the id space. Purely declarative:
  /// the runtime itself never reads these fields.
  std::uint64_t chain = 0;
  std::int32_t chain_step = 0;  ///< position along the chain (any stride)
  std::string klass; ///< trace label, e.g. "jacobi-boundary"
  std::vector<FlowRef> inputs;
  TaskBody body;
};

/// Immutable-after-seal collection of TaskSpecs plus derived consumer lists.
///
/// Storage is flat: keys are indexed by an open-addressing table of task
/// indices (no node per task) and compared through a compact key array
/// beside the specs, and seal() lays every consumer edge out in one array,
/// grouped by producer (CSR), so the graph's own bookkeeping costs a few
/// allocations per graph rather than several per task.
class TaskGraph {
 public:
  /// Add a task. Input flows may reference tasks added later; everything is
  /// resolved at seal(). Duplicate keys are rejected immediately.
  void add_task(TaskSpec spec);

  /// Make room for `tasks` tasks in all (like std::vector::reserve), so
  /// add_task regrows neither the specs nor the key index until the graph
  /// holds that many. Capacity grows at least twofold, so builders that each
  /// reserve their own count on top of size() add up without regrowing
  /// quadratically. Throws std::logic_error once sealed.
  void reserve(std::size_t tasks);

  /// Resolve flows, compute consumer lists, and freeze the graph.
  /// Throws std::runtime_error on dangling flow references or rank < 0.
  void seal(int nranks);

  bool sealed() const { return sealed_; }
  std::size_t size() const { return specs_.size(); }
  /// After seal(): the highest task rank (-1 for an empty graph), so an
  /// executor can reject a graph sealed for more ranks than it has.
  int max_rank() const { return max_rank_; }

  const TaskSpec& spec(std::size_t index) const { return specs_[index]; }

  /// find()'s "no such task".
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  /// Index lookup by key; throws if absent.
  std::size_t index_of(const TaskKey& key) const;
  /// Index lookup by key; npos if absent (one probe, for passes that resolve
  /// every flow of a graph).
  std::size_t find(const TaskKey& key) const;
  /// Whether a task with this key has been added.
  bool contains(const TaskKey& key) const;

  /// Move every spec out, in index order, leaving the graph empty and
  /// unsealed so a rewrite pass can refill it with add_task() without
  /// copying task bodies or inputs. Retained contexts stay. Throws
  /// std::logic_error once sealed.
  std::vector<TaskSpec> take_specs();

  /// Keep `context` alive as long as the graph: bodies that point into a
  /// per-solve or per-rewrite context capture a plain pointer, and the graph
  /// owns what they point into.
  void retain(std::shared_ptr<const void> context) {
    retained_.push_back(std::move(context));
  }

  /// A consumer edge attached to a producer's output slot: 8 bytes (32 when
  /// it carried a copy of the flow's route annotation). Read the route
  /// through flow().
  struct ConsumerEdge {
    std::uint32_t consumer;   ///< consumer task index
    std::uint16_t slot;       ///< producer output slot
    std::uint16_t input_pos;  ///< position in the consumer's inputs
  };
  static_assert(sizeof(ConsumerEdge) == 8);

  /// After seal(): consumers of task `index`, in (consumer index, input
  /// position) order, grouped by nothing (iterate linearly).
  std::span<const ConsumerEdge> consumers(std::size_t index) const {
    return {edges_.get() + edge_begin_[index],
            edges_.get() + edge_begin_[index + 1]};
  }

  /// The consumer's input flow behind `edge`, which holds the edge's
  /// persistent-route annotation. The runtime reads routes only here: route
  /// negotiation, acquire_route_buffer after its slot test, and
  /// publish_eager.
  const FlowRef& flow(const ConsumerEdge& edge) const {
    return specs_[edge.consumer].inputs[edge.input_pos];
  }

  /// Number of consumer edges attached to (task, slot).
  std::size_t slot_fanout(std::size_t index, std::uint16_t slot) const;

 private:
  static constexpr std::uint32_t kNoTask = 0xffffffffu;

  /// Table position holding `key`'s task index, or the free position where
  /// it would go. Requires a non-empty table.
  std::size_t probe(const TaskKey& key) const;
  /// Rebuild the key index with `positions` (a power of two) positions.
  void rehash(std::size_t positions);

  /// Declared first, so it outlives the bodies that point into it.
  std::vector<std::shared_ptr<const void>> retained_;
  std::vector<TaskSpec> specs_;
  /// specs_[i].key, packed: probes compare 16-byte keys, not 136-byte specs.
  std::vector<TaskKey> keys_;
  /// Input flows over all specs, so seal() sizes its arrays up front.
  std::size_t flows_ = 0;
  /// Key index: task indices (kNoTask = free) in a power-of-two table,
  /// linear probing from TaskKeyHash, keys compared through keys_. Kept at
  /// most half full.
  std::vector<std::uint32_t> index_;
  /// Sealed consumer edges (CSR): task i's are edges_[edge_begin_[i],
  /// edge_begin_[i + 1]). Allocated without zero-filling; seal() writes
  /// every edge once.
  std::vector<std::uint32_t> edge_begin_;
  std::unique_ptr<ConsumerEdge[]> edges_;
  int max_rank_ = -1;
  bool sealed_ = false;
};

}  // namespace repro::rt
