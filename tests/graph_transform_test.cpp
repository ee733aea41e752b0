// Property-based legality tests for rt::fuse_supersteps, the task-graph
// rewrite behind cross-node temporal blocking (DESIGN.md §17).
//
// The pass claims to be a semantics-preserving granularity change: fusing k
// consecutive chain members into one wavefront task must preserve the
// dependence relation (no edge inversion, no lost transitive dependence),
// round-trip task counts exactly (ceil(members / k) per chain), be an exact
// no-op at k = 1, and — the strongest property — leave every computed value
// bit-identical when the graph actually runs. We check all of that on 200
// seeded random pipeline DAGs (ragged chains, arbitrary chain_step strides,
// cross-chain window edges, source/sink singletons, multi-rank placement)
// and on the real stencil graphs of every named spec, whose fused form is
// also pinned by fingerprint. Illegal requests (mid-window exchanges,
// backward intra-window edges, mixed ranks or lanes, malformed metadata,
// exhausted slot ids) must throw GraphTransformError and leave the graph
// untouched; remapped export slots must never land on a last member's own.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "equivalence_helpers.hpp"
#include "net/persistent_channel.hpp"
#include "net/transport.hpp"
#include "obs/metrics.hpp"
#include "runtime/dtd.hpp"
#include "runtime/graph_transform.hpp"
#include "runtime/runtime.hpp"
#include "spec/stencil_spec.hpp"
#include "stencil/dist_stencil.hpp"
#include "stencil/serial.hpp"
#include "stencil/tile_map.hpp"
#include "support/rng.hpp"

namespace repro {
namespace {

using rt::TaskGraph;
using rt::TaskKey;
using rt::TaskSpec;

// ------------------------------------------------- random pipeline DAGs --

/// Everything the properties need to know about one generated DAG. The
/// generator is deterministic in the seed, so the same RandomDag can be
/// materialized twice — once to fuse, once as the untouched oracle.
struct DagShape {
  int nranks = 1;
  int k = 1;  ///< fuse depth the shape was generated to be legal for
  /// Chain members in chain_step order (outer index: chain).
  std::vector<std::vector<TaskKey>> chains;
  std::vector<TaskKey> singletons;
  /// Every dependence edge as (producer key, consumer key).
  std::vector<std::pair<TaskKey, TaskKey>> edges;
  /// Keys whose slot-0 output both graph shapes must agree on.
  std::vector<TaskKey> observed;
};

/// Per-task build info accumulated by the generator before specs exist.
struct TaskDraft {
  TaskKey key;
  std::uint64_t chain = 0;
  std::int32_t chain_step = 0;
  int rank = 0;
  std::vector<rt::FlowRef> inputs;
  bool publish_cross = false;  ///< also publish slot 1 for cross consumers
};

constexpr std::uint16_t kSlotOut = 0;    ///< every task's observable output
constexpr std::uint16_t kSlotCross = 1;  ///< cross-chain window payload

double key_salt(const TaskKey& key) {
  return static_cast<double>((key.type * 131u + static_cast<unsigned>(key.a)) %
                             1009) +
         0.5;
}

/// Deterministic, input-order-sensitive body: any rewiring mistake (wrong
/// producer, wrong slot, reordered or duplicated input) changes the value.
TaskSpec make_task(const TaskDraft& draft) {
  TaskSpec spec;
  spec.key = draft.key;
  spec.rank = draft.rank;
  spec.chain = draft.chain;
  spec.chain_step = draft.chain_step;
  spec.inputs = draft.inputs;
  const double salt = key_salt(draft.key);
  const bool cross = draft.publish_cross;
  spec.body = [salt, cross](rt::TaskContext& ctx) {
    double acc = salt;
    for (std::size_t i = 0; i < ctx.num_inputs(); ++i) {
      const auto in = ctx.input(i);
      for (const double v : in) acc = acc * 1.0000001 + v;
      acc += static_cast<double>(i + 1) * 0.25;
    }
    if (cross) ctx.publish(kSlotCross, std::vector<double>{acc * 0.75, salt});
    ctx.publish(kSlotOut,
                std::vector<double>{acc, static_cast<double>(ctx.num_inputs())});
  };
  return spec;
}

/// Generate a fuse-ready pipeline DAG: chains exchange only across window
/// boundaries (producer = last member of window w, consumer = first member
/// of window w+1), source singletons feed arbitrary members, sink singletons
/// observe arbitrary members — exactly the legality envelope of the pass.
DagShape random_fuse_ready_shape(std::uint64_t seed) {
  Rng rng(0x600D0DA6 + seed);
  DagShape shape;
  shape.k = 1 + static_cast<int>(rng.next_below(5));
  shape.nranks = 1 + static_cast<int>(rng.next_below(3));
  const int nchains = 1 + static_cast<int>(rng.next_below(4));
  const int k = shape.k;

  std::vector<std::vector<TaskDraft>> drafts(
      static_cast<std::size_t>(nchains));
  for (int c = 0; c < nchains; ++c) {
    const int len = 1 + static_cast<int>(rng.next_below(12));
    const int stride = 1 + static_cast<int>(rng.next_below(3));
    const int rank = static_cast<int>(rng.next_below(
        static_cast<std::uint64_t>(shape.nranks)));
    auto& chain = drafts[static_cast<std::size_t>(c)];
    for (int j = 0; j < len; ++j) {
      TaskDraft draft;
      draft.key = TaskKey{static_cast<std::uint32_t>(10 + c), j, 0, 0};
      draft.chain = static_cast<std::uint64_t>(c) + 1;
      draft.chain_step = j * stride + 1;
      draft.rank = rank;
      if (j > 0) draft.inputs.push_back({chain[j - 1].key, kSlotOut});
      chain.push_back(draft);
    }
  }

  // Cross-chain window edges: last of window w -> first of window w + 1.
  for (int a = 0; a < nchains; ++a) {
    for (int b = 0; b < nchains; ++b) {
      if (a == b) continue;
      auto& prod = drafts[static_cast<std::size_t>(a)];
      auto& cons = drafts[static_cast<std::size_t>(b)];
      for (int w = 0;; ++w) {
        const int pj = w * k + (k - 1);
        const int cj = (w + 1) * k;
        if (pj >= static_cast<int>(prod.size()) ||
            cj >= static_cast<int>(cons.size())) {
          break;
        }
        if (rng.next_below(2) != 0) continue;
        prod[pj].publish_cross = true;
        cons[cj].inputs.push_back({prod[pj].key, kSlotCross});
      }
    }
  }

  // Source singletons (no chain): feed arbitrary members — a window may end
  // up consuming the same singleton slot through several of its members,
  // which is what exercises the pass's external-input dedup.
  const int nsources = static_cast<int>(rng.next_below(3));
  for (int i = 0; i < nsources; ++i) {
    TaskDraft src;
    src.key = TaskKey{1000, i, 0, 0};
    src.rank = static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(shape.nranks)));
    const int fanout = 1 + static_cast<int>(rng.next_below(4));
    for (int f = 0; f < fanout; ++f) {
      auto& chain = drafts[rng.next_below(
          static_cast<std::uint64_t>(nchains))];
      auto& member = chain[rng.next_below(chain.size())];
      bool duplicate = false;
      for (const auto& flow : member.inputs) {
        duplicate |= flow.producer == src.key && flow.slot == kSlotOut;
      }
      if (!duplicate) member.inputs.push_back({src.key, kSlotOut});
    }
    shape.singletons.push_back(src.key);
    drafts.push_back({src});
  }

  // Sink singletons: observe arbitrary members' slot-0 output — mid-window
  // members exercise the fresh-slot remap of non-last exported outputs.
  const int nsinks = static_cast<int>(rng.next_below(3));
  for (int i = 0; i < nsinks; ++i) {
    TaskDraft sink;
    sink.key = TaskKey{2000, i, 0, 0};
    sink.rank = static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(shape.nranks)));
    const int fanin = 1 + static_cast<int>(rng.next_below(3));
    for (int f = 0; f < fanin; ++f) {
      auto& chain = drafts[rng.next_below(
          static_cast<std::uint64_t>(nchains))];
      auto& member = chain[rng.next_below(chain.size())];
      bool duplicate = false;
      for (const auto& flow : sink.inputs) {
        duplicate |= flow.producer == member.key && flow.slot == kSlotOut;
      }
      if (!duplicate) sink.inputs.push_back({member.key, kSlotOut});
    }
    shape.singletons.push_back(sink.key);
    shape.observed.push_back(sink.key);
    drafts.push_back({sink});
  }

  // Observables must be TERMINAL outputs — the runtime retains only
  // unconsumed slots, so a chain tail a sink happens to read is observed
  // through the sink instead.
  std::set<std::uint64_t> sunk;
  for (std::size_t g = static_cast<std::size_t>(nchains); g < drafts.size();
       ++g) {
    for (const auto& draft : drafts[g]) {
      for (const auto& flow : draft.inputs) sunk.insert(flow.producer.pack());
    }
  }
  for (int c = 0; c < nchains; ++c) {
    const auto& chain = drafts[static_cast<std::size_t>(c)];
    std::vector<TaskKey> keys;
    for (const auto& draft : chain) keys.push_back(draft.key);
    if (sunk.count(keys.back().pack()) == 0) {
      shape.observed.push_back(keys.back());
    }
    shape.chains.push_back(std::move(keys));
  }
  for (const auto& group : drafts) {
    for (const auto& draft : group) {
      for (const auto& flow : draft.inputs) {
        shape.edges.emplace_back(flow.producer, draft.key);
      }
    }
  }

  // The generator's draft layout doubles as the build recipe: regenerate on
  // demand via materialize() below, which replays this function. Stash the
  // drafts in a static-free way by rebuilding from the seed instead.
  return shape;
}

/// Materialize the shape's graph (deterministic: replays the generator).
void materialize(std::uint64_t seed, TaskGraph& graph) {
  // Re-run the generator to recover the drafts, then emit specs. Replaying
  // keeps DagShape copyable/od-free and guarantees both materializations
  // are identical.
  Rng rng(0x600D0DA6 + seed);
  const int k = 1 + static_cast<int>(rng.next_below(5));
  const int nranks = 1 + static_cast<int>(rng.next_below(3));
  const int nchains = 1 + static_cast<int>(rng.next_below(4));

  std::vector<std::vector<TaskDraft>> drafts(
      static_cast<std::size_t>(nchains));
  for (int c = 0; c < nchains; ++c) {
    const int len = 1 + static_cast<int>(rng.next_below(12));
    const int stride = 1 + static_cast<int>(rng.next_below(3));
    const int rank =
        static_cast<int>(rng.next_below(static_cast<std::uint64_t>(nranks)));
    auto& chain = drafts[static_cast<std::size_t>(c)];
    for (int j = 0; j < len; ++j) {
      TaskDraft draft;
      draft.key = TaskKey{static_cast<std::uint32_t>(10 + c), j, 0, 0};
      draft.chain = static_cast<std::uint64_t>(c) + 1;
      draft.chain_step = j * stride + 1;
      draft.rank = rank;
      if (j > 0) draft.inputs.push_back({chain[j - 1].key, kSlotOut});
      chain.push_back(draft);
    }
  }
  for (int a = 0; a < nchains; ++a) {
    for (int b = 0; b < nchains; ++b) {
      if (a == b) continue;
      auto& prod = drafts[static_cast<std::size_t>(a)];
      auto& cons = drafts[static_cast<std::size_t>(b)];
      for (int w = 0;; ++w) {
        const int pj = w * k + (k - 1);
        const int cj = (w + 1) * k;
        if (pj >= static_cast<int>(prod.size()) ||
            cj >= static_cast<int>(cons.size())) {
          break;
        }
        if (rng.next_below(2) != 0) continue;
        prod[pj].publish_cross = true;
        cons[cj].inputs.push_back({prod[pj].key, kSlotCross});
      }
    }
  }
  const int nsources = static_cast<int>(rng.next_below(3));
  for (int i = 0; i < nsources; ++i) {
    TaskDraft src;
    src.key = TaskKey{1000, i, 0, 0};
    src.rank =
        static_cast<int>(rng.next_below(static_cast<std::uint64_t>(nranks)));
    const int fanout = 1 + static_cast<int>(rng.next_below(4));
    for (int f = 0; f < fanout; ++f) {
      auto& chain =
          drafts[rng.next_below(static_cast<std::uint64_t>(nchains))];
      auto& member = chain[rng.next_below(chain.size())];
      bool duplicate = false;
      for (const auto& flow : member.inputs) {
        duplicate |= flow.producer == src.key && flow.slot == kSlotOut;
      }
      if (!duplicate) member.inputs.push_back({src.key, kSlotOut});
    }
    drafts.push_back({src});
  }
  const int nsinks = static_cast<int>(rng.next_below(3));
  for (int i = 0; i < nsinks; ++i) {
    TaskDraft sink;
    sink.rank =
        static_cast<int>(rng.next_below(static_cast<std::uint64_t>(nranks)));
    sink.key = TaskKey{2000, i, 0, 0};
    const int fanin = 1 + static_cast<int>(rng.next_below(3));
    for (int f = 0; f < fanin; ++f) {
      auto& chain =
          drafts[rng.next_below(static_cast<std::uint64_t>(nchains))];
      auto& member = chain[rng.next_below(chain.size())];
      bool duplicate = false;
      for (const auto& flow : sink.inputs) {
        duplicate |= flow.producer == member.key && flow.slot == kSlotOut;
      }
      if (!duplicate) sink.inputs.push_back({member.key, kSlotOut});
    }
    drafts.push_back({sink});
  }
  for (const auto& group : drafts) {
    for (const auto& draft : group) graph.add_task(make_task(draft));
  }
}

/// Key of the fused task a chain member lands in: last member of its window.
TaskKey fused_home(const std::vector<TaskKey>& chain, std::size_t index,
                   int k) {
  const std::size_t window_end =
      std::min(chain.size() - 1,
               (index / static_cast<std::size_t>(k)) *
                       static_cast<std::size_t>(k) +
                   static_cast<std::size_t>(k) - 1);
  return chain[window_end];
}

std::vector<double> read_result(const rt::Runtime& runtime,
                                const TaskKey& key) {
  const rt::Buffer buffer = runtime.result(key, kSlotOut);
  return *buffer;
}

// --------------------------------------------------------- the properties --

constexpr std::uint64_t kRounds = 200;

TEST(GraphTransform, RandomDagsPreserveStructureAndCounts) {
  for (std::uint64_t seed = 1; seed <= kRounds; ++seed) {
    const DagShape shape = random_fuse_ready_shape(seed);
    SCOPED_TRACE("FAILING SEED=" + std::to_string(seed) +
                 " k=" + std::to_string(shape.k));
    TaskGraph graph;
    materialize(seed, graph);
    const std::size_t before = graph.size();

    const rt::FuseReport report = rt::fuse_supersteps(graph, shape.k);

    // Exact count round-trip: ceil(members / k) tasks per chain, singletons
    // untouched.
    std::size_t expected = shape.singletons.size();
    std::size_t expected_fused_tasks = 0;
    std::size_t expected_fused_members = 0;
    for (const auto& chain : shape.chains) {
      const std::size_t windows =
          (chain.size() + static_cast<std::size_t>(shape.k) - 1) /
          static_cast<std::size_t>(shape.k);
      expected += windows;
      for (std::size_t w = 0; w < windows; ++w) {
        const std::size_t members =
            std::min(chain.size() - w * static_cast<std::size_t>(shape.k),
                     static_cast<std::size_t>(shape.k));
        if (members >= 2) {
          ++expected_fused_tasks;
          expected_fused_members += members;
        }
      }
    }
    EXPECT_EQ(report.tasks_before, before);
    EXPECT_EQ(report.tasks_after, expected);
    EXPECT_EQ(graph.size(), expected);
    EXPECT_EQ(report.chains, shape.chains.size());
    EXPECT_EQ(report.depth, shape.k);
    EXPECT_EQ(report.fused_tasks, expected_fused_tasks);
    EXPECT_EQ(report.fused_members, expected_fused_members);

    // No lost dependence: every original cross-window edge must survive as a
    // direct flow between the corresponding fused tasks.
    std::unordered_map<TaskKey, TaskKey, rt::TaskKeyHash> home;
    for (const auto& chain : shape.chains) {
      for (std::size_t j = 0; j < chain.size(); ++j) {
        home.emplace(chain[j], fused_home(chain, j, shape.k));
      }
    }
    for (const TaskKey& single : shape.singletons) home.emplace(single, single);
    for (const auto& [producer, consumer] : shape.edges) {
      const TaskKey fused_p = home.at(producer);
      const TaskKey fused_c = home.at(consumer);
      if (fused_p == fused_c) continue;  // became in-task staging
      ASSERT_TRUE(graph.contains(fused_c));
      const TaskSpec& spec = graph.spec(graph.index_of(fused_c));
      bool found = false;
      for (const auto& flow : spec.inputs) found |= flow.producer == fused_p;
      EXPECT_TRUE(found) << "edge " << producer.to_string() << " -> "
                         << consumer.to_string()
                         << " lost by fusing: no flow "
                         << fused_p.to_string() << " -> "
                         << fused_c.to_string();
    }

    // No edge inversion: the fused graph still seals (acyclic, ranks valid).
    EXPECT_NO_THROW(graph.seal(shape.nranks));
  }
}

TEST(GraphTransform, RandomDagsComputeBitIdenticalResults) {
  // The semantic property: run the original and the fused graph and compare
  // every observable output bit for bit, across multi-rank placements and
  // both schedulers. A sample of the seed pool keeps the suite fast; the
  // structural sweep above covers all 200.
  for (std::uint64_t seed = 1; seed <= kRounds; seed += 7) {
    const DagShape shape = random_fuse_ready_shape(seed);
    SCOPED_TRACE("FAILING SEED=" + std::to_string(seed) +
                 " k=" + std::to_string(shape.k));

    TaskGraph original;
    materialize(seed, original);
    rt::Config config{shape.nranks, 2, true, false};
    config.scheduler = seed % 2 == 0 ? rt::SchedPolicy::WorkStealing
                                     : rt::SchedPolicy::PriorityFifo;
    rt::Runtime baseline(config);
    baseline.run(original);
    std::vector<std::vector<double>> expected;
    for (const TaskKey& key : shape.observed) {
      expected.push_back(read_result(baseline, key));
    }

    TaskGraph fused_graph;
    materialize(seed, fused_graph);
    rt::fuse_supersteps(fused_graph, shape.k);
    rt::Runtime fused(config);
    fused.run(fused_graph);
    for (std::size_t i = 0; i < shape.observed.size(); ++i) {
      EXPECT_EQ(expected[i], read_result(fused, shape.observed[i]))
          << "observable " << shape.observed[i].to_string()
          << " diverged after fusing";
    }
  }
}

TEST(GraphTransform, FusedTaskTakesTheHighestMemberPriority) {
  // The window runs as one task, so it must be scheduled as early as its
  // most urgent member; the last member's own priority is not enough.
  TaskGraph graph;
  const int priorities[3] = {5, -2, 1};
  for (int j = 0; j < 3; ++j) {
    TaskDraft draft;
    draft.key = TaskKey{10, j, 0, 0};
    draft.chain = 1;
    draft.chain_step = j + 1;
    if (j > 0) draft.inputs.push_back({TaskKey{10, j - 1, 0, 0}, kSlotOut});
    TaskSpec spec = make_task(draft);
    spec.priority = priorities[j];
    graph.add_task(std::move(spec));
  }
  rt::fuse_supersteps(graph, 3);
  ASSERT_EQ(graph.size(), 1u);
  EXPECT_EQ(graph.spec(0).key, (TaskKey{10, 2, 0, 0}));
  EXPECT_EQ(graph.spec(0).priority, 5);
}

TEST(GraphTransform, DepthOneIsIdentity) {
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    SCOPED_TRACE("FAILING SEED=" + std::to_string(seed));
    TaskGraph graph;
    materialize(seed, graph);
    TaskGraph reference;
    materialize(seed, reference);

    const rt::FuseReport report = rt::fuse_supersteps(graph, 1);
    EXPECT_EQ(report.fused_tasks, 0u);
    EXPECT_EQ(report.tasks_before, report.tasks_after);
    ASSERT_EQ(graph.size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
      const TaskSpec& want = reference.spec(i);
      ASSERT_TRUE(graph.contains(want.key));
      const TaskSpec& got = graph.spec(graph.index_of(want.key));
      EXPECT_EQ(got.inputs.size(), want.inputs.size());
      EXPECT_EQ(got.rank, want.rank);
      EXPECT_EQ(got.chain, want.chain);
      EXPECT_EQ(got.chain_step, want.chain_step);
    }
  }
}

// ------------------------------------------------------- illegal requests --

/// Two chains exchanging EVERY step — the classic (non-fuse-ready) stencil
/// shape. Fusing k > 1 must detect the window-level cycle.
void build_mutual_exchange(TaskGraph& graph, int len) {
  for (int c = 0; c < 2; ++c) {
    for (int j = 0; j < len; ++j) {
      TaskDraft draft;
      draft.key = TaskKey{static_cast<std::uint32_t>(10 + c), j, 0, 0};
      draft.chain = static_cast<std::uint64_t>(c) + 1;
      draft.chain_step = j + 1;
      if (j > 0) {
        draft.inputs.push_back(
            {TaskKey{static_cast<std::uint32_t>(10 + c), j - 1, 0, 0},
             kSlotOut});
        draft.inputs.push_back(
            {TaskKey{static_cast<std::uint32_t>(10 + (1 - c)), j - 1, 0, 0},
             kSlotCross});
      }
      draft.publish_cross = j + 1 < len;
      graph.add_task(make_task(draft));
    }
  }
}

using Observed = std::vector<std::pair<TaskKey, std::uint16_t>>;

bool same_flow(const rt::FlowRef& a, const rt::FlowRef& b) {
  return a.producer == b.producer && a.slot == b.slot && a.route == b.route &&
         a.route_doubles == b.route_doubles &&
         a.route_fragments == b.route_fragments;
}

/// A rejected rewrite must throw GraphTransformError with `message` and
/// leave the graph exactly as it found it: same size, the same key and
/// inputs at every index, and it still seals and runs to the results of a
/// never-touched copy (every `observed` output compared).
void expect_rejected_untouched(const std::function<void(TaskGraph&)>& build,
                               int k, int nranks, const std::string& message,
                               const Observed& observed) {
  TaskGraph graph;
  build(graph);
  TaskGraph reference;
  build(reference);
  try {
    rt::fuse_supersteps(graph, k);
    ADD_FAILURE() << "fuse_supersteps(k=" << k << ") did not throw";
  } catch (const rt::GraphTransformError& e) {
    EXPECT_EQ(std::string(e.what()), message);
  }
  ASSERT_EQ(graph.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    const TaskSpec& got = graph.spec(i);
    const TaskSpec& want = reference.spec(i);
    EXPECT_EQ(got.key, want.key) << "index " << i;
    ASSERT_EQ(got.inputs.size(), want.inputs.size()) << want.key.to_string();
    for (std::size_t j = 0; j < want.inputs.size(); ++j) {
      EXPECT_TRUE(same_flow(got.inputs[j], want.inputs[j]))
          << want.key.to_string() << " input " << j;
    }
  }
  const rt::Config config{nranks, 2, true, false};
  rt::Runtime touched(config);
  touched.run(graph);
  rt::Runtime untouched(config);
  untouched.run(reference);
  for (const auto& [key, slot] : observed) {
    EXPECT_EQ(*touched.result(key, slot), *untouched.result(key, slot))
        << key.to_string() << " slot " << slot;
  }
}

TEST(GraphTransform, MidWindowExchangeThrowsAndLeavesGraphUntouched) {
  const auto build = [](TaskGraph& graph) { build_mutual_exchange(graph, 6); };
  const Observed observed = {{TaskKey{10, 5, 0, 0}, kSlotOut},
                             {TaskKey{11, 5, 0, 0}, kSlotOut}};
  for (const int k : {2, 3}) {
    expect_rejected_untouched(
        build, k, 1,
        "fuse_supersteps: fusing k=" + std::to_string(k) +
            " creates a dependence cycle between fused windows; the graph is "
            "not fuse-ready at this depth (cross-chain edges must only cross "
            "window boundaries)",
        observed);
  }
}

TEST(GraphTransform, BackwardIntraWindowEdgeThrows) {
  // step 1 reads step 3's output: acyclic as a graph, but fusing all three
  // into one task would run the consumer before its producer.
  const auto build = [](TaskGraph& graph) {
    for (int j = 0; j < 3; ++j) {
      TaskDraft draft;
      draft.key = TaskKey{10, j, 0, 0};
      draft.chain = 1;
      draft.chain_step = j + 1;
      graph.add_task(make_task(draft));
    }
    TaskDraft consumer;
    consumer.key = TaskKey{11, 0, 0, 0};
    consumer.chain = 1;
    consumer.chain_step = 0;  // earliest member, depends on the latest
    consumer.inputs.push_back({TaskKey{10, 2, 0, 0}, kSlotOut});
    graph.add_task(make_task(consumer));
  };
  expect_rejected_untouched(
      build, 4, 1,
      "fuse_supersteps: fusing k=4 would invert edge t10(2,0,0) -> "
      "t11(0,0,0) inside one window",
      {{TaskKey{10, 0, 0, 0}, kSlotOut},
       {TaskKey{10, 1, 0, 0}, kSlotOut},
       {TaskKey{11, 0, 0, 0}, kSlotOut}});
}

/// Chain 1 of two members, (10,0) -> (10,1), placed per the arguments.
void build_two_member_chain(TaskGraph& graph, const int ranks[2],
                            const int lanes[2]) {
  for (int j = 0; j < 2; ++j) {
    TaskDraft draft;
    draft.key = TaskKey{10, j, 0, 0};
    draft.chain = 1;
    draft.chain_step = j + 1;
    draft.rank = ranks[j];
    if (j > 0) draft.inputs.push_back({TaskKey{10, 0, 0, 0}, kSlotOut});
    TaskSpec spec = make_task(draft);
    spec.lane = lanes[j];
    graph.add_task(std::move(spec));
  }
}

TEST(GraphTransform, MixedRanksInsideWindowThrow) {
  const auto build = [](TaskGraph& graph) {
    const int ranks[2] = {0, 1};  // window members on different ranks
    const int lanes[2] = {-1, -1};
    build_two_member_chain(graph, ranks, lanes);
  };
  expect_rejected_untouched(
      build, 2, 2,
      "fuse_supersteps: window members t10(0,0,0) and t10(1,0,0) disagree "
      "on rank/lane; a fused task runs on one rank",
      {{TaskKey{10, 1, 0, 0}, kSlotOut}});
}

TEST(GraphTransform, MixedLanesInsideWindowThrow) {
  const auto build = [](TaskGraph& graph) {
    const int ranks[2] = {0, 0};
    const int lanes[2] = {0, 1};  // one rank, two tenants' lanes
    build_two_member_chain(graph, ranks, lanes);
  };
  expect_rejected_untouched(
      build, 2, 1,
      "fuse_supersteps: window members t10(0,0,0) and t10(1,0,0) disagree "
      "on rank/lane; a fused task runs on one rank",
      {{TaskKey{10, 1, 0, 0}, kSlotOut}});
}

TEST(GraphTransform, DuplicateChainStepThrows) {
  const auto build = [](TaskGraph& graph) {
    for (int j = 0; j < 2; ++j) {
      TaskDraft draft;
      draft.key = TaskKey{10, j, 0, 0};
      draft.chain = 1;
      draft.chain_step = 7;  // both claim the same position
      graph.add_task(make_task(draft));
    }
  };
  expect_rejected_untouched(
      build, 2, 1,
      "fuse_supersteps: chain 1 has duplicate chain_step 7 (t10(1,0,0) vs "
      "t10(0,0,0))",
      {{TaskKey{10, 0, 0, 0}, kSlotOut}, {TaskKey{10, 1, 0, 0}, kSlotOut}});
}

// ------------------------------------------------- remapped export slots --

constexpr std::uint16_t kSlotTop = 65535;  ///< highest slot id

/// a0 -> a1 on chain 1 (fused whole at k = 2) plus a sink reading a0's
/// `sink_slot`, so a0's output there is an earlier member's export and gets
/// a remapped id on the fused task. a0 publishes slots 0 and `sink_slot`
/// (1.0 each); a1 reads a0's slot 0 and publishes 2.0 on slot 0 and 3.0 on
/// `a1_extra`, neither consumed. The sink republishes what it read.
void build_remap_case(TaskGraph& graph, std::uint16_t sink_slot,
                      std::uint16_t a1_extra) {
  TaskSpec a0;
  a0.key = TaskKey{10, 0, 0, 0};
  a0.chain = 1;
  a0.chain_step = 1;
  a0.body = [sink_slot](rt::TaskContext& ctx) {
    ctx.publish(0, std::vector<double>{1.0});
    if (sink_slot != 0) ctx.publish(sink_slot, std::vector<double>{1.0});
  };
  graph.add_task(std::move(a0));
  TaskSpec a1;
  a1.key = TaskKey{10, 1, 0, 0};
  a1.chain = 1;
  a1.chain_step = 2;
  a1.inputs = {{TaskKey{10, 0, 0, 0}, 0}};
  a1.body = [a1_extra](rt::TaskContext& ctx) {
    const double in = ctx.input(0)[0];
    ctx.publish(0, std::vector<double>{in + 1.0});
    ctx.publish(a1_extra, std::vector<double>{in + 2.0});
  };
  graph.add_task(std::move(a1));
  TaskSpec sink;
  sink.key = TaskKey{20, 0, 0, 0};
  sink.inputs = {{TaskKey{10, 0, 0, 0}, sink_slot}};
  sink.body = [](rt::TaskContext& ctx) {
    ctx.publish(0, std::vector<double>{ctx.input(0)[0]});
  };
  graph.add_task(std::move(sink));
}

TEST(GraphTransform, RemappedExportsLeaveLastMemberSlotsAlone) {
  // No flow reads above slot 0, yet a1 publishes slot 1 unconsumed and
  // keeps that id for result(): a0's remapped export must not land on it.
  TaskGraph graph;
  build_remap_case(graph, 0, 1);
  const rt::FuseReport report = rt::fuse_supersteps(graph, 2);
  EXPECT_EQ(report.fused_tasks, 1u);
  EXPECT_EQ(graph.size(), 2u);
  rt::Runtime runtime(rt::Config{1, 2, true, false});
  runtime.run(graph);
  EXPECT_EQ(*runtime.result(TaskKey{20, 0, 0, 0}, 0), std::vector<double>{1.0});
  EXPECT_EQ(*runtime.result(TaskKey{10, 1, 0, 0}, 1), std::vector<double>{3.0});
  EXPECT_EQ(*runtime.result(TaskKey{10, 1, 0, 0}, 0), std::vector<double>{2.0});
}

TEST(GraphTransform, LastMemberPublishOntoARemappedSlotIsDiagnosed) {
  // Remapped ids come down from the top of the slot space, so a last member
  // publishing the topmost id unconsumed meets its window's first remap.
  TaskGraph graph;
  build_remap_case(graph, 0, kSlotTop);
  rt::fuse_supersteps(graph, 2);
  rt::Runtime runtime(rt::Config{1, 2, true, false});
  try {
    runtime.run(graph);
    ADD_FAILURE() << "run did not fail";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("fused window t10(1,0,0)"), std::string::npos) << what;
    EXPECT_NE(what.find("slot 65535"), std::string::npos) << what;
    EXPECT_EQ(what.find("published twice"), std::string::npos) << what;
  }
}

TEST(GraphTransform, RemappedSlotExhaustionThrowsAndLeavesGraphUntouched) {
  // A flow reads slot 65535, so no id above every referenced slot is left
  // for a0's export.
  expect_rejected_untouched(
      [](TaskGraph& graph) { build_remap_case(graph, kSlotTop, 1); }, 2, 1,
      "fuse_supersteps: slot id space exhausted remapping window t10(1,0,0)",
      {{TaskKey{20, 0, 0, 0}, 0},
       {TaskKey{10, 1, 0, 0}, 0},
       {TaskKey{10, 1, 0, 0}, 1}});
}

TEST(GraphTransform, FusedGraphRunsTwiceOnOneResidentRuntime) {
  // Staging is per invocation: a second run of the same fused graph on the
  // same runtime recomputes every observable bit for bit.
  int checked = 0;
  for (std::uint64_t seed = 1; seed <= kRounds && checked < 5; ++seed) {
    const DagShape shape = random_fuse_ready_shape(seed);
    if (shape.k < 2) continue;
    SCOPED_TRACE("FAILING SEED=" + std::to_string(seed));
    TaskGraph graph;
    materialize(seed, graph);
    if (rt::fuse_supersteps(graph, shape.k).fused_tasks == 0) continue;
    rt::Runtime runtime(rt::Config{shape.nranks, 2, true, false});
    runtime.run(graph);
    std::vector<std::vector<double>> first;
    for (const TaskKey& key : shape.observed) {
      first.push_back(read_result(runtime, key));
    }
    runtime.run(graph);
    for (std::size_t i = 0; i < shape.observed.size(); ++i) {
      EXPECT_EQ(first[i], read_result(runtime, shape.observed[i]));
    }
    ++checked;
  }
  EXPECT_EQ(checked, 5);
}

TEST(GraphTransform, SealedGraphAndBadDepthAreRejected) {
  TaskGraph graph;
  TaskDraft draft;
  draft.key = TaskKey{10, 0, 0, 0};
  draft.chain = 1;
  draft.chain_step = 1;
  graph.add_task(make_task(draft));
  EXPECT_THROW(rt::fuse_supersteps(graph, 0), std::invalid_argument);
  EXPECT_THROW(rt::fuse_supersteps(graph, -3), std::invalid_argument);
  graph.seal(1);
  EXPECT_THROW(rt::fuse_supersteps(graph, 2), rt::GraphTransformError);
}

// ------------------------------------------------------ real stencil DAGs --

/// One fuse-ready stencil case: every named spec plus the classic 5-point
/// ("classic") at 24^2, tile 12 on 2x2 nodes, steps 1, fuse 2.
struct StencilCase {
  stencil::Problem problem;
  stencil::DistConfig config;
  int iters = 4;
  int radius = 1;  ///< max(1, radius_xy) of the spec
  /// Members per fuse window.
  int window() const { return config.steps * config.fuse_depth; }
  /// Ghost depth radius * window beyond the tile (12): validation rejects.
  bool rejected() const { return radius * window() > 12; }
};

std::vector<std::string> stencil_case_names() {
  std::vector<std::string> cases = spec::spec_names();
  cases.emplace_back("classic");
  return cases;
}

StencilCase stencil_case(const std::string& name, bool persistent) {
  StencilCase c;
  c.problem =
      name == "classic"
          ? stencil::random_problem(24, 24, c.iters, 7)
          : stencil::spec_problem(spec::spec_by_name(name), 24, 24, c.iters,
                                  spec::spec_by_name(name).rank == 3 ? 2 : 1,
                                  7);
  c.config.decomp = {12, 12, 2, 2};
  c.config.steps = 1;
  c.config.fuse_depth = 2;
  c.config.persistent = persistent;
  c.radius = name == "classic"
                 ? 1
                 : std::max(1, spec::spec_by_name(name).radius_xy());
  return c;
}

/// 64-bit FNV-1a over a stream of words, printed as 0x%016llx.
struct Fnv1a {
  std::uint64_t hash = 0xcbf29ce484222325ULL;

  void mix(std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (value >> (8 * byte)) & 0xffu;
      hash *= 0x100000001b3ULL;
    }
  }
  void mix_int(std::int64_t value) { mix(static_cast<std::uint64_t>(value)); }
  void mix_key(const TaskKey& key) {
    mix(key.type);
    mix_int(key.a);
    mix_int(key.b);
    mix_int(key.c);
  }
  std::string hex() const {
    char text[19];
    std::snprintf(text, sizeof(text), "0x%016llx",
                  static_cast<unsigned long long>(hash));
    return text;
  }
};

/// FNV-1a over everything the rewrite decides about a graph: task order,
/// key, rank, lane, priority, chain, chain_step and klass, plus every input
/// flow's producer, slot and route annotations.
std::string graph_fingerprint(const TaskGraph& graph) {
  Fnv1a fnv;
  fnv.mix(graph.size());
  for (std::size_t i = 0; i < graph.size(); ++i) {
    const TaskSpec& spec = graph.spec(i);
    fnv.mix_key(spec.key);
    fnv.mix_int(spec.rank);
    fnv.mix_int(spec.lane);
    fnv.mix_int(spec.priority);
    fnv.mix(spec.chain);
    fnv.mix_int(spec.chain_step);
    fnv.mix(spec.klass.size());
    for (const char ch : spec.klass) fnv.mix(static_cast<unsigned char>(ch));
    fnv.mix(spec.inputs.size());
    for (const rt::FlowRef& flow : spec.inputs) {
      fnv.mix_key(flow.producer);
      fnv.mix(flow.slot);
      fnv.mix(flow.route);
      fnv.mix(flow.route_doubles);
      fnv.mix(flow.route_fragments);
    }
  }
  return fnv.hex();
}

/// FNV-1a over what seal() derives: every task's consumers() sequence, in
/// order, as (slot, consumer key, input position, route id, route doubles,
/// route fragments), the route read through TaskGraph::flow().
std::string consumers_fingerprint(const TaskGraph& graph) {
  Fnv1a fnv;
  fnv.mix(graph.size());
  for (std::size_t i = 0; i < graph.size(); ++i) {
    const auto edges = graph.consumers(i);
    fnv.mix(edges.size());
    for (const TaskGraph::ConsumerEdge& edge : edges) {
      const rt::FlowRef& flow = graph.flow(edge);
      fnv.mix(edge.slot);
      fnv.mix_key(graph.spec(edge.consumer).key);
      fnv.mix(edge.input_pos);
      fnv.mix(flow.route);
      fnv.mix(flow.route_doubles);
      fnv.mix(flow.route_fragments);
    }
  }
  return fnv.hex();
}

TEST(GraphTransformStencil, FuseReadyGraphsRoundTripForEveryNamedSpec) {
  // Build the fuse-ready graph of every named spec (plus the classic
  // 5-point), apply the rewrite at the builder's advertised window, and
  // check the exact count identity tiles * (1 + ceil(iters / W)).
  for (const std::string& name : stencil_case_names()) {
    SCOPED_TRACE("spec=" + name);
    const StencilCase c = stencil_case(name, false);
    const int window = c.window();
    if (c.rejected()) continue;  // would be rejected by validation, skip

    TaskGraph graph;
    const stencil::SolveSubgraph subgraph =
        stencil::add_solve_subgraph(graph, c.problem, c.config);
    ASSERT_EQ(subgraph.fuse_window(), window);
    const std::size_t tiles = 4;
    EXPECT_EQ(graph.size(), tiles * (1 + static_cast<std::size_t>(c.iters)));

    const rt::FuseReport report = rt::fuse_supersteps(graph, window);
    EXPECT_EQ(report.chains, tiles);
    EXPECT_EQ(graph.size(),
              tiles * (1 + static_cast<std::size_t>(
                               (c.iters + window - 1) / window)));
    EXPECT_NO_THROW(graph.seal(subgraph.nodes()));
  }
}

TEST(GraphTransformStencil, FusedGraphFingerprintsArePinned) {
  // The rewrite's exact output on every stencil case, default and persistent
  // routes: any change to task order, metadata, input order, slot numbering
  // or route annotations shows up here. Stencil windows export only from
  // their last member, so none of these graphs carries a remapped slot.
  const std::map<std::string, std::string> pinned = {
      {"star5/default", "0xfac012da7b8a0239"},
      {"star5/persistent", "0xac0d390aa1eff5c9"},
      // star9 runs one task per tile per iteration like star5, so its
      // default graph is star5's; its routes carry 2-deep bands.
      {"star9/default", "0xfac012da7b8a0239"},
      {"star9/persistent", "0x19f2fd7361304709"},
      {"box9/default", "0xfac012da7b8a0239"},
      {"box9/persistent", "0xac0d390aa1eff5c9"},
      {"heat3d/default", "0xfac012da7b8a0239"},
      {"heat3d/persistent", "0xc25befdece1e03c9"},
      {"advect2d/default", "0xfac012da7b8a0239"},
      {"advect2d/persistent", "0xac0d390aa1eff5c9"},
      {"box27/default", "0xfac012da7b8a0239"},
      {"box27/persistent", "0xc25befdece1e03c9"},
      {"classic/default", "0xfac012da7b8a0239"},
      {"classic/persistent", "0xac0d390aa1eff5c9"},
  };
  for (const std::string& name : stencil_case_names()) {
    for (const bool persistent : {false, true}) {
      const std::string label =
          name + (persistent ? "/persistent" : "/default");
      SCOPED_TRACE(label);
      const StencilCase c = stencil_case(name, persistent);
      if (c.rejected()) continue;  // rejected by validation
      TaskGraph graph;
      stencil::add_solve_subgraph(graph, c.problem, c.config);
      rt::fuse_supersteps(graph, c.window());
      const std::string fingerprint = graph_fingerprint(graph);
      const auto it = pinned.find(label);
      if (it == pinned.end()) {
        ADD_FAILURE() << "no pinned fingerprint; this graph hashes to {\""
                      << label << "\", \"" << fingerprint << "\"}";
        continue;
      }
      EXPECT_EQ(it->second, fingerprint);
    }
  }
}

TEST(GraphTransformStencil, SealedConsumerListsArePinned) {
  // seal()'s derived consumer lists, in the exact order consumers() returns
  // them, on graphs from every front end: the base and CA stencil builders
  // (local lines, box corners, coefficient planes, persistent routes), the
  // fused rewrite's output, and a DTD insertion trace with fan-out readers
  // and multi-slot writers.
  const auto stencil_graph = [](const stencil::Problem& problem, int steps,
                                bool persistent, int fuse_depth) {
    stencil::DistConfig config;
    config.decomp = {6, 6, 2, 2};
    config.steps = steps;
    config.persistent = persistent;
    config.fuse_depth = fuse_depth;
    TaskGraph graph;
    const stencil::SolveSubgraph subgraph =
        stencil::add_solve_subgraph(graph, problem, config);
    if (subgraph.fuse_window() > 1) {
      rt::fuse_supersteps(graph, subgraph.fuse_window());
    }
    graph.seal(subgraph.nodes());
    return consumers_fingerprint(graph);
  };
  const stencil::Problem classic = stencil::random_problem(24, 24, 4, 7);
  const stencil::Problem box9 =
      stencil::spec_problem(spec::spec_by_name("box9"), 24, 24, 4, 1, 7);
  const stencil::Problem heat3d =
      stencil::spec_problem(spec::spec_by_name("heat3d"), 24, 24, 2, 2, 7);
  const stencil::Problem variable =
      stencil::random_variable_problem(24, 24, 4, 7);

  std::map<std::string, std::string> got;
  got["base/classic"] = stencil_graph(classic, 1, false, 1);
  got["base/box9"] = stencil_graph(box9, 1, false, 1);
  got["ca/classic/persistent"] = stencil_graph(classic, 2, true, 1);
  got["ca/variable"] = stencil_graph(variable, 2, false, 1);
  got["fused/classic/persistent"] = stencil_graph(classic, 1, true, 2);
  got["fused/heat3d/persistent"] = stencil_graph(heat3d, 1, true, 2);

  rt::dtd::DtdProgram program;
  const auto x = program.data("x", 0, {1.0});
  const auto y = program.data("y", 1, {2.0});
  const auto noop = [](rt::dtd::DtdTaskView&) {};
  for (int step = 0; step < 3; ++step) {
    for (int r = 0; r < 3; ++r) {
      const auto sum = program.data("sum", r % 2, {0.0});
      program.insert_task(
          "reader", r % 2,
          {{x, rt::dtd::Access::Read}, {y, rt::dtd::Access::Read},
           {sum, rt::dtd::Access::Write}},
          noop);
    }
    program.insert_task(
        "swap", step % 2,
        {{x, rt::dtd::Access::ReadWrite}, {y, rt::dtd::Access::ReadWrite}},
        noop);
  }
  TaskGraph dtd_graph = program.compile();
  dtd_graph.seal(2);
  got["dtd"] = consumers_fingerprint(dtd_graph);

  const std::map<std::string, std::string> pinned = {
      {"base/classic", "0x0e3ed21b82ab5715"},
      {"base/box9", "0x771fe802bc3ddf15"},
      {"ca/classic/persistent", "0x4a76e9a1c8e19305"},
      {"ca/variable", "0xce4b44ffef8e5295"},
      {"fused/classic/persistent", "0xb027c779e7e17865"},
      {"fused/heat3d/persistent", "0x72a6391f61e09535"},
      {"dtd", "0x53f5d1a592e53212"},
  };
  for (const auto& [label, fingerprint] : got) {
    SCOPED_TRACE(label);
    const auto it = pinned.find(label);
    if (it == pinned.end()) {
      ADD_FAILURE() << "no pinned fingerprint; this graph hashes to {\""
                    << label << "\", \"" << fingerprint << "\"}";
      continue;
    }
    EXPECT_EQ(it->second, fingerprint);
  }
  EXPECT_EQ(got.size(), pinned.size());
}

TEST(GraphTransformStencil, EdgeRoutesReadThroughFlowAreTheConsumersFlowRef) {
  // Persistent stencil graphs, classic, CA and fused: every consumer edge's
  // flow() is the consumer's own input FlowRef at the edge's position, so
  // the route annotation has one copy and one reader.
  const stencil::Problem problem = stencil::random_problem(24, 24, 4, 7);
  const stencil::Problem box9 =
      stencil::spec_problem(spec::spec_by_name("box9"), 24, 24, 4, 1, 7);
  for (const auto& [label, steps, fuse_depth, box] :
       {std::tuple{"base", 1, 1, false}, std::tuple{"ca", 2, 1, false},
        std::tuple{"ca/box9", 2, 1, true}, std::tuple{"fused", 1, 2, false}}) {
    SCOPED_TRACE(label);
    stencil::DistConfig config;
    config.decomp = {6, 6, 2, 2};
    config.steps = steps;
    config.fuse_depth = fuse_depth;
    config.persistent = true;
    TaskGraph graph;
    const stencil::SolveSubgraph subgraph =
        stencil::add_solve_subgraph(graph, box ? box9 : problem, config);
    if (subgraph.fuse_window() > 1) {
      rt::fuse_supersteps(graph, subgraph.fuse_window());
    }
    graph.seal(subgraph.nodes());
    std::size_t routed = 0;
    std::size_t edges = 0;
    for (std::size_t i = 0; i < graph.size(); ++i) {
      for (const TaskGraph::ConsumerEdge& edge : graph.consumers(i)) {
        const TaskSpec& consumer = graph.spec(edge.consumer);
        ASSERT_LT(edge.input_pos, consumer.inputs.size());
        const rt::FlowRef& flow = graph.flow(edge);
        ASSERT_EQ(&flow, &consumer.inputs[edge.input_pos]);
        EXPECT_EQ(flow.producer, graph.spec(i).key);
        EXPECT_EQ(flow.slot, edge.slot);
        routed += flow.route != 0;
        ++edges;
      }
    }
    std::size_t flows = 0;
    std::size_t annotated = 0;
    for (std::size_t i = 0; i < graph.size(); ++i) {
      for (const rt::FlowRef& flow : graph.spec(i).inputs) {
        ++flows;
        annotated += flow.route != 0;
      }
    }
    EXPECT_EQ(edges, flows);
    EXPECT_EQ(routed, annotated);
    EXPECT_GT(routed, 0u);
  }
}

TEST(GraphTransformStencil, BuiltPrioritiesFollowEachTasksPackPlan) {
  // The builder prices each tile once, yet every task must carry
  // task_priority of its own pack plan, stated here through the sealed
  // graph: a task whose bands or corners (slots 1-8) some consumer reads
  // ranks 2, else a tile with a remote side ranks 1 and an interior tile 0,
  // all plus the configured bias. 6 x 6 tiles on 2 x 2 nodes have all three.
  const stencil::Problem classic = stencil::random_problem(24, 24, 5, 7);
  const stencil::Problem box9 =
      stencil::spec_problem(spec::spec_by_name("box9"), 24, 24, 5, 1, 7);
  struct Case {
    const char* label;
    const stencil::Problem* problem;
    int steps;
    int fuse_depth;
    int bias;
  };
  const Case cases[] = {
      {"base", &classic, 1, 1, 0},       {"ca", &classic, 2, 1, 0},
      {"base/box9", &box9, 1, 1, 3},     {"ca/box9", &box9, 2, 1, 0},
      {"fuse-ready", &classic, 1, 2, 0}, {"fuse-ready/box9", &box9, 2, 2, -2},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.label);
    stencil::DistConfig config;
    config.decomp = {4, 4, 2, 2};
    config.steps = c.steps;
    config.fuse_depth = c.fuse_depth;
    config.priority_bias = c.bias;
    TaskGraph graph;
    const stencil::SolveSubgraph subgraph =
        stencil::add_solve_subgraph(graph, *c.problem, config);
    graph.seal(subgraph.nodes());
    const stencil::TileMap map(24, 24, 4, 4, 2, 2);
    std::map<int, int> levels;
    for (std::size_t i = 0; i < graph.size(); ++i) {
      const TaskSpec& spec = graph.spec(i);
      const int ti = spec.key.b;
      const int tj = spec.key.c;
      bool packs = false;
      for (const TaskGraph::ConsumerEdge& edge : graph.consumers(i)) {
        packs = packs || (edge.slot >= 1 && edge.slot <= 8);
      }
      const bool boundary = map.neighbor_remote(ti, tj, -1, 0) ||
                            map.neighbor_remote(ti, tj, 1, 0) ||
                            map.neighbor_remote(ti, tj, 0, -1) ||
                            map.neighbor_remote(ti, tj, 0, 1);
      const int level = packs ? 2 : boundary ? 1 : 0;
      ASSERT_EQ(spec.priority, c.bias + level) << spec.key.to_string();
      ++levels[level];
    }
    EXPECT_EQ(levels.size(), 3u);
  }
}

/// Channel decorator recording, in send order, the header of every route
/// handshake message (OPEN/ACK) a PersistentChannel puts on the wire.
class HandshakeRecorder final : public net::Channel {
 public:
  HandshakeRecorder(std::shared_ptr<net::Channel> inner,
                    std::vector<std::vector<std::uint64_t>>* log)
      : inner_(std::move(inner)), log_(log) {}

  int nranks() const override { return inner_->nranks(); }
  void send(net::Message msg) override {
    const auto& h = msg.header;
    if (h.size() >= 2 && h[0] == net::PersistentChannel::kMagic &&
        (h[1] == net::PersistentChannel::kOpen ||
         h[1] == net::PersistentChannel::kAck)) {
      log_->push_back(h);
    }
    inner_->send(std::move(msg));
  }
  std::optional<net::Message> recv(int rank) override {
    return inner_->recv(rank);
  }
  std::optional<net::Message> try_recv(int rank) override {
    return inner_->try_recv(rank);
  }
  std::size_t pending(int rank) const override {
    return inner_->pending(rank);
  }
  void close() override { inner_->close(); }
  bool closed() const override { return inner_->closed(); }
  net::TrafficStats stats() const override { return inner_->stats(); }
  bool lossless() const override { return inner_->lossless(); }

 private:
  std::shared_ptr<net::Channel> inner_;
  std::vector<std::vector<std::uint64_t>>* log_;
};

TEST(GraphTransformStencil, RouteHandshakeIsPinned) {
  // The runtime negotiates a graph's persistent routes in (consumer, input
  // position) order, which fixes the order of route ids inside each OPEN
  // message: the handshake's exact words are pinned for a CA and a fused
  // graph, so deriving the routes from the sealed graph another way must
  // keep that order.
  const std::map<std::string, std::string> pinned = {
      {"ca2/fuse1", "0xdfa3f9d827fc5861"},
      {"ca2/fuse2", "0x110b72b9e00585a1"},
  };
  const stencil::Problem problem = stencil::random_problem(96, 96, 8, 3);
  for (const int fuse : {1, 2}) {
    const std::string label = "ca2/fuse" + std::to_string(fuse);
    SCOPED_TRACE(label);
    stencil::DistConfig config;
    config.decomp = {12, 12, 2, 2};
    config.steps = 2;
    config.fuse_depth = fuse;
    config.persistent = true;
    TaskGraph graph;
    const stencil::SolveSubgraph subgraph =
        stencil::add_solve_subgraph(graph, problem, config);
    if (subgraph.fuse_window() > 1) {
      rt::fuse_supersteps(graph, subgraph.fuse_window());
    }
    std::vector<std::vector<std::uint64_t>> log;
    rt::Config rt_config{subgraph.nodes(), 1, true, false};
    rt_config.metrics = std::make_shared<obs::MetricsRegistry>();
    rt_config.channel_factory = net::persistent_channel_factory(
        [&log](int nranks) {
          return std::make_shared<HandshakeRecorder>(
              std::make_shared<net::Transport>(nranks), &log);
        },
        rt_config.metrics);
    rt::Runtime runtime(rt_config);
    runtime.run(graph);

    Fnv1a fnv;
    fnv.mix(log.size());
    for (const auto& header : log) {
      fnv.mix(header.size());
      for (const std::uint64_t word : header) fnv.mix(word);
    }
    const auto it = pinned.find(label);
    if (it == pinned.end()) {
      ADD_FAILURE() << "no pinned fingerprint; this handshake hashes to {\""
                    << label << "\", \"" << fnv.hex() << "\"}";
      continue;
    }
    EXPECT_EQ(it->second, fnv.hex());
  }
}

TEST(GraphTransformStencil, FusedGraphRunsTwiceOnOneResidentRuntime) {
  // A real fused stencil graph with persistent routes, run twice on one
  // runtime with one gather after each run: the first gather leaves a fresh
  // field for the second run, and both equal the serial reference exactly.
  const StencilCase c = stencil_case("star5", true);
  TaskGraph graph;
  const stencil::SolveSubgraph subgraph =
      stencil::add_solve_subgraph(graph, c.problem, c.config);
  rt::fuse_supersteps(graph, c.window());
  rt::Config config{subgraph.nodes(), 2, true, false};
  config.metrics = std::make_shared<obs::MetricsRegistry>();
  config.channel_factory = net::persistent_channel_factory({}, config.metrics);
  rt::Runtime runtime(config);
  const stencil::Grid2D expected = stencil::solve_serial(c.problem);
  runtime.run(graph);
  EXPECT_TRUE(test_support::grids_match(expected, subgraph.gather(runtime)));
  runtime.run(graph);
  EXPECT_TRUE(test_support::grids_match(expected, subgraph.gather(runtime)));
}

TEST(GraphTransformStencil, ClassicGraphsAreNotFuseReady) {
  // The classic per-step graph exchanges every superstep; mechanically
  // fusing it MUST be detected as a window-level cycle, not silently
  // miscompiled — this is the reason the builder emits a dedicated
  // fuse-ready shape when fuse_depth > 1.
  const stencil::Problem problem = stencil::random_problem(16, 16, 4, 3);
  stencil::DistConfig config;
  config.decomp = {8, 8, 1, 1};  // 2x2 tiles, all local: exchanges every step
  config.steps = 1;
  rt::TaskGraph graph;
  const stencil::SolveSubgraph subgraph =
      stencil::add_solve_subgraph(graph, problem, config);
  ASSERT_EQ(subgraph.fuse_window(), 1);
  EXPECT_THROW(rt::fuse_supersteps(graph, 2), rt::GraphTransformError);
}

TEST(GraphTransformStencil, FusedRunsMatchSerialBitForBit) {
  // End-to-end sanity here (the fuzz suites carry the heavy sweeps): fused
  // wavefronts across step sizes, schedulers and persistent channels equal
  // the serial reference exactly, and remote traffic matches the equivalent
  // single-superstep window (steps * fuse is all that matters on the wire).
  const stencil::Problem problem = stencil::random_problem(24, 28, 12, 11);
  const stencil::Grid2D expected = stencil::solve_serial(problem);

  stencil::DistConfig window_cfg;
  window_cfg.decomp = {6, 7, 2, 2};
  window_cfg.steps = 4;
  const auto window_run = stencil::run_distributed(problem, window_cfg);

  for (const int steps : {1, 2, 4}) {
    for (const bool persistent : {false, true}) {
      stencil::DistConfig config;
      config.decomp = {6, 7, 2, 2};
      config.steps = steps;
      config.fuse_depth = 4 / steps;
      config.workers_per_rank = 2;
      config.persistent = persistent;
      config.scheduler = persistent ? rt::SchedPolicy::WorkStealing
                                    : rt::SchedPolicy::PriorityFifo;
      SCOPED_TRACE(test_support::describe(config));
      const auto result = stencil::run_distributed(problem, config);
      EXPECT_TRUE(test_support::grids_match(expected, result.grid));
      if (!persistent) {
        // One exchange per window: same message count and bytes as the
        // plain CA run whose superstep equals the whole window.
        EXPECT_EQ(result.stats.messages, window_run.stats.messages);
        EXPECT_EQ(result.stats.bytes, window_run.stats.bytes);
      }
    }
  }
}

TEST(GraphTransformStencil, FusedRunValidationAndMetadata) {
  const stencil::Problem problem = stencil::random_problem(24, 24, 6, 5);
  {
    stencil::DistConfig config;
    config.decomp = {12, 12, 2, 2};
    config.fuse_depth = 0;
    EXPECT_THROW(stencil::run_distributed(problem, config),
                 std::invalid_argument);
  }
  {
    stencil::DistConfig config;
    config.decomp = {12, 12, 2, 2};
    config.fuse_depth = 2;
    config.kernel_ratio = 0.5;
    EXPECT_THROW(stencil::run_distributed(problem, config),
                 std::invalid_argument);
  }
  // Window exceeding the smallest tile extent is rejected up front, also
  // when its int product would wrap to 0 (65536 * 65536 = 2^32).
  for (const auto& [steps, fuse] : {std::pair{4, 2}, std::pair{65536, 65536}}) {
    stencil::DistConfig config;
    config.decomp = {6, 6, 2, 2};
    config.steps = steps;
    config.fuse_depth = fuse;
    EXPECT_THROW(stencil::run_distributed(problem, config),
                 std::invalid_argument)
        << "steps " << steps << " fuse " << fuse;
  }
  {
    // Fused tasks carry the fused<m>| klass tag.
    stencil::DistConfig config;
    config.decomp = {12, 12, 2, 2};
    config.steps = 3;
    config.fuse_depth = 2;
    config.trace = true;
    const auto result = stencil::run_distributed(problem, config);
    EXPECT_TRUE(test_support::grids_match(stencil::solve_serial(problem),
                                          result.grid));
    // Trace events only exist when observability is compiled in.
    if constexpr (obs::kEnabled) {
      bool saw_fused_klass = false;
      for (const auto& event : result.trace_events) {
        saw_fused_klass |= event.klass.rfind("fused", 0) == 0;
      }
      EXPECT_TRUE(saw_fused_klass);
    }
  }
}

}  // namespace
}  // namespace repro
