#include "runtime/graph_transform.hpp"

#include <algorithm>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "runtime/runtime.hpp"

namespace repro::rt {

namespace {

constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();
/// One past the highest slot id: remapped slots are handed out below it.
constexpr std::uint32_t kSlotSpace =
    std::uint32_t{std::numeric_limits<std::uint16_t>::max()} + 1;

/// How one member input resolves inside the fused body.
struct InputSrc {
  bool internal = false;
  /// external: fused-task input index; internal: staging index.
  std::uint32_t index = 0;
  std::uint32_t producer_ordinal = 0;  ///< internal: producing member
};

/// Where one consumed member output goes. Slots without an entry are
/// unconsumed: dropped for earlier members, re-published as-is by the last.
struct Publish {
  std::uint16_t slot = 0;
  bool exported = false;         ///< consumed outside the window
  std::uint16_t outer_slot = 0;  ///< fused-task slot when exported
  std::uint32_t stage = kNone;   ///< staging index when a later member reads it
  std::uint32_t last_reader = kNone;  ///< highest in-window reading ordinal
};

/// One member: its spec and its slices of the plan's flat arrays.
struct MemberPlan {
  std::uint32_t spec = 0;  ///< index into FusedPlan::specs
  std::uint32_t inputs_begin = 0, inputs_end = 0;
  std::uint32_t publishes_begin = 0, publishes_end = 0;
  /// Staging entries whose last in-window reader this member is; freed right
  /// after it runs so staging stays bounded at the live wavefront.
  std::uint32_t releases_begin = 0, releases_end = 0;
};

/// One fused task: a slice of the plan's members, in chain order.
struct WindowPlan {
  std::uint32_t members_begin = 0, members_end = 0;
  std::uint32_t staged = 0;  ///< staging table size
  /// Lowest slot id given to an earlier member's export (kSlotSpace: none).
  /// The last member's unconsumed publishes keep their ids, so they must
  /// stay below it.
  std::uint32_t remap_floor = kSlotSpace;
};

/// Everything the fused bodies of one rewrite run from, owned by the graph
/// (TaskGraph::retain) and immutable once built: the input graph's specs,
/// moved out whole (members stay in place, nothing is copied), and every
/// window's flat arrays.
struct FusedPlan {
  std::vector<TaskSpec> specs;
  std::vector<WindowPlan> windows;
  std::vector<MemberPlan> members;
  std::vector<InputSrc> inputs;
  std::vector<Publish> publishes;  ///< by input task index, then slot
  std::vector<std::uint32_t> releases;  ///< staging indices
};

/// Shim context for one member of a fused task: inputs resolve either to the
/// outer (fused) task's delivered flows or to the in-task staging table;
/// publishes are routed per the precomputed disposition.
class FusedMemberContext final : public TaskContext {
 public:
  FusedMemberContext(TaskContext& outer, const FusedPlan& plan,
                     const WindowPlan& window, std::uint32_t member,
                     std::vector<Buffer>& staging)
      : outer_(outer),
        plan_(plan),
        window_(window),
        member_(plan.members[member]),
        last_(member + 1 == window.members_end),
        staging_(staging) {}

  const TaskSpec& spec() const override { return plan_.specs[member_.spec]; }
  int rank() const override { return outer_.rank(); }
  int worker() const override { return outer_.worker(); }

  Buffer input_buffer(std::size_t i) const override {
    if (i >= num_inputs()) {
      throw std::out_of_range("fused member: input index " +
                              std::to_string(i) + " out of range for " +
                              key().to_string());
    }
    const InputSrc& src = plan_.inputs[member_.inputs_begin + i];
    if (!src.internal) return outer_.input_buffer(src.index);
    const Buffer& staged = staging_[src.index];
    if (!staged) {
      throw std::logic_error("fused member: staged input " +
                             std::to_string(i) + " of " + key().to_string() +
                             " not published by member " +
                             std::to_string(src.producer_ordinal));
    }
    return staged;
  }

  std::size_t num_inputs() const override {
    return member_.inputs_end - member_.inputs_begin;
  }

  using TaskContext::publish;
  void publish(std::uint16_t slot, Buffer buffer) override {
    if (!buffer) throw std::invalid_argument("publish: null buffer");
    const Publish* d = find(slot);
    if (d == nullptr) {
      // Unconsumed output: the last member's results must stay readable via
      // Runtime::result(), intermediates evaporate with the window.
      if (!last_) return;
      if (slot >= window_.remap_floor) {
        throw std::logic_error(
            "fused window " + outer_.key().to_string() +
            ": last member publishes unconsumed slot " + std::to_string(slot) +
            ", an id the rewrite gave to an earlier member's export");
      }
      outer_.publish(slot, std::move(buffer));
      return;
    }
    if (d->stage != kNone) staging_[d->stage] = buffer;
    if (d->exported) outer_.publish(d->outer_slot, std::move(buffer));
  }

  std::shared_ptr<std::vector<double>> acquire_route_buffer(
      std::uint16_t slot) override {
    // A slot with in-window readers must go through staging, so the
    // early-bird path is only offered for purely-exported slots; callers
    // fall back to classic publish() on nullptr by contract.
    const Publish* d = find(slot);
    if (d == nullptr || !d->exported || d->stage != kNone) return nullptr;
    return outer_.acquire_route_buffer(d->outer_slot);
  }

  void publish_fragments(
      std::uint16_t slot, std::shared_ptr<std::vector<double>> data) override {
    if (!data) throw std::invalid_argument("publish_fragments: null buffer");
    const Publish* d = find(slot);
    if (d != nullptr && d->exported && d->stage == kNone) {
      outer_.publish_fragments(d->outer_slot, std::move(data));
      return;
    }
    publish(slot, Buffer(std::move(data)));
  }

 private:
  const Publish* find(std::uint16_t slot) const {
    for (std::uint32_t p = member_.publishes_begin; p < member_.publishes_end;
         ++p) {
      if (plan_.publishes[p].slot == slot) return &plan_.publishes[p];
    }
    return nullptr;
  }

  TaskContext& outer_;
  const FusedPlan& plan_;
  const WindowPlan& window_;
  const MemberPlan& member_;
  bool last_;
  std::vector<Buffer>& staging_;
};

void run_fused(const FusedPlan& plan, std::uint32_t w, TaskContext& outer) {
  const WindowPlan& window = plan.windows[w];
  // Per invocation, so a graph can be run more than once.
  std::vector<Buffer> staging(window.staged);
  for (std::uint32_t m = window.members_begin; m < window.members_end; ++m) {
    FusedMemberContext context(outer, plan, window, m, staging);
    const MemberPlan& member = plan.members[m];
    plan.specs[member.spec].body(context);
    for (std::uint32_t r = member.releases_begin; r < member.releases_end;
         ++r) {
      staging[plan.releases[r]].reset();
    }
  }
}

/// One chained task, for grouping every chain with a single sort.
struct ChainEntry {
  std::uint64_t chain = 0;
  std::int32_t step = 0;
  std::uint32_t index = 0;
};

/// A windowed member's output consumed outside its window (reader == kNone)
/// or by a later member of its own window (reader = that member's ordinal).
struct Use {
  std::uint32_t task = 0;
  std::uint16_t slot = 0;
  std::uint32_t reader = kNone;
};

}  // namespace

FuseReport fuse_supersteps(TaskGraph& graph, int k) {
  if (k < 1) {
    throw std::invalid_argument("fuse_supersteps: k must be >= 1, got " +
                                std::to_string(k));
  }
  FuseReport report;
  report.depth = k;
  report.tasks_before = graph.size();
  report.tasks_after = graph.size();
  if (graph.sealed()) {
    throw GraphTransformError(
        "fuse_supersteps: graph is sealed; fuse before handing it to run()");
  }

  // Task indices are 32-bit throughout, as TaskGraph::seal requires.
  const auto n = static_cast<std::uint32_t>(graph.size());
  std::vector<ChainEntry> entries;
  for (std::uint32_t i = 0; i < n; ++i) {
    const TaskSpec& spec = graph.spec(i);
    if (spec.chain != 0) entries.push_back({spec.chain, spec.chain_step, i});
  }
  // Equal (chain, chain_step) pairs keep index order; they are rejected
  // below, naming the first such pair.
  std::sort(entries.begin(), entries.end(),
            [](const ChainEntry& a, const ChainEntry& b) {
              if (a.chain != b.chain) return a.chain < b.chain;
              if (a.step != b.step) return a.step < b.step;
              return a.index < b.index;
            });
  for (std::size_t e = 0; e < entries.size(); ++e) {
    report.chains += e == 0 || entries[e].chain != entries[e - 1].chain;
  }
  if (k == 1 || entries.empty()) return report;  // exact no-op

  // --- window assignment -------------------------------------------------
  // rep[i]: the task i lands in (its window's last member; itself outside a
  // multi-member window). window_of[i]: i's window when it has >= 2 members.
  auto plan = std::make_shared<FusedPlan>();
  std::vector<std::uint32_t> rep(n);
  std::vector<std::uint32_t> ordinal(n, 0);
  std::vector<std::uint32_t> window_of(n, kNone);
  for (std::uint32_t i = 0; i < n; ++i) rep[i] = i;

  const auto width = static_cast<std::size_t>(k);
  for (std::size_t begin = 0; begin < entries.size();) {
    std::size_t end = begin + 1;
    while (end < entries.size() && entries[end].chain == entries[begin].chain) {
      ++end;
    }
    for (std::size_t m = begin + 1; m < end; ++m) {
      if (entries[m].step == entries[m - 1].step) {
        throw GraphTransformError(
            "fuse_supersteps: chain " + std::to_string(entries[m].chain) +
            " has duplicate chain_step " + std::to_string(entries[m].step) +
            " (" + graph.spec(entries[m].index).key.to_string() + " vs " +
            graph.spec(entries[m - 1].index).key.to_string() + ")");
      }
    }
    for (std::size_t first = begin; first < end; first += width) {
      const std::size_t stop = std::min(first + width, end);
      const std::uint32_t last = entries[stop - 1].index;
      const TaskSpec& ls = graph.spec(last);
      for (std::size_t m = first; m < stop; ++m) {
        const TaskSpec& ms = graph.spec(entries[m].index);
        if (ms.rank != ls.rank || ms.lane != ls.lane) {
          throw GraphTransformError(
              "fuse_supersteps: window members " + ms.key.to_string() +
              " and " + ls.key.to_string() +
              " disagree on rank/lane; a fused task runs on one rank");
        }
        rep[entries[m].index] = last;
        ordinal[entries[m].index] = static_cast<std::uint32_t>(m - first);
      }
      if (stop - first < 2) continue;
      WindowPlan window;
      window.members_begin = static_cast<std::uint32_t>(plan->members.size());
      for (std::size_t m = first; m < stop; ++m) {
        window_of[entries[m].index] =
            static_cast<std::uint32_t>(plan->windows.size());
        plan->members.push_back({entries[m].index});
      }
      window.members_end = static_cast<std::uint32_t>(plan->members.size());
      plan->windows.push_back(window);
    }
    begin = end;
  }
  const auto nwindows = static_cast<std::uint32_t>(plan->windows.size());
  if (nwindows == 0) return report;  // every window degenerated to one task

  // --- edge scan: one producer lookup per flow, legality, uses ------------
  // Flow j of task i is flow in_begin[i] + j. A dangling producer (kNone)
  // passes through untouched; reporting it is seal()'s job.
  std::vector<std::uint32_t> in_begin(n + 1, 0);
  std::vector<std::uint32_t> producer;
  std::vector<Use> uses;
  // Window-level edges between representatives.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> cross;
  std::uint32_t referenced_end = 0;  // 1 + the highest slot any flow reads
  for (std::uint32_t ci = 0; ci < n; ++ci) {
    const TaskSpec& consumer = graph.spec(ci);
    in_begin[ci] = static_cast<std::uint32_t>(producer.size());
    for (const FlowRef& flow : consumer.inputs) {
      referenced_end = std::max(referenced_end, std::uint32_t{flow.slot} + 1);
      const std::size_t found = graph.find(flow.producer);
      const std::uint32_t pi = found == TaskGraph::npos
                                   ? kNone
                                   : static_cast<std::uint32_t>(found);
      producer.push_back(pi);
      if (pi == kNone) continue;
      const bool windowed = window_of[pi] != kNone;
      if (rep[pi] == rep[ci] && windowed) {
        // Intra-window edge: must point forward along the chain, otherwise
        // fusing would invert it (the staged read would precede its write).
        if (ordinal[pi] >= ordinal[ci]) {
          throw GraphTransformError(
              "fuse_supersteps: fusing k=" + std::to_string(k) +
              " would invert edge " + flow.producer.to_string() + " -> " +
              consumer.key.to_string() + " inside one window");
        }
        uses.push_back({pi, flow.slot, ordinal[ci]});
      } else if (rep[pi] != rep[ci]) {
        cross.emplace_back(rep[pi], rep[ci]);
        if (windowed) uses.push_back({pi, flow.slot, kNone});
      }
      // Same representative without a window is a self-edge on a
      // singleton; seal() rejects those, so pass them through untouched.
    }
  }
  in_begin[n] = static_cast<std::uint32_t>(producer.size());

  // Kahn over the window-level graph in CSR form (absorbed members are
  // isolated nodes): fusing a graph whose chains exchange inside the window
  // creates a group cycle — reject it rather than hand the runtime a
  // deadlock.
  {
    std::vector<std::uint32_t> adj_begin(n + 1, 0);
    std::vector<std::uint32_t> indegree(n, 0);
    for (const auto& [from, to] : cross) {
      ++adj_begin[from + 1];
      ++indegree[to];
    }
    for (std::uint32_t v = 0; v < n; ++v) adj_begin[v + 1] += adj_begin[v];
    std::vector<std::uint32_t> adj(cross.size());
    std::vector<std::uint32_t> fill(adj_begin.begin(), adj_begin.end() - 1);
    for (const auto& [from, to] : cross) adj[fill[from]++] = to;
    std::vector<std::uint32_t> ready;
    for (std::uint32_t v = 0; v < n; ++v) {
      if (indegree[v] == 0) ready.push_back(v);
    }
    std::uint32_t processed = 0;
    while (!ready.empty()) {
      const std::uint32_t v = ready.back();
      ready.pop_back();
      ++processed;
      for (std::uint32_t a = adj_begin[v]; a < adj_begin[v + 1]; ++a) {
        if (--indegree[adj[a]] == 0) ready.push_back(adj[a]);
      }
    }
    if (processed != n) {
      throw GraphTransformError(
          "fuse_supersteps: fusing k=" + std::to_string(k) +
          " creates a dependence cycle between fused windows; the graph is "
          "not fuse-ready at this depth (cross-chain edges must only cross "
          "window boundaries)");
    }
  }

  // --- facts: every use merged into one (task, slot)-sorted array ---------
  // Counting sort by task, then by slot within each task's few uses; task
  // i's facts are facts[fact_begin[i], fact_begin[i + 1]), and they become
  // the plan's publish table once staging indices are assigned.
  std::vector<std::uint32_t> fact_begin(n + 1, 0);
  for (const Use& use : uses) ++fact_begin[use.task + 1];
  for (std::uint32_t i = 0; i < n; ++i) fact_begin[i + 1] += fact_begin[i];
  std::vector<Use> sorted(uses.size());
  {
    std::vector<std::uint32_t> fill(fact_begin.begin(), fact_begin.end() - 1);
    for (const Use& use : uses) sorted[fill[use.task]++] = use;
  }
  std::vector<Publish>& facts = plan->publishes;
  facts.reserve(sorted.size());
  for (std::uint32_t i = 0, read = 0; i < n; ++i) {
    const std::uint32_t end = fact_begin[i + 1];
    fact_begin[i] = static_cast<std::uint32_t>(facts.size());
    std::sort(sorted.begin() + read, sorted.begin() + end,
              [](const Use& a, const Use& b) { return a.slot < b.slot; });
    for (; read < end; ++read) {
      const Use& use = sorted[read];
      if (facts.size() == fact_begin[i] || facts.back().slot != use.slot) {
        facts.push_back({});
        facts.back().slot = use.slot;
      }
      Publish& fact = facts.back();
      if (use.reader == kNone) {
        fact.exported = true;
      } else if (fact.last_reader == kNone || use.reader > fact.last_reader) {
        fact.last_reader = use.reader;
      }
    }
  }
  fact_begin[n] = static_cast<std::uint32_t>(facts.size());
  const auto fact_of = [&](std::uint32_t task,
                           std::uint16_t slot) -> Publish& {
    std::uint32_t f = fact_begin[task];
    while (facts[f].slot != slot) ++f;
    return facts[f];
  };

  // --- slot remapping -----------------------------------------------------
  // The last member's exported slots keep their numbers (downstream lookups
  // and persistent routes target them); earlier members' exported slots get
  // ids handed out downward from the top of the slot space, which must stay
  // above every slot any flow of the input graph reads.
  std::vector<TaskKey> window_key(nwindows);
  for (std::uint32_t w = 0; w < nwindows; ++w) {
    WindowPlan& window = plan->windows[w];
    const std::uint32_t last = plan->members[window.members_end - 1].spec;
    window_key[w] = graph.spec(last).key;
    std::uint32_t next = kSlotSpace;
    for (std::uint32_t m = window.members_begin; m < window.members_end; ++m) {
      const std::uint32_t member = plan->members[m].spec;
      for (std::uint32_t f = fact_begin[member]; f < fact_begin[member + 1];
           ++f) {
        if (!facts[f].exported) continue;
        if (member == last) {
          facts[f].outer_slot = facts[f].slot;
          continue;
        }
        if (next <= referenced_end) {
          throw GraphTransformError(
              "fuse_supersteps: slot id space exhausted remapping window " +
              window_key[w].to_string());
        }
        facts[f].outer_slot = static_cast<std::uint16_t>(--next);
      }
    }
    window.remap_floor = next;
  }

  // A flow's producer and slot as seen from outside the producer's window.
  const auto remap = [&](FlowRef& flow, std::uint32_t pi) {
    if (pi == kNone || window_of[pi] == kNone) return;
    flow.producer = window_key[window_of[pi]];
    flow.slot = fact_of(pi, flow.slot).outer_slot;
  };

  // --- per-window plans (still read-only on the graph) --------------------
  plan->inputs.reserve(producer.size());
  std::vector<TaskSpec> fused(nwindows);
  std::vector<FlowRef> external;  // one window's deduped inputs, reused
  // The graph retains the plan below; a window body is a pointer and an index.
  const FusedPlan* const retained = plan.get();
  for (std::uint32_t w = 0; w < nwindows; ++w) {
    WindowPlan& window = plan->windows[w];
    const std::uint32_t count = window.members_end - window.members_begin;
    const TaskSpec& last_spec =
        graph.spec(plan->members[window.members_end - 1].spec);
    TaskSpec& spec = fused[w];
    spec.key = last_spec.key;
    spec.rank = last_spec.rank;
    spec.lane = last_spec.lane;
    spec.chain = last_spec.chain;
    spec.chain_step = last_spec.chain_step;
    spec.klass = "fused" + std::to_string(count) + "|" + last_spec.klass;
    external.clear();

    for (std::uint32_t o = 0; o < count; ++o) {
      MemberPlan& member = plan->members[window.members_begin + o];
      const std::uint32_t m = member.spec;
      const TaskSpec& ms = graph.spec(m);
      spec.priority = std::max(spec.priority, ms.priority);

      // Outputs first: this member's staging indices exist before any later
      // member resolves an input against them.
      member.publishes_begin = fact_begin[m];
      member.publishes_end = fact_begin[m + 1];
      for (std::uint32_t f = fact_begin[m]; f < fact_begin[m + 1]; ++f) {
        if (facts[f].last_reader != kNone) facts[f].stage = window.staged++;
      }

      member.inputs_begin = static_cast<std::uint32_t>(plan->inputs.size());
      member.releases_begin = static_cast<std::uint32_t>(plan->releases.size());
      for (std::uint32_t j = 0; j < ms.inputs.size(); ++j) {
        const std::uint32_t pi = producer[in_begin[m] + j];
        InputSrc src;
        if (pi != kNone && rep[pi] == rep[m]) {
          const Publish& fact = fact_of(pi, ms.inputs[j].slot);
          src.internal = true;
          src.index = fact.stage;
          src.producer_ordinal = ordinal[pi];
          const auto released = plan->releases.begin() + member.releases_begin;
          if (fact.last_reader == o &&
              std::find(released, plan->releases.end(), fact.stage) ==
                  plan->releases.end()) {
            plan->releases.push_back(fact.stage);
          }
        } else {
          // Dedup external inputs on the remapped (producer, slot): members
          // that shared an upstream payload now receive it once — this is
          // where the message count drops from once-per-step to
          // once-per-window. A window has a handful of external inputs.
          FlowRef flow = ms.inputs[j];
          remap(flow, pi);
          std::uint32_t pos = 0;
          while (pos < external.size() &&
                 !(external[pos].producer == flow.producer &&
                   external[pos].slot == flow.slot)) {
            ++pos;
          }
          if (pos == external.size()) external.push_back(flow);
          src.index = pos;
        }
        plan->inputs.push_back(src);
      }
      member.inputs_end = static_cast<std::uint32_t>(plan->inputs.size());
      member.releases_end = static_cast<std::uint32_t>(plan->releases.size());
    }
    if (external.size() > std::numeric_limits<std::uint16_t>::max()) {
      throw std::invalid_argument("TaskGraph: too many inputs");
    }
    spec.inputs.assign(external.begin(), external.end());
    spec.body = [retained, w](TaskContext& outer) {
      run_fused(*retained, w, outer);
    };
  }

  // --- rebuild: nothing below throws, so only now do specs move -----------
  // Window members stay where they are in plan->specs; every task that
  // survives unfused moves on into the rebuilt graph.
  graph.retain(plan);
  plan->specs = graph.take_specs();
  // Exactly the tasks added below: each window's members become one task.
  graph.reserve(n - plan->members.size() + nwindows);
  for (std::uint32_t i = 0; i < n; ++i) {
    if (rep[i] != i) continue;  // absorbed into its window's last member
    const std::uint32_t w = window_of[i];
    if (w == kNone) {
      TaskSpec& spec = plan->specs[i];
      for (std::uint32_t j = 0; j < spec.inputs.size(); ++j) {
        remap(spec.inputs[j], producer[in_begin[i] + j]);
      }
      graph.add_task(std::move(spec));
      continue;
    }
    graph.add_task(std::move(fused[w]));
    ++report.fused_tasks;
    report.fused_members +=
        plan->windows[w].members_end - plan->windows[w].members_begin;
  }
  report.tasks_after = graph.size();
  return report;
}

}  // namespace repro::rt
