#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <string>
#include <vector>

#include "runtime/runtime.hpp"
#include "support/rng.hpp"

namespace repro::rt {
namespace {

TaskKey key(std::uint32_t type, int a = 0, int b = 0, int c = 0) {
  return TaskKey{type, a, b, c};
}

TEST(TaskKey, EqualityAndHashing) {
  EXPECT_EQ(key(1, 2, 3, 4), key(1, 2, 3, 4));
  EXPECT_NE(key(1, 2, 3, 4), key(1, 2, 3, 5));
  TaskKeyHash hash;
  EXPECT_EQ(hash(key(1, 2, 3, 4)), hash(key(1, 2, 3, 4)));
  EXPECT_NE(hash(key(1, 2, 3, 4)), hash(key(2, 2, 3, 4)));
}

TEST(TaskGraph, RejectsDuplicateKeysAndMissingProducers) {
  TaskGraph graph;
  TaskSpec a;
  a.key = key(1);
  a.body = [](TaskContext&) {};
  graph.add_task(a);
  EXPECT_THROW(graph.add_task(a), std::invalid_argument);

  TaskSpec b;
  b.key = key(2);
  b.inputs = {{key(99), 0}};
  b.body = [](TaskContext&) {};
  graph.add_task(b);
  EXPECT_THROW(graph.seal(1), std::runtime_error);
}

TEST(TaskGraph, RejectsCycles) {
  TaskGraph graph;
  TaskSpec a;
  a.key = key(1);
  a.inputs = {{key(2), 0}};
  a.body = [](TaskContext&) {};
  TaskSpec b;
  b.key = key(2);
  b.inputs = {{key(1), 0}};
  b.body = [](TaskContext&) {};
  graph.add_task(a);
  graph.add_task(b);
  EXPECT_THROW(graph.seal(1), std::runtime_error);
}

TEST(TaskGraph, RejectsSelfLoopAndBadRank) {
  {
    TaskGraph graph;
    TaskSpec a;
    a.key = key(1);
    a.inputs = {{key(1), 0}};
    a.body = [](TaskContext&) {};
    graph.add_task(a);
    EXPECT_THROW(graph.seal(1), std::runtime_error);
  }
  {
    TaskGraph graph;
    TaskSpec a;
    a.key = key(1);
    a.rank = 3;
    a.body = [](TaskContext&) {};
    graph.add_task(a);
    EXPECT_THROW(graph.seal(2), std::runtime_error);
  }
}

TEST(TaskGraph, ConsumerEdgesAndFanout) {
  TaskGraph graph;
  TaskSpec producer;
  producer.key = key(1);
  producer.body = [](TaskContext& ctx) { ctx.publish(0, {1.0}); };
  graph.add_task(producer);
  for (int i = 0; i < 3; ++i) {
    TaskSpec consumer;
    consumer.key = key(2, i);
    consumer.inputs = {{key(1), 0}};
    consumer.body = [](TaskContext&) {};
    graph.add_task(consumer);
  }
  graph.seal(1);
  EXPECT_EQ(graph.consumers(graph.index_of(key(1))).size(), 3u);
  EXPECT_EQ(graph.slot_fanout(graph.index_of(key(1)), 0), 3u);
  EXPECT_EQ(graph.slot_fanout(graph.index_of(key(1)), 1), 0u);
}

TEST(TaskGraph, FindReturnsIndexOrNpos) {
  TaskGraph graph;
  for (int i = 0; i < 3; ++i) {
    TaskSpec spec;
    spec.key = key(7, i);
    spec.body = [](TaskContext&) {};
    graph.add_task(spec);
  }
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(graph.find(key(7, i)), static_cast<std::size_t>(i));
    EXPECT_EQ(graph.find(key(7, i)), graph.index_of(key(7, i)));
  }
  EXPECT_EQ(graph.find(key(7, 3)), TaskGraph::npos);
  EXPECT_FALSE(graph.contains(key(7, 3)));
  EXPECT_THROW(graph.index_of(key(7, 3)), std::out_of_range);
}

TEST(TaskGraph, TakeSpecsEmptiesTheGraphForARebuild) {
  TaskGraph graph;
  TaskSpec source;
  source.key = key(1);
  source.klass = "source";
  source.body = [](TaskContext& ctx) { ctx.publish(0, {2.0}); };
  graph.add_task(source);
  TaskSpec sink;
  sink.key = key(2);
  sink.inputs = {{key(1), 0}};
  sink.body = [](TaskContext& ctx) {
    ctx.publish(0, {ctx.input(0)[0] * 3.0});
  };
  graph.add_task(sink);

  std::vector<TaskSpec> specs = graph.take_specs();
  ASSERT_EQ(specs.size(), 2u);
  EXPECT_EQ(specs[0].key, key(1));
  EXPECT_EQ(specs[0].klass, "source");
  EXPECT_EQ(specs[1].key, key(2));
  ASSERT_EQ(specs[1].inputs.size(), 1u);
  EXPECT_EQ(specs[1].inputs[0].producer, key(1));
  EXPECT_TRUE(specs[0].body && specs[1].body);
  EXPECT_EQ(graph.size(), 0u);
  EXPECT_FALSE(graph.sealed());
  EXPECT_EQ(graph.find(key(1)), TaskGraph::npos);

  // Refill in reverse order: the same keys are free again, indices follow
  // the new insertion order, and the moved bodies still run.
  graph.add_task(std::move(specs[1]));
  graph.add_task(std::move(specs[0]));
  EXPECT_EQ(graph.find(key(2)), 0u);
  EXPECT_EQ(graph.find(key(1)), 1u);
  Runtime runtime(Config{1, 1, true, false});
  runtime.run(graph);
  EXPECT_EQ(*runtime.result(key(2), 0), std::vector<double>{6.0});
  EXPECT_THROW(graph.take_specs(), std::logic_error);
}

/// A task with no inputs and an empty body, for key-index tests.
TaskSpec bare_task(const TaskKey& k) {
  TaskSpec spec;
  spec.key = k;
  spec.body = [](TaskContext&) {};
  return spec;
}

TEST(TaskGraph, RetainedContextsLiveAsLongAsTheGraph) {
  // Bodies may point into a retained context; take_specs() hands the bodies
  // to a rewrite pass, so the context must stay with the graph.
  auto context = std::make_shared<const int>(7);
  const std::weak_ptr<const int> watch = context;
  {
    TaskGraph graph;
    graph.retain(std::move(context));
    graph.add_task(bare_task(key(1)));
    std::vector<TaskSpec> specs = graph.take_specs();
    EXPECT_FALSE(watch.expired());
    graph.add_task(std::move(specs[0]));
    graph.seal(1);
    EXPECT_FALSE(watch.expired());
  }
  EXPECT_TRUE(watch.expired());
}

TEST(TaskGraph, HundredThousandKeysStayFindableAcrossRehashes) {
  // Spread over every key field, negatives included. Right after each
  // power-of-two size (where the index has just grown) every key added so
  // far must still resolve to its insertion index.
  const auto key_of = [](int i) {
    return key(static_cast<std::uint32_t>(i % 7), i / 7 % 100, i / 700, -i);
  };
  constexpr int kTasks = 100000;
  TaskGraph graph;
  for (int i = 0; i < kTasks; ++i) {
    graph.add_task(bare_task(key_of(i)));
    if ((i & (i + 1)) == 0) {
      for (int j = 0; j <= i; ++j) {
        ASSERT_EQ(graph.find(key_of(j)), static_cast<std::size_t>(j));
      }
    }
  }
  ASSERT_EQ(graph.size(), static_cast<std::size_t>(kTasks));
  for (int j = 0; j < kTasks; ++j) {
    ASSERT_EQ(graph.index_of(key_of(j)), static_cast<std::size_t>(j));
  }
  EXPECT_FALSE(graph.contains(key(7, 0, 0, 0)));
  EXPECT_FALSE(graph.contains(key(0, 0, 0, 1)));
  EXPECT_NO_THROW(graph.seal(1));
}

TEST(TaskGraph, KeysSharingOneProbeChainStayDistinct) {
  // Keys whose hashes agree in their low 16 bits share the home position of
  // any index up to 65536 positions, so they all sit in one probe chain.
  const TaskKeyHash hash;
  const std::size_t home = hash(key(5)) & 0xffffu;
  std::vector<TaskKey> chain;
  int a = 0;
  for (; chain.size() < 12; ++a) {
    if ((hash(key(5, a)) & 0xffffu) == home) chain.push_back(key(5, a));
  }
  TaskKey absent;
  for (;; ++a) {
    if ((hash(key(5, a)) & 0xffffu) == home) {
      absent = key(5, a);
      break;
    }
  }

  TaskGraph graph;
  for (const TaskKey& k : chain) graph.add_task(bare_task(k));
  for (std::size_t i = 0; i < chain.size(); ++i) {
    EXPECT_EQ(graph.find(chain[i]), i);
  }
  EXPECT_EQ(graph.find(absent), TaskGraph::npos);
  EXPECT_THROW(graph.add_task(bare_task(chain[6])), std::invalid_argument);
  EXPECT_THROW(graph.add_task(bare_task(chain.back())), std::invalid_argument);
  EXPECT_EQ(graph.size(), chain.size());

  // Refilled in reverse, the same chain resolves to the new indices.
  std::vector<TaskSpec> specs = graph.take_specs();
  for (const TaskKey& k : chain) EXPECT_FALSE(graph.contains(k));
  for (auto it = specs.rbegin(); it != specs.rend(); ++it) {
    graph.add_task(std::move(*it));
  }
  for (std::size_t i = 0; i < chain.size(); ++i) {
    EXPECT_EQ(graph.find(chain[i]), chain.size() - 1 - i);
  }
  EXPECT_EQ(graph.find(absent), TaskGraph::npos);
}

TEST(TaskGraph, DuplicateIsRejectedAfterRehash) {
  TaskGraph graph;
  for (int i = 0; i < 1000; ++i) graph.add_task(bare_task(key(3, i)));
  for (const int i : {0, 1, 511, 999}) {
    EXPECT_THROW(graph.add_task(bare_task(key(3, i))), std::invalid_argument);
  }
  EXPECT_EQ(graph.size(), 1000u);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(graph.find(key(3, i)), static_cast<std::size_t>(i));
  }
}

TEST(TaskGraph, FindAndAddTaskWorkAfterTakeSpecs) {
  TaskGraph graph;
  for (int i = 0; i < 5000; ++i) graph.add_task(bare_task(key(4, i)));
  std::vector<TaskSpec> specs = graph.take_specs();
  ASSERT_EQ(specs.size(), 5000u);
  for (int i = 0; i < 5000; ++i) EXPECT_FALSE(graph.contains(key(4, i)));

  // Keep the odd keys, add new ones in between: indices follow the refill.
  std::size_t next = 0;
  for (int i = 1; i < 5000; i += 2) {
    graph.add_task(std::move(specs[static_cast<std::size_t>(i)]));
    graph.add_task(bare_task(key(6, i)));
    EXPECT_EQ(graph.find(key(4, i)), next);
    EXPECT_EQ(graph.find(key(6, i)), next + 1);
    next += 2;
  }
  EXPECT_EQ(graph.find(key(4, 0)), TaskGraph::npos);
  EXPECT_THROW(graph.add_task(bare_task(key(4, 1))), std::invalid_argument);
  EXPECT_NO_THROW(graph.add_task(bare_task(key(4, 0))));
  EXPECT_EQ(graph.size(), 5001u);
  EXPECT_NO_THROW(graph.seal(1));
}

/// Stage i of a counting chain: task 0 publishes {0}, every later task adds
/// one to its predecessor's value.
TaskSpec chain_task(int i) {
  TaskSpec spec;
  spec.key = key(3, i);
  if (i == 0) {
    spec.body = [](TaskContext& ctx) { ctx.publish(0, {0.0}); };
  } else {
    spec.inputs = {{key(3, i - 1), 0}};
    spec.body = [](TaskContext& ctx) {
      ctx.publish(0, {ctx.input(0)[0] + 1.0});
    };
  }
  return spec;
}

/// Seal `graph` (one rank) and return the error message, or "" on success.
std::string seal_error(TaskGraph& graph) {
  try {
    graph.seal(1);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(TaskGraph, ReserveBelowAtAndAboveTheFinalCount) {
  constexpr int kTasks = 1000;
  for (const std::size_t reserved :
       {std::size_t{0}, std::size_t{kTasks / 3}, std::size_t{kTasks},
        std::size_t{3 * kTasks}}) {
    SCOPED_TRACE("reserved " + std::to_string(reserved));
    TaskGraph graph;
    graph.reserve(reserved);
    const TaskSpec* first = nullptr;
    for (int i = 0; i < kTasks; ++i) {
      graph.add_task(chain_task(i));
      if (i == 0) first = &graph.spec(0);
      // Within the reservation the specs never move.
      if (static_cast<std::size_t>(i) < reserved) {
        ASSERT_EQ(&graph.spec(0), first);
      }
    }
    // A reservation below the current size changes nothing.
    graph.reserve(kTasks / 2);
    ASSERT_EQ(graph.size(), static_cast<std::size_t>(kTasks));
    for (int i = 0; i < kTasks; ++i) {
      ASSERT_EQ(graph.find(key(3, i)), static_cast<std::size_t>(i));
    }
    EXPECT_FALSE(graph.contains(key(3, kTasks)));
    graph.seal(1);
    for (int i = 0; i + 1 < kTasks; ++i) {
      const auto edges = graph.consumers(static_cast<std::size_t>(i));
      ASSERT_EQ(edges.size(), 1u);
      EXPECT_EQ(edges[0].consumer, static_cast<std::uint32_t>(i + 1));
      EXPECT_EQ(edges[0].slot, 0);
      EXPECT_EQ(edges[0].input_pos, 0);
    }
    EXPECT_TRUE(graph.consumers(kTasks - 1).empty());
    EXPECT_THROW(graph.reserve(2 * kTasks), std::logic_error);
    Runtime runtime(Config{1, 1, true, false});
    runtime.run(graph);
    EXPECT_EQ(*runtime.result(key(3, kTasks - 1), 0),
              std::vector<double>{kTasks - 1.0});
  }
}

TEST(TaskGraph, ReservedGraphRebuiltThroughTakeSpecs) {
  // The rewrite path: take every spec out of a reserved graph, reserve the
  // new count and add the tasks back, here last first, so every flow names
  // a producer added after its consumer.
  constexpr int kTasks = 300;
  TaskGraph graph;
  graph.reserve(kTasks);
  for (int i = 0; i < kTasks; ++i) graph.add_task(chain_task(i));
  std::vector<TaskSpec> specs = graph.take_specs();
  ASSERT_EQ(specs.size(), static_cast<std::size_t>(kTasks));
  EXPECT_EQ(graph.size(), 0u);
  EXPECT_FALSE(graph.contains(key(3, 0)));

  graph.reserve(kTasks);
  for (int i = kTasks - 1; i >= 0; --i) {
    graph.add_task(std::move(specs[static_cast<std::size_t>(i)]));
  }
  for (int i = 0; i < kTasks; ++i) {
    ASSERT_EQ(graph.find(key(3, i)), static_cast<std::size_t>(kTasks - 1 - i));
  }
  graph.seal(1);
  for (int i = 1; i < kTasks; ++i) {
    // Task i sits at index kTasks - 1 - i; its consumer one index lower.
    const auto edges = graph.consumers(static_cast<std::size_t>(kTasks - i));
    ASSERT_EQ(edges.size(), 1u);
    EXPECT_EQ(edges[0].consumer, static_cast<std::uint32_t>(kTasks - 1 - i));
  }
  Runtime runtime(Config{1, 1, true, false});
  runtime.run(graph);
  EXPECT_EQ(*runtime.result(key(3, kTasks - 1), 0),
            std::vector<double>{kTasks - 1.0});
}

TEST(TaskGraph, ReservedGraphsNameWhatTheyReject) {
  {
    TaskGraph graph;
    graph.reserve(8);
    graph.add_task(bare_task(key(1)));
    try {
      graph.add_task(bare_task(key(1)));
      ADD_FAILURE() << "duplicate accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_STREQ(e.what(), "TaskGraph: duplicate task t1(0,0,0)");
    }
    EXPECT_EQ(graph.size(), 1u);
  }
  {
    TaskGraph graph;
    graph.reserve(8);
    TaskSpec dangling = bare_task(key(2));
    dangling.inputs = {{key(99), 0}};
    graph.add_task(std::move(dangling));
    EXPECT_EQ(seal_error(graph),
              "TaskGraph: task t2(0,0,0) consumes missing producer "
              "t99(0,0,0)");
  }
  {
    TaskGraph graph;
    graph.reserve(8);
    TaskSpec self = bare_task(key(1));
    self.inputs = {{key(1), 0}};
    graph.add_task(std::move(self));
    EXPECT_EQ(seal_error(graph), "TaskGraph: task t1(0,0,0) consumes itself");
  }
  {
    TaskGraph graph;
    graph.reserve(8);
    graph.add_task(bare_task(key(0)));
    TaskSpec a = bare_task(key(1));
    a.inputs = {{key(2), 0}, {key(0), 0}};
    TaskSpec b = bare_task(key(2));
    b.inputs = {{key(1), 0}};
    graph.add_task(std::move(a));
    graph.add_task(std::move(b));
    EXPECT_EQ(seal_error(graph),
              "TaskGraph: dependency cycle detected (2 tasks unreachable)");
    EXPECT_FALSE(graph.sealed());
  }
}

// Build a chain: source publishes {1,2,3}; each stage adds 1 to every
// element; verify the final buffer. Stages alternate ranks to exercise remote
// messaging.
TEST(Runtime, ChainAcrossRanksComputesCorrectly) {
  TaskGraph graph;
  TaskSpec source;
  source.key = key(0);
  source.rank = 0;
  source.body = [](TaskContext& ctx) {
    ctx.publish(0, std::vector<double>{1.0, 2.0, 3.0});
  };
  graph.add_task(source);

  constexpr int kStages = 6;
  for (int s = 1; s <= kStages; ++s) {
    TaskSpec stage;
    stage.key = key(0, s);
    stage.rank = s % 2;
    stage.inputs = {{s == 1 ? key(0) : key(0, s - 1), 0}};
    stage.body = [](TaskContext& ctx) {
      auto in = ctx.input(0);
      std::vector<double> out(in.begin(), in.end());
      for (double& v : out) v += 1.0;
      ctx.publish(0, std::move(out));
    };
    graph.add_task(stage);
  }

  Runtime runtime(Config{2, 2, true, false});
  const RunStats stats = runtime.run(graph);
  EXPECT_EQ(stats.tasks_executed, static_cast<std::size_t>(kStages + 1));

  const Buffer out = runtime.result(key(0, kStages), 0);
  ASSERT_EQ(out->size(), 3u);
  EXPECT_DOUBLE_EQ((*out)[0], 1.0 + kStages);
  EXPECT_DOUBLE_EQ((*out)[2], 3.0 + kStages);

  // Each cross-rank hop is one message: every stage alternates ranks.
  EXPECT_EQ(stats.messages, static_cast<std::uint64_t>(kStages));
}

TEST(Runtime, FanOutFanInReduction) {
  // source -> N mappers (spread over ranks) -> reducer sums everything.
  constexpr int kMappers = 16;
  constexpr int kRanks = 4;
  TaskGraph graph;

  TaskSpec source;
  source.key = key(1);
  source.rank = 0;
  source.body = [](TaskContext& ctx) {
    std::vector<double> data(8);
    std::iota(data.begin(), data.end(), 1.0);  // 1..8, sum 36
    ctx.publish(0, std::move(data));
  };
  graph.add_task(source);

  TaskSpec reducer;
  reducer.key = key(3);
  reducer.rank = kRanks - 1;
  for (int m = 0; m < kMappers; ++m) {
    TaskSpec mapper;
    mapper.key = key(2, m);
    mapper.rank = m % kRanks;
    mapper.inputs = {{key(1), 0}};
    mapper.body = [m](TaskContext& ctx) {
      double sum = 0.0;
      for (double v : ctx.input(0)) sum += v;
      ctx.publish(0, std::vector<double>{sum * (m + 1)});
    };
    graph.add_task(mapper);
    reducer.inputs.push_back({key(2, m), 0});
  }
  reducer.body = [](TaskContext& ctx) {
    double total = 0.0;
    for (std::size_t i = 0; i < ctx.num_inputs(); ++i) total += ctx.input(i)[0];
    ctx.publish(0, std::vector<double>{total});
  };
  graph.add_task(reducer);

  Runtime runtime(Config{kRanks, 2, true, false});
  runtime.run(graph);
  const Buffer out = runtime.result(key(3), 0);
  // sum_m 36*(m+1) = 36 * 136
  EXPECT_DOUBLE_EQ((*out)[0], 36.0 * (kMappers * (kMappers + 1)) / 2);
}

TEST(Runtime, TaskBodyExceptionSurfacesWithTaskName) {
  TaskGraph graph;
  TaskSpec bad;
  bad.key = key(7, 1, 2, 3);
  bad.body = [](TaskContext&) { throw std::runtime_error("boom"); };
  graph.add_task(bad);
  Runtime runtime(Config{1, 1, true, false});
  try {
    runtime.run(graph);
    FAIL() << "expected exception";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("boom"), std::string::npos);
    EXPECT_NE(what.find("t7(1,2,3)"), std::string::npos);
  }
}

TEST(Runtime, MissingPublishIsAnError) {
  TaskGraph graph;
  TaskSpec producer;
  producer.key = key(1);
  producer.body = [](TaskContext&) { /* forgets to publish */ };
  graph.add_task(producer);
  TaskSpec consumer;
  consumer.key = key(2);
  consumer.inputs = {{key(1), 0}};
  consumer.body = [](TaskContext&) {};
  graph.add_task(consumer);
  Runtime runtime(Config{1, 1, true, false});
  EXPECT_THROW(runtime.run(graph), std::runtime_error);
}

TEST(Runtime, DoublePublishIsAnError) {
  TaskGraph graph;
  TaskSpec producer;
  producer.key = key(1);
  producer.body = [](TaskContext& ctx) {
    ctx.publish(0, {1.0});
    ctx.publish(0, {2.0});
  };
  graph.add_task(producer);
  Runtime runtime(Config{1, 1, true, false});
  EXPECT_THROW(runtime.run(graph), std::runtime_error);
}

TEST(Runtime, ZeroCopyWithinRankSharesBuffer) {
  TaskGraph graph;
  TaskSpec producer;
  producer.key = key(1);
  producer.body = [](TaskContext& ctx) {
    ctx.publish(0, std::vector<double>(1024, 1.0));
  };
  graph.add_task(producer);

  static std::atomic<const void*> seen{nullptr};
  TaskSpec keeper;
  keeper.key = key(2);
  keeper.inputs = {{key(1), 0}};
  keeper.body = [](TaskContext& ctx) {
    seen.store(ctx.input_buffer(0)->data());
    ctx.publish(0, ctx.input_buffer(0));  // forward without copying
  };
  graph.add_task(keeper);

  TaskSpec checker;
  checker.key = key(3);
  checker.inputs = {{key(2), 0}};
  checker.body = [](TaskContext& ctx) {
    if (ctx.input_buffer(0)->data() != seen.load()) {
      throw std::runtime_error("buffer was copied within a rank");
    }
  };
  graph.add_task(checker);

  Runtime runtime(Config{1, 1, true, false});
  const RunStats stats = runtime.run(graph);
  EXPECT_EQ(stats.messages, 0u);  // all local
}

TEST(Runtime, PriorityOrdersReadyTasksOnSingleWorker) {
  // All tasks are ready at t0 on one worker; higher priority must run first.
  TaskGraph graph;
  static std::mutex order_mutex;
  static std::vector<int> order;
  order.clear();
  for (int i = 0; i < 4; ++i) {
    TaskSpec t;
    t.key = key(1, i);
    t.priority = i;  // 3 should run first
    t.body = [i](TaskContext&) {
      std::lock_guard lock(order_mutex);
      order.push_back(i);
    };
    graph.add_task(t);
  }
  Runtime runtime(Config{1, 1, true, false});
  runtime.run(graph);
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order.front(), 3);
  EXPECT_EQ(order.back(), 0);
}

TEST(Runtime, FifoWithinEqualPriorityFollowsArrivalOrder) {
  // Regression guard for the ready-queue tie-break: entries of equal
  // priority must run in true arrival (enqueue) order, not in whatever
  // order the heap happens to surface them. The ReadyEntry seqno provides
  // this; without it, ties fall back to heap order and this test flakes.
  TaskGraph graph;
  static std::mutex order_mutex;
  static std::vector<int> order;
  order.clear();
  constexpr int kTasks = 12;
  for (int i = 0; i < kTasks; ++i) {
    TaskSpec t;
    t.key = key(1, i);
    t.priority = i % 2;  // two priority classes, interleaved arrivals
    t.body = [i](TaskContext&) {
      std::lock_guard lock(order_mutex);
      order.push_back(i);
    };
    graph.add_task(t);
  }
  Runtime runtime(Config{1, 1, true, false});
  runtime.run(graph);

  ASSERT_EQ(order.size(), static_cast<std::size_t>(kTasks));
  // All priority-1 tasks first (odd ids, ascending = arrival order), then
  // all priority-0 tasks (even ids, ascending).
  std::vector<int> expected;
  for (int i = 1; i < kTasks; i += 2) expected.push_back(i);
  for (int i = 0; i < kTasks; i += 2) expected.push_back(i);
  EXPECT_EQ(order, expected);
}

TEST(Runtime, WorkStealingSingleWorkerHonorsPriorityThenArrival) {
  // With one worker there is nobody to steal from: the owner drains its
  // priority lane front-first (priority-ordered, FIFO within priority),
  // then its low lane. Priorities 3..0 must therefore run 3,2,1,0 — same
  // observable order as PriorityFifo.
  TaskGraph graph;
  static std::mutex order_mutex;
  static std::vector<int> order;
  order.clear();
  for (int i = 0; i < 4; ++i) {
    TaskSpec t;
    t.key = key(1, i);
    t.priority = i;
    t.body = [i](TaskContext&) {
      std::lock_guard lock(order_mutex);
      order.push_back(i);
    };
    graph.add_task(t);
  }
  Config config{1, 1, true, false};
  config.scheduler = SchedPolicy::WorkStealing;
  Runtime runtime(config);
  runtime.run(graph);
  EXPECT_EQ(order, (std::vector<int>{3, 2, 1, 0}));
}

TEST(Runtime, StealCountersStayZeroWithoutWorkStealing) {
  TaskGraph graph;
  for (int i = 0; i < 8; ++i) {
    TaskSpec t;
    t.key = key(1, i);
    t.body = [](TaskContext&) {};
    graph.add_task(t);
  }
  Runtime runtime(Config{1, 2, true, false});
  runtime.run(graph);
#ifndef REPRO_OBS_DISABLE
  // The families exist for every policy (stable scrape schema)...
  const auto snap = runtime.metrics()->snapshot();
  EXPECT_DOUBLE_EQ(snap.counter_total("rt_steals_total"), 0.0);
  EXPECT_DOUBLE_EQ(snap.counter_total("rt_failed_steals_total"), 0.0);
#endif
  // ...and the shared-queue run never records steal trace events.
  for (const auto& e : runtime.tracer().events()) {
    EXPECT_NE(e.kind, TraceEventKind::Steal);
  }
}

TEST(Runtime, InlineSendModeMatchesDedicatedCommThread) {
  for (bool dedicated : {true, false}) {
    TaskGraph graph;
    TaskSpec a;
    a.key = key(1);
    a.rank = 0;
    a.body = [](TaskContext& ctx) { ctx.publish(0, {42.0}); };
    graph.add_task(a);
    TaskSpec b;
    b.key = key(2);
    b.rank = 1;
    b.inputs = {{key(1), 0}};
    b.body = [](TaskContext& ctx) {
      ctx.publish(0, std::vector<double>{ctx.input(0)[0] + 1});
    };
    graph.add_task(b);
    Runtime runtime(Config{2, 1, dedicated, false});
    const RunStats stats = runtime.run(graph);
    EXPECT_EQ(stats.messages, 1u);
    EXPECT_DOUBLE_EQ((*runtime.result(key(2), 0))[0], 43.0);
  }
}


TEST(Runtime, AggregatedMessagesDeliverIdentically) {
  // A producer whose three outputs all feed tasks on rank 1: aggregation
  // must collapse three messages into one without changing any result.
  for (bool aggregate : {false, true}) {
    TaskGraph graph;
    TaskSpec producer;
    producer.key = key(1);
    producer.rank = 0;
    producer.body = [](TaskContext& ctx) {
      ctx.publish(0, {1.0});
      ctx.publish(1, {2.0, 2.5});
      ctx.publish(2, {3.0});
    };
    graph.add_task(producer);
    for (int i = 0; i < 3; ++i) {
      TaskSpec consumer;
      consumer.key = key(2, i);
      consumer.rank = 1;
      consumer.inputs = {{key(1), static_cast<std::uint16_t>(i)}};
      consumer.body = [i](TaskContext& ctx) {
        std::vector<double> out(ctx.input(0).begin(), ctx.input(0).end());
        for (double& v : out) v += i;
        ctx.publish(0, std::move(out));
      };
      graph.add_task(consumer);
    }
    Config config{2, 1};
    config.aggregate_messages = aggregate;
    Runtime runtime(config);
    const RunStats stats = runtime.run(graph);
    EXPECT_EQ(stats.messages, aggregate ? 1u : 3u);
    EXPECT_DOUBLE_EQ((*runtime.result(key(2, 0), 0))[0], 1.0);
    ASSERT_EQ(runtime.result(key(2, 1), 0)->size(), 2u);
    EXPECT_DOUBLE_EQ((*runtime.result(key(2, 1), 0))[1], 3.5);
    EXPECT_DOUBLE_EQ((*runtime.result(key(2, 2), 0))[0], 5.0);
  }
}

TEST(Runtime, AggregationGroupsPerDestinationOnly) {
  // Two consumers on rank 1, one on rank 2: aggregation yields exactly two
  // messages (one per destination).
  TaskGraph graph;
  TaskSpec producer;
  producer.key = key(1);
  producer.rank = 0;
  producer.body = [](TaskContext& ctx) { ctx.publish(0, {7.0}); };
  graph.add_task(producer);
  for (int i = 0; i < 3; ++i) {
    TaskSpec consumer;
    consumer.key = key(2, i);
    consumer.rank = i < 2 ? 1 : 2;
    consumer.inputs = {{key(1), 0}};
    consumer.body = [](TaskContext& ctx) {
      ctx.publish(0, ctx.input_buffer(0));
    };
    graph.add_task(consumer);
  }
  Config config{3, 1};
  config.aggregate_messages = true;
  Runtime runtime(config);
  const RunStats stats = runtime.run(graph);
  EXPECT_EQ(stats.messages, 2u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ((*runtime.result(key(2, i), 0))[0], 7.0);
  }
}

TEST(Runtime, TraceRecordsEveryTaskWithSaneTimestamps) {
  TaskGraph graph;
  for (int i = 0; i < 5; ++i) {
    TaskSpec t;
    t.key = key(1, i);
    t.klass = i % 2 == 0 ? "even" : "odd";
    t.body = [](TaskContext&) {};
    graph.add_task(t);
  }
  Runtime runtime(Config{1, 2, true, true});
  runtime.run(graph);
  const auto& events = runtime.tracer().events();
#ifdef REPRO_OBS_DISABLE
  EXPECT_TRUE(events.empty());
  GTEST_SKIP() << "tracing is compiled out";
#else
  // The stream carries Task events plus the Idle gaps between pops; exactly
  // the five task bodies must appear as Task events.
  std::size_t tasks = 0;
  for (const auto& e : events) {
    EXPECT_GE(e.end_s, e.begin_s);
    if (e.kind != TraceEventKind::Task) continue;
    ++tasks;
    EXPECT_TRUE(e.klass == "even" || e.klass == "odd");
    EXPECT_TRUE(e.deps.empty());  // source tasks have no input flows
  }
  EXPECT_EQ(tasks, 5u);
  const TraceReport report = analyze_trace(events, 2);
  EXPECT_EQ(report.count_by_klass.at("even"), 3u);
  EXPECT_EQ(report.count_by_klass.at("odd"), 2u);
  EXPECT_GE(report.span_s, 0.0);
#endif
}

TEST(Runtime, GraphSealedForMoreRanksThanTheRuntimeIsRejected) {
  // Sealed for 4 ranks with a task on rank 3: a 2-rank runtime must refuse
  // it by name instead of indexing its per-rank state out of bounds.
  TaskGraph graph;
  TaskSpec high = bare_task(key(1));
  high.rank = 3;
  graph.add_task(high);
  graph.seal(4);
  EXPECT_EQ(graph.max_rank(), 3);
  Runtime runtime(Config{2, 1});
  try {
    runtime.run(graph);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("rank 3"), std::string::npos) << what;
    EXPECT_NE(what.find("nranks 2"), std::string::npos) << what;
  }

  // Sealed for 4 ranks, but every task fits on 2: runs.
  TaskGraph low;
  TaskSpec task = bare_task(key(1));
  task.rank = 1;
  task.body = [](TaskContext& ctx) { ctx.publish(0, {4.0}); };
  low.add_task(task);
  low.seal(4);
  EXPECT_EQ(low.max_rank(), 1);
  runtime.run(low);
  EXPECT_EQ(*runtime.result(key(1), 0), std::vector<double>{4.0});
}

TEST(Runtime, EmptyGraphCompletesImmediately) {
  TaskGraph graph;
  Runtime runtime(Config{2, 2, true, false});
  const RunStats stats = runtime.run(graph);
  EXPECT_EQ(stats.tasks_executed, 0u);
}

// Randomized layered DAG stress test: every task sums its inputs plus its own
// id; an independent sequential evaluation must agree, over several shapes.
TEST(Runtime, FuzzedLayeredDagMatchesSequentialEvaluation) {
  repro::Rng rng(2024);
  for (int round = 0; round < 5; ++round) {
    const int layers = 3 + static_cast<int>(rng.next_below(4));
    const int width = 4 + static_cast<int>(rng.next_below(8));
    const int ranks = 1 + static_cast<int>(rng.next_below(4));

    TaskGraph graph;
    std::vector<std::vector<double>> expected(
        static_cast<std::size_t>(layers),
        std::vector<double>(static_cast<std::size_t>(width), 0.0));
    std::vector<std::vector<std::vector<int>>> parents(
        static_cast<std::size_t>(layers));

    for (int layer = 0; layer < layers; ++layer) {
      parents[layer].resize(static_cast<std::size_t>(width));
      for (int slot = 0; slot < width; ++slot) {
        TaskSpec t;
        t.key = key(1, layer, slot);
        t.rank = static_cast<int>(rng.next_below(ranks));
        const double self = layer * 100.0 + slot;
        if (layer > 0) {
          const int fan = 1 + static_cast<int>(rng.next_below(3));
          for (int p = 0; p < fan; ++p) {
            const int parent = static_cast<int>(rng.next_below(width));
            parents[layer][slot].push_back(parent);
            t.inputs.push_back({key(1, layer - 1, parent), 0});
          }
        }
        t.body = [self](TaskContext& ctx) {
          double sum = self;
          for (std::size_t i = 0; i < ctx.num_inputs(); ++i) {
            sum += ctx.input(i)[0];
          }
          ctx.publish(0, std::vector<double>{sum});
        };
        graph.add_task(t);

        double sum = self;
        for (int parent : parents[layer][slot]) {
          sum += expected[layer - 1][parent];
        }
        expected[layer][slot] = sum;
      }
    }

    // Sinks: check final layer values. (Published outputs of the last layer
    // have no consumers, so they are retained.)
    Runtime runtime(Config{ranks, 2, true, false});
    runtime.run(graph);
    for (int slot = 0; slot < width; ++slot) {
      const Buffer out = runtime.result(key(1, layers - 1, slot), 0);
      EXPECT_DOUBLE_EQ((*out)[0], expected[layers - 1][slot])
          << "round " << round << " slot " << slot;
    }
  }
}


// ---------------------------------------------------------------------------
// ResidentRuntime: one Runtime instance executing back-to-back graphs (the
// serve farm's mode of operation). Regression suite for run()'s clean-slate
// contract: no ready-queue, result, or metric state may leak between runs.
// ---------------------------------------------------------------------------

namespace {

/// Add a source -> kStages chain under key type `type`, alternating ranks.
/// Final value per element: base + stages.
void add_chain(TaskGraph& graph, std::uint32_t type, int stages, double base,
               int lane = -1) {
  TaskSpec source;
  source.key = key(type);
  source.rank = 0;
  source.lane = lane;
  source.body = [base](TaskContext& ctx) {
    ctx.publish(0, std::vector<double>{base, base + 1.0});
  };
  graph.add_task(source);
  for (int s = 1; s <= stages; ++s) {
    TaskSpec stage;
    stage.key = key(type, s);
    stage.rank = s % 2;
    stage.lane = lane;
    stage.inputs = {{s == 1 ? key(type) : key(type, s - 1), 0}};
    stage.body = [](TaskContext& ctx) {
      auto in = ctx.input(0);
      std::vector<double> out(in.begin(), in.end());
      for (double& v : out) v += 1.0;
      ctx.publish(0, std::move(out));
    };
    graph.add_task(stage);
  }
}

}  // namespace

TEST(ResidentRuntime, BackToBackGraphsComputeIndependently) {
  Runtime runtime(Config{2, 2, true, false});

  TaskGraph first;
  add_chain(first, 7, 5, 10.0);
  const RunStats stats_a = runtime.run(first);
  EXPECT_EQ(stats_a.tasks_executed, 6u);
  EXPECT_DOUBLE_EQ((*runtime.result(key(7, 5), 0))[0], 15.0);

  // A different graph — different keys, more tasks — on the same instance.
  TaskGraph second;
  add_chain(second, 9, 8, 100.0);
  const RunStats stats_b = runtime.run(second);
  EXPECT_EQ(stats_b.tasks_executed, 9u);
  EXPECT_DOUBLE_EQ((*runtime.result(key(9, 8), 0))[0], 108.0);

  // Per-run stats must reflect the second run only, not accumulate.
  EXPECT_EQ(stats_b.messages, 8u);

  // Metric handles are re-attached per run: the scrape shows run B's counts.
  // (Metric series only exist when observability is compiled in.)
  if constexpr (obs::kEnabled) {
    const auto snapshot = runtime.metrics()->snapshot();
    EXPECT_DOUBLE_EQ(snapshot.counter_total("rt_tasks_executed_total"), 9.0);
  }
}

TEST(ResidentRuntime, ReleaseRunDropsResultsButAllowsNextRun) {
  Runtime runtime(Config{2, 1, true, false});

  TaskGraph first;
  add_chain(first, 3, 2, 1.0);
  runtime.run(first);
  EXPECT_DOUBLE_EQ((*runtime.result(key(3, 2), 0))[0], 3.0);

  runtime.release_run();
  EXPECT_THROW(runtime.result(key(3, 2), 0), std::exception);

  TaskGraph second;
  add_chain(second, 3, 4, 2.0);  // same keys as the released graph
  runtime.run(second);
  EXPECT_DOUBLE_EQ((*runtime.result(key(3, 4), 0))[0], 6.0);
}

TEST(ResidentRuntime, LaneCountersTrackCurrentGraphAndRetireStaleLanes) {
  if constexpr (!obs::kEnabled) {
    GTEST_SKIP() << "lane counter series require observability compiled in";
  }
  Runtime runtime(Config{2, 1, true, false});

  TaskGraph first;
  add_chain(first, 1, 3, 0.0, /*lane=*/0);   // 4 tasks on lane 0
  add_chain(first, 2, 1, 0.0, /*lane=*/5);   // 2 tasks on lane 5
  runtime.run(first);
  {
    const auto snapshot = runtime.metrics()->snapshot();
    const auto* lane0 = snapshot.find_counter("rt_lane_tasks_executed_total",
                                              {{"lane", "0"}});
    const auto* lane5 = snapshot.find_counter("rt_lane_tasks_executed_total",
                                              {{"lane", "5"}});
    ASSERT_NE(lane0, nullptr);
    ASSERT_NE(lane5, nullptr);
    EXPECT_EQ(lane0->value, 4u);
    EXPECT_EQ(lane5->value, 2u);
  }

  // The next graph uses only lane 5: lane 0's series must disappear (a
  // resident registry never scrapes tenants that no longer exist) and lane
  // 5 must restart from zero, not accumulate.
  TaskGraph second;
  add_chain(second, 1, 2, 0.0, /*lane=*/5);
  runtime.run(second);
  {
    const auto snapshot = runtime.metrics()->snapshot();
    EXPECT_EQ(snapshot.find_counter("rt_lane_tasks_executed_total",
                                    {{"lane", "0"}}),
              nullptr);
    const auto* lane5 = snapshot.find_counter("rt_lane_tasks_executed_total",
                                              {{"lane", "5"}});
    ASSERT_NE(lane5, nullptr);
    EXPECT_EQ(lane5->value, 3u);
  }
}


}  // namespace
}  // namespace repro::rt
