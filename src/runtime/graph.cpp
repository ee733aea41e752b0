#include "runtime/graph.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace repro::rt {

void TaskGraph::add_task(TaskSpec spec) {
  if (sealed_) throw std::logic_error("TaskGraph: add_task after seal");
  if (!spec.body) throw std::invalid_argument("TaskGraph: task without body");
  if (spec.inputs.size() >
      static_cast<std::size_t>(std::numeric_limits<std::uint16_t>::max())) {
    throw std::invalid_argument("TaskGraph: too many inputs");
  }
  if (specs_.size() >= kNoTask) {
    throw std::runtime_error("TaskGraph: too many tasks");
  }
  if (2 * (specs_.size() + 1) > index_.size()) {
    rehash(index_.empty() ? std::size_t{16} : 2 * index_.size());
  }
  const std::size_t pos = probe(spec.key);
  if (index_[pos] != kNoTask) {
    throw std::invalid_argument("TaskGraph: duplicate task " +
                                spec.key.to_string());
  }
  keys_.push_back(spec.key);
  flows_ += spec.inputs.size();
  specs_.push_back(std::move(spec));
  index_[pos] = static_cast<std::uint32_t>(specs_.size() - 1);
}

void TaskGraph::reserve(std::size_t tasks) {
  if (sealed_) throw std::logic_error("TaskGraph: reserve after seal");
  const auto grow = [tasks](auto& array) {
    if (tasks > array.capacity()) {
      array.reserve(std::max(tasks, 2 * array.capacity()));
    }
  };
  grow(specs_);
  grow(keys_);
  std::size_t positions = index_.empty() ? std::size_t{16} : index_.size();
  while (positions < 2 * tasks) positions *= 2;
  if (positions > index_.size()) rehash(positions);
}

std::size_t TaskGraph::probe(const TaskKey& key) const {
  const std::size_t mask = index_.size() - 1;
  std::size_t pos = TaskKeyHash{}(key) & mask;
  while (index_[pos] != kNoTask && !(keys_[index_[pos]] == key)) {
    pos = (pos + 1) & mask;
  }
  return pos;
}

void TaskGraph::rehash(std::size_t positions) {
  std::vector<std::uint32_t> grown(positions, kNoTask);
  const std::size_t mask = grown.size() - 1;
  for (std::size_t i = 0; i < keys_.size(); ++i) {
    std::size_t pos = TaskKeyHash{}(keys_[i]) & mask;
    while (grown[pos] != kNoTask) pos = (pos + 1) & mask;
    grown[pos] = static_cast<std::uint32_t>(i);
  }
  index_.swap(grown);
}

void TaskGraph::seal(int nranks) {
  if (sealed_) throw std::logic_error("TaskGraph: seal twice");
  const std::size_t n = specs_.size();
  if (flows_ > std::numeric_limits<std::uint32_t>::max()) {
    throw std::runtime_error("TaskGraph: too many input flows");
  }

  // Resolve every flow with one probe, in (consumer, input position) order,
  // into a flat producer array, counting each producer's fan-out.
  std::vector<std::uint32_t> producer;
  producer.reserve(flows_);
  std::vector<std::uint32_t> indegree(n);
  edge_begin_.assign(n + 1, 0);
  max_rank_ = -1;
  for (std::size_t ci = 0; ci < n; ++ci) {
    const TaskSpec& consumer = specs_[ci];
    if (consumer.rank < 0 || consumer.rank >= nranks) {
      throw std::runtime_error("TaskGraph: task " + consumer.key.to_string() +
                               " has rank " + std::to_string(consumer.rank) +
                               " outside [0," + std::to_string(nranks) + ")");
    }
    max_rank_ = std::max(max_rank_, consumer.rank);
    indegree[ci] = static_cast<std::uint32_t>(consumer.inputs.size());
    for (const FlowRef& flow : consumer.inputs) {
      const std::size_t pi = find(flow.producer);
      if (pi == npos) {
        throw std::runtime_error("TaskGraph: task " + consumer.key.to_string() +
                                 " consumes missing producer " +
                                 flow.producer.to_string());
      }
      if (pi == ci) {
        throw std::runtime_error("TaskGraph: task " + consumer.key.to_string() +
                                 " consumes itself");
      }
      producer.push_back(static_cast<std::uint32_t>(pi));
      ++edge_begin_[pi + 1];
    }
  }

  // Consumer edges as CSR, filled in the same (consumer, input position)
  // order, so each producer's edges come out exactly as consumers() has
  // always listed them.
  for (std::size_t i = 0; i < n; ++i) edge_begin_[i + 1] += edge_begin_[i];
  std::vector<std::uint32_t> cursor(edge_begin_.begin(), edge_begin_.end() - 1);
  edges_ = std::make_unique_for_overwrite<ConsumerEdge[]>(producer.size());
  std::size_t flow_index = 0;
  for (std::size_t ci = 0; ci < n; ++ci) {
    const auto& inputs = specs_[ci].inputs;
    for (std::size_t pos = 0; pos < inputs.size(); ++pos) {
      edges_[cursor[producer[flow_index++]]++] =
          ConsumerEdge{static_cast<std::uint32_t>(ci), inputs[pos].slot,
                       static_cast<std::uint16_t>(pos)};
    }
  }

  // Kahn's algorithm: reject cyclic graphs at seal time so that execution can
  // never deadlock on a dependency cycle.
  std::vector<std::uint32_t> frontier;
  for (std::size_t i = 0; i < n; ++i) {
    if (indegree[i] == 0) frontier.push_back(static_cast<std::uint32_t>(i));
  }
  std::size_t processed = 0;
  while (!frontier.empty()) {
    const std::uint32_t task = frontier.back();
    frontier.pop_back();
    ++processed;
    for (const ConsumerEdge& edge : consumers(task)) {
      if (--indegree[edge.consumer] == 0) frontier.push_back(edge.consumer);
    }
  }
  if (processed != n) {
    throw std::runtime_error("TaskGraph: dependency cycle detected (" +
                             std::to_string(n - processed) +
                             " tasks unreachable)");
  }

  sealed_ = true;
}

std::size_t TaskGraph::index_of(const TaskKey& key) const {
  const std::size_t index = find(key);
  if (index == npos) {
    throw std::out_of_range("TaskGraph: unknown task " + key.to_string());
  }
  return index;
}

std::size_t TaskGraph::find(const TaskKey& key) const {
  if (index_.empty()) return npos;
  const std::uint32_t index = index_[probe(key)];
  return index == kNoTask ? npos : index;
}

bool TaskGraph::contains(const TaskKey& key) const {
  return find(key) != npos;
}

std::vector<TaskSpec> TaskGraph::take_specs() {
  if (sealed_) throw std::logic_error("TaskGraph: take_specs after seal");
  index_.assign(index_.size(), kNoTask);
  keys_.clear();
  flows_ = 0;
  std::vector<TaskSpec> specs;
  specs.swap(specs_);
  return specs;
}

std::size_t TaskGraph::slot_fanout(std::size_t index, std::uint16_t slot) const {
  std::size_t n = 0;
  for (const auto& edge : consumers(index)) {
    if (edge.slot == slot) ++n;
  }
  return n;
}

}  // namespace repro::rt
