#include "runtime/graph.hpp"

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
  const auto [it, inserted] = by_key_.emplace(spec.key, specs_.size());
  if (!inserted) {
    throw std::invalid_argument("TaskGraph: duplicate task " +
                                spec.key.to_string());
  }
  specs_.push_back(std::move(spec));
}

void TaskGraph::seal(int nranks) {
  if (sealed_) throw std::logic_error("TaskGraph: seal twice");
  if (specs_.size() >
      static_cast<std::size_t>(std::numeric_limits<std::uint32_t>::max())) {
    throw std::runtime_error("TaskGraph: too many tasks");
  }

  consumer_edges_.assign(specs_.size(), {});
  for (std::size_t ci = 0; ci < specs_.size(); ++ci) {
    const TaskSpec& consumer = specs_[ci];
    if (consumer.rank < 0 || consumer.rank >= nranks) {
      throw std::runtime_error("TaskGraph: task " + consumer.key.to_string() +
                               " has rank " + std::to_string(consumer.rank) +
                               " outside [0," + std::to_string(nranks) + ")");
    }
    for (std::size_t pos = 0; pos < consumer.inputs.size(); ++pos) {
      const FlowRef& flow = consumer.inputs[pos];
      const auto it = by_key_.find(flow.producer);
      if (it == by_key_.end()) {
        throw std::runtime_error("TaskGraph: task " + consumer.key.to_string() +
                                 " consumes missing producer " +
                                 flow.producer.to_string());
      }
      if (it->second == ci) {
        throw std::runtime_error("TaskGraph: task " + consumer.key.to_string() +
                                 " consumes itself");
      }
      consumer_edges_[it->second].push_back(ConsumerEdge{
          flow.slot, static_cast<std::uint32_t>(ci),
          static_cast<std::uint16_t>(pos), flow.route, flow.route_doubles,
          flow.route_fragments});
    }
  }
  // Kahn's algorithm: reject cyclic graphs at seal time so that execution can
  // never deadlock on a dependency cycle.
  std::vector<std::size_t> indegree(specs_.size());
  std::vector<std::size_t> frontier;
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    indegree[i] = specs_[i].inputs.size();
    if (indegree[i] == 0) frontier.push_back(i);
  }
  std::size_t processed = 0;
  while (!frontier.empty()) {
    const std::size_t producer = frontier.back();
    frontier.pop_back();
    ++processed;
    for (const auto& edge : consumer_edges_[producer]) {
      if (--indegree[edge.consumer] == 0) frontier.push_back(edge.consumer);
    }
  }
  if (processed != specs_.size()) {
    throw std::runtime_error("TaskGraph: dependency cycle detected (" +
                             std::to_string(specs_.size() - processed) +
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
  const auto it = by_key_.find(key);
  return it == by_key_.end() ? npos : it->second;
}

bool TaskGraph::contains(const TaskKey& key) const {
  return find(key) != npos;
}

std::vector<TaskSpec> TaskGraph::take_specs() {
  if (sealed_) throw std::logic_error("TaskGraph: take_specs after seal");
  by_key_.clear();
  std::vector<TaskSpec> specs;
  specs.swap(specs_);
  return specs;
}

std::size_t TaskGraph::slot_fanout(std::size_t index, std::uint16_t slot) const {
  std::size_t n = 0;
  for (const auto& edge : consumer_edges_[index]) {
    if (edge.slot == slot) ++n;
  }
  return n;
}

}  // namespace repro::rt
