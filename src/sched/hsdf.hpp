/// \file hsdf.hpp
/// Homogeneous-SDF (HSDF) expansion.
///
/// The synchronization-graph machinery of Sriram & Bhattacharyya (and
/// hence the paper's Section 4) operates on graphs whose nodes are *task
/// invocations* — one node per firing per iteration. A multirate SDF
/// graph is expanded so actor `a` with repetitions q[a] yields q[a] task
/// nodes, and every raw-token dependency becomes a (deduplicated,
/// minimum-delay) precedence arc between the producing and consuming
/// firings. Graphs that are already homogeneous expand 1:1.
#pragma once

#include <cstdint>
#include <vector>

#include "dataflow/graph.hpp"
#include "dataflow/repetitions.hpp"

namespace spi::sched {

/// One task node of the expanded graph: firing `firing` of actor `actor`.
struct TaskNode {
  df::ActorId actor = df::kInvalidActor;
  std::int32_t firing = 0;  ///< 0 .. q[actor]-1
  std::int64_t exec_cycles = 1;
  std::string name;
};

/// Precedence arc of the expanded graph. `delay` counts iteration
/// boundaries the dependency crosses (0 = same iteration).
struct TaskArc {
  std::int32_t src = 0;
  std::int32_t snk = 0;
  std::int64_t delay = 0;
  df::EdgeId dataflow_edge = df::kInvalidEdge;  ///< originating SDF edge
};

/// Expanded task graph with a map back to the SDF actors.
struct HsdfGraph {
  std::vector<TaskNode> tasks;
  std::vector<TaskArc> arcs;
  /// first_task[a] .. first_task[a] + q[a] - 1 are actor a's task nodes.
  std::vector<std::int32_t> first_task;

  [[nodiscard]] std::int32_t task_of(df::ActorId a, std::int32_t firing) const {
    return first_task.at(static_cast<std::size_t>(a)) + firing;
  }
};

/// Expands a consistent, pure-SDF graph. One edge's arcs between the same
/// task pair are merged keeping the minimum delay (the binding
/// constraint); arcs of different edges are never merged, so every
/// dataflow edge keeps the arcs that give it a channel.
[[nodiscard]] HsdfGraph hsdf_expand(const df::Graph& g, const df::Repetitions& reps);

}  // namespace spi::sched
