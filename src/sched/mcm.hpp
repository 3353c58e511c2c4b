/// \file mcm.hpp
/// Maximum-cycle-mean / maximum-cycle-ratio solvers for synchronization
/// graphs.
///
/// The iteration-period bound of self-timed execution is the maximum over
/// cycles of (sum of task exec times) / (sum of edge delays) — a maximum
/// cycle *ratio* problem where node exec times are attributed to outgoing
/// arcs. Two solvers are provided:
///
///  * Howard's policy iteration (the production solver): the empirically fastest
///    known MCR algorithm (Dasdan's survey). A policy picks one outgoing
///    arc per node; the induced functional graph is evaluated exactly
///    (every policy cycle's ratio plus node potentials) and then greedily
///    improved until no arc offers a better (ratio, potential) pair. On
///    the sync graphs the pipeline produces it converges in a handful of
///    sweeps, each O(V + E) — versus the ~64 Bellman–Ford passes of the
///    binary search it replaces.
///  * Lawler's binary search over Bellman–Ford feasibility checks — the
///    historical solver, retained as the differential-test oracle
///    (tests/test_mcm.cpp) and as HowardSolver's fallback should policy
///    iteration ever fail to converge.
///
/// Both return a *witness*: the critical cycle (node sequence plus the
/// arc indices realizing it) whose exact ratio is the reported MCM, so
/// reports can name the tasks that bound throughput instead of just the
/// scalar.
///
/// Precondition shared by both: no zero-delay cycle (callers check
/// deadlock-freedom first; SyncGraph::max_cycle_mean throws).
#pragma once

#include <cstdint>
#include <vector>

namespace spi::sched {

/// One arc of the cycle-ratio problem: weight is the gain (exec cycles of
/// the source task), delay the iteration distance.
struct McmArc {
  std::int32_t src = 0;
  std::int32_t snk = 0;
  double weight = 0.0;
  std::int64_t delay = 0;
};

/// Solver result: the maximum cycle ratio and its witness cycle.
/// cycle_nodes[i] -> cycle_nodes[(i+1) % size] via arcs[cycle_arcs[i]];
/// both are empty when the graph has no cycle (mcm == 0).
struct McmResult {
  double mcm = 0.0;
  std::vector<std::int32_t> cycle_nodes;
  std::vector<std::size_t> cycle_arcs;  ///< indices into the input arc list
};

/// Exact ratio (total weight / total delay) of the witness cycle in
/// `result` re-evaluated against `arcs`; 0 for an empty witness.
[[nodiscard]] double witness_ratio(const McmResult& result, const std::vector<McmArc>& arcs);

/// Howard's policy iteration. Nodes that cannot reach a cycle are peeled
/// first; returns 0 with an empty witness for acyclic inputs. Behaviour
/// is undefined for zero-delay cycles (check beforehand).
[[nodiscard]] McmResult max_cycle_ratio_howard(std::size_t node_count,
                                               const std::vector<McmArc>& arcs);

/// Lawler's binary search with witness extraction: after the search
/// converges, the critical cycle is recovered from the positive-cycle
/// certificate at the final lambda and the reported MCM is that cycle's
/// exact ratio.
[[nodiscard]] McmResult max_cycle_ratio_lawler(std::size_t node_count,
                                               const std::vector<McmArc>& arcs);

/// Incremental wrapper for callers that probe many single-arc edits of
/// the same graph (the resynchronizer's preserve-throughput check): the
/// converged policy and node values persist across solves, so re-solving
/// after add_arc()/remove_arc() only pays the (usually tiny) number of
/// improvement sweeps the edit actually causes, instead of a full
/// from-scratch run per candidate edge.
class HowardSolver {
 public:
  HowardSolver() = default;
  /// (Re)initializes the solver with a fresh problem.
  void reset(std::size_t node_count, std::vector<McmArc> arcs);
  /// Appends an arc; returns its index. Invalidates nothing — the next
  /// solve() warm-starts from the previous policy.
  std::size_t add_arc(const McmArc& arc);
  /// Deactivates an arc by index (typically one just added and rejected).
  void remove_arc(std::size_t index);
  /// Solves from the current (warm) policy; repeated calls after edits
  /// are cheap. Returns the same result a fresh solver would.
  const McmResult& solve();

 private:
  std::size_t node_count_ = 0;
  std::vector<McmArc> arcs_;
  std::vector<char> arc_active_;
  std::vector<std::int32_t> policy_;  ///< node -> arc index (-1 = peeled)
  McmResult result_;
  bool policy_valid_ = false;
};

}  // namespace spi::sched
