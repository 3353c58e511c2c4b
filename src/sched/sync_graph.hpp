/// \file sync_graph.hpp
/// IPC graph and synchronization graph (paper Section 4, after Sriram &
/// Bhattacharyya, "Embedded Multiprocessors: Scheduling and
/// Synchronization").
///
/// Given a task (HSDF) graph and a self-timed multiprocessor schedule,
/// the *IPC graph* G_ipc instantiates: (1) a vertex per task; (2) a
/// zero-delay *sequence* edge between successive tasks on the same
/// processor plus a unit-delay back edge from the last to the first task
/// (the processor loops over its schedule once per iteration); (3) an
/// *IPC* edge for every dataflow arc whose endpoints are on different
/// processors. Every edge (vj -> vi, delay d) encodes the self-timed
/// constraint  start(vi, k) >= end(vj, k - d)  (equation 3).
///
/// The *synchronization graph* G_s starts identical to G_ipc and is then
/// edited: distributed-memory SPI adds an *acknowledgement* edge
/// (snk -> src) for every IPC edge — "both protocols use acknowledgments"
/// (paper Section 4), since without shared memory the consumer must
/// report buffer space back to the producer. A BBS edge's ack carries
/// delay B(e) (the equation-2 bound, the size of its static buffer); a
/// UBS edge's ack carries the configured credit window.
/// Resynchronization (resync.hpp) then removes redundant edges — the
/// paper's "removal of redundant acknowledgement edges for SPI actors".
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "dataflow/graph_algos.hpp"
#include "sched/assignment.hpp"
#include "sched/hsdf.hpp"
#include "sched/mcm.hpp"

namespace spi::sched {

class SyncPathEngine;  // sync_path.hpp

enum class SyncEdgeKind : std::uint8_t {
  kSequence,  ///< same-processor schedule order (incl. loop-back edge)
  kIpc,       ///< inter-processor dataflow edge (data + synchronization)
  kAck,       ///< acknowledgement / back-pressure for an UBS edge
  kResync,    ///< pure synchronization edge added by resynchronization
};

struct SyncEdge {
  std::int32_t src = 0;
  std::int32_t snk = 0;
  std::int64_t delay = 0;  ///< iteration distance of the constraint
  SyncEdgeKind kind = SyncEdgeKind::kSequence;
  df::EdgeId dataflow_edge = df::kInvalidEdge;  ///< for kIpc/kAck: source SDF edge
  bool removed = false;  ///< redundant edges are marked, never erased (stable ids)
};

/// Synchronization graph over the tasks of an HSDF graph.
class SyncGraph {
 public:
  SyncGraph(std::vector<TaskNode> tasks, std::vector<Proc> proc_of_task,
            std::int32_t proc_count)
      : tasks_(std::move(tasks)), proc_(std::move(proc_of_task)), proc_count_(proc_count) {}

  [[nodiscard]] std::size_t task_count() const { return tasks_.size(); }
  [[nodiscard]] const TaskNode& task(std::int32_t t) const { return tasks_.at(static_cast<std::size_t>(t)); }
  /// Updates one task's exec cycles in place. Exec times never affect the
  /// graph's structure (edges, delays, redundancy), so incremental
  /// recompilation patches exec-only edits without rebuilding.
  void set_task_exec(std::int32_t t, std::int64_t exec_cycles) {
    tasks_.at(static_cast<std::size_t>(t)).exec_cycles = exec_cycles;
  }
  [[nodiscard]] Proc proc_of(std::int32_t t) const { return proc_.at(static_cast<std::size_t>(t)); }
  [[nodiscard]] std::int32_t proc_count() const { return proc_count_; }

  std::size_t add_edge(SyncEdge e);
  [[nodiscard]] const std::vector<SyncEdge>& edges() const { return edges_; }
  [[nodiscard]] SyncEdge& edge(std::size_t i) { return edges_.at(i); }

  /// Active (non-removed) edges as a weighted digraph; `exclude` skips one
  /// edge index (used by the redundancy test).
  [[nodiscard]] df::WeightedDigraph digraph(std::optional<std::size_t> exclude = std::nullopt) const;

  /// A synchronization edge (x -> y, delay d) is *redundant* iff some
  /// other active path x -> y has total delay <= d: the sequencing it
  /// enforces is already guaranteed (paper Section 4.1).
  [[nodiscard]] bool is_redundant(std::size_t edge_index) const;

  /// Marks redundant edges of the given kinds removed, one at a time with
  /// recomputation (removing an edge can change other edges' status).
  /// Returns the number of edges removed. Deterministic.
  std::size_t remove_redundant(std::initializer_list<SyncEdgeKind> removable_kinds);

  /// Count of active edges of a kind.
  [[nodiscard]] std::size_t count_active(SyncEdgeKind kind) const;

  /// True when every cycle carries at least one delay (the self-timed
  /// system can make progress; a zero-delay cycle deadlocks).
  [[nodiscard]] bool is_deadlock_free() const;

  /// Maximum cycle mean: max over cycles of (sum of task exec times) /
  /// (sum of edge delays) — the asymptotic iteration period of self-timed
  /// execution. Returns 0 for acyclic graphs. Solved with Howard's policy
  /// iteration (mcm.hpp).
  [[nodiscard]] double max_cycle_mean() const;

  /// As max_cycle_mean(), but also returns the witness critical cycle:
  /// cycle_nodes are task ids, cycle_arcs are indices into edges().
  [[nodiscard]] McmResult max_cycle_mean_witness() const;

 private:
  std::vector<TaskNode> tasks_;
  std::vector<Proc> proc_;
  std::int32_t proc_count_ = 1;
  std::vector<SyncEdge> edges_;
};

/// Buffer-synchronization protocol chosen per IPC edge (paper Section 4).
enum class SyncProtocol : std::uint8_t {
  kBbs,  ///< bounded buffer: size statically guaranteed, no acknowledgement
  kUbs,  ///< unbounded buffer: acknowledgement-based back-pressure required
};

/// Options controlling synchronization-graph construction.
struct SyncGraphOptions {
  /// Iteration distance granted by one UBS acknowledgement (credit
  /// window): the sender may run this many iterations ahead of the
  /// receiver before blocking.
  std::int64_t ubs_credit_window = 1;
};

/// Result of building G_s from an HSDF graph + self-timed schedule.
struct SyncGraphBuild {
  SyncGraph graph;
  /// Per IPC edge (index into graph.edges()): the protocol selected.
  std::vector<std::pair<std::size_t, SyncProtocol>> ipc_edges;
};

/// Per-processor task order of a self-timed schedule: order[p] lists task
/// ids in execution order.
using ProcOrder = std::vector<std::vector<std::int32_t>>;

/// Derives a per-processor task order from a flat PASS firing sequence.
[[nodiscard]] ProcOrder proc_order_from_pass(const HsdfGraph& hsdf,
                                             const std::vector<df::ActorId>& pass_firings,
                                             const Assignment& assignment);

/// Builds the synchronization graph per the recipe above. Feedback IPC
/// edges (bounded by eq. 2) get SPI_BBS; feedforward edges get SPI_UBS
/// plus an acknowledgement edge with the configured credit window.
[[nodiscard]] SyncGraphBuild build_sync_graph(const HsdfGraph& hsdf, const Assignment& assignment,
                                              const ProcOrder& order,
                                              const SyncGraphOptions& options = {});

/// Equation 2: bound (in packed tokens) on the IPC buffer of edge
/// `edge_index` (an active kIpc edge): delay(e) plus the minimum path
/// delay from snk(e) back to src(e) over the other active edges. Returns
/// nullopt when no such path exists (feedforward edge — unbounded without
/// back-pressure, hence UBS).
[[nodiscard]] std::optional<std::int64_t> ipc_buffer_bound_tokens(const SyncGraph& g,
                                                                  std::size_t edge_index);

/// As above, but reusing a caller-held path engine — the form the compile
/// pipeline uses when computing bounds for every IPC edge of one graph.
[[nodiscard]] std::optional<std::int64_t> ipc_buffer_bound_tokens(const SyncGraph& g,
                                                                  SyncPathEngine& engine,
                                                                  std::size_t edge_index);

}  // namespace spi::sched
