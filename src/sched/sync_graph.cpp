#include "sched/sync_graph.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "sched/sync_path.hpp"

namespace spi::sched {

std::size_t SyncGraph::add_edge(SyncEdge e) {
  if (e.src < 0 || static_cast<std::size_t>(e.src) >= tasks_.size() || e.snk < 0 ||
      static_cast<std::size_t>(e.snk) >= tasks_.size())
    throw std::out_of_range("SyncGraph::add_edge: invalid task id");
  if (e.delay < 0) throw std::invalid_argument("SyncGraph::add_edge: negative delay");
  edges_.push_back(e);
  return edges_.size() - 1;
}

df::WeightedDigraph SyncGraph::digraph(std::optional<std::size_t> exclude) const {
  df::WeightedDigraph g(tasks_.size());
  for (std::size_t i = 0; i < edges_.size(); ++i) {
    if (edges_[i].removed) continue;
    if (exclude && *exclude == i) continue;
    g.add_arc(edges_[i].src, edges_[i].snk, edges_[i].delay);
  }
  return g;
}

bool SyncGraph::is_redundant(std::size_t edge_index) const {
  const SyncEdge& e = edges_.at(edge_index);
  if (e.removed) return true;
  SyncPathEngine engine(*this);
  // The search is capped at delay(e): any path found is a witness.
  return engine.min_delay(e.src, e.snk, edge_index, e.delay) != df::kUnreachable;
}

std::size_t SyncGraph::remove_redundant(std::initializer_list<SyncEdgeKind> removable_kinds) {
  // A single ascending pass is complete: removing an edge never *creates*
  // redundancy elsewhere (it only removes witness paths), and each test
  // runs against the current graph — the engine reads `removed` flags
  // live, so one engine serves the whole sweep.
  SyncPathEngine engine(*this);
  std::size_t removed = 0;
  for (std::size_t i = 0; i < edges_.size(); ++i) {
    const SyncEdge& e = edges_[i];
    if (e.removed) continue;
    const bool removable =
        std::find(removable_kinds.begin(), removable_kinds.end(), e.kind) !=
        removable_kinds.end();
    if (removable && engine.min_delay(e.src, e.snk, i, e.delay) != df::kUnreachable) {
      edges_[i].removed = true;
      ++removed;
    }
  }
  return removed;
}

std::size_t SyncGraph::count_active(SyncEdgeKind kind) const {
  std::size_t n = 0;
  for (const SyncEdge& e : edges_)
    if (!e.removed && e.kind == kind) ++n;
  return n;
}

bool SyncGraph::is_deadlock_free() const {
  df::WeightedDigraph zero(tasks_.size());
  for (const SyncEdge& e : edges_)
    if (!e.removed && e.delay == 0) zero.add_arc(e.src, e.snk, 0);
  return df::topological_order(zero).has_value();
}

double SyncGraph::max_cycle_mean() const { return max_cycle_mean_witness().mcm; }

McmResult SyncGraph::max_cycle_mean_witness() const {
  if (!is_deadlock_free())
    throw std::logic_error("SyncGraph::max_cycle_mean: zero-delay cycle (deadlock)");

  // Node exec times are attributed to outgoing arcs, turning the cycle
  // *mean* into the cycle *ratio* mcm.hpp solves.
  std::vector<McmArc> arcs;
  std::vector<std::size_t> edge_of_arc;
  arcs.reserve(edges_.size());
  edge_of_arc.reserve(edges_.size());
  for (std::size_t i = 0; i < edges_.size(); ++i) {
    const SyncEdge& e = edges_[i];
    if (e.removed) continue;
    arcs.push_back(McmArc{e.src, e.snk,
                          static_cast<double>(tasks_[static_cast<std::size_t>(e.src)].exec_cycles),
                          e.delay});
    edge_of_arc.push_back(i);
  }
  McmResult result = max_cycle_ratio_howard(tasks_.size(), arcs);
  for (std::size_t& a : result.cycle_arcs) a = edge_of_arc[a];
  return result;
}

ProcOrder proc_order_from_pass(const HsdfGraph& hsdf,
                               const std::vector<df::ActorId>& pass_firings,
                               const Assignment& assignment) {
  ProcOrder order(static_cast<std::size_t>(assignment.proc_count()));
  std::vector<std::int32_t> fired(hsdf.first_task.size(), 0);
  for (df::ActorId a : pass_firings) {
    const std::int32_t task = hsdf.task_of(a, fired[static_cast<std::size_t>(a)]++);
    order[static_cast<std::size_t>(assignment.proc_of(a))].push_back(task);
  }
  return order;
}

SyncGraphBuild build_sync_graph(const HsdfGraph& hsdf, const Assignment& assignment,
                                const ProcOrder& order, const SyncGraphOptions& options) {
  std::vector<Proc> proc_of_task(hsdf.tasks.size());
  for (std::size_t t = 0; t < hsdf.tasks.size(); ++t)
    proc_of_task[t] = assignment.proc_of(hsdf.tasks[t].actor);

  SyncGraph graph(hsdf.tasks, std::move(proc_of_task), assignment.proc_count());

  // (2) sequence edges: zero-delay chain per processor plus the unit-delay
  // loop-back that models one schedule pass per iteration.
  std::vector<std::int32_t> position(hsdf.tasks.size(), -1);
  for (Proc p = 0; p < assignment.proc_count(); ++p) {
    const auto& tasks = order.at(static_cast<std::size_t>(p));
    for (std::size_t i = 0; i < tasks.size(); ++i)
      position[static_cast<std::size_t>(tasks[i])] = static_cast<std::int32_t>(i);
    for (std::size_t i = 0; i + 1 < tasks.size(); ++i)
      graph.add_edge(SyncEdge{tasks[i], tasks[i + 1], 0, SyncEdgeKind::kSequence,
                              df::kInvalidEdge, false});
    if (!tasks.empty())
      graph.add_edge(SyncEdge{tasks.back(), tasks.front(), 1, SyncEdgeKind::kSequence,
                              df::kInvalidEdge, false});
  }

  // (3) IPC edges for cross-processor arcs; validate that intra-processor
  // arcs are honoured by the schedule order (admissibility).
  SyncGraphBuild build{std::move(graph), {}};
  for (const TaskArc& arc : hsdf.arcs) {
    const Proc ps = build.graph.proc_of(arc.src);
    const Proc pk = build.graph.proc_of(arc.snk);
    if (ps == pk) {
      const bool src_first = position[static_cast<std::size_t>(arc.src)] <
                             position[static_cast<std::size_t>(arc.snk)];
      if (!src_first && arc.delay < 1)
        throw std::logic_error(
            "build_sync_graph: schedule order violates zero-delay intra-processor dependency " +
            hsdf.tasks[static_cast<std::size_t>(arc.src)].name + " -> " +
            hsdf.tasks[static_cast<std::size_t>(arc.snk)].name);
      continue;  // enforced by sequence edges
    }
    const std::size_t idx = build.graph.add_edge(
        SyncEdge{arc.src, arc.snk, arc.delay, SyncEdgeKind::kIpc, arc.dataflow_edge, false});
    build.ipc_edges.emplace_back(idx, SyncProtocol::kUbs);  // classified below
  }

  // Classify protocols on the ack-free graph: a feedback IPC edge has a
  // statically bounded buffer (eq. 2) -> BBS; feedforward -> UBS. One
  // path engine serves every bound query.
  std::vector<std::int64_t> ack_delay(build.ipc_edges.size(), 0);
  SyncPathEngine engine(build.graph);
  for (std::size_t i = 0; i < build.ipc_edges.size(); ++i) {
    auto& [idx, protocol] = build.ipc_edges[i];
    const auto bound = ipc_buffer_bound_tokens(build.graph, engine, idx);
    protocol = bound.has_value() ? SyncProtocol::kBbs : SyncProtocol::kUbs;
    ack_delay[i] = bound.value_or(options.ubs_credit_window);
  }
  // Distributed memory: *both* protocols carry acknowledgements (paper
  // Section 4 — there is no shared read pointer, so the consumer reports
  // buffer space back). The ack of a BBS edge grants the producer a lead
  // of B(e) (equation 2) iterations; a UBS ack grants the credit window.
  // Resynchronization (Section 4.1) later elides every ack whose bound is
  // already enforced by other synchronization paths — for BBS edges that
  // is frequently provable, which is exactly the paper's optimization.
  for (std::size_t i = 0; i < build.ipc_edges.size(); ++i) {
    const SyncEdge e = build.graph.edge(build.ipc_edges[i].first);
    build.graph.add_edge(
        SyncEdge{e.snk, e.src, ack_delay[i], SyncEdgeKind::kAck, e.dataflow_edge, false});
  }
  return build;
}

std::optional<std::int64_t> ipc_buffer_bound_tokens(const SyncGraph& g, std::size_t edge_index) {
  SyncPathEngine engine(g);
  return ipc_buffer_bound_tokens(g, engine, edge_index);
}

std::optional<std::int64_t> ipc_buffer_bound_tokens(const SyncGraph& g, SyncPathEngine& engine,
                                                    std::size_t edge_index) {
  const SyncEdge& e = g.edges().at(edge_index);
  if (e.kind != SyncEdgeKind::kIpc)
    throw std::invalid_argument("ipc_buffer_bound_tokens: not an IPC edge");
  // Tokens on e cannot exceed delay(e) plus the minimum delay of a
  // synchronization path from the consumer back to the producer: the
  // producer can run at most that many iterations ahead (equation 2's
  // token-count factor; multiply by c(e) of equation 1 for bytes).
  // Excluding e itself is for clarity only: a snk->src walk through
  // e = (src -> snk) would visit src before using it, so a no-shorter
  // e-free prefix always exists.
  const std::int64_t back = engine.min_delay(e.snk, e.src, edge_index);
  if (back == df::kUnreachable) return std::nullopt;
  return e.delay + back;
}

}  // namespace spi::sched
