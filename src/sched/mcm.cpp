#include "sched/mcm.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace spi::sched {

namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

/// Scale-aware comparison margin for the policy-improvement tests.
double improvement_eps(const std::vector<McmArc>& arcs) {
  double scale = 1.0;
  for (const McmArc& a : arcs) scale = std::max(scale, std::abs(a.weight));
  return 1e-10 * scale;
}

}  // namespace

double witness_ratio(const McmResult& result, const std::vector<McmArc>& arcs) {
  if (result.cycle_arcs.empty()) return 0.0;
  double weight = 0.0;
  std::int64_t delay = 0;
  for (std::size_t idx : result.cycle_arcs) {
    weight += arcs.at(idx).weight;
    delay += arcs.at(idx).delay;
  }
  if (delay <= 0) throw std::logic_error("witness_ratio: zero-delay witness cycle");
  return weight / static_cast<double>(delay);
}

void HowardSolver::reset(std::size_t node_count, std::vector<McmArc> arcs) {
  node_count_ = node_count;
  arcs_ = std::move(arcs);
  arc_active_.assign(arcs_.size(), 1);
  policy_.assign(node_count_, -1);
  policy_valid_ = false;
  result_ = {};
}

std::size_t HowardSolver::add_arc(const McmArc& arc) {
  arcs_.push_back(arc);
  arc_active_.push_back(1);
  return arcs_.size() - 1;
}

void HowardSolver::remove_arc(std::size_t index) {
  arc_active_.at(index) = 0;
}

const McmResult& HowardSolver::solve() {
  const std::size_t n = node_count_;
  result_ = {};
  if (n == 0 || arcs_.empty()) return result_;

  // Adjacency over active arcs (arc indices grouped by source).
  std::vector<std::int32_t> head(n, -1);
  std::vector<std::int32_t> next(arcs_.size(), -1);
  for (std::size_t i = arcs_.size(); i-- > 0;) {
    if (!arc_active_[i]) continue;
    const auto u = static_cast<std::size_t>(arcs_[i].src);
    next[i] = head[u];
    head[u] = static_cast<std::int32_t>(i);
  }

  // Peel nodes that cannot reach a cycle: repeatedly drop nodes whose
  // every active arc leads to an already-dropped node. What survives is
  // the cycle-reaching core on which a policy is well defined.
  std::vector<std::int32_t> out_degree(n, 0);
  std::vector<std::vector<std::int32_t>> rev(n);
  for (std::size_t i = 0; i < arcs_.size(); ++i) {
    if (!arc_active_[i]) continue;
    ++out_degree[static_cast<std::size_t>(arcs_[i].src)];
    rev[static_cast<std::size_t>(arcs_[i].snk)].push_back(static_cast<std::int32_t>(arcs_[i].src));
  }
  std::vector<char> alive(n, 1);
  std::vector<std::int32_t> worklist;
  for (std::size_t u = 0; u < n; ++u)
    if (out_degree[u] == 0) {
      alive[u] = 0;
      worklist.push_back(static_cast<std::int32_t>(u));
    }
  while (!worklist.empty()) {
    const auto u = static_cast<std::size_t>(worklist.back());
    worklist.pop_back();
    for (std::int32_t p : rev[u]) {
      const auto pu = static_cast<std::size_t>(p);
      if (alive[pu] && --out_degree[pu] == 0) {
        // Recount: out_degree here tracks arcs into still-alive nodes.
        alive[pu] = 0;
        worklist.push_back(p);
      }
    }
  }
  // The decrement above is per incoming-arc-to-a-dead-node; recompute the
  // survivors' effective degree to guard against double-decrements from
  // parallel arcs (rev holds one entry per arc, so counts stay exact).
  bool any_alive = false;
  for (std::size_t u = 0; u < n; ++u) any_alive = any_alive || alive[u];
  if (!any_alive) return result_;  // acyclic in the delay sense

  // Policy init / warm repair: keep previous choices that still point at
  // an active arc into the live core; otherwise take the first such arc.
  for (std::size_t u = 0; u < n; ++u) {
    if (!alive[u]) {
      policy_[u] = -1;
      continue;
    }
    const std::int32_t kept = policy_valid_ ? policy_[u] : -1;
    const bool kept_ok = kept >= 0 && static_cast<std::size_t>(kept) < arcs_.size() &&
                         arc_active_[static_cast<std::size_t>(kept)] &&
                         arcs_[static_cast<std::size_t>(kept)].src == static_cast<std::int32_t>(u) &&
                         alive[static_cast<std::size_t>(arcs_[static_cast<std::size_t>(kept)].snk)];
    if (kept_ok) continue;
    std::int32_t pick = -1;
    for (std::int32_t a = head[u]; a >= 0; a = next[static_cast<std::size_t>(a)])
      if (alive[static_cast<std::size_t>(arcs_[static_cast<std::size_t>(a)].snk)]) pick = a;
    // The intrusive list is built in reverse, so the last survivor seen is
    // the lowest arc index — deterministic regardless of warm state.
    policy_[u] = pick;
  }

  const double eps = improvement_eps(arcs_);
  std::vector<double> lambda(n, kNegInf), value(n, 0.0);
  std::vector<std::int32_t> color(n);          // 0 unvisited, 1 on path, 2 valued
  std::vector<std::int32_t> path;
  std::int32_t best_cycle_entry = -1;          // a node on the best policy cycle
  double best_lambda = kNegInf;

  const std::size_t max_sweeps = std::max<std::size_t>(64, 2 * n + 16);
  bool converged = false;
  for (std::size_t sweep = 0; sweep < max_sweeps && !converged; ++sweep) {
    // --- value determination over the policy's functional graph ---------
    std::fill(color.begin(), color.end(), 0);
    best_cycle_entry = -1;
    best_lambda = kNegInf;
    for (std::size_t root = 0; root < n; ++root) {
      if (!alive[root] || color[root] != 0) continue;
      path.clear();
      std::int32_t u = static_cast<std::int32_t>(root);
      while (color[static_cast<std::size_t>(u)] == 0) {
        color[static_cast<std::size_t>(u)] = 1;
        path.push_back(u);
        u = arcs_[static_cast<std::size_t>(policy_[static_cast<std::size_t>(u)])].snk;
      }
      if (color[static_cast<std::size_t>(u)] == 1) {
        // New policy cycle: u closes it. Evaluate its exact ratio.
        const auto cycle_start = static_cast<std::size_t>(
            std::find(path.begin(), path.end(), u) - path.begin());
        const std::size_t k = path.size() - cycle_start;
        double weight = 0.0;
        std::int64_t delay = 0;
        std::size_t anchor_pos = 0;  // offset of the min-id cycle node
        for (std::size_t i = 0; i < k; ++i) {
          const McmArc& a =
              arcs_[static_cast<std::size_t>(policy_[static_cast<std::size_t>(path[cycle_start + i])])];
          weight += a.weight;
          delay += a.delay;
          if (path[cycle_start + i] < path[cycle_start + anchor_pos]) anchor_pos = i;
        }
        if (delay <= 0)
          throw std::logic_error("max_cycle_ratio: zero-delay cycle (deadlock)");
        const double ratio = weight / static_cast<double>(delay);
        // Anchor value(min-id node) = 0 and solve backwards around the
        // cycle. The anchor must depend only on the cycle itself — never
        // on which root the traversal entered it from — or potentials of
        // an unchanged cycle would shift between sweeps and the
        // equal-ratio improvement test below could churn forever.
        const std::int32_t anchor = path[cycle_start + anchor_pos];
        if (ratio > best_lambda) {
          best_lambda = ratio;
          best_cycle_entry = anchor;
        }
        lambda[static_cast<std::size_t>(anchor)] = ratio;
        value[static_cast<std::size_t>(anchor)] = 0.0;
        color[static_cast<std::size_t>(anchor)] = 2;
        for (std::size_t j = 1; j < k; ++j) {
          const auto node =
              static_cast<std::size_t>(path[cycle_start + (anchor_pos + k - j) % k]);
          const McmArc& a = arcs_[static_cast<std::size_t>(policy_[node])];
          lambda[node] = ratio;
          value[node] = a.weight - ratio * static_cast<double>(a.delay) +
                        value[static_cast<std::size_t>(a.snk)];
          color[node] = 2;
        }
      }
      // Unwind the tree part of the path (nodes still colored 1).
      for (std::size_t i = path.size(); i-- > 0;) {
        const auto node = static_cast<std::size_t>(path[i]);
        if (color[node] == 2) continue;
        const McmArc& a = arcs_[static_cast<std::size_t>(policy_[node])];
        lambda[node] = lambda[static_cast<std::size_t>(a.snk)];
        value[node] = a.weight - lambda[node] * static_cast<double>(a.delay) +
                      value[static_cast<std::size_t>(a.snk)];
        color[node] = 2;
      }
    }

    // --- policy improvement ---------------------------------------------
    // An arc (u -> v) improves u when it reaches a strictly better cycle
    // ratio, or the same ratio with a strictly better potential. Arcs are
    // scanned in index order and only strict improvements switch the
    // policy, so the pass is deterministic.
    bool improved = false;
    for (std::size_t i = 0; i < arcs_.size(); ++i) {
      if (!arc_active_[i]) continue;
      const McmArc& a = arcs_[i];
      const auto u = static_cast<std::size_t>(a.src);
      const auto v = static_cast<std::size_t>(a.snk);
      if (!alive[u] || !alive[v]) continue;
      if (lambda[v] > lambda[u] + eps) {
        policy_[u] = static_cast<std::int32_t>(i);
        lambda[u] = lambda[v];
        // Keep (lambda, value) consistent for the rest of the sweep: later
        // arcs from u compare against this choice, so a stale potential
        // here would let a worse arc win the equal-ratio test.
        value[u] = a.weight - lambda[v] * static_cast<double>(a.delay) + value[v];
        improved = true;
      } else if (lambda[v] > lambda[u] - eps) {
        const double candidate =
            a.weight - lambda[u] * static_cast<double>(a.delay) + value[v];
        if (candidate > value[u] + eps) {
          policy_[u] = static_cast<std::int32_t>(i);
          value[u] = candidate;
          improved = true;
        }
      }
    }
    converged = !improved;
  }
  policy_valid_ = true;

  if (!converged) {
    // Numerical cycling safety valve: defer to the oracle. Rare enough
    // that a from-scratch run is acceptable.
    result_ = max_cycle_ratio_lawler(node_count_, [&] {
      std::vector<McmArc> active;
      active.reserve(arcs_.size());
      for (std::size_t i = 0; i < arcs_.size(); ++i)
        if (arc_active_[i]) active.push_back(arcs_[i]);
      return active;
    }());
    // Witness arc indices above refer to the compacted list; drop them
    // rather than report misleading ids.
    result_.cycle_nodes.clear();
    result_.cycle_arcs.clear();
    return result_;
  }

  // Extract the witness: walk the converged policy from the best cycle's
  // entry node until it closes.
  if (best_cycle_entry >= 0) {
    result_.mcm = best_lambda;
    std::int32_t u = best_cycle_entry;
    do {
      const auto arc = static_cast<std::size_t>(policy_[static_cast<std::size_t>(u)]);
      result_.cycle_nodes.push_back(u);
      result_.cycle_arcs.push_back(arc);
      u = arcs_[arc].snk;
    } while (u != best_cycle_entry);
    result_.mcm = witness_ratio(result_, arcs_);
  }
  return result_;
}

McmResult max_cycle_ratio_howard(std::size_t node_count, const std::vector<McmArc>& arcs) {
  HowardSolver solver;
  solver.reset(node_count, arcs);
  return solver.solve();
}

McmResult max_cycle_ratio_lawler(std::size_t node_count, const std::vector<McmArc>& arcs) {
  McmResult result;
  if (node_count == 0 || arcs.empty()) return result;

  // A cycle with mean > lambda exists iff the graph with arc weights
  // w - lambda*delay has a positive cycle: detected by n Bellman-Ford
  // relaxation passes from a virtual zero-weight source.
  std::vector<double> dist(node_count);
  std::vector<std::int32_t> parent(node_count);
  std::int32_t last_updated = -1;  // a node relaxed in the final BF pass
  const auto has_positive_cycle = [&](double lambda, bool track_parents) {
    std::fill(dist.begin(), dist.end(), 0.0);
    if (track_parents) std::fill(parent.begin(), parent.end(), -1);
    last_updated = -1;
    for (std::size_t iter = 0; iter < node_count; ++iter) {
      bool changed = false;
      for (std::size_t i = 0; i < arcs.size(); ++i) {
        const McmArc& a = arcs[i];
        const double w = a.weight - lambda * static_cast<double>(a.delay);
        const double cand = dist[static_cast<std::size_t>(a.src)] + w;
        if (cand > dist[static_cast<std::size_t>(a.snk)] + 1e-12) {
          dist[static_cast<std::size_t>(a.snk)] = cand;
          if (track_parents) parent[static_cast<std::size_t>(a.snk)] = static_cast<std::int32_t>(i);
          last_updated = a.snk;
          changed = true;
        }
      }
      if (!changed) return false;
    }
    return true;
  };

  double total_weight = 0.0;
  for (const McmArc& a : arcs) total_weight += std::max(a.weight, 0.0);
  if (!has_positive_cycle(0.0, false)) return result;  // no (delay-)cycle

  double lo = 0.0, hi = std::max(total_weight, 1e-9);
  for (int iter = 0; iter < 64 && hi - lo > 1e-9 * std::max(1.0, hi); ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (has_positive_cycle(mid, false))
      lo = mid;
    else
      hi = mid;
  }
  result.mcm = hi;

  // Witness: at lambda slightly below the answer a strictly-positive
  // cycle exists; recover it from the Bellman-Ford parent pointers and
  // report its exact ratio (which tightens the binary-search scalar).
  double probe = lo;
  for (int attempt = 0; attempt < 8; ++attempt) {
    if (has_positive_cycle(probe, true)) break;
    probe -= std::max(1e-12, 1e-9 * std::max(1.0, hi)) * (1 << attempt);
    if (attempt == 7) return result;  // keep the scalar, no witness
  }
  // A node relaxed in the n-th pass sits at the end of a parent chain of
  // length >= n, which therefore repeats a node: walking n parents from
  // *that* node (no other — chains from earlier-relaxed nodes may simply
  // end at an unparented root) is guaranteed to land inside a cycle of
  // the parent forest.
  std::int32_t inside = last_updated;
  if (inside < 0) return result;
  for (std::size_t hop = 0; hop < node_count; ++hop) {
    const std::int32_t p = parent[static_cast<std::size_t>(inside)];
    if (p < 0) return result;  // defensive: keep the scalar, drop the witness
    inside = arcs[static_cast<std::size_t>(p)].src;
  }
  std::vector<char> on_cycle(node_count, 0);
  std::int32_t u = inside;
  while (!on_cycle[static_cast<std::size_t>(u)]) {
    on_cycle[static_cast<std::size_t>(u)] = 1;
    u = arcs[static_cast<std::size_t>(parent[static_cast<std::size_t>(u)])].src;
  }
  // u is now on the cycle; walk it forward (via parents, which point at
  // predecessors) collecting arcs, then reverse into source order.
  const std::int32_t start = u;
  std::vector<std::int32_t> nodes_rev;
  std::vector<std::size_t> arcs_rev;
  do {
    const auto arc = static_cast<std::size_t>(parent[static_cast<std::size_t>(u)]);
    nodes_rev.push_back(u);
    arcs_rev.push_back(arc);
    u = arcs[arc].src;
  } while (u != start);
  // parent[] chains snk <- src: nodes_rev[i] is the sink of arcs_rev[i].
  // Reversing yields nodes in walk order with cycle_arcs[i] leaving
  // cycle_nodes[i].
  result.cycle_nodes.assign(nodes_rev.rbegin(), nodes_rev.rend());
  std::vector<std::size_t> forward(arcs_rev.rbegin(), arcs_rev.rend());
  // arcs_rev reversed gives, at position i, the arc *entering*
  // cycle_nodes[i]; rotate by one so index i carries the arc leaving it.
  std::rotate(forward.begin(), forward.begin() + 1, forward.end());
  result.cycle_arcs = std::move(forward);
  result.mcm = witness_ratio(result, arcs);
  return result;
}

}  // namespace spi::sched
