#include "sched/mcm.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <vector>

#include "sched/sync_graph.hpp"

namespace spi::sched {
namespace {

/// A random strongly connected cycle-ratio instance. Strong connectivity
/// comes from a Hamiltonian cycle over a random permutation (every arc of
/// it carrying at least one delay); extra arcs are sprinkled on top, with
/// zero delays allowed only forward in node order so no zero-delay cycle
/// can form (both solvers' shared precondition).
std::vector<McmArc> random_instance(std::mt19937& rng, std::int32_t n) {
  std::uniform_int_distribution<std::int64_t> exec(1, 100);
  std::uniform_int_distribution<std::int64_t> delay(1, 4);
  std::uniform_int_distribution<std::int32_t> node(0, n - 1);

  std::vector<std::int32_t> perm(static_cast<std::size_t>(n));
  for (std::int32_t i = 0; i < n; ++i) perm[static_cast<std::size_t>(i)] = i;
  std::shuffle(perm.begin(), perm.end(), rng);

  std::vector<McmArc> arcs;
  for (std::int32_t i = 0; i < n; ++i) {
    const std::int32_t u = perm[static_cast<std::size_t>(i)];
    const std::int32_t v = perm[static_cast<std::size_t>((i + 1) % n)];
    arcs.push_back(McmArc{u, v, static_cast<double>(exec(rng)), delay(rng)});
  }
  const std::int32_t extra = n + node(rng);
  for (std::int32_t i = 0; i < extra; ++i) {
    const std::int32_t u = node(rng);
    const std::int32_t v = node(rng);
    std::int64_t d = delay(rng) - 1;  // 0..3
    if (d == 0 && u >= v) d = 1;      // zero-delay arcs only forward: no 0-delay cycle
    arcs.push_back(McmArc{u, v, static_cast<double>(exec(rng)), d});
  }
  return arcs;
}

/// cycle_nodes/cycle_arcs must describe a real cycle of the input and the
/// reported mcm must be that cycle's exact ratio.
void check_witness(const McmResult& r, const std::vector<McmArc>& arcs) {
  ASSERT_EQ(r.cycle_nodes.size(), r.cycle_arcs.size());
  ASSERT_FALSE(r.cycle_nodes.empty());
  for (std::size_t i = 0; i < r.cycle_arcs.size(); ++i) {
    ASSERT_LT(r.cycle_arcs[i], arcs.size());
    const McmArc& a = arcs[r.cycle_arcs[i]];
    EXPECT_EQ(a.src, r.cycle_nodes[i]);
    EXPECT_EQ(a.snk, r.cycle_nodes[(i + 1) % r.cycle_nodes.size()]);
  }
  EXPECT_EQ(r.mcm, witness_ratio(r, arcs));
}

TEST(Mcm, EmptyGraph) {
  const McmResult howard = max_cycle_ratio_howard(0, {});
  const McmResult lawler = max_cycle_ratio_lawler(0, {});
  EXPECT_EQ(howard.mcm, 0.0);
  EXPECT_EQ(lawler.mcm, 0.0);
  EXPECT_TRUE(howard.cycle_nodes.empty());
  EXPECT_TRUE(lawler.cycle_nodes.empty());
}

TEST(Mcm, AcyclicGraph) {
  const std::vector<McmArc> arcs = {{0, 1, 5.0, 0}, {1, 2, 7.0, 1}};
  EXPECT_EQ(max_cycle_ratio_howard(3, arcs).mcm, 0.0);
  EXPECT_EQ(max_cycle_ratio_lawler(3, arcs).mcm, 0.0);
}

TEST(Mcm, SingleSelfLoop) {
  const std::vector<McmArc> arcs = {{0, 0, 42.0, 3}};
  const McmResult howard = max_cycle_ratio_howard(1, arcs);
  const McmResult lawler = max_cycle_ratio_lawler(1, arcs);
  EXPECT_DOUBLE_EQ(howard.mcm, 14.0);
  EXPECT_DOUBLE_EQ(lawler.mcm, 14.0);
  check_witness(howard, arcs);
  check_witness(lawler, arcs);
}

TEST(Mcm, TwoCyclesPicksMaximum) {
  // Cycle {0,1}: (10+10)/2 = 10; cycle {2}: 30/2 = 15.
  const std::vector<McmArc> arcs = {
      {0, 1, 10.0, 1}, {1, 0, 10.0, 1}, {2, 2, 30.0, 2}, {1, 2, 1.0, 0}};
  const McmResult r = max_cycle_ratio_howard(3, arcs);
  EXPECT_DOUBLE_EQ(r.mcm, 15.0);
  ASSERT_EQ(r.cycle_nodes.size(), 1u);
  EXPECT_EQ(r.cycle_nodes[0], 2);
}

TEST(Mcm, ZeroDelayCycleThrowsAtSyncGraphLevel) {
  // The solver precondition is enforced by SyncGraph::max_cycle_mean.
  SyncGraph g({TaskNode{0, 0, 10, "a"}, TaskNode{1, 0, 10, "b"}}, {0, 1}, 2);
  g.add_edge(SyncEdge{0, 1, 0, SyncEdgeKind::kIpc, df::kInvalidEdge, false});
  g.add_edge(SyncEdge{1, 0, 0, SyncEdgeKind::kIpc, df::kInvalidEdge, false});
  EXPECT_THROW((void)g.max_cycle_mean(), std::logic_error);
}

/// The tentpole differential test: Howard against the Lawler oracle on
/// ≥1000 random strongly connected instances, 1e-9 relative agreement,
/// both witnesses valid and exact.
TEST(Mcm, DifferentialHowardVsLawlerRandomStronglyConnected) {
  std::mt19937 rng(20080310);  // DATE'08 vintage, fixed for reproducibility
  std::uniform_int_distribution<std::int32_t> size(2, 24);
  for (int trial = 0; trial < 1000; ++trial) {
    const std::int32_t n = size(rng);
    const std::vector<McmArc> arcs = random_instance(rng, n);
    const McmResult howard = max_cycle_ratio_howard(static_cast<std::size_t>(n), arcs);
    const McmResult lawler = max_cycle_ratio_lawler(static_cast<std::size_t>(n), arcs);
    ASSERT_GT(howard.mcm, 0.0) << "trial " << trial;
    ASSERT_NEAR(howard.mcm, lawler.mcm, 1e-9 * std::max(std::abs(howard.mcm), 1.0))
        << "trial " << trial << " n=" << n;
    check_witness(howard, arcs);
    check_witness(lawler, arcs);
  }
}

/// Warm-started solves after arc edits must match a fresh solver on the
/// same active arc set — the invariant the resynchronizer leans on.
TEST(Mcm, HowardSolverWarmStartMatchesFresh) {
  std::mt19937 rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    const std::int32_t n = 12;
    std::vector<McmArc> arcs = random_instance(rng, n);
    HowardSolver solver;
    solver.reset(static_cast<std::size_t>(n), arcs);
    EXPECT_EQ(solver.solve().mcm, max_cycle_ratio_howard(static_cast<std::size_t>(n), arcs).mcm);

    std::vector<char> active(arcs.size(), 1);
    std::uniform_int_distribution<std::int32_t> node(0, n - 1);
    for (int edit = 0; edit < 8; ++edit) {
      if (edit % 2 == 0) {
        // Add a delayed arc (delay >= 1 keeps the instance legal).
        const McmArc arc{node(rng), node(rng), static_cast<double>(1 + node(rng)), 2};
        ASSERT_EQ(solver.add_arc(arc), arcs.size());
        arcs.push_back(arc);
        active.push_back(1);
      } else {
        // Remove a non-Hamiltonian arc (keeps strong connectivity).
        const std::size_t i =
            static_cast<std::size_t>(n) + static_cast<std::size_t>(edit / 2);
        if (i < arcs.size() && active[i]) {
          solver.remove_arc(i);
          active[i] = 0;
        }
      }
      std::vector<McmArc> current;
      for (std::size_t i = 0; i < arcs.size(); ++i)
        if (active[i]) current.push_back(arcs[i]);
      const double fresh = max_cycle_ratio_howard(static_cast<std::size_t>(n), current).mcm;
      const double warm = solver.solve().mcm;
      ASSERT_NEAR(warm, fresh, 1e-9 * std::max(fresh, 1.0)) << "trial " << trial;
    }
  }
}

}  // namespace
}  // namespace spi::sched
