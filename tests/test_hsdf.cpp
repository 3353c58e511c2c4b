#include "sched/hsdf.hpp"

#include <gtest/gtest.h>

namespace spi::sched {
namespace {

TEST(Hsdf, HomogeneousGraphExpandsOneToOne) {
  df::Graph g;
  const df::ActorId a = g.add_actor("A", 10);
  const df::ActorId b = g.add_actor("B", 20);
  g.connect_simple(a, b, 2);
  const df::Repetitions reps = df::compute_repetitions(g);
  const HsdfGraph h = hsdf_expand(g, reps);

  ASSERT_EQ(h.tasks.size(), 2u);
  ASSERT_EQ(h.arcs.size(), 1u);
  EXPECT_EQ(h.tasks[0].name, "A");
  EXPECT_EQ(h.tasks[0].exec_cycles, 10);
  EXPECT_EQ(h.arcs[0].src, h.task_of(a, 0));
  EXPECT_EQ(h.arcs[0].snk, h.task_of(b, 0));
  EXPECT_EQ(h.arcs[0].delay, 2);
}

TEST(Hsdf, MultirateCreatesFiringNodes) {
  // A --2:1--> B : q = (1, 2); firing B#0 consumes token 0, B#1 token 1,
  // both produced by A#0 within the same iteration.
  df::Graph g;
  const df::ActorId a = g.add_actor("A");
  const df::ActorId b = g.add_actor("B");
  g.connect(a, df::Rate::fixed(2), b, df::Rate::fixed(1));
  const df::Repetitions reps = df::compute_repetitions(g);
  const HsdfGraph h = hsdf_expand(g, reps);

  ASSERT_EQ(h.tasks.size(), 3u);
  EXPECT_EQ(h.tasks[static_cast<std::size_t>(h.task_of(b, 0))].name, "B#0");
  EXPECT_EQ(h.tasks[static_cast<std::size_t>(h.task_of(b, 1))].name, "B#1");
  ASSERT_EQ(h.arcs.size(), 2u);
  for (const TaskArc& arc : h.arcs) {
    EXPECT_EQ(arc.src, h.task_of(a, 0));
    EXPECT_EQ(arc.delay, 0);
  }
}

TEST(Hsdf, DelayShiftsConsumerIterations) {
  // A --1:1, delay 1--> B : A#0's token is consumed by B in the *next*
  // iteration (arc delay 1).
  df::Graph g;
  const df::ActorId a = g.add_actor("A");
  const df::ActorId b = g.add_actor("B");
  g.connect_simple(a, b, 1);
  const df::Repetitions reps = df::compute_repetitions(g);
  const HsdfGraph h = hsdf_expand(g, reps);
  ASSERT_EQ(h.arcs.size(), 1u);
  EXPECT_EQ(h.arcs[0].delay, 1);
}

TEST(Hsdf, PartialDelayMultirate) {
  // A --1:2, delay 1--> B : q = (2, 1). B#0 consumes tokens {0,1} =
  // {initial, A#0's} so the binding (minimum-delay) arc A#0 -> B#0 has
  // delay 0; A#1's token 2 goes to B#0 of the NEXT iteration (delay 1).
  df::Graph g;
  const df::ActorId a = g.add_actor("A");
  const df::ActorId b = g.add_actor("B");
  g.connect(a, df::Rate::fixed(1), b, df::Rate::fixed(2), 1);
  const df::Repetitions reps = df::compute_repetitions(g);
  const HsdfGraph h = hsdf_expand(g, reps);

  ASSERT_EQ(h.tasks.size(), 3u);
  ASSERT_EQ(h.arcs.size(), 2u);
  std::int64_t delay_a0 = -1, delay_a1 = -1;
  for (const TaskArc& arc : h.arcs) {
    if (arc.src == h.task_of(a, 0)) delay_a0 = arc.delay;
    if (arc.src == h.task_of(a, 1)) delay_a1 = arc.delay;
  }
  EXPECT_EQ(delay_a0, 0);
  EXPECT_EQ(delay_a1, 1);
}

TEST(Hsdf, ParallelArcsMergedToMinDelay) {
  // A --2:2, delay 2--> B : q = (1,1); B#0 consumes tokens {2,3}: token 2
  // is A#0's first output (delay 0 path), token 3 its second. Both map to
  // the same (A#0, B#0) pair -> one arc with the minimum delay.
  df::Graph g;
  const df::ActorId a = g.add_actor("A");
  const df::ActorId b = g.add_actor("B");
  g.connect(a, df::Rate::fixed(2), b, df::Rate::fixed(2), 2);
  const df::Repetitions reps = df::compute_repetitions(g);
  const HsdfGraph h = hsdf_expand(g, reps);
  ASSERT_EQ(h.arcs.size(), 1u);
  EXPECT_EQ(h.arcs[0].delay, 1);
}

TEST(Hsdf, ParallelEdgesKeepTheirOwnArcs) {
  // Two edges between the same firings: each keeps its own arc (and so
  // its own channel when the actors sit on different processors), even
  // where the second arc's delay is no smaller.
  df::Graph g;
  const df::ActorId a = g.add_actor("A");
  const df::ActorId b = g.add_actor("B");
  const df::EdgeId first = g.connect_simple(a, b, 0);
  const df::EdgeId second = g.connect_simple(a, b, 1);
  const df::Repetitions reps = df::compute_repetitions(g);
  const HsdfGraph h = hsdf_expand(g, reps);
  ASSERT_EQ(h.arcs.size(), 2u);
  EXPECT_EQ(h.arcs[0].dataflow_edge, first);
  EXPECT_EQ(h.arcs[0].delay, 0);
  EXPECT_EQ(h.arcs[1].dataflow_edge, second);
  EXPECT_EQ(h.arcs[1].delay, 1);
}

TEST(Hsdf, TotalTasksEqualTotalFirings) {
  df::Graph g;
  const df::ActorId a = g.add_actor("A");
  const df::ActorId b = g.add_actor("B");
  const df::ActorId c = g.add_actor("C");
  g.connect(a, df::Rate::fixed(2), b, df::Rate::fixed(3));
  g.connect(b, df::Rate::fixed(5), c, df::Rate::fixed(1));
  const df::Repetitions reps = df::compute_repetitions(g);
  const HsdfGraph h = hsdf_expand(g, reps);
  EXPECT_EQ(static_cast<std::int64_t>(h.tasks.size()), reps.total_firings());
}

TEST(Hsdf, RejectsDynamicAndInconsistent) {
  df::Graph dynamic;
  const df::ActorId a = dynamic.add_actor("A");
  const df::ActorId b = dynamic.add_actor("B");
  dynamic.connect(a, df::Rate::dynamic(2), b, df::Rate::dynamic(2));
  df::Repetitions fake;
  fake.consistent = true;
  EXPECT_THROW(hsdf_expand(dynamic, fake), std::logic_error);

  df::Graph ok;
  ok.add_actor("A");
  df::Repetitions inconsistent;
  EXPECT_THROW(hsdf_expand(ok, inconsistent), std::logic_error);
}

}  // namespace
}  // namespace spi::sched
