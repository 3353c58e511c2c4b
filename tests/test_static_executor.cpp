#include "sim/static_executor.hpp"

#include <gtest/gtest.h>

#include "core/plan.hpp"
#include "core/pipeline.hpp"

namespace spi::sim {
namespace {

/// Host->worker->host fixture on 2 processors (BBS everywhere after
/// resynchronization). Both executors are driven from the compiled
/// ExecutablePlan (core::run_timed / core::run_fully_static).
struct Fixture {
  df::Graph g{"static"};
  df::ActorId send, work, recv;
  sched::Assignment assignment{3, 2};
  core::ExecutablePlan plan;
  std::unique_ptr<core::SpiBackend> backend;

  Fixture() {
    send = g.add_actor("Send", 10);
    work = g.add_actor("Work", 100);
    recv = g.add_actor("Recv", 10);
    g.connect_simple(send, work, 0, 64);
    g.connect_simple(work, recv, 0, 64);
    assignment.assign(work, 1);
    plan = core::compile_plan(g, assignment);
    backend = plan.make_backend();
  }
};

TEST(StaticExecutor, MatchesSelfTimedWhenActualEqualsWcet) {
  Fixture f;
  TimedExecutorOptions options;
  options.iterations = 100;
  const ExecStats self_timed =
      core::run_timed(f.plan, *f.backend, options);
  const StaticRunResult fully_static =
      core::run_fully_static(f.plan, *f.backend, {}, {}, options);
  EXPECT_EQ(fully_static.precedence_violations, 0);
  // With identical times the static schedule cannot beat self-timed and
  // should be close to it (transport is contention-free there, so allow
  // a small margin).
  EXPECT_NEAR(fully_static.stats.steady_period_cycles, self_timed.steady_period_cycles,
              0.1 * self_timed.steady_period_cycles + 5.0);
}

TEST(StaticExecutor, WcetLockedPeriodIgnoresEarlyCompletion) {
  Fixture f;
  TimedExecutorOptions options;
  options.iterations = 100;
  WorkloadModel fast;  // actual runs at half the budget
  fast.exec_cycles = [&](std::int32_t task, std::int64_t) {
    return std::max<std::int64_t>(1, f.plan.sync_graph.task(task).exec_cycles / 2);
  };
  const StaticRunResult fully_static =
      core::run_fully_static(f.plan, *f.backend, {}, fast, options);
  const StaticRunResult budget_run =
      core::run_fully_static(f.plan, *f.backend, {}, {}, options);
  // Same scheduled period regardless of the actual speeds...
  EXPECT_NEAR(fully_static.stats.steady_period_cycles,
              budget_run.stats.steady_period_cycles, 1e-9);
  // ...while the self-timed run with the fast times is strictly faster.
  const ExecStats self_timed =
      core::run_timed(f.plan, *f.backend, options, fast);
  EXPECT_LT(self_timed.steady_period_cycles, fully_static.stats.steady_period_cycles);
  // Early completion shows up as processor padding.
  EXPECT_GT(fully_static.padding_cycles, budget_run.padding_cycles);
}

TEST(StaticExecutor, OverrunsAreDetected) {
  Fixture f;
  TimedExecutorOptions options;
  options.iterations = 50;
  WorkloadModel slow;  // actual exceeds the WCET budget by 50%
  slow.exec_cycles = [&](std::int32_t task, std::int64_t) {
    return f.plan.sync_graph.task(task).exec_cycles * 3 / 2;
  };
  const StaticRunResult result =
      core::run_fully_static(f.plan, *f.backend, {}, slow, options);
  EXPECT_GT(result.precedence_violations, 0);
  // Self-timed execution with the same times stays correct (no throw).
  EXPECT_NO_THROW((void)core::run_timed(f.plan, *f.backend, options, slow));
}

TEST(StaticExecutor, DeterministicAndValidated) {
  Fixture f;
  TimedExecutorOptions options;
  options.iterations = 40;
  const StaticRunResult a =
      core::run_fully_static(f.plan, *f.backend, {}, {}, options);
  const StaticRunResult b =
      core::run_fully_static(f.plan, *f.backend, {}, {}, options);
  EXPECT_EQ(a.stats.makespan, b.stats.makespan);
  EXPECT_EQ(a.padding_cycles, b.padding_cycles);

  TimedExecutorOptions bad;
  bad.iterations = 0;
  EXPECT_THROW((void)core::run_fully_static(f.plan, *f.backend, {}, {}, bad),
               std::invalid_argument);
}

}  // namespace
}  // namespace spi::sim
