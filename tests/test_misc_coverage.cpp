/// Targeted coverage for smaller public-API corners the module suites
/// do not exercise directly.
#include <gtest/gtest.h>

#include "core/pipeline.hpp"
#include "mpi/mpi_backend.hpp"
#include "sim/link.hpp"

namespace spi {
namespace {

core::ExecutablePlan small_plan() {
  df::Graph g("misc");
  const df::ActorId a = g.add_actor("A", 25);
  const df::ActorId b = g.add_actor("B", 35);
  g.connect_simple(a, b, 0, 12);
  sched::Assignment assignment(2, 2);
  assignment.assign(b, 1);
  return core::compile_plan(g, assignment);
}

TEST(MiscCoverage, IterationCompletionMonotone) {
  const core::ExecutablePlan plan = small_plan();
  sim::TimedExecutorOptions options;
  options.iterations = 64;
  const sim::ExecStats stats = core::run_timed(plan, *plan.make_backend(), options);
  ASSERT_EQ(stats.iteration_complete.size(), 64u);
  for (std::size_t k = 1; k < stats.iteration_complete.size(); ++k)
    EXPECT_GT(stats.iteration_complete[k], stats.iteration_complete[k - 1]);
  EXPECT_EQ(stats.iteration_complete.back(), stats.makespan);
  // Busy cycles cannot exceed the makespan on any processor.
  for (sim::SimTime busy : stats.pe_busy_cycles) EXPECT_LE(busy, stats.makespan);
}

TEST(MiscCoverage, DefaultPayloadHookUsed) {
  const core::ExecutablePlan plan = small_plan();
  sim::TimedExecutorOptions options;
  options.iterations = 10;
  sim::WorkloadModel workload;
  workload.payload_bytes = nullptr;  // run_timed installs rate x token_bytes
  const sim::ExecStats a = core::run_timed(plan, *plan.make_backend(), options, workload);
  sim::WorkloadModel fat;
  fat.payload_bytes = [](const sched::SyncEdge&, std::int64_t) { return 10000; };
  const sim::ExecStats b = core::run_timed(plan, *plan.make_backend(), options, fat);
  EXPECT_LT(a.wire_bytes, b.wire_bytes);
}

TEST(MiscCoverage, PassAccessorsExposePipeline) {
  const core::ExecutablePlan plan = small_plan();
  EXPECT_TRUE(plan.pass.admissible);
  EXPECT_EQ(plan.pass.firings.size(), 2u);
  EXPECT_TRUE(plan.repetitions.consistent);
  EXPECT_EQ(plan.proc_order.size(), 2u);
  EXPECT_EQ(plan.proc_count, 2);
  EXPECT_EQ(plan.graph_name, "misc");
  EXPECT_EQ(plan.vts.graph.actor_count(), 2u);
}

TEST(MiscCoverage, MeshHopsNonSquare) {
  sim::LinkParams params;
  params.topology = sim::Topology::kMesh2D;
  params.mesh_width = 3;  // 3-wide mesh: 0 1 2 / 3 4 5
  EXPECT_EQ(params.mesh_hops(0, 5), 3);  // (0,0) -> (2,1)
  EXPECT_EQ(params.mesh_hops(4, 4), 0);
  EXPECT_EQ(params.mesh_hops(2, 3), 3);
}

TEST(MiscCoverage, MeshSelfMessageFallsBackToDirectLink) {
  sim::LinkParams params;
  params.topology = sim::Topology::kMesh2D;
  params.mesh_width = 2;
  sim::EventKernel kernel;
  sim::LinkNetwork net(params);
  bool delivered = false;
  const sim::SimTime arrival = net.transfer(kernel, 1, 1, 0, 8, 0, [&] { delivered = true; });
  EXPECT_GT(arrival, 0);
  kernel.run();
  EXPECT_TRUE(delivered);
}

TEST(MiscCoverage, BackendNamesStable) {
  const core::ExecutablePlan plan = small_plan();
  EXPECT_STREQ(plan.make_backend()->name(), "SPI");
  EXPECT_STREQ(mpi::MpiBackend{}.name(), "MPI-generic");
  EXPECT_STREQ(sim::IdealBackend{}.name(), "ideal");
}

TEST(MiscCoverage, RunTimedRespectsTraceAndSpeedTogether) {
  const core::ExecutablePlan plan = small_plan();
  sim::TraceRecorder trace;
  sim::TimedExecutorOptions options;
  options.iterations = 8;
  options.trace = &trace;
  options.pe_speed = {1.0, 4.0};
  const sim::ExecStats stats = core::run_timed(plan, *plan.make_backend(), options);
  EXPECT_EQ(trace.firings().size(), 16u);
  // B (35 cycles at speed 4) fires in ceil(35/4) = 9 cycles.
  for (const sim::FiringRecord& f : trace.firings()) {
    if (f.name == "B") {
      EXPECT_EQ(f.end - f.start, 9);
    }
  }
  EXPECT_GT(stats.makespan, 0);
}

}  // namespace
}  // namespace spi
