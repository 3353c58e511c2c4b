/// The compile pipeline end to end: compile_plan() on small mixed
/// static/dynamic systems, read back through the ExecutablePlan.
#include "core/pipeline.hpp"

#include <gtest/gtest.h>

#include "mpi/mpi_backend.hpp"

namespace spi::core {
namespace {

/// Mixed pipeline used across the tests: host -> worker -> host with one
/// dynamic edge, all on 2 processors.
struct Fixture {
  df::Graph g{"fixture"};
  df::ActorId send, work, recv;
  df::EdgeId to_work, from_work;
  sched::Assignment assignment{3, 2};

  Fixture() {
    send = g.add_actor("Send", 10);
    work = g.add_actor("Work", 40);
    recv = g.add_actor("Recv", 10);
    to_work = g.connect(send, df::Rate::dynamic(32), work, df::Rate::dynamic(32), 0, 4);
    from_work = g.connect(work, df::Rate::fixed(1), recv, df::Rate::fixed(1), 0, 8);
    assignment.assign(send, 0);
    assignment.assign(work, 1);
    assignment.assign(recv, 0);
  }
};

TEST(SpiSystem, ChannelPlanModesAndProtocols) {
  Fixture f;
  const ExecutablePlan plan = compile_plan(f.g, f.assignment);
  ASSERT_EQ(plan.channels.size(), 2u);

  const ChannelSpec& dyn = plan.channel_for(f.to_work);
  EXPECT_EQ(dyn.mode, SpiMode::kDynamic);
  EXPECT_EQ(dyn.b_max_bytes, 32 * 4);
  EXPECT_EQ(dyn.protocol, sched::SyncProtocol::kBbs);  // round trip bounds it
  ASSERT_TRUE(dyn.bbs_capacity_tokens.has_value());
  EXPECT_EQ(*dyn.bbs_capacity_tokens, 1);
  EXPECT_EQ(*dyn.bbs_capacity_bytes, 128);

  const ChannelSpec& stat = plan.channel_for(f.from_work);
  EXPECT_EQ(stat.mode, SpiMode::kStatic);
  EXPECT_EQ(stat.b_max_bytes, 8);
}

TEST(SpiSystem, ResynchronizationElidesRoundTripAcks) {
  Fixture f;
  const ExecutablePlan plan = compile_plan(f.g, f.assignment);
  ASSERT_TRUE(plan.resync.has_value());
  EXPECT_EQ(plan.resync->acks_after, 0u);
  for (const ChannelSpec& channel : plan.channels) {
    EXPECT_EQ(channel.acks_total, 1u);
    EXPECT_EQ(channel.acks_elided, 1u);
  }
  // 2 data messages, 0 acks.
  EXPECT_EQ(plan.messages_per_iteration, 2u);
}

TEST(SpiSystem, ResynchronizationCanBeDisabled) {
  Fixture f;
  SpiSystemOptions options;
  options.resynchronize = false;
  const ExecutablePlan plan = compile_plan(f.g, f.assignment, options);
  EXPECT_FALSE(plan.resync.has_value());
  EXPECT_EQ(plan.messages_per_iteration, 4u);  // 2 data + 2 acks
}

TEST(SpiSystem, ReportMentionsEverything) {
  Fixture f;
  const ExecutablePlan plan = compile_plan(f.g, f.assignment);
  const std::string report = plan.report();
  EXPECT_NE(report.find("SPI_dynamic"), std::string::npos);
  EXPECT_NE(report.find("SPI_static"), std::string::npos);
  EXPECT_NE(report.find("BBS"), std::string::npos);
  EXPECT_NE(report.find("resynchronization"), std::string::npos);
}

TEST(SpiSystem, RejectsInconsistentGraph) {
  df::Graph g;
  const df::ActorId a = g.add_actor("A");
  const df::ActorId b = g.add_actor("B");
  g.connect(a, df::Rate::fixed(2), b, df::Rate::fixed(1));
  g.connect(a, df::Rate::fixed(1), b, df::Rate::fixed(1));
  sched::Assignment assignment(2, 2);
  assignment.assign(b, 1);
  EXPECT_THROW((void)compile_plan(g, assignment), std::invalid_argument);
}

TEST(SpiSystem, RejectsDeadlockedGraph) {
  df::Graph g;
  const df::ActorId a = g.add_actor("A");
  const df::ActorId b = g.add_actor("B");
  g.connect_simple(a, b, 0);
  g.connect_simple(b, a, 0);
  sched::Assignment assignment(2, 2);
  assignment.assign(b, 1);
  EXPECT_THROW((void)compile_plan(g, assignment), std::invalid_argument);
}

TEST(SpiSystem, RejectsMismatchedAssignment) {
  df::Graph g;
  g.add_actor("A");
  sched::Assignment assignment(2, 1);  // size 2 vs 1 actor
  EXPECT_THROW((void)compile_plan(g, assignment), std::invalid_argument);
}

TEST(SpiSystem, ChannelForRequiresIpcEdge) {
  df::Graph g;
  const df::ActorId a = g.add_actor("A");
  const df::ActorId b = g.add_actor("B");
  const df::EdgeId e = g.connect_simple(a, b);
  sched::Assignment assignment(2, 1);  // same processor: no channels
  const ExecutablePlan plan = compile_plan(g, assignment);
  EXPECT_TRUE(plan.channels.empty());
  EXPECT_THROW((void)plan.channel_for(e), std::out_of_range);
}

TEST(SpiSystem, TimedRunProducesStats) {
  Fixture f;
  const ExecutablePlan plan = compile_plan(f.g, f.assignment);
  sim::TimedExecutorOptions options;
  options.iterations = 100;
  const sim::ExecStats stats = run_timed(plan, *plan.make_backend(), options);
  EXPECT_GT(stats.makespan, 0);
  EXPECT_EQ(stats.data_messages, 200);  // 2 channels x 100 iterations
  EXPECT_EQ(stats.sync_messages, 0);    // acks all elided
  EXPECT_GT(stats.wire_bytes, 0);
}

TEST(SpiSystem, SpiBeatsGenericMpiOnSmallMessages) {
  Fixture f;
  const ExecutablePlan plan = compile_plan(f.g, f.assignment);
  sim::TimedExecutorOptions options;
  options.iterations = 200;
  const sim::ExecStats spi = run_timed(plan, *plan.make_backend(), options);
  const mpi::MpiBackend mpi_backend;
  const sim::ExecStats mpi = run_timed(plan, mpi_backend, options);
  // The paper's motivation: domain specialization shrinks per-message
  // overhead; with 40-cycle work per 3-message iteration, protocol cost
  // dominates and SPI must win.
  EXPECT_LT(spi.steady_period_cycles, mpi.steady_period_cycles);
  EXPECT_LT(spi.wire_bytes, mpi.wire_bytes);  // 4/8B headers vs 24B envelopes
}

TEST(SpiSystem, MultirateGraphCompiles) {
  df::Graph g("multirate");
  const df::ActorId a = g.add_actor("A", 5);
  const df::ActorId b = g.add_actor("B", 5);
  g.connect(a, df::Rate::fixed(3), b, df::Rate::fixed(2));
  sched::Assignment assignment(2, 2);
  assignment.assign(b, 1);
  const ExecutablePlan plan = compile_plan(g, assignment);
  // q = (2,3): the one dataflow edge expands to multiple HSDF arcs but
  // stays a single channel.
  ASSERT_EQ(plan.channels.size(), 1u);
  EXPECT_GE(plan.channels[0].sync_edges.size(), 2u);
  sim::TimedExecutorOptions options;
  options.iterations = 50;
  EXPECT_NO_THROW((void)run_timed(plan, *plan.make_backend(), options));
}

}  // namespace
}  // namespace spi::core
