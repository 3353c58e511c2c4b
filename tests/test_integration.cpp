/// Cross-layer integration tests: invariants that tie the analysis
/// layers (repetitions, sync graph, MCM, equations 1-2) to the execution
/// layers (JobInstance gang and colocated runs, timed executor) on
/// realistic systems.
#include <gtest/gtest.h>

#include "apps/particle_app.hpp"
#include "apps/serialization.hpp"
#include "apps/speech_app.hpp"
#include "core/job_instance.hpp"
#include "core/pipeline.hpp"
#include "dsp/lpc.hpp"
#include "mpi/mpi_backend.hpp"

namespace spi {
namespace {

/// A system with meaningful actor exec times and a feedback loop so the
/// MCM is non-trivial.
core::ExecutablePlan feedback_plan() {
  df::Graph g("feedback");
  const df::ActorId a = g.add_actor("A", 30);
  const df::ActorId b = g.add_actor("B", 70);
  const df::ActorId c = g.add_actor("C", 20);
  g.connect_simple(a, b, 0, 32);
  g.connect_simple(b, c, 0, 32);
  g.connect_simple(c, a, 2, 8);
  sched::Assignment assignment(3, 3);
  assignment.assign(b, 1);
  assignment.assign(c, 2);
  return core::compile_plan(g, assignment);
}

TEST(Integration, McmLowerBoundsSimulatedPeriod) {
  const core::ExecutablePlan plan = feedback_plan();
  const double mcm = plan.sync_graph.max_cycle_mean();
  ASSERT_GT(mcm, 0.0);
  sim::TimedExecutorOptions options;
  options.iterations = 300;
  const sim::ExecStats stats = core::run_timed(plan, *plan.make_backend(), options);
  // The maximum cycle mean is the zero-communication-latency bound; the
  // simulated period can only be slower.
  EXPECT_GE(stats.steady_period_cycles, mcm - 1e-6);
  // And with small messages it should be within a modest factor.
  EXPECT_LE(stats.steady_period_cycles, 3.0 * mcm);
}

TEST(Integration, MessageCountsAreBackendInvariant) {
  // The protocol backend prices messages but must not change how many
  // flow: counts are a property of the synchronization graph.
  const core::ExecutablePlan plan = feedback_plan();
  sim::TimedExecutorOptions options;
  options.iterations = 100;
  const sim::ExecStats spi = core::run_timed(plan, *plan.make_backend(), options);
  const mpi::MpiBackend mpi_backend;
  const sim::ExecStats mpi = core::run_timed(plan, mpi_backend, options);
  EXPECT_EQ(spi.data_messages, mpi.data_messages);
  EXPECT_EQ(spi.sync_messages, mpi.sync_messages);
  EXPECT_LT(spi.wire_bytes, mpi.wire_bytes);
}

TEST(Integration, FunctionalOccupancyWithinPlannedCapacity) {
  // The sequential run walks the PASS, so the most tokens it ever queues
  // on an edge is the PASS's buffer bound; every channel's ring (the
  // equation-2 capacity plus delays) must hold that many, or a colocated
  // run would queue more than a gang ever could. The run itself must
  // reproduce the sequential codec.
  apps::SpeechParams params;
  params.frame_size = 256;
  const apps::ErrorGenApp app(3, params);
  dsp::Rng rng(5);
  const auto frame = dsp::synthetic_speech(params.frame_size, rng);
  const apps::SpeechCompressor codec(params);
  const auto coeffs = codec.frame_coefficients(frame);
  EXPECT_EQ(app.compute_errors_parallel(frame, coeffs), codec.frame_errors(frame, coeffs));
  const core::ExecutablePlan& plan = app.system().plan();
  for (const core::ChannelSpec& spec : plan.channels) {
    ASSERT_TRUE(spec.bbs_capacity_tokens.has_value());
    EXPECT_GE(*spec.bbs_capacity_tokens, 1);
    EXPECT_LE(plan.pass.buffer_bound[static_cast<std::size_t>(spec.edge)],
              spec.capacity_tokens())
        << "channel " << spec.name;
  }
}

TEST(Integration, TimedOccupancyWithinEquation2) {
  const core::ExecutablePlan plan = feedback_plan();
  sim::TimedExecutorOptions options;
  options.iterations = 200;
  const sim::ExecStats stats = core::run_timed(plan, *plan.make_backend(), options);
  for (const core::ChannelSpec& channel : plan.channels) {
    if (!channel.bbs_capacity_tokens) continue;
    for (std::size_t sync_edge : channel.sync_edges) {
      EXPECT_LE(stats.max_occupancy[sync_edge], *channel.bbs_capacity_tokens)
          << "channel " << channel.name;
    }
  }
}

TEST(Integration, SystemConstructionIsDeterministic) {
  const core::ExecutablePlan a = feedback_plan();
  const core::ExecutablePlan b = feedback_plan();
  EXPECT_EQ(a.report(), b.report());
  sim::TimedExecutorOptions options;
  options.iterations = 50;
  EXPECT_EQ(core::run_timed(a, *a.make_backend(), options).makespan,
            core::run_timed(b, *b.make_backend(), options).makespan);
}

TEST(Integration, MultirateParallelEqualsSequential) {
  // A 1:3 expander and 3:1 collector across processors: the gang, the
  // colocated walk of the same plan and the single-processor plan must
  // all deliver Collect the closed form below.
  auto run = [](std::int32_t procs, bool gang) {
    df::Graph g("multirate");
    const df::ActorId src = g.add_actor("Src");
    const df::ActorId exp = g.add_actor("Expand");
    const df::ActorId col = g.add_actor("Collect");
    const df::EdgeId e1 = g.connect(src, df::Rate::fixed(1), exp, df::Rate::fixed(1), 0, 8);
    const df::EdgeId e2 = g.connect(exp, df::Rate::fixed(3), col, df::Rate::fixed(6), 0, 8);
    sched::Assignment assignment(3, procs);
    if (procs > 1) {
      assignment.assign(exp, 1);
      assignment.assign(col, 2);
    }
    const core::ExecutablePlan plan = core::compile_plan(g, assignment);
    core::JobInstance runtime(plan);
    auto result = std::make_shared<std::vector<double>>();
    runtime.set_compute(src, [&](core::FiringContext& ctx) {
      apps::pack_f64_into(ctx.emit(ctx.output_index(e1)), static_cast<double>(ctx.invocation));
    });
    runtime.set_compute(exp, [&](core::FiringContext& ctx) {
      const double v = apps::f64_at(ctx.inputs[ctx.input_index(e1)][0], 0);
      const std::size_t out = ctx.output_index(e2);
      for (int k = 0; k < 3; ++k)
        apps::pack_f64_into(ctx.emit(out), v * 10 + k);
    });
    runtime.set_compute(col, [result, e2](core::FiringContext& ctx) {
      for (const auto& token : ctx.inputs[ctx.input_index(e2)])
        result->push_back(apps::f64_at(token, 0));
    });
    if (gang)
      runtime.run(8);
    else
      runtime.run_colocated(8);
    return *result;
  };
  // Src fires twice per iteration (q = 2, 2, 1): firing i sends i, and
  // Expand turns it into i·10, i·10 + 1, i·10 + 2.
  std::vector<double> expected;
  for (int i = 0; i < 16; ++i)
    for (int k = 0; k < 3; ++k) expected.push_back(i * 10.0 + k);
  EXPECT_EQ(run(1, false), expected);
  EXPECT_EQ(run(1, true), expected);
  EXPECT_EQ(run(3, false), expected);
  EXPECT_EQ(run(3, true), expected);
}

TEST(Integration, AppsSurviveLongRuns) {
  // Longer timed runs must neither deadlock nor accumulate drift between
  // average and steady period.
  apps::ParticleParams params;
  params.particles = 100;
  const apps::ParticleFilterApp app(2, params);
  const apps::ParticleTimingModel timing;
  const auto stats = app.run_timed(100, timing, 2000);
  EXPECT_NEAR(stats.avg_period_cycles, stats.steady_period_cycles,
              0.05 * stats.steady_period_cycles);
}

TEST(Integration, ResyncNeverSlowsTheSystem) {
  // Property across several topologies: resynchronization must not
  // increase the simulated period.
  for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    dsp::Rng rng(seed);
    df::Graph g("rand" + std::to_string(seed));
    const int actors = 6;
    for (int i = 0; i < actors; ++i)
      g.add_actor("t" + std::to_string(i), rng.uniform_int(10, 80));
    // A ring with chords (always deadlock-free thanks to ring delays).
    for (int i = 0; i < actors; ++i)
      g.connect_simple(static_cast<df::ActorId>(i),
                       static_cast<df::ActorId>((i + 1) % actors), i == actors - 1 ? 2 : 0,
                       16);
    g.connect_simple(0, 3, 0, 16);
    sched::Assignment assignment(static_cast<std::size_t>(actors), 3);
    for (int i = 0; i < actors; ++i)
      assignment.assign(static_cast<df::ActorId>(i), static_cast<sched::Proc>(i % 3));

    core::SpiSystemOptions with, without;
    without.resynchronize = false;
    const core::ExecutablePlan plan_with = core::compile_plan(g, assignment, with);
    const core::ExecutablePlan plan_without = core::compile_plan(g, assignment, without);
    sim::TimedExecutorOptions options;
    options.iterations = 150;
    const auto stats_with = core::run_timed(plan_with, *plan_with.make_backend(), options);
    const auto stats_without =
        core::run_timed(plan_without, *plan_without.make_backend(), options);
    EXPECT_LE(stats_with.steady_period_cycles,
              stats_without.steady_period_cycles * 1.02 + 1.0)
        << "seed " << seed;
    EXPECT_LE(stats_with.sync_messages, stats_without.sync_messages) << "seed " << seed;
  }
}

}  // namespace
}  // namespace spi
