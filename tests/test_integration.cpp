/// Cross-layer integration tests: invariants that tie the analysis
/// layers (repetitions, sync graph, MCM, equations 1-2) to the execution
/// layers (functional runtime, timed executor) on realistic systems.
#include <gtest/gtest.h>

#include "apps/particle_app.hpp"
#include "apps/serialization.hpp"
#include "apps/speech_app.hpp"
#include "core/functional.hpp"
#include "dsp/lpc.hpp"
#include "mpi/mpi_backend.hpp"

namespace spi {
namespace {

/// A system with meaningful actor exec times and a feedback loop so the
/// MCM is non-trivial.
core::SpiSystem feedback_system() {
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
  return core::SpiSystem(g, assignment);
}

TEST(Integration, McmLowerBoundsSimulatedPeriod) {
  const core::SpiSystem system = feedback_system();
  const double mcm = system.sync_graph().max_cycle_mean();
  ASSERT_GT(mcm, 0.0);
  sim::TimedExecutorOptions options;
  options.iterations = 300;
  const sim::ExecStats stats = system.run_timed(options);
  // The maximum cycle mean is the zero-communication-latency bound; the
  // simulated period can only be slower.
  EXPECT_GE(stats.steady_period_cycles, mcm - 1e-6);
  // And with small messages it should be within a modest factor.
  EXPECT_LE(stats.steady_period_cycles, 3.0 * mcm);
}

TEST(Integration, MessageCountsAreBackendInvariant) {
  // The protocol backend prices messages but must not change how many
  // flow: counts are a property of the synchronization graph.
  const core::SpiSystem system = feedback_system();
  sim::TimedExecutorOptions options;
  options.iterations = 100;
  const sim::ExecStats spi = system.run_timed(options);
  const mpi::MpiBackend mpi_backend;
  const sim::ExecStats mpi = system.run_timed_with(mpi_backend, options);
  EXPECT_EQ(spi.data_messages, mpi.data_messages);
  EXPECT_EQ(spi.sync_messages, mpi.sync_messages);
  EXPECT_LT(spi.wire_bytes, mpi.wire_bytes);
}

TEST(Integration, FunctionalOccupancyWithinPlannedCapacity) {
  // Run the speech app functionally and verify every BBS channel stayed
  // within its equation-2 capacity (the channel would throw otherwise,
  // but also check the recorded high-water marks explicitly).
  apps::SpeechParams params;
  params.frame_size = 256;
  const apps::ErrorGenApp app(3, params);
  dsp::Rng rng(5);
  const auto frame = dsp::synthetic_speech(params.frame_size, rng);
  const apps::SpeechCompressor codec(params);
  const auto coeffs = codec.frame_coefficients(frame);
  (void)app.compute_errors_parallel(frame, coeffs);
  for (const core::ChannelPlan& plan : app.system().channels()) {
    ASSERT_TRUE(plan.bbs_capacity_tokens.has_value());
    EXPECT_GE(*plan.bbs_capacity_tokens, 1);
  }
}

TEST(Integration, TimedOccupancyWithinEquation2) {
  const core::SpiSystem system = feedback_system();
  sim::TimedExecutorOptions options;
  options.iterations = 200;
  const sim::ExecStats stats = system.run_timed(options);
  for (const core::ChannelPlan& plan : system.channels()) {
    if (!plan.bbs_capacity_tokens) continue;
    for (std::size_t sync_edge : plan.sync_edges) {
      EXPECT_LE(stats.max_occupancy[sync_edge], *plan.bbs_capacity_tokens)
          << "channel " << plan.name;
    }
  }
}

TEST(Integration, SystemConstructionIsDeterministic) {
  const core::SpiSystem a = feedback_system();
  const core::SpiSystem b = feedback_system();
  EXPECT_EQ(a.report(), b.report());
  sim::TimedExecutorOptions options;
  options.iterations = 50;
  EXPECT_EQ(a.run_timed(options).makespan, b.run_timed(options).makespan);
}

TEST(Integration, MultirateParallelEqualsSequential) {
  // A 1:3 expander and 3:1 collector across processors: parallel and
  // single-processor functional runs must produce identical bytes.
  auto run = [](std::int32_t procs) {
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
    const core::SpiSystem system(g, assignment);
    core::FunctionalRuntime runtime(system);
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
    runtime.run(8);
    return *result;
  };
  EXPECT_EQ(run(1), run(3));
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
    const core::SpiSystem sys_with(g, assignment, with);
    const core::SpiSystem sys_without(g, assignment, without);
    sim::TimedExecutorOptions options;
    options.iterations = 150;
    const auto stats_with = sys_with.run_timed(options);
    const auto stats_without = sys_without.run_timed(options);
    EXPECT_LE(stats_with.steady_period_cycles,
              stats_without.steady_period_cycles * 1.02 + 1.0)
        << "seed " << seed;
    EXPECT_LE(stats_with.sync_messages, stats_without.sync_messages) << "seed " << seed;
  }
}

}  // namespace
}  // namespace spi
