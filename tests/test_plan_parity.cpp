/// Cross-engine parity from one *loaded* plan: serialize the compiled
/// plan of the paper's two applications (speech error-generation,
/// distributed particle filter), deserialize it, and drive the gang,
/// colocated and timed engines from the deserialized plan alone. Every
/// engine must move exactly the communication volume the plan's own
/// arithmetic predicts — the plan, not the compiler's in-memory state,
/// is the contract.
#include <gtest/gtest.h>

#include "apps/particle_app.hpp"
#include "apps/speech_app.hpp"
#include "core/job_instance.hpp"
#include "core/plan.hpp"

namespace spi {
namespace {

constexpr std::int64_t kIterations = 20;

/// Each channel's message and payload-byte counters, read from `registry`.
std::map<df::EdgeId, std::pair<std::int64_t, std::int64_t>> channel_counters(
    const core::ExecutablePlan& plan, const obs::MetricRegistry& registry) {
  std::map<df::EdgeId, std::pair<std::int64_t, std::int64_t>> counts;
  for (const core::ChannelSpec& spec : plan.channels) {
    const obs::Labels labels{{"channel", spec.name}};
    counts[spec.edge] = {registry.counter_value("spi_threaded_messages_total", labels),
                         registry.counter_value("spi_threaded_payload_bytes_total", labels)};
  }
  return counts;
}

/// Runs every engine from `plan` (deserialized from its JSON)
/// with the default computes and checks the counts that hold by
/// construction:
///  * gang and colocated: one token per produced token, each of the
///    edge's token bound -> src_firings_per_iteration * prod_tokens *
///    iterations messages on every channel;
///  * timed: one IPC transmission per producing firing, so the data
///    messages total sum(src_firings_per_iteration) * iterations, and
///    every active synchronization edge transmits once per iteration ->
///    messages_per_iteration * iterations messages in all.
void expect_engines_agree(const core::ExecutablePlan& plan) {
  ASSERT_NO_THROW(plan.validate());
  ASSERT_FALSE(plan.channels.empty());

  for (const bool gang : {true, false}) {
    SCOPED_TRACE(gang ? "gang" : "colocated");
    // Counters snapshotted around the run: the registry also records
    // initial-token placement at construction.
    obs::MetricRegistry registry;
    core::JobInstance runtime(plan, {{}, &registry, {}});
    const auto before = channel_counters(plan, registry);
    if (gang)
      runtime.run(kIterations);
    else
      runtime.run_colocated(kIterations);
    const auto after = channel_counters(plan, registry);
    for (const core::ChannelSpec& spec : plan.channels) {
      const std::int64_t messages = after.at(spec.edge).first - before.at(spec.edge).first;
      const std::int64_t bytes = after.at(spec.edge).second - before.at(spec.edge).second;
      EXPECT_EQ(messages, spec.src_firings_per_iteration * spec.prod_tokens * kIterations)
          << "channel " << spec.name;
      EXPECT_EQ(bytes, messages * plan.token_bound_bytes(spec.edge)) << "channel " << spec.name;
    }
  }

  // Timed engine from the same plan.
  const auto backend = plan.make_backend();
  sim::TimedExecutorOptions options;
  options.iterations = kIterations;
  const sim::ExecStats stats = core::run_timed(plan, *backend, options);
  EXPECT_EQ(stats.data_messages + stats.sync_messages,
            kIterations * plan.messages_per_iteration);
  std::int64_t producing_firings = 0;
  for (const core::ChannelSpec& spec : plan.channels)
    producing_firings += spec.src_firings_per_iteration;
  EXPECT_EQ(stats.data_messages, producing_firings * kIterations);
}

TEST(PlanParity, SpeechErrorGenEnginesAgreeFromLoadedPlan) {
  apps::SpeechParams params;
  params.frame_size = 128;
  params.max_frame_size = 512;
  params.order = 8;
  params.max_order = 12;
  const apps::ErrorGenApp app(4, params);
  const core::ExecutablePlan plan =
      core::ExecutablePlan::from_json(app.system().plan().to_json());
  expect_engines_agree(plan);
}

TEST(PlanParity, ParticleFilterEnginesAgreeFromLoadedPlan) {
  apps::ParticleParams params;
  params.particles = 64;
  params.max_particles = 256;
  params.seed = 5;
  const apps::ParticleFilterApp app(4, params);
  const core::ExecutablePlan plan =
      core::ExecutablePlan::from_json(app.system().plan().to_json());
  expect_engines_agree(plan);
}

TEST(PlanParity, LoadedPlanReportsMatchCompiledReports) {
  apps::SpeechParams params;
  params.frame_size = 128;
  params.max_frame_size = 512;
  params.order = 8;
  params.max_order = 12;
  const apps::ErrorGenApp app(3, params);
  const core::ExecutablePlan& compiled = app.system().plan();
  const core::ExecutablePlan loaded = core::ExecutablePlan::from_json(compiled.to_json());
  EXPECT_EQ(loaded.report(), compiled.report());
  EXPECT_EQ(loaded.messages_per_iteration, compiled.messages_per_iteration);
}

}  // namespace
}  // namespace spi
