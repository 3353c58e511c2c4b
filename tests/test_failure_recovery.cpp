/// A failed run must not leave its JobInstance broken. For every actor
/// of both served models, a compute that throws in the middle of a
/// batch leaves tokens of the half-run iteration on some edges and
/// takes delay tokens off others; the next batch on that instance must
/// still be bit-identical to the same batch on a fresh instance.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "apps/particle_app.hpp"
#include "apps/speech_app.hpp"
#include "core/job_instance.hpp"
#include "serve/plan_server.hpp"

namespace spi {
namespace {

/// Replaces `actor`'s compute with one that throws on its first firing.
void poison(core::JobInstance& instance, df::ActorId actor) {
  instance.set_compute(actor, [](core::FiringContext&) {
    throw std::runtime_error("poisoned compute");
  });
}

/// Options for the batch after the failure: a colocated run on a broken
/// instance can wait forever on an empty channel, so a watchdog turns
/// that wait into a StallError.
core::RunOptions guarded() {
  core::RunOptions options;
  options.watchdog.enabled = true;
  options.watchdog.window_ms = 2000;
  options.watchdog.dump_dir = ::testing::TempDir();
  return options;
}

TEST(FailureRecovery, ParticleInstanceRecoversFromAThrowInEveryActor) {
  const serve::PlanServerOptions served;
  const apps::ParticleFilterApp app(served.particle_pes, served.particle_params);
  std::vector<apps::ParticleFilterApp::ParticleJobSpec> jobs(2);
  jobs[0].seed = 3;
  jobs[0].synthetic_steps = 6;
  jobs[1].seed = 4;
  jobs[1].synthetic_steps = 6;
  const core::ExecutablePlan& plan = app.system().plan();
  const core::RunOptions options = guarded();
  core::JobInstance fresh(plan);
  const std::vector<apps::TrackResult> expected = app.track_batch(jobs, fresh);

  const df::Graph& graph = plan.vts.graph;
  ASSERT_EQ(graph.actor_count(), 11u);
  for (df::ActorId actor = 0; actor < static_cast<df::ActorId>(graph.actor_count()); ++actor) {
    SCOPED_TRACE(graph.actor(actor).name);
    core::JobInstance instance(plan);
    app.bind_batch(jobs, instance);
    instance.run_colocated(3);  // halfway through job 0
    poison(instance, actor);
    EXPECT_THROW(instance.run_colocated(1), std::runtime_error);

    std::vector<apps::TrackResult> after;
    EXPECT_NO_THROW(after = app.track_batch(jobs, instance, &options));
    if (after.size() != expected.size()) continue;
    for (std::size_t k = 0; k < expected.size(); ++k) {
      EXPECT_EQ(after[k].estimates, expected[k].estimates) << "job " << k;
      EXPECT_EQ(after[k].rmse_vs_truth, expected[k].rmse_vs_truth) << "job " << k;
      EXPECT_EQ(after[k].resample_steps, expected[k].resample_steps) << "job " << k;
      EXPECT_EQ(after[k].particles_exchanged, expected[k].particles_exchanged) << "job " << k;
    }
  }
}

TEST(FailureRecovery, SpeechInstanceRecoversFromAThrowInEveryActor) {
  const serve::PlanServerOptions served;
  const apps::ErrorGenApp app(served.speech_pes, served.speech_params);
  std::vector<apps::ErrorGenApp::SpeechJobSpec> jobs(3);
  for (std::size_t k = 0; k < jobs.size(); ++k) {
    jobs[k].frame.resize(served.speech_params.frame_size);
    for (std::size_t i = 0; i < jobs[k].frame.size(); ++i)
      jobs[k].frame[i] = static_cast<double>((i * 7 + k * 13) % 17) / 8.0 - 1.0;
    jobs[k].coeffs = {0.5, -0.25, 0.125, 0.0625};
  }
  const core::ExecutablePlan& plan = app.system().plan();
  const core::RunOptions options = guarded();
  core::JobInstance fresh(plan);
  const std::vector<std::vector<double>> expected = app.compute_errors_batch(jobs, fresh);

  const df::Graph& graph = plan.vts.graph;
  for (df::ActorId actor = 0; actor < static_cast<df::ActorId>(graph.actor_count()); ++actor) {
    SCOPED_TRACE(graph.actor(actor).name);
    core::JobInstance instance(plan);
    std::vector<std::vector<double>> results(jobs.size());
    for (std::size_t k = 0; k < jobs.size(); ++k) results[k].resize(jobs[k].frame.size());
    app.bind_batch(jobs, instance, results);
    instance.run_colocated(1);  // job 0 of 3
    poison(instance, actor);
    EXPECT_THROW(instance.run_colocated(1), std::runtime_error);

    std::vector<std::vector<double>> after;
    EXPECT_NO_THROW(after = app.compute_errors_batch(jobs, instance, &options));
    EXPECT_EQ(after, expected);
  }
}

}  // namespace
}  // namespace spi
