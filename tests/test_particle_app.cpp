#include "apps/particle_app.hpp"

#include <gtest/gtest.h>

#include "core/job_instance.hpp"

namespace spi::apps {
namespace {

ParticleParams small_params(std::size_t particles = 64) {
  ParticleParams p;
  p.particles = particles;
  p.max_particles = 256;
  p.seed = 5;
  return p;
}

dsp::CrackTrajectory trajectory(std::size_t steps = 80, std::uint64_t seed = 33) {
  dsp::Rng rng(seed);
  return dsp::simulate_crack(dsp::CrackModel{}, steps, rng);
}

TEST(ParticleFilterApp, Validation) {
  EXPECT_THROW(ParticleFilterApp(0, small_params()), std::invalid_argument);
  EXPECT_THROW(ParticleFilterApp(2, small_params(0)), std::invalid_argument);
  ParticleParams over = small_params();
  over.particles = over.max_particles + 2;
  EXPECT_THROW(ParticleFilterApp(2, over), std::invalid_argument);
  EXPECT_THROW(ParticleFilterApp(3, small_params(64)), std::invalid_argument);  // 64 % 3 != 0
}

TEST(ParticleFilterApp, BindBatchValidatesAndRunsTheWholeBatch) {
  const ParticleFilterApp app(2, small_params());
  core::JobInstance instance(app.system().plan());
  EXPECT_THROW(app.bind_batch({}, instance), std::invalid_argument);
  std::vector<ParticleFilterApp::ParticleJobSpec> jobs(2);
  jobs[0].trajectory = trajectory(10);
  jobs[1].trajectory = trajectory(12, 34);
  EXPECT_THROW(app.bind_batch(jobs, instance), std::invalid_argument)
      << "jobs must share one trajectory length";
  jobs[1].trajectory = trajectory(10, 34);
  app.bind_batch(jobs, instance);
  EXPECT_NO_THROW(instance.run_colocated(20));  // both jobs, one step per iteration
}

// track_batch hands each job's result over as soon as its iterations
// end, in job order, and a synthetic job tracks the very trajectory
// simulate_crack builds from Rng(seed + 1).
TEST(ParticleFilterApp, TrackBatchReportsEachJobAsItEndsAndSynthesizesAtItsTurn) {
  const ParticleFilterApp app(2, small_params());
  std::vector<ParticleFilterApp::ParticleJobSpec> explicit_jobs(3), synthetic_jobs(3);
  for (std::size_t k = 0; k < 3; ++k) {
    explicit_jobs[k].seed = synthetic_jobs[k].seed = 7 + k;
    dsp::Rng rng(explicit_jobs[k].seed + 1);
    explicit_jobs[k].trajectory = dsp::simulate_crack(app.params().model, 9, rng);
    synthetic_jobs[k].synthetic_steps = 9;
  }
  core::JobInstance explicit_instance(app.system().plan());
  const std::vector<TrackResult> expected = app.track_batch(explicit_jobs, explicit_instance);

  core::JobInstance instance(app.system().plan());
  std::vector<std::size_t> order;
  std::vector<TrackResult> reported;
  const std::vector<TrackResult> returned = app.track_batch(
      synthetic_jobs, instance, nullptr, [&](std::size_t job, const TrackResult& result) {
        order.push_back(job);
        reported.push_back(result);
      });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2}));
  ASSERT_EQ(returned.size(), 3u);
  ASSERT_EQ(reported.size(), 3u);
  for (std::size_t k = 0; k < 3; ++k) {
    ASSERT_EQ(returned[k].estimates.size(), 9u) << k;
    EXPECT_EQ(returned[k].estimates, expected[k].estimates) << k;
    EXPECT_EQ(returned[k].rmse_vs_truth, expected[k].rmse_vs_truth) << k;
    EXPECT_EQ(returned[k].resample_steps, expected[k].resample_steps) << k;
    EXPECT_EQ(returned[k].particles_exchanged, expected[k].particles_exchanged) << k;
    EXPECT_EQ(reported[k].estimates, returned[k].estimates) << k;
  }

  // A synthetic job batches with explicit jobs of its length.
  std::vector<ParticleFilterApp::ParticleJobSpec> mixed{explicit_jobs[0], synthetic_jobs[1]};
  const std::vector<TrackResult> mixed_results = app.track_batch(mixed, instance);
  EXPECT_EQ(mixed_results[1].estimates, expected[1].estimates);
  mixed[1].synthetic_steps = 8;
  EXPECT_THROW(static_cast<void>(app.track_batch(mixed, instance)), std::invalid_argument);
}

TEST(ParticleFilterApp, ChannelPlanMatchesPaper) {
  // Two messages between the PEs per iteration: local sums are
  // known-length -> SPI_static; particle exchange varies -> SPI_dynamic.
  const ParticleFilterApp app(2, small_params());
  std::size_t static_channels = 0, dynamic_channels = 0;
  for (const auto& plan : app.system().channels()) {
    if (plan.mode == core::SpiMode::kStatic)
      ++static_channels;
    else
      ++dynamic_channels;
  }
  EXPECT_EQ(dynamic_channels, 2u);  // particles0->1, particles1->0
  EXPECT_EQ(static_channels, 3u);   // lws x2 + obs to PE1
}

TEST(ParticleFilterApp, TracksAsWellAsSequentialReference) {
  const ParticleParams params = small_params(128);
  const dsp::CrackTrajectory traj = trajectory(100);

  dsp::ParticleFilter reference(params.particles, params.model, params.seed);
  std::vector<double> ref_estimates;
  for (double obs : traj.observations) ref_estimates.push_back(reference.step(obs));
  const double ref_rmse = dsp::rmse(traj.truth, ref_estimates);

  const ParticleFilterApp app(2, params);
  const TrackResult result = app.track(traj);
  ASSERT_EQ(result.estimates.size(), traj.truth.size());
  // Distributed resampling is an approximation; allow 50% slack but it
  // must stay in the reference's class and beat raw observations.
  EXPECT_LT(result.rmse_vs_truth, 1.5 * ref_rmse + 0.01);
  EXPECT_LT(result.rmse_vs_truth, dsp::rmse(traj.truth, traj.observations));
}

TEST(ParticleFilterApp, SinglePeHasNoCommunication) {
  const ParticleFilterApp app(1, small_params());
  EXPECT_TRUE(app.system().channels().empty());
  const TrackResult result = app.track(trajectory(40));
  EXPECT_EQ(result.static_messages, 0);
  EXPECT_EQ(result.dynamic_messages, 0);
  EXPECT_EQ(result.particles_exchanged, 0);
}

TEST(ParticleFilterApp, MessageCountsPerIteration) {
  const ParticleFilterApp app(2, small_params());
  const std::size_t steps = 50;
  const TrackResult result = app.track(trajectory(steps));
  // Per iteration: 2 lws + 1 obs static messages, 2 dynamic particle msgs.
  EXPECT_EQ(result.static_messages, static_cast<std::int64_t>(3 * steps));
  EXPECT_EQ(result.dynamic_messages, static_cast<std::int64_t>(2 * steps));
}

TEST(ParticleFilterApp, ExchangeVolumeBounded) {
  const ParticleParams params = small_params(128);
  const std::size_t steps = 60;
  const ParticleFilterApp app(2, params);
  const TrackResult result = app.track(trajectory(steps));
  // A PE can never export more than the total particle count per step.
  EXPECT_LE(result.particles_exchanged,
            static_cast<std::int64_t>(params.particles * steps));
  EXPECT_GE(result.particles_exchanged, 0);
}

TEST(ParticleFilterApp, DeterministicAcrossRuns) {
  const dsp::CrackTrajectory traj = trajectory(60);
  const ParticleFilterApp app(2, small_params(128));
  const TrackResult a = app.track(traj);
  const TrackResult b = app.track(traj);
  EXPECT_EQ(a.estimates, b.estimates);
  EXPECT_EQ(a.particles_exchanged, b.particles_exchanged);
}

TEST(ParticleFilterApp, TimedTwoPeFasterThanOne) {
  const ParticleTimingModel timing;
  const ParticleFilterApp one(1, small_params(128));
  const ParticleFilterApp two(2, small_params(128));
  const auto s1 = one.run_timed(128, timing, 100);
  const auto s2 = two.run_timed(128, timing, 100);
  EXPECT_LT(s2.steady_period_cycles, s1.steady_period_cycles);
  // But not superlinear: communication costs something.
  EXPECT_GT(s2.steady_period_cycles, 0.45 * s1.steady_period_cycles);
}

TEST(ParticleFilterApp, TimeGrowsWithParticleCount) {
  const ParticleTimingModel timing;
  const ParticleFilterApp app(2, small_params(128));
  double previous = 0.0;
  for (std::size_t n : {64u, 128u, 192u, 256u}) {
    const auto stats = app.run_timed(n, timing, 60);
    EXPECT_GT(stats.steady_period_cycles, previous);
    previous = stats.steady_period_cycles;
  }
  EXPECT_THROW((void)app.run_timed(1024, timing, 10), std::length_error);
}

TEST(ParticleFilterApp, AreaMatchesPaperTable2) {
  // Table 2 (2-PE particle filter), as recovered from the paper text:
  // SPI library relative to the full system: ~0.2% slices, ~0.08% FFs,
  // ~0.27% LUTs, ~11.43% BRAM, 0% DSP48; full system LUTs ~65.48%,
  // BRAM ~18.23%, DSP48 ~56.25% of the device.
  const ParticleFilterApp app(2, small_params());
  const sim::AreaReport report = app.area_report();
  report.check_fits();
  EXPECT_NEAR(report.system_percent_of_device(2), 65.48, 0.2);
  EXPECT_NEAR(report.system_percent_of_device(3), 18.23, 0.2);
  EXPECT_NEAR(report.system_percent_of_device(4), 56.25, 0.2);
  EXPECT_NEAR(report.spi_percent_of_system(0), 0.2, 0.05);
  EXPECT_NEAR(report.spi_percent_of_system(1), 0.08, 0.05);
  EXPECT_NEAR(report.spi_percent_of_system(2), 0.27, 0.05);
  EXPECT_NEAR(report.spi_percent_of_system(3), 11.43, 0.3);
  EXPECT_DOUBLE_EQ(report.spi_percent_of_system(4), 0.0);
}

TEST(ParticleFilterApp, AdaptiveResamplingSavesTrafficKeepsAccuracy) {
  const dsp::CrackTrajectory traj = trajectory(120, 55);

  ParticleParams always = small_params(128);
  always.resample_ess_fraction = 1.0;  // the paper's every-iteration scheme
  ParticleParams adaptive = small_params(128);
  adaptive.resample_ess_fraction = 0.5;  // classic N/2 ESS trigger

  const TrackResult base = ParticleFilterApp(2, always).track(traj);
  const TrackResult lazy = ParticleFilterApp(2, adaptive).track(traj);

  // Fewer resampling rounds -> fewer particles on the wire; the dynamic
  // message COUNT is unchanged (the schedule still fires) but skipped
  // rounds ship empty packed tokens.
  EXPECT_EQ(base.resample_steps, static_cast<std::int64_t>(traj.observations.size()));
  EXPECT_LT(lazy.resample_steps, base.resample_steps);
  EXPECT_LE(lazy.particles_exchanged, base.particles_exchanged);
  EXPECT_EQ(lazy.dynamic_messages, base.dynamic_messages);

  // Accuracy stays in the same class (and both beat raw observations).
  const double obs_rmse = dsp::rmse(traj.truth, traj.observations);
  EXPECT_LT(base.rmse_vs_truth, obs_rmse);
  EXPECT_LT(lazy.rmse_vs_truth, obs_rmse);
  EXPECT_LT(lazy.rmse_vs_truth, 2.0 * base.rmse_vs_truth + 0.01);
}

TEST(ParticleFilterApp, RebalanceInvariantHoldsUnderStress) {
  // Sharply informative observations concentrate weight on one PE,
  // forcing large exchanges; the quota invariant must still hold (the
  // Xch actor throws if it breaks, failing track()).
  ParticleParams params = small_params(128);
  params.model.obs_noise = 0.005;  // very sharp likelihood
  const ParticleFilterApp app(2, params);
  EXPECT_NO_THROW((void)app.track(trajectory(80, 77)));
}

}  // namespace
}  // namespace spi::apps
