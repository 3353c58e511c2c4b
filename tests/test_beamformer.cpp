#include "apps/beamformer_app.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace spi::apps {
namespace {

BeamformerParams small_params() {
  BeamformerParams p;
  p.sensors = 6;
  p.block = 32;
  p.noise_stddev = 0.8;
  return p;
}

TEST(BeamformerReference, DelaysNonNegativeAndOrdered) {
  const BeamformerReference ref(small_params());
  for (double angle : {-1.0, -0.3, 0.0, 0.4, 1.2}) {
    double prev = ref.delay_samples(0, angle);
    EXPECT_GE(prev, 0.0);
    for (std::size_t m = 1; m < 6; ++m) {
      const double tau = ref.delay_samples(m, angle);
      EXPECT_GE(tau, 0.0);
      // Monotone across the array, direction depending on the sign.
      if (angle > 0) {
        EXPECT_GE(tau, prev);
      } else if (angle < 0) {
        EXPECT_LE(tau, prev);
      }
      prev = tau;
    }
  }
  // Broadside: no inter-element delay.
  for (std::size_t m = 0; m < 6; ++m) EXPECT_DOUBLE_EQ(ref.delay_samples(m, 0.0), 0.0);
}

TEST(BeamformerReference, SteerChannelInterpolates) {
  const std::vector<double> x{0.0, 1.0, 2.0, 3.0};
  const auto y = BeamformerReference::steer_channel(x, 0.5);
  EXPECT_DOUBLE_EQ(y[0], 0.5);
  EXPECT_DOUBLE_EQ(y[1], 1.5);
  EXPECT_DOUBLE_EQ(y[2], 2.5);
  EXPECT_DOUBLE_EQ(y[3], 3.0);  // clamped at the end
  const auto zero = BeamformerReference::steer_channel(x, 0.0);
  EXPECT_EQ(zero, x);
}

TEST(BeamformerReference, ArrayGainAtMatchedSteering) {
  // Steering at the source must beat steering far away by a wide margin
  // (coherent signal gain + incoherent noise averaging).
  BeamformerParams params = small_params();
  params.sensors = 8;
  const BeamformerReference ref(params);
  const double on_target = ref.steered_power(0.5, 0.5, 16);
  const double off_target = ref.steered_power(-0.7, 0.5, 16);
  EXPECT_GT(on_target, 2.0 * off_target);
}

TEST(BeamformerReference, NoiseAveragingReducesVariance) {
  // With no signal-bearing direction difference, more sensors average
  // the noise: output power ~ noise^2 / M + signal power.
  BeamformerParams few = small_params();
  few.sensors = 2;
  BeamformerParams many = small_params();
  many.sensors = 16;
  const double p_few = BeamformerReference(few).steered_power(0.9, -0.9, 12);
  const double p_many = BeamformerReference(many).steered_power(0.9, -0.9, 12);
  EXPECT_LT(p_many, p_few);
}

TEST(BeamformerReference, Validation) {
  BeamformerParams p = small_params();
  p.sensors = 0;
  EXPECT_THROW(BeamformerReference{p}, std::invalid_argument);
  p = small_params();
  p.block = 4;
  EXPECT_THROW(BeamformerReference{p}, std::invalid_argument);
  p = small_params();
  p.spacing_wavelengths = 0.0;
  EXPECT_THROW(BeamformerReference{p}, std::invalid_argument);
}

TEST(BeamformerApp, SensorDistributionRoundRobin) {
  const BeamformerApp app(2, small_params());
  EXPECT_EQ(app.sensors_on(0), (std::vector<std::size_t>{0, 2, 4}));
  EXPECT_EQ(app.sensors_on(1), (std::vector<std::size_t>{1, 3, 5}));
  EXPECT_THROW((void)app.sensors_on(2), std::out_of_range);
  EXPECT_THROW(BeamformerApp(0, small_params()), std::invalid_argument);
  EXPECT_THROW(BeamformerApp(7, small_params()), std::invalid_argument);  // > sensors
}

class BeamformerEquivalence : public ::testing::TestWithParam<std::int32_t> {};

TEST_P(BeamformerEquivalence, DistributedMatchesReference) {
  const std::int32_t pes = GetParam();
  const BeamformerParams params = small_params();
  const BeamformerReference ref(params);
  constexpr double kSteer = 0.35, kSource = 0.35;
  constexpr std::int64_t kBlocks = 3;

  std::vector<double> expected;
  for (std::int64_t k = 0; k < kBlocks; ++k) {
    const auto block = ref.beamform(ref.sensor_block(kSource, k), kSteer);
    expected.insert(expected.end(), block.begin(), block.end());
  }

  const BeamformerApp app(pes, params);
  const std::vector<double> actual = app.run_functional(kSteer, kSource, kBlocks);
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i)
    EXPECT_NEAR(actual[i], expected[i], 1e-12) << "sample " << i << " with " << pes << " PEs";
}

INSTANTIATE_TEST_SUITE_P(PeCounts, BeamformerEquivalence, ::testing::Values(1, 2, 3));

TEST(BeamformerApp, AllChannelsStatic) {
  const BeamformerApp app(3, small_params());
  for (const auto& plan : app.system().plan().channels)
    EXPECT_EQ(plan.mode, core::SpiMode::kStatic);
  // Hierarchical reduction: partial-block channels from PEs 1, 2 plus
  // steering channels to them (PE0 traffic is processor-local).
  EXPECT_EQ(app.system().plan().channels.size(), 4u);
}

TEST(BeamformerApp, TimedScalesWithPes) {
  BeamformerParams params;
  params.sensors = 12;
  params.block = 64;
  const BeamformerTimingModel timing;
  double previous = 1e18;
  for (std::int32_t pes : {1, 2, 4}) {
    const BeamformerApp app(pes, params);
    const auto stats = app.run_timed(timing, 80);
    EXPECT_LT(stats.steady_period_cycles, previous) << pes;
    previous = stats.steady_period_cycles;
  }
}

TEST(BeamformerApp, AreaScalesWithSensorsAndFits) {
  BeamformerParams params = small_params();
  params.sensors = 12;
  const BeamformerApp app(4, params);
  const sim::AreaReport report = app.area_report();
  report.check_fits();
  EXPECT_GT(report.total().dsp48, 12 * 2);  // two DSPs per channel + reducers
  EXPECT_LT(report.spi_percent_of_system(0), 2.0);  // SPI stays tiny here too
}

}  // namespace
}  // namespace spi::apps
