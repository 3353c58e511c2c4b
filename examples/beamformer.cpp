/// \file beamformer.cpp
/// Delay-and-sum beamformer on SPI: sweeps the steering angle across a
/// scene with a source at +0.4 rad and prints the beam pattern (output
/// power vs steering), then runs the distributed system and verifies it
/// against the sequential reference.
#include <cmath>
#include <cstdio>

#include "apps/beamformer_app.hpp"

int main() {
  using namespace spi;

  apps::BeamformerParams params;
  params.sensors = 12;
  params.block = 64;
  params.noise_stddev = 1.0;
  constexpr double kSource = 0.4;

  const apps::BeamformerReference reference(params);
  std::printf("beam pattern, %zu-sensor array, source at %.2f rad, noise sigma %.1f:\n",
              params.sensors, kSource, params.noise_stddev);
  for (double steer = -1.2; steer <= 1.21; steer += 0.2) {
    const double power = reference.steered_power(steer, kSource, 12);
    const int bars = static_cast<int>(power * 80.0);
    std::printf("  steer %+5.2f  power %6.4f  |%.*s\n", steer, power,
                bars, "############################################################");
  }

  const apps::BeamformerApp app(4, params);
  std::printf("\n%s\n", app.system().plan().report().c_str());

  const std::vector<double> out = app.run_functional(kSource, kSource, 4);
  std::vector<double> ref_out;
  for (std::int64_t k = 0; k < 4; ++k) {
    const auto block = reference.beamform(reference.sensor_block(kSource, k), kSource);
    ref_out.insert(ref_out.end(), block.begin(), block.end());
  }
  double max_diff = 0.0;
  for (std::size_t i = 0; i < out.size(); ++i)
    max_diff = std::max(max_diff, std::abs(out[i] - ref_out[i]));
  std::printf("4-PE distributed output vs reference: max |diff| = %.2e over %zu samples\n",
              max_diff, out.size());

  const apps::BeamformerTimingModel timing;
  const sim::ClockModel clock{timing.clock_mhz};
  std::printf("\nthroughput (block = %zu samples):\n", params.block);
  for (std::int32_t pes : {1, 2, 4}) {
    const apps::BeamformerApp scaled(pes, params);
    const auto stats = scaled.run_timed(timing, 100);
    std::printf("  n=%d PEs: %7.2f us/block (%0.1f Msamples/s)\n", pes,
                clock.to_microseconds(static_cast<sim::SimTime>(stats.steady_period_cycles)),
                static_cast<double>(params.block) /
                    clock.to_microseconds(
                        static_cast<sim::SimTime>(stats.steady_period_cycles)));
  }
  return max_diff < 1e-9 ? 0 : 1;
}
