/// \file particle_filter_tracking.cpp
/// Application 2 of the paper end to end: particle-filter tracking of
/// crack failure length in turbine-engine blades (Section 5.3). A
/// ground-truth Paris-law crack trajectory is generated; the sequential
/// reference filter and the 2-PE distributed SPI implementation (with
/// the 3-phase resampling: local sums via SPI_static, excess particles
/// via SPI_dynamic) both track it; the timed model reports the
/// figure-7 operating point.
#include <cstdio>

#include "apps/particle_app.hpp"

int main() {
  using namespace spi;

  apps::ParticleParams params;
  params.particles = 200;
  params.seed = 7;

  dsp::Rng truth_rng(99);
  const dsp::CrackTrajectory trajectory = dsp::simulate_crack(params.model, 150, truth_rng);

  // Sequential reference filter.
  dsp::ParticleFilter reference(params.particles, params.model, params.seed);
  std::vector<double> ref_estimates;
  ref_estimates.reserve(trajectory.observations.size());
  for (double obs : trajectory.observations) ref_estimates.push_back(reference.step(obs));
  std::printf("crack tracking over %zu steps, %zu particles:\n",
              trajectory.observations.size(), params.particles);
  std::printf("  sequential filter RMSE vs truth : %.4f\n",
              dsp::rmse(trajectory.truth, ref_estimates));

  // Distributed 2-PE filter through the SPI fabric.
  apps::ParticleFilterApp app(2, params);
  const apps::TrackResult distributed = app.track(trajectory);
  std::printf("  2-PE SPI filter RMSE vs truth   : %.4f\n", distributed.rmse_vs_truth);
  std::printf("  observation noise (floor)       : %.4f\n", params.model.obs_noise);
  std::printf("  particles exchanged (phase 3)   : %lld over %lld SPI_dynamic msgs\n",
              static_cast<long long>(distributed.particles_exchanged),
              static_cast<long long>(distributed.dynamic_messages));
  std::printf("  SPI_static msgs (sums + obs)    : %lld\n\n",
              static_cast<long long>(distributed.static_messages));
  std::printf("%s\n", app.system().plan().report().c_str());

  // Timed operating point (figure 7 midpoint).
  const apps::ParticleTimingModel timing;
  const sim::ClockModel clock{timing.clock_mhz};
  for (std::int32_t n : {1, 2}) {
    apps::ParticleFilterApp timed_app(n, params);
    const sim::ExecStats stats = timed_app.run_timed(params.particles, timing, 200);
    std::printf("n=%d: %.1f us/iteration (steady state)\n", n,
                clock.to_microseconds(static_cast<sim::SimTime>(stats.steady_period_cycles)));
  }
  return 0;
}
