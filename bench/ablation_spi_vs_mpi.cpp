/// \file ablation_spi_vs_mpi.cpp
/// The paper's central motivation (Section 1): generic MPI carries
/// overheads — full envelopes, run-time matching, software send paths,
/// rendezvous for large payloads — that a domain-specialized interface
/// avoids. Runs the identical systems under the SPI backend and the
/// generic-MPI baseline backend on the same platform model:
///   (a) a payload sweep on a 2-stage pipeline (per-message overhead),
///   (b) both paper applications end to end.
#include <cstdio>

#include "apps/particle_app.hpp"
#include "apps/speech_app.hpp"
#include "mpi/mpi_backend.hpp"

int main() {
  using namespace spi;
  const mpi::MpiBackend mpi_backend;

  // --- (a) per-message overhead sweep ------------------------------------
  std::printf("(a) 2-stage pipeline, per-iteration period (cycles) vs payload size\n");
  std::printf("%12s %10s %10s %10s %14s %14s\n", "payload B", "SPI", "MPI", "ratio",
              "SPI wire B/it", "MPI wire B/it");
  for (std::int64_t payload : {4, 16, 64, 256, 1024, 4096}) {
    df::Graph g("pipe");
    const df::ActorId a = g.add_actor("A", 50);
    const df::ActorId b = g.add_actor("B", 50);
    g.connect(a, df::Rate::fixed(1), b, df::Rate::fixed(1), 0, payload);
    sched::Assignment assignment(2, 2);
    assignment.assign(b, 1);
    core::SpiSystemOptions options;
    options.sync.ubs_credit_window = 4;  // keep the pipeline flowing
    const core::ExecutablePlan plan = core::compile_plan(g, assignment, options);

    sim::TimedExecutorOptions run;
    run.iterations = 400;
    const auto spi_stats = core::run_timed(plan, *plan.make_backend(), run);
    const auto mpi_stats = core::run_timed(plan, mpi_backend, run);
    std::printf("%12lld %10.1f %10.1f %9.2fx %14.1f %14.1f\n",
                static_cast<long long>(payload), spi_stats.steady_period_cycles,
                mpi_stats.steady_period_cycles,
                mpi_stats.steady_period_cycles / spi_stats.steady_period_cycles,
                static_cast<double>(spi_stats.wire_bytes) / 400.0,
                static_cast<double>(mpi_stats.wire_bytes) / 400.0);
  }
  std::printf("expected shape: SPI advantage largest for small messages (header+stack\n"
              "overhead dominates) and persists at 4 KiB (MPI switches to rendezvous).\n\n");

  // --- (b) full applications ---------------------------------------------
  std::printf("(b) applications, steady-state period in microseconds\n");
  std::printf("%-44s %10s %10s %8s\n", "system", "SPI", "MPI", "ratio");
  {
    apps::SpeechParams params;
    const apps::SpeechTimingModel timing;
    const sim::ClockModel clock{timing.clock_mhz};
    for (std::int32_t n : {2, 4}) {
      const apps::ErrorGenApp app(n, params);
      const auto spi_stats = app.run_timed(1024, 10, timing, 200);
      const auto mpi_stats = app.run_timed(1024, 10, timing, 200, &mpi_backend);
      std::printf("speech error-gen, %d PE, 1024 samples        %10.1f %10.1f %7.2fx\n", n,
                  clock.to_microseconds(static_cast<sim::SimTime>(spi_stats.steady_period_cycles)),
                  clock.to_microseconds(static_cast<sim::SimTime>(mpi_stats.steady_period_cycles)),
                  mpi_stats.steady_period_cycles / spi_stats.steady_period_cycles);
    }
  }
  {
    apps::ParticleParams params;
    params.particles = 200;
    const apps::ParticleTimingModel timing;
    const sim::ClockModel clock{timing.clock_mhz};
    const apps::ParticleFilterApp app(2, params);
    const auto spi_stats = app.run_timed(200, timing, 200);
    const auto mpi_stats = app.run_timed(200, timing, 200, &mpi_backend);
    std::printf("particle filter, 2 PE, 200 particles         %10.1f %10.1f %7.2fx\n",
                clock.to_microseconds(static_cast<sim::SimTime>(spi_stats.steady_period_cycles)),
                clock.to_microseconds(static_cast<sim::SimTime>(mpi_stats.steady_period_cycles)),
                mpi_stats.steady_period_cycles / spi_stats.steady_period_cycles);
  }
  return 0;
}
