/// \file ext_heterogeneous.cpp
/// Extension experiment: heterogeneous processor speeds. The paper's
/// platform FPGAs integrate CPUs with fabric, so the host I/O processor
/// and the hardware PEs need not run at the same effective rate. Sweeps
/// the host-side speed of the 4-PE speech system (hardware PEs fixed at
/// 1.0) and of a slowed single hardware PE, showing where each resource
/// becomes the bottleneck.
#include <cstdio>

#include "apps/speech_app.hpp"

int main() {
  using namespace spi;

  apps::SpeechParams params;
  const apps::ErrorGenApp app(4, params);
  const apps::SpeechTimingModel timing;
  const sim::ClockModel clock{timing.clock_mhz};

  // Reuse the app's calibrated workload through its run path is not
  // possible with custom pe_speed (the app owns the options), so drive
  // the system directly with default workloads scaled to the operating
  // point: the host executes the I/O actors, PEs 1..4 the D actors.
  const core::ExecutablePlan& plan = app.system().plan();
  auto run_with_speeds = [&](std::vector<double> speeds) {
    sim::WorkloadModel workload;
    workload.exec_cycles = [&](std::int32_t task, std::int64_t) -> std::int64_t {
      const df::ActorId actor = plan.sync_graph.task(task).actor;
      const std::string& name = app.system().application().actor(actor).name;
      if (name.starts_with("D")) return 24 + (1024 / 4) * 10;
      if (name.starts_with("SendFrame")) return 12 + (1024 / 4 + 10) * 2;
      if (name.starts_with("SendCoef")) return 12 + 40;
      return 12 + (1024 / 4) * 2;
    };
    sim::TimedExecutorOptions options;
    options.iterations = 120;
    options.clock.mhz = timing.clock_mhz;
    options.pe_speed = std::move(speeds);
    const auto stats = core::run_timed(plan, *plan.make_backend(), options, workload);
    return clock.to_microseconds(static_cast<sim::SimTime>(stats.steady_period_cycles));
  };

  std::printf("heterogeneous speeds, 4-PE speech system (1024 samples): period in us\n\n");
  std::printf("%-44s %12s\n", "configuration (host, PE1..4)", "period (us)");
  std::printf("%-44s %12.1f\n", "homogeneous (1.0, 1.0 x4)",
              run_with_speeds({1.0, 1.0, 1.0, 1.0, 1.0}));
  std::printf("%-44s %12.1f\n", "fast host (2.0, 1.0 x4)",
              run_with_speeds({2.0, 1.0, 1.0, 1.0, 1.0}));
  std::printf("%-44s %12.1f\n", "slow host (0.5, 1.0 x4)",
              run_with_speeds({0.5, 1.0, 1.0, 1.0, 1.0}));
  std::printf("%-44s %12.1f\n", "one slow hardware PE (1.0, 0.5 1.0 1.0 1.0)",
              run_with_speeds({1.0, 0.5, 1.0, 1.0, 1.0}));
  std::printf("%-44s %12.1f\n", "fast fabric (1.0, 2.0 x4)",
              run_with_speeds({1.0, 2.0, 2.0, 2.0, 2.0}));
  std::printf("\nexpected: the slow host hurts most (it serializes all I/O); a single\n"
              "slow hardware PE drags the whole self-timed iteration (barrier at the\n"
              "error collection); speeding the fabric beyond the host buys little.\n");
  return 0;
}
