/// \file ablation_scheduling_models.cpp
/// Ablation for the paper's Section-2 choice of the *self-timed*
/// scheduling model. Compares, on the 4-PE speech system:
///
///   fully-static — firing instants fixed from worst-case execution
///       times (WCET); run-time variation becomes idle padding, and any
///       overrun of the WCET budget violates a precedence;
///   self-timed   — SPI's model: order fixed, instants resolved by
///       synchronization; early completions are exploited, overruns are
///       absorbed.
///
/// Sweep: actual execution times jittered to a fraction of WCET
/// (deterministic per-firing hash), plus a scenario with occasional
/// overruns ("no hard WCET"), where fully-static breaks.
#include <cstdio>

#include "apps/speech_app.hpp"
#include "sim/static_executor.hpp"

namespace {

/// Deterministic per-(task, iteration) jitter factor in [lo, hi).
double jitter(std::int32_t task, std::int64_t iter, double lo, double hi) {
  const std::uint64_t h =
      (static_cast<std::uint64_t>(task) * 0x9E3779B97F4A7C15ULL) ^
      (static_cast<std::uint64_t>(iter + 1) * 0xC2B2AE3D27D4EB4FULL);
  return lo + (hi - lo) * static_cast<double>(h % 10007) / 10007.0;
}

}  // namespace

int main() {
  using namespace spi;

  apps::SpeechParams params;
  const apps::SpeechTimingModel timing;
  const apps::ErrorGenApp app(4, params);
  const core::ExecutablePlan& plan = app.system().plan();
  const auto backend = plan.make_backend();
  const sim::ClockModel clock{timing.clock_mhz};

  // WCET workload: the figure-6 cost model at 1024 samples.
  sim::WorkloadModel wcet;
  {
    // Borrow the app's calibrated exec model through a WCET-only run: the
    // cost formulas live in run_timed, so rebuild them here via a probe.
    // The graph's actor exec times are placeholders; define WCET directly:
    wcet.exec_cycles = [&](std::int32_t task, std::int64_t) -> std::int64_t {
      const df::ActorId actor = plan.sync_graph.task(task).actor;
      const std::string& name = app.system().application().actor(actor).name;
      if (name.starts_with("D")) return 24 + (1024 / 4) * 10;        // PE MACs
      if (name.starts_with("SendFrame")) return 12 + (1024 / 4 + 10) * 2;
      if (name.starts_with("SendCoef")) return 12 + 10 * 4;
      return 12 + (1024 / 4) * 2;  // RecvErr
    };
    wcet.payload_bytes = [](const sched::SyncEdge&, std::int64_t) -> std::int64_t {
      return 512;
    };
  }

  sim::TimedExecutorOptions options;
  options.iterations = 200;
  options.clock.mhz = timing.clock_mhz;

  std::printf("scheduling-model ablation, 4-PE speech system (periods in us)\n\n");
  std::printf("%-34s %12s %12s %12s %12s\n", "actual-time scenario", "self-timed",
              "fully-static", "violations", "idle/it/PE");

  struct Scenario {
    const char* name;
    double lo, hi;
  };
  for (const Scenario& s : {Scenario{"actual = WCET (no variation)", 1.0, 1.0},
                            Scenario{"actual ~ 75-100% of WCET", 0.75, 1.0},
                            Scenario{"actual ~ 50-100% of WCET", 0.50, 1.0},
                            Scenario{"occasional overrun (90-115%)", 0.90, 1.15}}) {
    sim::WorkloadModel actual = wcet;
    actual.exec_cycles = [&, lo = s.lo, hi = s.hi](std::int32_t task,
                                                   std::int64_t iter) -> std::int64_t {
      const double f = jitter(task, iter, lo, hi);
      return std::max<std::int64_t>(
          1, static_cast<std::int64_t>(f * static_cast<double>(wcet.exec_cycles(task, iter))));
    };

    const sim::ExecStats self_timed =
        core::run_timed(plan, *backend, options, actual);
    const sim::StaticRunResult fully_static =
        core::run_fully_static(plan, *backend, wcet, actual, options);

    std::printf("%-34s %12.1f %12.1f %12lld %12.1f\n", s.name,
                clock.to_microseconds(
                    static_cast<sim::SimTime>(self_timed.steady_period_cycles)),
                clock.to_microseconds(
                    static_cast<sim::SimTime>(fully_static.stats.steady_period_cycles)),
                static_cast<long long>(fully_static.precedence_violations),
                clock.to_microseconds(fully_static.padding_cycles) / (200.0 * 5));
  }

  std::printf("\nexpected (paper Section 2): with variation, self-timed runs faster than\n"
              "the WCET-locked static schedule (it exploits early completions); without a\n"
              "hard WCET the static schedule records precedence violations while\n"
              "self-timed execution remains correct — why SPI adopts self-timed.\n");
  return 0;
}
