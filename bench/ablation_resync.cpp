/// \file ablation_resync.cpp
/// Ablation for Section 4.1 (figures 3 and 5): resynchronization of the
/// SPI synchronization graph. For both applications, compares the system
/// with and without resynchronization: acknowledgement edges, runtime
/// synchronization messages per iteration, wire bytes, and the simulated
/// steady-state period. The paper's claim: resynchronization removes
/// redundant acknowledgements, cutting synchronization traffic without
/// slowing the system down.
#include <cstdio>

#include "apps/particle_app.hpp"
#include "apps/speech_app.hpp"

namespace {

struct Row {
  const char* config;
  std::size_t acks;
  std::size_t msgs_per_iter;
  double sync_msgs_per_iter;
  double period_us;
  long long wire_bytes;
};

void print_rows(const char* title, const Row& off, const Row& on) {
  std::printf("%s\n", title);
  std::printf("  %-18s %8s %10s %12s %12s %12s\n", "config", "acks", "msgs/iter",
              "sync/iter", "period(us)", "wire bytes");
  for (const Row* r : {&off, &on}) {
    std::printf("  %-18s %8zu %10zu %12.1f %12.2f %12lld\n", r->config, r->acks,
                r->msgs_per_iter, r->sync_msgs_per_iter, r->period_us, r->wire_bytes);
  }
  std::printf("  -> sync messages %s, period %s\n\n",
              on.sync_msgs_per_iter < off.sync_msgs_per_iter ? "REDUCED" : "unchanged",
              on.period_us <= off.period_us + 0.01 ? "not degraded" : "DEGRADED (!)");
}

}  // namespace

int main() {
  using namespace spi;

  // --- application 1: 4-PE error generation -----------------------------
  {
    apps::SpeechParams params;
    const apps::SpeechTimingModel timing;
    const sim::ClockModel clock{timing.clock_mhz};
    Row rows[2];
    for (bool resync : {false, true}) {
      core::SpiSystemOptions options;
      options.resynchronize = resync;
      const apps::ErrorGenApp app(4, params, options);
      const auto stats = app.run_timed(1024, 10, timing, 200);
      Row& row = rows[resync ? 1 : 0];
      row.config = resync ? "with resync" : "without resync";
      row.acks = app.system().plan().sync_graph.count_active(sched::SyncEdgeKind::kAck);
      row.msgs_per_iter = app.system().plan().messages_per_iteration;
      row.sync_msgs_per_iter = static_cast<double>(stats.sync_messages) / 200.0;
      row.period_us =
          clock.to_microseconds(static_cast<sim::SimTime>(stats.steady_period_cycles));
      row.wire_bytes = static_cast<long long>(stats.wire_bytes);
    }
    print_rows("Application 1 (speech, 4 PE, 1024 samples):", rows[0], rows[1]);
  }

  // --- application 2: 2-PE particle filter ------------------------------
  {
    apps::ParticleParams params;
    params.particles = 200;
    const apps::ParticleTimingModel timing;
    const sim::ClockModel clock{timing.clock_mhz};
    Row rows[2];
    for (bool resync : {false, true}) {
      core::SpiSystemOptions options;
      options.resynchronize = resync;
      const apps::ParticleFilterApp app(2, params, options);
      const auto stats = app.run_timed(200, timing, 200);
      Row& row = rows[resync ? 1 : 0];
      row.config = resync ? "with resync" : "without resync";
      row.acks = app.system().plan().sync_graph.count_active(sched::SyncEdgeKind::kAck);
      row.msgs_per_iter = app.system().plan().messages_per_iteration;
      row.sync_msgs_per_iter = static_cast<double>(stats.sync_messages) / 200.0;
      row.period_us =
          clock.to_microseconds(static_cast<sim::SimTime>(stats.steady_period_cycles));
      row.wire_bytes = static_cast<long long>(stats.wire_bytes);
    }
    print_rows("Application 2 (particle filter, 2 PE, 200 particles):", rows[0], rows[1]);
  }
  return 0;
}
