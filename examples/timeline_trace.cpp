/// \file timeline_trace.cpp
/// Records a full execution trace of the 4-PE speech error-generation
/// system, prints an ASCII Gantt chart of the first iterations (showing
/// the host I/O serialization and the PEs computing in parallel), and
/// writes a Chrome trace-event JSON (open in chrome://tracing or
/// https://ui.perfetto.dev) to /tmp/spi_trace.json.
#include <cstdio>
#include <fstream>

#include "apps/speech_app.hpp"
#include "sim/trace.hpp"

int main() {
  using namespace spi;

  apps::SpeechParams params;
  params.frame_size = 512;
  const apps::ErrorGenApp app(4, params);
  const apps::SpeechTimingModel timing;

  // Run the timed experiment with a recorder attached. The app's own
  // run_timed fixes the options, so this drives the app's compiled plan
  // through core::run_timed directly, with the graph's exec times and
  // worst-case payloads as the workload.
  sim::TraceRecorder trace;
  sim::TimedExecutorOptions options;
  options.iterations = 6;
  options.clock.mhz = timing.clock_mhz;
  options.trace = &trace;

  const core::ExecutablePlan& plan = app.system().plan();
  const sim::ExecStats stats = core::run_timed(plan, *plan.make_backend(), options);

  std::printf("4-PE speech error generation, %lld iterations, makespan %lld cycles\n\n",
              static_cast<long long>(options.iterations),
              static_cast<long long>(stats.makespan));
  std::printf("%s\n", sim::to_ascii_gantt(trace, 5, stats.makespan, 110).c_str());
  std::printf("(PE0 = host I/O interfaces; PE1..4 = D actors; S/D/R = send/compute/receive)\n\n");

  const std::string json = sim::to_chrome_trace_json(trace, options.clock);
  std::ofstream("/tmp/spi_trace.json") << json;
  std::ofstream("/tmp/spi_trace.vcd") << sim::to_vcd(trace, 5);
  std::printf("wrote %zu firing records and %zu message records to /tmp/spi_trace.json\n"
              "and a GTKWave-viewable waveform to /tmp/spi_trace.vcd\n",
              trace.firings().size(), trace.messages().size());
  return 0;
}
