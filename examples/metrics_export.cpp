/// \file metrics_export.cpp
/// The unified observability layer end to end (docs/observability.md):
/// one MetricRegistry shared by the compile pipeline and the threaded
/// runtime, a flight-recorder capture of the real-thread execution
/// rendered as a wall-clock Chrome trace, and both exporter formats.
///
/// Output: the Prometheus text exposition of everything recorded, a
/// JSON snippet, a per-iteration latency histogram summary, and the
/// first slices of the Chrome trace (pipe the full trace into a file and
/// open it in Perfetto).
#include <cstdio>
#include <vector>

#include "core/job_instance.hpp"
#include "core/pipeline.hpp"
#include "obs/critical_path.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"

int main() {
  using namespace spi;
  constexpr std::int64_t kIterations = 2000;

  // A 3-processor pipeline with a dynamic-rate stage, compiled with the
  // registry attached: the constructor records per-phase wall-clock
  // timings and the plan-level gauges.
  obs::MetricRegistry registry;
  df::Graph g("metrics-demo");
  const df::ActorId src = g.add_actor("Source", 32);
  const df::ActorId mid = g.add_actor("Transform", 96);
  const df::ActorId snk = g.add_actor("Sink", 16);
  g.connect(src, df::Rate::dynamic(8), mid, df::Rate::dynamic(8), 0, sizeof(double));
  g.connect(mid, df::Rate::fixed(1), snk, df::Rate::fixed(1), 0, sizeof(double));
  sched::Assignment assignment(g.actor_count(), 3);
  assignment.assign(mid, 1);
  assignment.assign(snk, 2);
  core::SpiSystemOptions options;
  options.metrics = &registry;
  const core::ExecutablePlan plan = core::compile_plan(g, assignment, options);

  // Run on real threads with the same registry: per-channel message,
  // byte and block counters land beside the compile metrics. The
  // flight recorder captures every firing for Perfetto.
  core::JobInstance runtime(plan, {{}, &registry, {}});
  obs::FlightRecorder flight(3);
  runtime.set_flight_recorder(&flight);

  // Per-iteration sink-side latency histogram (microsecond buckets).
  obs::Histogram& latency = registry.histogram(
      "demo_iteration_micros", obs::Histogram::exponential_bounds(1.0, 2.0, 12), {},
      "Wall-clock microseconds between consecutive sink firings");
  std::int64_t last_ns = obs::monotonic_ns();
  runtime.set_compute(snk, [&](core::FiringContext&) {
    const std::int64_t now = obs::monotonic_ns();
    latency.observe(static_cast<double>(now - last_ns) / 1e3);
    last_ns = now;
  });
  runtime.run(kIterations);

  std::printf("=== Prometheus text exposition ===\n%s\n", registry.to_prometheus().c_str());
  std::printf("=== iteration latency summary ===\n%s\n\n",
              latency.summary("us").c_str());
  std::printf("=== run stats (from the registry) ===\n"
              "messages=%lld payload=%lldB producer_blocks=%lld consumer_blocks=%lld\n\n",
              static_cast<long long>(runtime.stats().messages),
              static_cast<long long>(runtime.stats().payload_bytes),
              static_cast<long long>(runtime.stats().producer_blocks),
              static_cast<long long>(runtime.stats().consumer_blocks));

  const obs::FlightLog log = flight.collect();
  const std::string chrome = obs::analyze_critical_path(log).to_chrome_trace_json(log);
  std::printf("=== Chrome trace (first 400 chars; load the full JSON in Perfetto) ===\n%.400s...\n",
              chrome.c_str());
  return 0;
}
