/// \file bottleneck_hunt.cpp
/// Finding the real bottleneck with the flight recorder and the
/// critical-path analyzer (docs/observability.md): a 3-processor
/// pipeline whose middle stage is deliberately slow runs on real
/// threads with every firing, send, receive and blocking wait
/// recorded; the analyzer then reconstructs the causal DAG, walks the
/// realized critical path, and names the channel and actor where the
/// wall clock actually went — compared against the schedule's
/// predicted iteration period (the sync graph's MCM).
///
/// Output: the per-segment attribution summary, the per-channel
/// blocked-time ranking, the realized-vs-predicted period, and the
/// spi_critpath_* gauges. Write the Chrome trace with the critical
/// path overlaid via report.to_chrome_trace_json(log) and follow the
/// flow arrows in Perfetto to see the same story graphically.
#include <chrono>
#include <cstdio>
#include <thread>

#include "core/job_instance.hpp"
#include "core/pipeline.hpp"
#include "core/text_format.hpp"
#include "obs/critical_path.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"

namespace {

// The middle actor's own iteration cycle dominates every ack cycle
// (the delays spread those over two iterations), so the predicted MCM
// is Filter's 500 cycles — and Filter is the planted bottleneck.
constexpr char kSystem[] = R"(graph bottleneck_hunt
procs 3

actor Source exec=40
actor Filter exec=500
actor Sink   exec=60

edge Source:1 -> Filter:1 delay=2 bytes=64
edge Filter:1 -> Sink:1   delay=2 bytes=64

proc Source = 0
proc Filter = 1
proc Sink   = 2
)";

}  // namespace

int main() {
  using namespace spi;
  constexpr std::int64_t kIterations = 50;

  const core::ParsedSystem parsed = core::parse_system(kSystem);
  const core::ExecutablePlan plan = core::compile_plan(parsed.graph, parsed.assignment);
  std::printf("predicted MCM: %.0f cycles\n\n", plan.predicted_mcm());

  // Real-thread run: every actor sleeps its modeled WCET at 1 cycle ->
  // 1 us, so the realized period has a hard floor at the predicted MCM
  // and the attribution is legible.
  core::JobInstance runtime(plan);
  const df::Graph& graph = plan.vts.graph;
  for (df::ActorId a = 0; a < static_cast<df::ActorId>(graph.actor_count()); ++a) {
    const std::int64_t wcet_us = graph.actor(a).exec_cycles;
    runtime.set_compute(a, [&graph, wcet_us](core::FiringContext& ctx) {
      std::this_thread::sleep_for(std::chrono::microseconds(wcet_us));
      for (std::size_t i = 0; i < ctx.out_edges.size(); ++i) {
        const df::Edge& e = graph.edge(ctx.out_edges[i]);
        for (std::int64_t t = 0; t < e.prod.value(); ++t)
          ctx.outputs[i].emplace_back(static_cast<std::size_t>(e.token_bytes), 0);
      }
    });
  }

  obs::FlightRecorder recorder(static_cast<std::int32_t>(plan.proc_count));
  runtime.set_flight_recorder(&recorder);  // actor/edge names come from the plan
  runtime.run(kIterations);
  const obs::FlightLog log = recorder.collect();
  std::printf("recorded %zu events on %d processors (%lld dropped)\n\n", log.events.size(),
              log.proc_count, static_cast<long long>(log.dropped));

  obs::AnalyzeOptions options;
  options.predicted_mcm = plan.predicted_mcm();
  options.mcm_scale = 1000.0;  // 1 modeled cycle = 1 slept us = 1000 ns
  const obs::CriticalPathReport report = obs::analyze_critical_path(log, options);

  const double pct = report.cp_length > 0 ? 100.0 / static_cast<double>(report.cp_length) : 0.0;
  std::printf("critical path: %lld ns over [%lld, %lld]\n",
              static_cast<long long>(report.cp_length),
              static_cast<long long>(report.t_first), static_cast<long long>(report.t_last));
  std::printf("  compute : %10lld ns (%5.1f%%)\n", static_cast<long long>(report.cp_compute),
              static_cast<double>(report.cp_compute) * pct);
  std::printf("  blocked : %10lld ns (%5.1f%%)\n", static_cast<long long>(report.cp_blocked),
              static_cast<double>(report.cp_blocked) * pct);
  std::printf("  comm    : %10lld ns (%5.1f%%)\n", static_cast<long long>(report.cp_comm),
              static_cast<double>(report.cp_comm) * pct);
  std::printf("  idle    : %10lld ns (%5.1f%%)\n\n", static_cast<long long>(report.cp_idle),
              static_cast<double>(report.cp_idle) * pct);

  std::printf("realized period: avg %.0f ns, steady %.0f ns — predicted MCM %.0f ns (x%.2f)\n\n",
              report.realized_period_avg, report.realized_period_steady, report.predicted_mcm,
              report.period_ratio);

  std::printf("channels by blocked time (on-path blocked + comm decides the bottleneck):\n");
  for (const obs::ChannelAttribution& c : report.channels)
    std::printf("  %-16s producer-blocked %8lld ns, consumer-blocked %8lld ns, "
                "on-path %8lld ns, %lld msgs\n",
                c.name.c_str(), static_cast<long long>(c.producer_blocked),
                static_cast<long long>(c.consumer_blocked),
                static_cast<long long>(c.cp_blocked + c.cp_comm),
                static_cast<long long>(c.messages));
  std::printf("\nactors by on-path compute:\n");
  for (const obs::ActorAttribution& a : report.actors)
    std::printf("  %-16s %10lld ns on path (%lld firings)\n", a.name.c_str(),
                static_cast<long long>(a.cp_compute), static_cast<long long>(a.firings));
  if (report.bottleneck_edge >= 0)
    std::printf("\n=> bottleneck: channel %s\n\n", report.bottleneck_channel.c_str());
  else
    std::printf("\n=> bottleneck: compute-bound — dominant actor %s\n\n",
                report.actors.empty() ? "?" : report.actors.front().name.c_str());

  // The same verdict as metrics, ready for any Prometheus scraper.
  obs::MetricRegistry registry;
  report.publish_metrics(registry);
  recorder.publish_metrics(registry);
  std::printf("%s", registry.to_prometheus().c_str());
  return 0;
}
