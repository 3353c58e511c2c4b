/// \file micro_obs.cpp
/// google-benchmark microbenchmarks of the live telemetry layer: the
/// per-firing heartbeat store (the only hot-path cost the watchdog
/// adds), the cost of rendering one full scrape (/metrics + /runtime,
/// reported as obs_snapshot_us by run_benchmarks.sh), and the
/// end-to-end overhead of running the threaded pipeline with the
/// watchdog and telemetry server attached (the acceptance target is
/// < 2% versus the bare run — run_benchmarks.sh derives the
/// percentage as heartbeat_overhead_pct).
#include <benchmark/benchmark.h>

#include <atomic>
#include <span>
#include <string>
#include <vector>

#include "core/job_instance.hpp"
#include "core/pipeline.hpp"
#include "core/plan.hpp"
#include "core/text_format.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/obs_server.hpp"
#include "serve/plan_server.hpp"
#include "spin_computes.hpp"

namespace {

using namespace spi;

constexpr char kPipeline[] = R"(graph bench_pipeline
procs 3

actor Source exec=32
actor Filter exec=96
actor Sink   exec=16

edge Source:1 -> Filter:1 delay=0 bytes=8
edge Filter:1 -> Sink:1   delay=0 bytes=8

proc Source = 0
proc Filter = 1
proc Sink   = 2
)";

const core::ExecutablePlan& pipeline_plan() {
  static const core::ExecutablePlan plan = [] {
    const core::ParsedSystem parsed = core::parse_system(kPipeline);
    return core::compile_plan(parsed.graph, parsed.assignment);
  }();
  return plan;
}

/// The heartbeat the worker publishes once per firing: a relaxed store
/// to a worker-private cache line. This is the entire per-firing cost
/// of watchdog observability.
void BM_HeartbeatStore(benchmark::State& state) {
  alignas(64) std::atomic<std::uint64_t> epoch{0};
  std::uint64_t local = 0;
  for (auto _ : state) epoch.store(++local, std::memory_order_relaxed);
  benchmark::DoNotOptimize(epoch.load());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HeartbeatStore);

/// One full scrape rendered through the server's routing (no sockets):
/// refresh the channel gauges, serialize the Prometheus document and
/// the /runtime snapshot. run_benchmarks.sh reports the mean as
/// obs_snapshot_us.
void BM_ObsSnapshot(benchmark::State& state) {
  const core::ExecutablePlan& plan = pipeline_plan();
  obs::MetricRegistry registry;
  core::JobInstance runtime(plan, {{}, &registry, {}});
  runtime.run(8);  // populate counters, gauges and watermarks

  obs::ObsServer::Options options;
  options.registry = &registry;
  options.refresh = [&runtime] { runtime.refresh_channel_gauges(); };
  options.runtime_json = [&runtime] { return runtime.runtime_status_json(); };
  const obs::ObsServer server(std::move(options));

  for (auto _ : state) {
    const obs::HttpResponse metrics = server.handle("GET", "/metrics");
    const obs::HttpResponse status = server.handle("GET", "/runtime");
    benchmark::DoNotOptimize(metrics.body.data());
    benchmark::DoNotOptimize(status.body.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsSnapshot)->Unit(benchmark::kMicrosecond);

/// Long enough that the per-run fixed cost of the telemetry stack
/// (socket bind, two thread spawns/joins) amortizes the way it does in
/// a real observed run — the steady-state overhead is the heartbeat
/// store plus the monitor thread's periodic sampling, not the setup.
constexpr std::int64_t kRunIterations = 500;
/// Baseline: the threaded pipeline with no observer attached.
void BM_ThreadedRunBare(benchmark::State& state) {
  const core::ExecutablePlan& plan = pipeline_plan();
  for (auto _ : state) {
    core::JobInstance runtime(plan);
    bench::install_spin_computes(runtime, plan);
    runtime.run(kRunIterations);
    benchmark::DoNotOptimize(runtime.stats().messages);
  }
  state.SetItemsProcessed(state.iterations() * kRunIterations);
}
BENCHMARK(BM_ThreadedRunBare)->Unit(benchmark::kMillisecond)->MinTime(0.5);

/// Same run with the full live-telemetry stack attached: the progress
/// watchdog sampling heartbeats on its monitor thread and the HTTP
/// server bound to an ephemeral port (nobody scrapes — this measures
/// the standing cost every observed run pays, not client traffic).
void BM_ThreadedRunWatched(benchmark::State& state) {
  const core::ExecutablePlan& plan = pipeline_plan();
  obs::MetricRegistry registry;
  for (auto _ : state) {
    core::JobInstance runtime(plan, {{}, &registry, {}});
    bench::install_spin_computes(runtime, plan);
    core::RunOptions options;
    options.iterations = kRunIterations;
    options.obs_port = 0;
    options.watchdog.enabled = true;
    options.watchdog.window_ms = 10'000;  // never fires; the sampling runs
    runtime.run(options);
    benchmark::DoNotOptimize(runtime.stats().messages);
  }
  state.SetItemsProcessed(state.iterations() * kRunIterations);
}
BENCHMARK(BM_ThreadedRunWatched)->Unit(benchmark::kMillisecond)->MinTime(0.5);

/// One socketless serve burst: 32 mixed-tenant speech jobs routed,
/// queued and drained as batched firings through PlanServer::handle_burst
/// — exactly the poll thread's per-burst work. The Bare/Traced pair is
/// the request-tracing overhead gate: run_benchmarks.sh derives
/// serve_trace_overhead_pct from the two means and perf_smoke.sh fails
/// the build when traced exceeds bare by 2%.
void serve_burst_benchmark(benchmark::State& state, bool traced, std::int64_t sample_every = 64,
                           std::int64_t flight_every = 64) {
  serve::PlanServerOptions options;
  options.trace.enabled = traced;
  options.trace.sample_every = sample_every;
  options.trace.flight_every = flight_every;
  serve::PlanServer server(options);  // no start(): socketless

  constexpr int kBurstJobs = 32;
  std::vector<obs::HttpRequest> requests;
  requests.reserve(kBurstJobs);
  for (int k = 0; k < kBurstJobs; ++k) {
    const std::string body = "{\"app\":\"speech\",\"tenant\":\"t" + std::to_string(k % 2) +
                             "\",\"frame_size\":32,\"order\":4,\"seed\":" + std::to_string(k) + "}";
    requests.push_back({"POST", "/job", "HTTP/1.1", body, true});
  }

  std::vector<obs::HttpResponse> responses;
  for (auto _ : state) {
    server.handle_burst(std::span<obs::HttpRequest>(requests), responses);
    benchmark::DoNotOptimize(responses.data());
  }
  state.SetItemsProcessed(state.iterations() * kBurstJobs);
}

void BM_ServeBurstBare(benchmark::State& state) { serve_burst_benchmark(state, false); }
BENCHMARK(BM_ServeBurstBare)->Unit(benchmark::kMicrosecond)->MinTime(0.5);

void BM_ServeBurstTraced(benchmark::State& state) { serve_burst_benchmark(state, true); }
BENCHMARK(BM_ServeBurstTraced)->Unit(benchmark::kMicrosecond)->MinTime(0.5);

/// Socketless PlanServer construction with default options: both
/// models' compile, instances and flight recorders — the part of the
/// daemon's start-up that spi_serve_construct_seconds reports.
void BM_PlanServerConstruct(benchmark::State& state) {
  for (auto _ : state) {
    serve::PlanServer server{serve::PlanServerOptions{}};
    benchmark::DoNotOptimize(&server);
  }
}
BENCHMARK(BM_PlanServerConstruct)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
