/// \file micro_flight.cpp
/// google-benchmark microbenchmarks of the flight recorder (host
/// wall-clock): the record() hot path, raw SPSC ring throughput, the
/// end-to-end overhead of recording a threaded pipeline run (the
/// acceptance target is < 5% versus the unrecorded run — compare
/// BM_ThreadedPipeline against BM_ThreadedPipelineRecorded; the
/// run_benchmarks.sh harness derives the percentage), and the
/// critical-path analyzer itself.
#include <benchmark/benchmark.h>

#include "core/job_instance.hpp"
#include "core/pipeline.hpp"
#include "core/plan.hpp"
#include "core/text_format.hpp"
#include "obs/critical_path.hpp"
#include "obs/flight_recorder.hpp"
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

/// Cost of one record() call: clock read + SPSC push.
void BM_FlightRecordEvent(benchmark::State& state) {
  obs::FlightRecorder recorder(1, 1u << 20);
  std::int64_t seq = 0;
  for (auto _ : state) {
    recorder.record(0, obs::FlightEventKind::kSend, /*actor=*/1, /*edge=*/2, seq++,
                    /*iteration=*/0);
    if ((seq & 0xFFFF) == 0) benchmark::DoNotOptimize(recorder.collect());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FlightRecordEvent);

/// Construction of a recorder with the default ring capacity, one ring
/// per processor (2 = particle's served plan, 3 = speech's).
void BM_FlightRecorderConstruct(benchmark::State& state) {
  const auto procs = static_cast<std::int32_t>(state.range(0));
  for (auto _ : state) {
    obs::FlightRecorder recorder(procs);
    benchmark::DoNotOptimize(&recorder);
  }
}
BENCHMARK(BM_FlightRecorderConstruct)->Arg(2)->Arg(3)->Unit(benchmark::kMicrosecond);

/// Raw ring throughput without the clock read, drained in batches.
void BM_FlightRingPushDrain(benchmark::State& state) {
  obs::FlightRing ring(1u << 12);
  obs::FlightEvent event;
  std::vector<obs::FlightEvent> out;
  std::int64_t pushed = 0;
  for (auto _ : state) {
    event.t = pushed;
    ring.try_push(event);
    if ((++pushed & 0xFFF) == 0) {
      out.clear();
      ring.drain(out);
      benchmark::DoNotOptimize(out.data());
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FlightRingPushDrain);

constexpr std::int64_t kRunIterations = 100;
/// Baseline: the threaded pipeline with no recorder attached.
void BM_ThreadedPipeline(benchmark::State& state) {
  const core::ExecutablePlan& plan = pipeline_plan();
  for (auto _ : state) {
    core::JobInstance runtime(plan);
    bench::install_spin_computes(runtime, plan);
    runtime.run(kRunIterations);
    benchmark::DoNotOptimize(runtime.stats().messages);
  }
  state.SetItemsProcessed(state.iterations() * kRunIterations);
}
BENCHMARK(BM_ThreadedPipeline)->Unit(benchmark::kMillisecond)->MinTime(0.5);

/// Same run with every firing, send, receive and block recorded. The
/// ratio of these two is the recorder's end-to-end overhead. The
/// recorder is constructed once (its ring allocation is per-session,
/// not per-run) and drained outside the timed region.
void BM_ThreadedPipelineRecorded(benchmark::State& state) {
  const core::ExecutablePlan& plan = pipeline_plan();
  obs::FlightRecorder recorder(static_cast<std::int32_t>(plan.proc_count));
  std::vector<obs::FlightEvent> drained;
  for (auto _ : state) {
    core::JobInstance runtime(plan);
    bench::install_spin_computes(runtime, plan);
    runtime.set_flight_recorder(&recorder);
    runtime.run(kRunIterations);
    benchmark::DoNotOptimize(recorder.dropped_total());
    state.PauseTiming();
    const obs::FlightLog log = recorder.collect();  // keep the rings from overflowing
    drained.assign(log.events.begin(), log.events.end());
    benchmark::DoNotOptimize(drained.data());
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * kRunIterations);
}
BENCHMARK(BM_ThreadedPipelineRecorded)->Unit(benchmark::kMillisecond)->MinTime(0.5);

/// Analyzer cost over a real recorded stream (events scale with the
/// recorded iteration count).
void BM_AnalyzeCriticalPath(benchmark::State& state) {
  const core::ExecutablePlan& plan = pipeline_plan();
  core::JobInstance runtime(plan);
  obs::FlightRecorder recorder(static_cast<std::int32_t>(plan.proc_count));
  runtime.set_flight_recorder(&recorder);
  runtime.run(state.range(0));
  const obs::FlightLog log = recorder.collect();
  for (auto _ : state) {
    const obs::CriticalPathReport report = obs::analyze_critical_path(log);
    benchmark::DoNotOptimize(report.cp_length);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(log.events.size()));
}
BENCHMARK(BM_AnalyzeCriticalPath)->Arg(100)->Arg(1000);

}  // namespace

BENCHMARK_MAIN();
