/// Unit tests for the critical-path analyzer (obs/critical_path.hpp).
///
/// The load-bearing property is *exact parity with the simulator*: the
/// analyzer walks backward over the flight-recorder event stream tiling
/// [t_first, t_end] with compute / blocked / comm / idle segments, so
/// over the timed simulator's modeled stream the realized critical-path
/// length must equal the simulator's makespan to the cycle — for both
/// paper applications. Over a real threaded run the realized iteration
/// period must dominate the schedule's predicted MCM when computes
/// sleep their modeled WCET (1 cycle -> 1 us).
#include "obs/critical_path.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "apps/particle_app.hpp"
#include "apps/speech_app.hpp"
#include "core/job_instance.hpp"
#include "core/pipeline.hpp"
#include "core/plan.hpp"
#include "core/text_format.hpp"
#include "obs/flight_recorder.hpp"
#include "sim/flight_adapter.hpp"
#include "sim/trace.hpp"

namespace spi {
namespace {

/// Timed run with tracing; returns (stats, analyzer report).
std::pair<sim::ExecStats, obs::CriticalPathReport> run_and_analyze(
    const core::ExecutablePlan& plan, std::int64_t iterations) {
  sim::TraceRecorder trace;
  sim::TimedExecutorOptions options;
  options.iterations = iterations;
  options.trace = &trace;
  const auto backend = plan.make_backend();
  const sim::ExecStats stats = core::run_timed(plan, *backend, options);

  const obs::FlightLog log =
      sim::to_flight_log(trace, plan.sync_graph, static_cast<std::int32_t>(plan.proc_count));
  obs::AnalyzeOptions cp_options;
  cp_options.predicted_mcm = plan.predicted_mcm();
  return {stats, obs::analyze_critical_path(log, cp_options)};
}

/// The structural invariants every report must satisfy: the segments
/// tile [t_first, t_last] gaplessly and the breakdown sums exactly.
void expect_report_consistent(const obs::CriticalPathReport& report) {
  ASSERT_FALSE(report.segments.empty());
  EXPECT_EQ(report.segments.front().begin, report.t_first);
  EXPECT_EQ(report.segments.back().end, report.t_last);
  for (std::size_t i = 0; i + 1 < report.segments.size(); ++i)
    EXPECT_EQ(report.segments[i].end, report.segments[i + 1].begin) << "gap after segment " << i;
  EXPECT_EQ(report.cp_compute + report.cp_blocked + report.cp_comm + report.cp_idle,
            report.cp_length);
  // ... which is the acceptance identity: non-compute attribution equals
  // wall clock minus compute on the path, with zero tolerance.
  EXPECT_EQ(report.cp_blocked + report.cp_comm + report.cp_idle,
            report.cp_length - report.cp_compute);
}

TEST(CriticalPath, SpeechAppPathLengthEqualsSimMakespanExactly) {
  apps::SpeechParams params;
  params.frame_size = 128;
  params.max_frame_size = 512;
  params.order = 8;
  params.max_order = 12;
  const apps::ErrorGenApp app(4, params);
  const auto [stats, report] = run_and_analyze(app.system().plan(), 25);

  EXPECT_EQ(report.time_unit, "cycles");
  EXPECT_EQ(report.t_first, 0);  // the sim starts every PE at cycle 0
  EXPECT_EQ(report.cp_length, stats.makespan);
  expect_report_consistent(report);
  EXPECT_GT(report.cp_compute, 0);
  EXPECT_EQ(report.predicted_mcm, app.system().plan().predicted_mcm());
  EXPECT_GT(report.iterations_observed, 0);
}

TEST(CriticalPath, ParticleAppPathLengthEqualsSimMakespanExactly) {
  apps::ParticleParams params;
  params.particles = 64;
  params.max_particles = 256;
  params.seed = 5;
  const apps::ParticleFilterApp app(4, params);
  const auto [stats, report] = run_and_analyze(app.system().plan(), 25);

  EXPECT_EQ(report.t_first, 0);
  EXPECT_EQ(report.cp_length, stats.makespan);
  expect_report_consistent(report);
  // Attribution must name real channels: every blocked/comm cycle on the
  // path belongs to some channel row.
  std::int64_t on_path = 0;
  for (const obs::ChannelAttribution& c : report.channels) on_path += c.cp_blocked + c.cp_comm;
  EXPECT_GT(on_path, 0);
}

// A 3-stage pipeline whose MCM is set by the middle actor's own
// sequence cycle (the edge delays shrink the ack cycles' means below
// 500), so a run whose computes sleep their WCET in microseconds has a
// hard realized-period floor of predicted_mcm * 1000 ns.
constexpr char kPipeline[] = R"(graph period_floor
procs 3

actor Source exec=10
actor Filter exec=500
actor Sink   exec=10

edge Source:1 -> Filter:1 delay=2 bytes=8
edge Filter:1 -> Sink:1   delay=2 bytes=8

proc Source = 0
proc Filter = 1
proc Sink   = 2
)";

TEST(CriticalPath, ThreadedRealizedPeriodDominatesPredictedMcm) {
  const core::ParsedSystem parsed = core::parse_system(kPipeline);
  const core::ExecutablePlan plan = core::compile_plan(parsed.graph, parsed.assignment);
  ASSERT_NEAR(plan.predicted_mcm(), 500.0, 1e-6);

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
  runtime.set_flight_recorder(&recorder);
  constexpr std::int64_t kIterations = 20;
  runtime.run(kIterations);

  const obs::FlightLog log = recorder.collect();
  EXPECT_EQ(log.dropped, 0);
  obs::AnalyzeOptions options;
  options.predicted_mcm = plan.predicted_mcm();
  options.mcm_scale = 1000.0;  // modeled cycle -> slept microsecond -> ns
  const obs::CriticalPathReport report = obs::analyze_critical_path(log, options);

  expect_report_consistent(report);
  EXPECT_EQ(report.iterations_observed, kIterations);
  // The middle actor alone sleeps >= 500 us per iteration, so no
  // schedule can realize a shorter period than the predicted MCM
  // (report.predicted_mcm is already in log units, here ns).
  EXPECT_NEAR(report.predicted_mcm, 500'000.0, 1e-3);
  EXPECT_GE(report.realized_period_avg, report.predicted_mcm);
  EXPECT_GE(report.period_ratio, 1.0);
  // Naming came from the plan through set_flight_recorder.
  bool found_filter = false;
  for (const obs::ActorAttribution& a : report.actors) found_filter |= a.name == "Filter";
  EXPECT_TRUE(found_filter);
}

}  // namespace
}  // namespace spi
