/// Tests of cross-iteration pipelined execution: the free-running
/// workers bounded by RunOptions::max_inflight_iterations must stay
/// bit-identical to the sequential run_colocated() oracle at every
/// in-flight cap (dataflow determinacy — the cap changes timing, never
/// data), the realized overlap measured from the flight log must never
/// exceed the cap (cap=1 is a true iteration barrier), a 100k-iteration
/// soak pins the synchronization under TSan in CI, and the watchdog
/// still classifies a dead edge correctly when the stalled workers are
/// legitimately spread across different iterations.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "apps/particle_app.hpp"
#include "apps/serialization.hpp"
#include "apps/speech_app.hpp"
#include "core/job_instance.hpp"
#include "core/threaded_runtime.hpp"
#include "core/worker_pool.hpp"
#include "dsp/lpc.hpp"
#include "dsp/particle_filter.hpp"
#include "obs/critical_path.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/watchdog.hpp"
#include "sim/fault.hpp"

namespace spi::core {
namespace {

RunOptions inflight(std::int64_t cap, std::int64_t iterations = 0) {
  RunOptions options;
  options.max_inflight_iterations = cap;
  options.iterations = iterations;
  return options;
}

/// Src -> Mid -> Dst across three processors, one double per message,
/// value a pure function of the invocation — any reordering or skipped
/// synchronization shows up as a wrong bit in the sink.
struct PipelineFixture {
  df::Graph g{"pipelined"};
  df::ActorId src, mid, dst;
  df::EdgeId first, second;
  sched::Assignment assignment{3, 3};
  std::unique_ptr<SpiSystem> system;

  PipelineFixture() {
    src = g.add_actor("Src");
    mid = g.add_actor("Mid");
    dst = g.add_actor("Dst");
    first = g.connect_simple(src, mid, 0, sizeof(double));
    second = g.connect_simple(mid, dst, 0, sizeof(double));
    assignment.assign(mid, 1);
    assignment.assign(dst, 2);
    system = std::make_unique<SpiSystem>(g, assignment);
  }

  template <typename Runtime>
  void wire(Runtime& runtime, std::vector<double>& sink) const {
    runtime.set_compute(src, [this](FiringContext& ctx) {
      const double v = static_cast<double>(ctx.invocation) * 1.25 + 0.5;
      apps::pack_f64_into(ctx.emit(ctx.output_index(first)), v);
    });
    runtime.set_compute(mid, [this](FiringContext& ctx) {
      const double v = apps::f64_at(ctx.inputs[ctx.input_index(first)][0], 0);
      apps::pack_f64_into(ctx.emit(ctx.output_index(second)), v * 3.0 - 1.0);
    });
    runtime.set_compute(dst, [this, &sink](FiringContext& ctx) {
      sink.push_back(apps::f64_at(ctx.inputs[ctx.input_index(second)][0], 0));
    });
  }
};

TEST(PipelinedRuntime, NegativeInflightCapIsRejected) {
  PipelineFixture f;
  ThreadedRuntime runtime(*f.system);
  std::vector<double> sink;
  f.wire(runtime, sink);
  EXPECT_THROW(runtime.run(inflight(-1, 10)), std::invalid_argument);
}

TEST(PipelinedRuntime, PipelinedRunsAreBitIdenticalToColocatedAtEveryCap) {
  PipelineFixture f;
  constexpr std::int64_t kIters = 500;

  std::vector<double> reference;
  {
    JobInstance oracle(f.system->plan());
    f.wire(oracle, reference);
    oracle.run_colocated(kIters);
  }
  ASSERT_EQ(reference.size(), static_cast<std::size_t>(kIters));

  for (const std::int64_t cap : {1, 2, 4, 8, 0}) {  // 0 = unbounded
    ThreadedRuntime runtime(*f.system);
    std::vector<double> sink;
    f.wire(runtime, sink);
    runtime.run(inflight(cap, kIters));
    EXPECT_EQ(sink, reference) << "max_inflight_iterations = " << cap;
  }
}

TEST(PipelinedRuntime, InflightCapBoundsRealizedOverlap) {
  PipelineFixture f;
  constexpr std::int64_t kIters = 64;

  for (const std::int64_t cap : {1, 4}) {
    ThreadedRuntime runtime(*f.system);
    std::vector<double> sink;
    f.wire(runtime, sink);
    obs::FlightRecorder recorder(3);
    runtime.set_flight_recorder(&recorder);
    runtime.run(inflight(cap, kIters));

    const obs::CriticalPathReport report =
        obs::analyze_critical_path(recorder.collect());
    EXPECT_GE(report.pipelined_iterations_max, 1);
    EXPECT_LE(report.pipelined_iterations_max, cap)
        << "a worker overran the in-flight window";
    if (cap == 1)
      EXPECT_EQ(report.pipelined_iterations_max, 1)
          << "cap=1 must be a strict iteration barrier";
  }
}

// The TSan acceptance soak: 100k iterations of free-running overlapped
// execution across three workers, bit-compared against the sequential
// oracle. Any missed synchronization in the in-flight gate or the SPSC
// channels surfaces as a TSan race in CI or as a wrong bit here.
TEST(PipelinedRuntime, HundredThousandIterationSoakStaysBitIdentical) {
  PipelineFixture f;
  constexpr std::int64_t kIters = 100'000;

  std::vector<double> reference;
  reference.reserve(kIters);
  {
    JobInstance oracle(f.system->plan());
    f.wire(oracle, reference);
    oracle.run_colocated(kIters);
  }

  ThreadedRuntime runtime(*f.system);
  std::vector<double> sink;
  sink.reserve(kIters);
  f.wire(runtime, sink);
  runtime.run(inflight(/*cap=*/4, kIters));
  ASSERT_EQ(sink.size(), reference.size());
  EXPECT_EQ(sink, reference);
}

TEST(PipelinedSpeech, ErrorsBitIdenticalToColocatedBatchAtEveryCap) {
  apps::SpeechParams params;
  params.frame_size = 64;
  params.max_frame_size = 128;
  const apps::ErrorGenApp app(3, params);
  const apps::SpeechCompressor codec(params);

  dsp::Rng rng(7);
  const auto frame = dsp::synthetic_speech(params.frame_size, rng);
  const auto coeffs = codec.frame_coefficients(frame);

  // The sequential oracle: a one-job batch through run_colocated().
  const std::vector<apps::ErrorGenApp::SpeechJobSpec> jobs{{frame, coeffs}};
  JobInstance instance(app.system().plan());
  const auto reference = app.compute_errors_batch(jobs, instance)[0];
  ASSERT_EQ(reference.size(), frame.size());

  for (const std::int64_t cap : {1, 2, 4, 8}) {
    const auto pipelined = app.compute_errors_threaded(frame, coeffs, inflight(cap, 1));
    EXPECT_EQ(pipelined, reference) << "max_inflight_iterations = " << cap;
  }
}

TEST(PipelinedParticle, EstimatesBitIdenticalToColocatedBatchAtEveryCap) {
  apps::ParticleParams params;
  params.particles = 64;
  params.max_particles = 256;
  params.seed = 5;
  const apps::ParticleFilterApp app(2, params);

  dsp::Rng rng(33);
  const dsp::CrackTrajectory traj = dsp::simulate_crack(dsp::CrackModel{}, 60, rng);

  // The sequential oracle: a one-job batch through run_colocated().
  const std::vector<apps::ParticleFilterApp::ParticleJobSpec> jobs{{traj, params.seed}};
  JobInstance instance(app.system().plan());
  const apps::TrackResult reference = app.track_batch(jobs, instance)[0];
  ASSERT_EQ(reference.estimates.size(), traj.observations.size());

  for (const std::int64_t cap : {1, 2, 4, 8}) {
    const apps::TrackResult pipelined = app.track_threaded(traj, inflight(cap));
    EXPECT_EQ(pipelined.estimates, reference.estimates)
        << "max_inflight_iterations = " << cap;
    EXPECT_EQ(pipelined.resample_steps, reference.resample_steps);
  }
}

}  // namespace
}  // namespace spi::core

namespace spi::obs {
namespace {

WorkerSnapshot overlapped_worker(std::int32_t proc, std::int64_t iteration,
                                 std::int32_t waiting_edge, std::int32_t waiting_side) {
  WorkerSnapshot w;
  w.proc = proc;
  w.iteration = iteration;
  w.completed = iteration;
  w.actor = -1;
  w.waiting_edge = waiting_edge;
  w.waiting_side = waiting_side;
  return w;
}

// Under cross-iteration pipelining the stalled workers sit on
// *different* iterations; the classifier must still blame the dead
// edge (not mistake the spread for livelock) and report the realized
// overlap window so the operator sees how deep the pipeline wedged.
TEST(PipelinedWatchdog, DeadEdgeClassifiedCorrectlyUnderOverlap) {
  WatchdogOptions options;
  options.window_ms = 100;
  ProgressWatchdog::Hooks hooks;
  hooks.snapshot = [] { return std::vector<WorkerSnapshot>{}; };
  hooks.channel_name = [](std::int32_t e) { return "chan" + std::to_string(e); };
  const ProgressWatchdog wd(std::move(options), std::move(hooks));

  // The producer ran ahead to iteration 13 and blocked on the full dead
  // edge 7; the consumer is starved at iteration 10 on the same edge; a
  // bystander waits on edge 3.
  const StallReport report = wd.classify({overlapped_worker(0, 13, 7, 1),
                                          overlapped_worker(1, 12, 3, 0),
                                          overlapped_worker(2, 10, 7, 0)},
                                         250);
  EXPECT_EQ(report.kind, StallKind::kDeadlock);
  EXPECT_EQ(report.edge, 7);
  EXPECT_EQ(report.channel, "chan7");
  EXPECT_EQ(report.iteration_min, 10);
  EXPECT_EQ(report.iteration_max, 13);
  EXPECT_EQ(report.inflight_iterations, 4);
  EXPECT_NE(report.message.find("4 iterations in flight [10..13]"), std::string::npos)
      << report.message;
  EXPECT_NE(report.to_json().find("\"inflight_iterations\":4"), std::string::npos);
}

// End to end: a dropped-forever edge wedges a *pipelined* reliable run
// (unbounded in-flight window); the watchdog still aborts with a
// deadlock verdict naming the dead channel.
TEST(PipelinedWatchdog, DeadEdgeAbortsPipelinedRunWithDeadlockVerdict) {
  core::PipelineFixture f;

  sim::FaultPlan plan(7);
  plan.retry().attempts = 300;
  plan.retry().backoff_base_us = 50'000;
  plan.retry().backoff_multiplier = 2.0;
  plan.retry().backoff_max_us = 100'000;
  plan.retry().jitter = 0.0;
  plan.retry().timeout_us = 600'000'000;  // the receiver never gives up first
  sim::EdgeFaultSpec dead;
  dead.drop = 1.0;
  plan.set_edge(f.second, dead);  // only Mid->Dst is dead

  core::ReliabilityOptions rel;
  rel.enabled = true;
  rel.faults = &plan;
  core::ThreadedRuntime runtime(*f.system, rel);
  std::vector<double> sink;
  f.wire(runtime, sink);

  core::RunOptions options = core::inflight(/*cap=*/0, /*iterations=*/50);
  options.watchdog.enabled = true;
  options.watchdog.window_ms = 750;
  options.watchdog.dump_dir = ::testing::TempDir();

  try {
    runtime.run(options);
    FAIL() << "a dropped-forever edge must surface obs::StallError";
  } catch (const StallError& e) {
    const StallReport& report = e.report();
    EXPECT_EQ(report.kind, StallKind::kDeadlock);
    EXPECT_EQ(report.edge, f.second);
    EXPECT_GE(report.inflight_iterations, 1);
    EXPECT_NE(report.message.find("deadlock"), std::string::npos);
  }
}

}  // namespace
}  // namespace spi::obs
