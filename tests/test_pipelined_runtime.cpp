/// Tests of cross-iteration pipelined execution: the free-running gang
/// (the only gang mode — no iteration barrier, paper Section 4) must
/// stay bit-identical to the sequential run_colocated() oracle
/// (dataflow determinacy — overlap changes timing, never data); a held
/// sink proves the source really runs ahead and that the eq.-2 ring
/// capacities, nothing else, bound how far; a 100k-iteration soak pins
/// the synchronization under TSan in CI; and the watchdog still
/// classifies a dead edge correctly when the stalled workers are
/// legitimately spread across different iterations.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <thread>
#include <vector>

#include "apps/particle_app.hpp"
#include "apps/serialization.hpp"
#include "apps/speech_app.hpp"
#include "core/job_instance.hpp"
#include "core/pipeline.hpp"
#include "dsp/lpc.hpp"
#include "dsp/particle_filter.hpp"
#include "obs/watchdog.hpp"
#include "sim/fault.hpp"

namespace spi::core {
namespace {

/// Src -> Mid -> Dst across three processors, one double per message,
/// value a pure function of the invocation — any reordering or skipped
/// synchronization shows up as a wrong bit in the sink.
struct PipelineFixture {
  df::Graph g{"pipelined"};
  df::ActorId src, mid, dst;
  df::EdgeId first, second;
  sched::Assignment assignment{3, 3};
  ExecutablePlan plan;

  PipelineFixture() {
    src = g.add_actor("Src");
    mid = g.add_actor("Mid");
    dst = g.add_actor("Dst");
    first = g.connect_simple(src, mid, 0, sizeof(double));
    second = g.connect_simple(mid, dst, 0, sizeof(double));
    assignment.assign(mid, 1);
    assignment.assign(dst, 2);
    plan = compile_plan(g, assignment);
  }

  void wire(JobInstance& runtime, std::vector<double>& sink) const {
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

TEST(PipelinedRuntime, PipelinedRunsAreBitIdenticalToColocatedAtEveryCap) {
  PipelineFixture f;
  constexpr std::int64_t kIters = 500;

  std::vector<double> reference;
  {
    JobInstance oracle(f.plan);
    f.wire(oracle, reference);
    oracle.run_colocated(kIters);
  }
  ASSERT_EQ(reference.size(), static_cast<std::size_t>(kIters));

  JobInstance runtime(f.plan);
  std::vector<double> sink;
  f.wire(runtime, sink);
  runtime.run(kIters);
  EXPECT_EQ(sink, reference);
}

// Self-timed execution, observed directly: with Dst held inside its
// first firing, Src keeps firing until both rings are full. It stops at
// exactly c1 + c2 + 3 firings — c1 + c2 buffered tokens, one consumed by
// each of Mid and Dst, and one last firing blocked on its push. Fewer
// means something besides the channels gates iterations (a barrier
// would stop Src after one or two); more means a ring overran its
// eq.-2 capacity.
TEST(PipelinedRuntime, SourceRunsAheadOfAHeldSinkByExactlyTheRingCapacities) {
  PipelineFixture f;
  constexpr std::int64_t kIters = 200;

  std::vector<double> reference;
  {
    JobInstance oracle(f.plan);
    f.wire(oracle, reference);
    oracle.run_colocated(kIters);
  }

  std::int64_t c1 = -1;
  std::int64_t c2 = -1;
  for (const ChannelSpec& spec : f.plan.channels) {
    if (spec.edge == f.first) c1 = spec.capacity_tokens();
    if (spec.edge == f.second) c2 = spec.capacity_tokens();
  }
  ASSERT_GE(c1, 1);
  ASSERT_GE(c2, 1);
  const std::int64_t expected = c1 + c2 + 3;
  ASSERT_LT(expected, kIters);

  JobInstance runtime(f.plan);
  std::vector<double> sink;
  f.wire(runtime, sink);
  std::atomic<std::int64_t> src_firings{0};
  std::atomic<bool> release{false};
  runtime.set_compute(f.src, [&](FiringContext& ctx) {
    src_firings.fetch_add(1);
    const double v = static_cast<double>(ctx.invocation) * 1.25 + 0.5;
    apps::pack_f64_into(ctx.emit(ctx.output_index(f.first)), v);
  });
  runtime.set_compute(f.dst, [&](FiringContext& ctx) {
    if (ctx.invocation == 0)
      while (!release.load()) std::this_thread::sleep_for(std::chrono::microseconds(200));
    sink.push_back(apps::f64_at(ctx.inputs[ctx.input_index(f.second)][0], 0));
  });

  std::exception_ptr run_error;
  std::thread run([&] {
    try {
      runtime.run(kIters);
    } catch (...) {
      run_error = std::current_exception();
    }
  });
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (src_firings.load() < expected && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  const std::int64_t reached = src_firings.load();
  // Give an overrunning source time to show itself before judging.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const std::int64_t settled = src_firings.load();
  release.store(true);
  run.join();
  if (run_error) std::rethrow_exception(run_error);

  EXPECT_EQ(reached, expected) << "c1 = " << c1 << ", c2 = " << c2;
  EXPECT_EQ(settled, expected) << "Src ran past the ring capacities";
  EXPECT_EQ(src_firings.load(), kIters);
  EXPECT_EQ(sink, reference);
}

// The TSan acceptance soak: 100k iterations of free-running overlapped
// execution across three workers, bit-compared against the sequential
// oracle. Any missed synchronization in the SPSC channels surfaces as a
// TSan race in CI or as a wrong bit here.
TEST(PipelinedRuntime, HundredThousandIterationSoakStaysBitIdentical) {
  PipelineFixture f;
  constexpr std::int64_t kIters = 100'000;

  std::vector<double> reference;
  reference.reserve(kIters);
  {
    JobInstance oracle(f.plan);
    f.wire(oracle, reference);
    oracle.run_colocated(kIters);
  }

  JobInstance runtime(f.plan);
  std::vector<double> sink;
  sink.reserve(kIters);
  f.wire(runtime, sink);
  runtime.run(kIters);
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

  EXPECT_EQ(app.compute_errors_threaded(frame, coeffs, RunOptions{}), reference);
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

  const apps::TrackResult pipelined = app.track_threaded(traj, RunOptions{});
  EXPECT_EQ(pipelined.estimates, reference.estimates);
  EXPECT_EQ(pipelined.resample_steps, reference.resample_steps);
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

// End to end: a dropped-forever edge wedges a *pipelined* reliable run;
// the watchdog still aborts with a
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
  core::JobInstance runtime(f.plan, {rel, nullptr, {}});
  std::vector<double> sink;
  f.wire(runtime, sink);

  core::RunOptions options;
  options.iterations = 50;
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
