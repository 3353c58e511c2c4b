/// Tests of the persistent execution stack under the serving runtime:
/// WorkerPool gang scheduling (all-or-nothing, FIFO, reusable), the
/// JobInstance gang/colocated equivalence, and the isolation contracts
/// that make concurrent job instances sound — separate channel slabs
/// per JobInstance and a per-runtime SpiChannel buffer pool, so two
/// concurrent jobs can never cross-recycle each other's Bytes buffers
/// (run under TSan in CI).
#include "core/worker_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <thread>
#include <vector>

#include "apps/serialization.hpp"
#include "apps/speech_app.hpp"
#include "core/job_instance.hpp"
#include "dsp/lpc.hpp"

namespace spi::core {
namespace {

RunOptions iterations(std::int64_t n) {
  RunOptions options;
  options.iterations = n;
  return options;
}

TEST(WorkerPool, GangRunsEveryTaskOnce) {
  WorkerPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
  std::atomic<int> fired{0};
  std::vector<std::function<void()>> tasks(3, [&] { ++fired; });
  pool.run(tasks);
  EXPECT_EQ(fired.load(), 3);
  EXPECT_EQ(pool.gangs_run(), 1);
  pool.run_one([&] { ++fired; });
  EXPECT_EQ(fired.load(), 4);
  EXPECT_EQ(pool.gangs_run(), 2);
}

TEST(WorkerPool, OversizedGangIsRejectedUpFront) {
  WorkerPool pool(2);
  std::vector<std::function<void()>> tasks(3, [] {});
  EXPECT_THROW(pool.run(tasks), std::invalid_argument);
  // The pool stays usable after the rejection.
  std::atomic<int> fired{0};
  pool.run_one([&] { ++fired; });
  EXPECT_EQ(fired.load(), 1);
}

TEST(WorkerPool, ConcurrentGangsAllCompleteOnReusedThreads) {
  WorkerPool pool(2);
  constexpr int kSubmitters = 4;
  constexpr int kGangsEach = 25;
  std::atomic<int> fired{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&] {
      std::vector<std::function<void()>> gang(2, [&] { ++fired; });
      for (int i = 0; i < kGangsEach; ++i) pool.run(gang);
    });
  }
  for (std::thread& t : submitters) t.join();
  EXPECT_EQ(fired.load(), kSubmitters * kGangsEach * 2);
  EXPECT_EQ(pool.gangs_run(), kSubmitters * kGangsEach);
}

/// The 3-processor pipeline the threaded-runtime tests use, as a plan
/// fixture for JobInstance: Src -(dynamic)-> Mid -(static)-> Dst.
struct PlanFixture {
  df::Graph g{"pool"};
  df::ActorId src, mid, dst;
  df::EdgeId dyn, stat;
  sched::Assignment assignment{3, 3};
  std::unique_ptr<SpiSystem> system;

  PlanFixture() {
    src = g.add_actor("Src");
    mid = g.add_actor("Mid");
    dst = g.add_actor("Dst");
    dyn = g.connect(src, df::Rate::dynamic(8), mid, df::Rate::dynamic(8), 0, sizeof(double));
    stat = g.connect(mid, df::Rate::fixed(1), dst, df::Rate::fixed(1), 0, sizeof(double));
    assignment.assign(mid, 1);
    assignment.assign(dst, 2);
    system = std::make_unique<SpiSystem>(g, assignment);
  }

  void wire(JobInstance& instance, std::vector<double>& sink) const {
    instance.set_compute(src, [this](FiringContext& ctx) {
      const std::size_t count = static_cast<std::size_t>(ctx.invocation % 8) + 1;
      std::vector<double> values(count);
      for (std::size_t i = 0; i < count; ++i)
        values[i] = static_cast<double>(ctx.invocation) * 0.5 + static_cast<double>(i);
      apps::pack_f64_into(ctx.emit(ctx.output_index(dyn)), values);
    });
    instance.set_compute(mid, [this](FiringContext& ctx) {
      std::vector<double> values;
      apps::unpack_f64_into(ctx.inputs[ctx.input_index(dyn)][0], values);
      double sum = 0;
      for (double v : values) sum += v;
      apps::pack_f64_into(ctx.emit(ctx.output_index(stat)), sum);
    });
    instance.set_compute(dst, [this, &sink](FiringContext& ctx) {
      sink.push_back(apps::f64_at(ctx.inputs[ctx.input_index(stat)][0], 0));
    });
  }
};

TEST(JobInstance, GangAndColocatedRunsAreBitIdentical) {
  PlanFixture f;
  constexpr std::int64_t kIters = 100;
  WorkerPool pool(3);

  std::vector<double> gang_sink, colocated_sink;
  JobInstance gang_instance(f.system->plan());
  f.wire(gang_instance, gang_sink);
  gang_instance.run(pool, iterations(kIters));

  JobInstance colocated_instance(f.system->plan());
  f.wire(colocated_instance, colocated_sink);
  colocated_instance.run_colocated(kIters);

  EXPECT_EQ(gang_sink, colocated_sink);
  EXPECT_EQ(gang_instance.stats().messages, colocated_instance.stats().messages);
}

TEST(JobInstance, InstanceIsReusableAcrossRunsWithCumulativeInvocations) {
  PlanFixture f;
  WorkerPool pool(3);
  std::vector<double> split_sink, once_sink;

  JobInstance split(f.system->plan());
  f.wire(split, split_sink);
  split.run(pool, iterations(40));
  split.run(pool, iterations(60));  // invocations continue at 40

  JobInstance once(f.system->plan());
  f.wire(once, once_sink);
  once.run(pool, iterations(100));

  EXPECT_EQ(split_sink, once_sink);

  // reset_invocations() restarts the stream (the serve layer's per-batch
  // contract): the next run reproduces the first 40 values.
  split.reset_invocations();
  std::vector<double> reset_sink;
  f.wire(split, reset_sink);
  split.run(pool, iterations(40));
  EXPECT_EQ(reset_sink, std::vector<double>(once_sink.begin(), once_sink.begin() + 40));
}

TEST(JobInstance, ConcurrentInstancesOfOnePlanStayIsolated) {
  PlanFixture f;
  constexpr std::int64_t kIters = 200;

  std::vector<double> reference;
  {
    JobInstance instance(f.system->plan());
    f.wire(instance, reference);
    instance.run_colocated(kIters);
  }

  // Two instances of the same plan running concurrently (each colocated
  // on its own thread) must each reproduce the sequential bits — they
  // share the plan but never a channel slab or buffer.
  JobInstance a(f.system->plan()), b(f.system->plan());
  std::vector<double> sink_a, sink_b;
  f.wire(a, sink_a);
  f.wire(b, sink_b);
  std::thread ta([&] { a.run_colocated(kIters); });
  std::thread tb([&] { b.run_colocated(kIters); });
  ta.join();
  tb.join();
  EXPECT_EQ(sink_a, reference);
  EXPECT_EQ(sink_b, reference);
}

/// Regression for the per-runtime SpiChannel buffer pool: two
/// FunctionalRuntime-backed jobs running concurrently must not recycle
/// each other's Bytes buffers. Before the pool became per-runtime state
/// this raced; now each runtime owns its freelist, and this test (run
/// under TSan in CI) pins the isolation.
TEST(JobInstance, ConcurrentFunctionalJobsDoNotCrossRecycleBuffers) {
  apps::SpeechParams params;
  params.frame_size = 64;
  params.max_frame_size = 128;
  const apps::ErrorGenApp app(3, params);
  const apps::SpeechCompressor codec(params);

  dsp::Rng rng_a(11), rng_b(22);
  const auto frame_a = dsp::synthetic_speech(params.frame_size, rng_a);
  const auto frame_b = dsp::synthetic_speech(params.frame_size, rng_b);
  const auto coeffs_a = codec.frame_coefficients(frame_a);
  const auto coeffs_b = codec.frame_coefficients(frame_b);
  const auto reference_a = app.compute_errors_parallel(frame_a, coeffs_a);
  const auto reference_b = app.compute_errors_parallel(frame_b, coeffs_b);

  constexpr int kRounds = 20;
  std::atomic<int> mismatches{0};
  std::thread ta([&] {
    for (int i = 0; i < kRounds; ++i)
      if (app.compute_errors_parallel(frame_a, coeffs_a) != reference_a) ++mismatches;
  });
  std::thread tb([&] {
    for (int i = 0; i < kRounds; ++i)
      if (app.compute_errors_parallel(frame_b, coeffs_b) != reference_b) ++mismatches;
  });
  ta.join();
  tb.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace spi::core
