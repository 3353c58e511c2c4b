#include "core/threaded_runtime.hpp"

#include <gtest/gtest.h>

#include <atomic>

#include "apps/serialization.hpp"
#include "apps/speech_app.hpp"
#include "dsp/lpc.hpp"

namespace spi::core {
namespace {

struct Fixture {
  df::Graph g{"threaded"};
  df::ActorId src, mid, dst;
  df::EdgeId dyn, stat;
  sched::Assignment assignment{3, 3};

  Fixture() {
    src = g.add_actor("Src");
    mid = g.add_actor("Mid");
    dst = g.add_actor("Dst");
    dyn = g.connect(src, df::Rate::dynamic(8), mid, df::Rate::dynamic(8), 0, sizeof(double));
    stat = g.connect(mid, df::Rate::fixed(1), dst, df::Rate::fixed(1), 0, sizeof(double));
    assignment.assign(mid, 1);
    assignment.assign(dst, 2);
  }
};

TEST(ThreadedRuntime, MatchesSequentialFunctionalRun) {
  Fixture f;
  const SpiSystem system(f.g, f.assignment);
  constexpr std::int64_t kIters = 200;

  auto wire = [&](auto& runtime, std::vector<double>& sink) {
    runtime.set_compute(f.src, [&f](FiringContext& ctx) {
      const std::size_t count = static_cast<std::size_t>(ctx.invocation % 8) + 1;
      std::vector<double> values(count);
      for (std::size_t i = 0; i < count; ++i)
        values[i] = static_cast<double>(ctx.invocation) * 0.5 + static_cast<double>(i);
      apps::pack_f64_into(ctx.emit(ctx.output_index(f.dyn)), values);
    });
    runtime.set_compute(f.mid, [&f](FiringContext& ctx) {
      std::vector<double> values;
      apps::unpack_f64_into(ctx.inputs[ctx.input_index(f.dyn)][0], values);
      double sum = 0;
      for (double v : values) sum += v;
      apps::pack_f64_into(ctx.emit(ctx.output_index(f.stat)), sum);
    });
    runtime.set_compute(f.dst, [&f, &sink](FiringContext& ctx) {
      sink.push_back(apps::f64_at(ctx.inputs[ctx.input_index(f.stat)][0], 0));
    });
  };

  std::vector<double> sequential, threaded;
  FunctionalRuntime functional(system);
  wire(functional, sequential);
  functional.run(kIters);

  ThreadedRuntime parallel(system);
  wire(parallel, threaded);
  parallel.run(kIters);

  EXPECT_EQ(threaded, sequential);  // dataflow determinacy across real threads
  EXPECT_EQ(parallel.stats().messages, 2 * kIters);
  EXPECT_GT(parallel.stats().payload_bytes, 0);
}

TEST(ThreadedRuntime, SpeechErrorsIdenticalOnThreads) {
  apps::SpeechParams params;
  params.frame_size = 128;
  const apps::ErrorGenApp app(3, params);
  dsp::Rng rng(8);
  const auto frame = dsp::synthetic_speech(params.frame_size, rng);
  const apps::SpeechCompressor codec(params);
  const auto coeffs = codec.frame_coefficients(frame);
  const auto reference = codec.frame_errors(frame, coeffs);

  // Drive the app's graph through the threaded engine by reusing the
  // functional path for wiring: simplest is to recompute via the app
  // (FunctionalRuntime) and compare — plus run the raw threaded engine
  // over the same system with default computes to prove it terminates.
  const auto parallel = app.compute_errors_parallel(frame, coeffs);
  ASSERT_EQ(parallel.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i)
    EXPECT_DOUBLE_EQ(parallel[i], reference[i]);

  ThreadedRuntime threaded(app.system());
  EXPECT_NO_THROW(threaded.run(5));  // default zero computes across 4 threads
}

TEST(ThreadedRuntime, BackPressureBlocksFastProducer) {
  // Producer on its own thread can run at most the channel capacity
  // ahead; the block counters must show real back-pressure.
  df::Graph g;
  const df::ActorId a = g.add_actor("A");
  const df::ActorId b = g.add_actor("B");
  g.connect_simple(a, b, 0, 8);
  sched::Assignment assignment(2, 2);
  assignment.assign(b, 1);
  const SpiSystem system(g, assignment);

  ThreadedRuntime runtime(system);
  std::atomic<std::int64_t> consumed{0};
  runtime.set_compute(b, [&](FiringContext& ctx) {
    (void)ctx;
    consumed.fetch_add(1);
  });
  runtime.run(500);
  EXPECT_EQ(consumed.load(), 500);
  // At least one side must have waited at some point (tight channel).
  EXPECT_GT(runtime.stats().producer_blocks + runtime.stats().consumer_blocks, 0);
}

TEST(ThreadedRuntime, ComputeExceptionPropagatesAndUnblocks) {
  Fixture f;
  const SpiSystem system(f.g, f.assignment);
  ThreadedRuntime runtime(system);
  runtime.set_compute(f.mid, [](FiringContext& ctx) {
    if (ctx.invocation == 3) throw std::runtime_error("injected failure");
    ctx.outputs[0] = {Bytes(8, 0)};
  });
  EXPECT_THROW(runtime.run(100), std::runtime_error);  // no deadlock, error surfaces
}

TEST(ThreadedRuntime, BmaxViolationSurfaces) {
  Fixture f;
  const SpiSystem system(f.g, f.assignment);
  ThreadedRuntime runtime(system);
  runtime.set_compute(f.src, [&f](FiringContext& ctx) {
    ctx.outputs[ctx.output_index(f.dyn)] = {Bytes(9 * sizeof(double), 0)};  // bound is 8
  });
  EXPECT_THROW(runtime.run(2), std::length_error);
}

TEST(ThreadedRuntime, StatsAggregatedWhenRunThrows) {
  Fixture f;
  const SpiSystem system(f.g, f.assignment);
  ThreadedRuntime runtime(system);

  // A full successful run first, so stale stats would be detectable.
  runtime.run(50);
  const std::int64_t full_messages = runtime.stats().messages;
  ASSERT_GT(full_messages, 0);

  runtime.set_compute(f.mid, [](FiringContext& ctx) {
    if (ctx.invocation == 52) throw std::runtime_error("injected failure");
    ctx.outputs[0] = {Bytes(8, 0)};
  });
  EXPECT_THROW(runtime.run(50), std::runtime_error);
  // stats() was reset at run entry and aggregated on the throw path: it
  // reflects the partial run, not the previous successful one.
  EXPECT_GT(runtime.stats().messages, 0);
  EXPECT_LT(runtime.stats().messages, full_messages);
  // The registry keeps the cumulative total across both runs.
  EXPECT_EQ(runtime.metrics().counter_total("spi_threaded_messages_total"),
            full_messages + runtime.stats().messages);
}

TEST(ThreadedRuntime, RepeatedRunsAccumulateInvocations) {
  Fixture f;
  const SpiSystem system(f.g, f.assignment);
  ThreadedRuntime runtime(system);
  std::atomic<std::int64_t> last{-1};
  runtime.set_compute(f.dst, [&](FiringContext& ctx) { last.store(ctx.invocation); });
  runtime.run(10);
  runtime.run(10);
  EXPECT_EQ(last.load(), 19);  // invocation counters persist across runs
  EXPECT_THROW(runtime.run(-1), std::invalid_argument);
}

}  // namespace
}  // namespace spi::core
