#include "core/job_instance.hpp"

#include <gtest/gtest.h>

#include <atomic>

#include "apps/serialization.hpp"
#include "apps/speech_app.hpp"
#include "core/pipeline.hpp"
#include "dsp/lpc.hpp"
#include "obs/metrics.hpp"

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
  const ExecutablePlan plan = compile_plan(f.g, f.assignment);
  constexpr std::int64_t kIters = 200;

  auto wire = [&](JobInstance& runtime, std::vector<double>& sink) {
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

  // The closed form: firing k sums k·0.5 + i over i < k % 8 + 1, in the
  // order Mid adds them.
  std::vector<double> expected;
  for (std::int64_t k = 0; k < kIters; ++k) {
    double sum = 0;
    for (std::int64_t i = 0; i <= k % 8; ++i)
      sum += static_cast<double>(k) * 0.5 + static_cast<double>(i);
    expected.push_back(sum);
  }

  std::vector<double> sequential, threaded;
  JobInstance colocated(plan);
  wire(colocated, sequential);
  colocated.run_colocated(kIters);

  JobInstance parallel(plan);
  wire(parallel, threaded);
  parallel.run(kIters);

  EXPECT_EQ(sequential, expected);
  EXPECT_EQ(threaded, expected);  // dataflow determinacy across real threads
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

  // The app's sequential run against the codec, plus the raw threaded
  // engine over the same system with default computes to prove it
  // terminates.
  const auto parallel = app.compute_errors_parallel(frame, coeffs);
  ASSERT_EQ(parallel.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i)
    EXPECT_DOUBLE_EQ(parallel[i], reference[i]);

  JobInstance threaded(app.system().plan());
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
  const ExecutablePlan plan = compile_plan(g, assignment);

  JobInstance runtime(plan);
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
  const ExecutablePlan plan = compile_plan(f.g, f.assignment);
  JobInstance runtime(plan);
  runtime.set_compute(f.mid, [](FiringContext& ctx) {
    if (ctx.invocation == 3) throw std::runtime_error("injected failure");
    ctx.outputs[0] = {Bytes(8, 0)};
  });
  EXPECT_THROW(runtime.run(100), std::runtime_error);  // no deadlock, error surfaces
}

TEST(ThreadedRuntime, BmaxViolationSurfaces) {
  Fixture f;
  const ExecutablePlan plan = compile_plan(f.g, f.assignment);
  JobInstance runtime(plan);
  runtime.set_compute(f.src, [&f](FiringContext& ctx) {
    ctx.outputs[ctx.output_index(f.dyn)] = {Bytes(9 * sizeof(double), 0)};  // bound is 8
  });
  EXPECT_THROW(runtime.run(2), std::length_error);
}

TEST(ThreadedRuntime, StatsAggregatedWhenRunThrows) {
  Fixture f;
  const ExecutablePlan plan = compile_plan(f.g, f.assignment);
  JobInstance runtime(plan);

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
  const ExecutablePlan plan = compile_plan(f.g, f.assignment);
  JobInstance runtime(plan);
  std::atomic<std::int64_t> last{-1};
  runtime.set_compute(f.dst, [&](FiringContext& ctx) { last.store(ctx.invocation); });
  runtime.run(10);
  runtime.run(10);
  EXPECT_EQ(last.load(), 19);  // invocation counters persist across runs
  EXPECT_THROW(runtime.run(-1), std::invalid_argument);
}

/// One single-rate pipeline over 3 processors, run by both engines.
struct PipelineFixture {
  df::Graph g{"parity"};
  df::ActorId a, b, c;
  sched::Assignment assignment{3, 3};
  static constexpr std::int64_t kIterations = 40;

  PipelineFixture() {
    a = g.add_actor("Alpha", 10);
    b = g.add_actor("Beta", 20);
    c = g.add_actor("Gamma", 5);
    g.connect_simple(a, b, 0, 16);
    g.connect_simple(b, c, 0, 16);
    assignment.assign(b, 1);
    assignment.assign(c, 2);
  }
};

TEST(ThreadedRuntime, ThreadedRegistryCountersMatchSimulatorMessages) {
  PipelineFixture f;
  const ExecutablePlan plan = compile_plan(f.g, f.assignment);

  // Simulated execution: data messages of the timed platform model.
  sim::TimedExecutorOptions options;
  options.iterations = PipelineFixture::kIterations;
  const sim::ExecStats sim_stats = run_timed(plan, *plan.make_backend(), options);

  // Real-thread execution of the same system and iteration count.
  obs::MetricRegistry registry;
  JobInstance runtime(plan, {{}, &registry, {}});
  runtime.run(PipelineFixture::kIterations);

  EXPECT_EQ(registry.counter_total("spi_threaded_messages_total"), sim_stats.data_messages);
  EXPECT_EQ(registry.counter_total("spi_threaded_messages_total"), runtime.stats().messages);
  EXPECT_GT(registry.counter_total("spi_threaded_payload_bytes_total"), 0);
  // Per-channel series carry the channel label.
  EXPECT_EQ(registry.counter_value("spi_threaded_messages_total",
                                   {{"channel", f.g.edge(df::EdgeId{0}).name}}),
            PipelineFixture::kIterations);
}

}  // namespace
}  // namespace spi::core
