/// End-to-end tests of the reliable transport inside ThreadedRuntime:
/// retry recovery under deterministic fault injection, typed failure on
/// persistent faults (no hangs), CRC-driven retransmission, receive
/// timeouts, duplicate suppression, metric publication, and the seeded
/// soak test asserting threaded-lossy / functional-lossless parity.
#include <gtest/gtest.h>

#include <chrono>

#include "apps/serialization.hpp"
#include "apps/speech_app.hpp"
#include "core/threaded_runtime.hpp"
#include "dsp/lpc.hpp"

namespace spi::core {
namespace {

struct Fixture {
  df::Graph g{"reliable"};
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

  template <class Runtime>
  void wire(Runtime& runtime, std::vector<double>& sink) const {
    runtime.set_compute(src, [this](FiringContext& ctx) {
      const std::size_t count = static_cast<std::size_t>(ctx.invocation % 8) + 1;
      std::vector<double> values(count);
      for (std::size_t i = 0; i < count; ++i)
        values[i] = static_cast<double>(ctx.invocation) * 0.5 + static_cast<double>(i);
      apps::pack_f64_into(ctx.emit(ctx.output_index(dyn)), values);
    });
    runtime.set_compute(mid, [this](FiringContext& ctx) {
      std::vector<double> values;
      apps::unpack_f64_into(ctx.inputs[ctx.input_index(dyn)][0], values);
      double sum = 0;
      for (double v : values) sum += v;
      apps::pack_f64_into(ctx.emit(ctx.output_index(stat)), sum);
    });
    runtime.set_compute(dst, [this, &sink](FiringContext& ctx) {
      sink.push_back(apps::f64_at(ctx.inputs[ctx.input_index(stat)][0], 0));
    });
  }
};

/// A quick retry policy so lossy tests stay fast; the receive timeout is
/// generous so sender-side exhaustion is always the failure that wins.
sim::RetryPolicy fast_policy() {
  sim::RetryPolicy policy;
  policy.attempts = 16;
  policy.backoff_base_us = 20;
  policy.backoff_multiplier = 2.0;
  policy.backoff_max_us = 200;
  policy.jitter = 0.1;
  policy.timeout_us = 5'000'000;
  return policy;
}

TEST(ReliableRuntime, DropsAreRetriedAndRecovered) {
  Fixture f;
  const SpiSystem system(f.g, f.assignment);
  constexpr std::int64_t kIters = 100;

  std::vector<double> lossless;
  {
    FunctionalRuntime functional(system);
    f.wire(functional, lossless);
    functional.run(kIters);
  }

  sim::FaultPlan plan(42);
  plan.retry() = fast_policy();
  sim::EdgeFaultSpec spec;
  spec.drop = 0.10;
  plan.set_default(spec);

  ReliabilityOptions rel;
  rel.enabled = true;
  rel.faults = &plan;
  ThreadedRuntime runtime(system, rel);
  std::vector<double> lossy;
  f.wire(runtime, lossy);
  runtime.run(kIters);

  // Every payload recovered, in order, bit-identical to the lossless run.
  EXPECT_EQ(lossy, lossless);
  EXPECT_GT(runtime.stats().retries, 0);
  EXPECT_GT(runtime.stats().dropped_frames, 0);
  EXPECT_EQ(runtime.stats().retries, runtime.stats().dropped_frames);  // drops only
  EXPECT_GT(runtime.stats().backoff_micros, 0);
  EXPECT_EQ(runtime.stats().crc_failures, 0);
  EXPECT_EQ(runtime.stats().timeouts, 0);
}

TEST(ReliableRuntime, PersistentDropFailsTypedWithinDeadline) {
  Fixture f;
  const SpiSystem system(f.g, f.assignment);

  sim::FaultPlan plan(7);
  plan.retry() = fast_policy();  // huge receive timeout: the sender loses first
  plan.retry().attempts = 4;
  sim::EdgeFaultSpec dead;
  dead.drop = 1.0;
  plan.set_edge(f.stat, dead);  // only the mid->dst wire is dead

  ReliabilityOptions rel;
  rel.enabled = true;
  rel.faults = &plan;
  ThreadedRuntime runtime(system, rel);
  std::vector<double> sink;
  f.wire(runtime, sink);

  const auto start = std::chrono::steady_clock::now();
  try {
    runtime.run(50);
    FAIL() << "a 100%-drop edge must surface sim::ChannelError";
  } catch (const sim::ChannelError& e) {
    EXPECT_EQ(e.kind(), sim::ChannelErrorKind::kRetriesExhausted);
    EXPECT_EQ(e.edge(), f.stat);
    EXPECT_EQ(e.attempts(), 4);
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  // 4 attempts with sub-millisecond backoff: failure is near-immediate,
  // not a hang until some watchdog. Generous bound for loaded CI boxes.
  EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(elapsed).count(), 4);
  EXPECT_GT(runtime.stats().dropped_frames, 0);
}

TEST(ReliableRuntime, CorruptionIsCaughtByCrcAndRetried) {
  Fixture f;
  const SpiSystem system(f.g, f.assignment);
  constexpr std::int64_t kIters = 100;

  std::vector<double> lossless;
  {
    FunctionalRuntime functional(system);
    f.wire(functional, lossless);
    functional.run(kIters);
  }

  sim::FaultPlan plan(99);
  plan.retry() = fast_policy();
  sim::EdgeFaultSpec spec;
  spec.corrupt = 0.10;
  plan.set_default(spec);

  ReliabilityOptions rel;
  rel.enabled = true;
  rel.faults = &plan;
  ThreadedRuntime runtime(system, rel);
  std::vector<double> lossy;
  f.wire(runtime, lossy);
  runtime.run(kIters);

  EXPECT_EQ(lossy, lossless);  // no corrupted payload ever surfaced
  EXPECT_GT(runtime.stats().crc_failures, 0);
  EXPECT_GT(runtime.stats().retries, 0);
  EXPECT_EQ(runtime.stats().dropped_frames, 0);
}

TEST(ReliableRuntime, DelayBeyondDeadlineTimesOutTyped) {
  // One edge's wire delays every frame past the receive deadline; the
  // consumer must give up with a typed timeout instead of hanging.
  df::Graph g;
  const df::ActorId a = g.add_actor("A");
  const df::ActorId b = g.add_actor("B");
  const df::EdgeId e = g.connect_simple(a, b, 0, 8);
  sched::Assignment assignment(2, 2);
  assignment.assign(b, 1);
  const SpiSystem system(g, assignment);

  sim::FaultPlan plan(3);
  plan.retry().attempts = 2;
  plan.retry().timeout_us = 20'000;  // 20 ms deadline
  sim::EdgeFaultSpec slow;
  slow.delay_prob = 1.0;
  slow.delay_us = 100'000;  // 100 ms wire latency
  plan.set_edge(e, slow);

  ReliabilityOptions rel;
  rel.enabled = true;
  rel.faults = &plan;
  ThreadedRuntime runtime(system, rel);

  const auto start = std::chrono::steady_clock::now();
  try {
    runtime.run(5);
    FAIL() << "a delayed wire must surface a receive timeout";
  } catch (const sim::ChannelError& e2) {
    EXPECT_EQ(e2.kind(), sim::ChannelErrorKind::kReceiveTimeout);
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(elapsed).count(), 5);
  EXPECT_GT(runtime.stats().timeouts, 0);
}

TEST(ReliableRuntime, DuplicatesAreSuppressed) {
  Fixture f;
  const SpiSystem system(f.g, f.assignment);
  constexpr std::int64_t kIters = 100;

  std::vector<double> lossless;
  {
    FunctionalRuntime functional(system);
    f.wire(functional, lossless);
    functional.run(kIters);
  }

  sim::FaultPlan plan(5);
  plan.retry() = fast_policy();
  sim::EdgeFaultSpec spec;
  spec.duplicate = 0.15;
  plan.set_default(spec);

  ReliabilityOptions rel;
  rel.enabled = true;
  rel.faults = &plan;
  ThreadedRuntime runtime(system, rel);
  std::vector<double> lossy;
  f.wire(runtime, lossy);
  runtime.run(kIters);

  EXPECT_EQ(lossy, lossless);  // each payload surfaced exactly once
  EXPECT_GT(runtime.stats().duplicates, 0);
  EXPECT_EQ(runtime.stats().retries, 0);
}

TEST(ReliableRuntime, ReliabilityWithoutPlanIsTransparent) {
  Fixture f;
  const SpiSystem system(f.g, f.assignment);
  constexpr std::int64_t kIters = 100;

  std::vector<double> plain, framed;
  {
    ThreadedRuntime runtime(system);
    f.wire(runtime, plain);
    runtime.run(kIters);
  }
  {
    ReliabilityOptions rel;
    rel.enabled = true;  // sequenced CRC framing over a perfect wire
    ThreadedRuntime runtime(system, rel);
    f.wire(runtime, framed);
    runtime.run(kIters);
    EXPECT_EQ(runtime.stats().retries, 0);
    EXPECT_EQ(runtime.stats().crc_failures, 0);
    EXPECT_EQ(runtime.stats().timeouts, 0);
  }
  EXPECT_EQ(framed, plain);
}

TEST(ReliableRuntime, MetricsPublishedToSharedRegistry) {
  Fixture f;
  const SpiSystem system(f.g, f.assignment);

  sim::FaultPlan plan(42);
  plan.retry() = fast_policy();
  sim::EdgeFaultSpec spec;
  spec.drop = 0.10;
  spec.corrupt = 0.02;
  plan.set_default(spec);

  ReliabilityOptions rel;
  rel.enabled = true;
  rel.faults = &plan;
  obs::MetricRegistry registry;
  ThreadedRuntime runtime(system, rel, &registry);
  std::vector<double> sink;
  f.wire(runtime, sink);
  runtime.run(100);

  EXPECT_EQ(registry.counter_total("spi_reliable_retries_total"), runtime.stats().retries);
  EXPECT_EQ(registry.counter_total("spi_reliable_dropped_frames_total"),
            runtime.stats().dropped_frames);
  EXPECT_EQ(registry.counter_total("spi_reliable_crc_failures_total"),
            runtime.stats().crc_failures);
  const std::string prom = registry.to_prometheus();
  EXPECT_NE(prom.find("spi_reliable_retries_total"), std::string::npos);
  EXPECT_NE(prom.find("spi_reliable_backoff_micros"), std::string::npos);
}

TEST(ReliableRuntime, SeededSoakRunsAreReproducible) {
  // Two identical lossy runs: identical payload sequences AND identical
  // fault counters — the plan is keyed by (edge, seq, attempt), not by
  // the thread schedule.
  Fixture f;
  const SpiSystem system(f.g, f.assignment);

  sim::FaultPlan plan(1234);
  plan.retry() = fast_policy();
  sim::EdgeFaultSpec spec;
  spec.drop = 0.08;
  spec.corrupt = 0.02;
  spec.duplicate = 0.05;
  plan.set_default(spec);

  auto run_once = [&](std::vector<double>& sink, ThreadedRunStats& stats) {
    ReliabilityOptions rel;
    rel.enabled = true;
    rel.faults = &plan;
    ThreadedRuntime runtime(system, rel);
    f.wire(runtime, sink);
    runtime.run(300);
    stats = runtime.stats();
  };

  std::vector<double> first, second;
  ThreadedRunStats s1, s2;
  run_once(first, s1);
  run_once(second, s2);

  EXPECT_EQ(first, second);
  EXPECT_EQ(s1.retries, s2.retries);
  EXPECT_EQ(s1.dropped_frames, s2.dropped_frames);
  EXPECT_EQ(s1.crc_failures, s2.crc_failures);
  EXPECT_EQ(s1.duplicates, s2.duplicates);
  EXPECT_GT(s1.retries + s1.duplicates, 0);  // the plan actually bit
}

TEST(ReliableRuntime, SpeechPipelineLossyMatchesLosslessReference) {
  // The acceptance experiment: the speech error-gen system over a seeded
  // 5%-drop / 1%-corrupt transport completes and produces exactly the
  // lossless result.
  apps::SpeechParams params;
  params.frame_size = 128;
  const apps::ErrorGenApp app(3, params);
  dsp::Rng rng(8);
  const auto frame = dsp::synthetic_speech(params.frame_size, rng);
  const apps::SpeechCompressor codec(params);
  const auto coeffs = codec.frame_coefficients(frame);
  const auto reference = codec.frame_errors(frame, coeffs);

  sim::FaultPlan plan(2008);
  plan.retry() = fast_policy();
  sim::EdgeFaultSpec spec;
  spec.drop = 0.05;
  spec.corrupt = 0.01;
  plan.set_default(spec);

  ReliabilityOptions rel;
  rel.enabled = true;
  rel.faults = &plan;
  obs::MetricRegistry registry;
  const auto lossy = app.compute_errors_threaded(frame, coeffs, rel, &registry);

  ASSERT_EQ(lossy.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i)
    EXPECT_DOUBLE_EQ(lossy[i], reference[i]);
}

}  // namespace
}  // namespace spi::core
