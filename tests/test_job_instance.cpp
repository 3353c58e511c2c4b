/// Tests of JobInstance, the one executor of a compiled plan: gang and
/// colocated runs are bit-identical, an instance is reusable across
/// runs, a gang run joins every thread it starts on every exit path, and
/// concurrent instances are isolated — separate channel slabs, local
/// rings and firing-context buffers per JobInstance, so two concurrent
/// jobs can never cross-recycle each other's Bytes buffers (run under
/// TSan in CI).
#include "core/job_instance.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <iterator>
#include <stdexcept>
#include <thread>
#include <vector>

#include "apps/serialization.hpp"
#include "apps/speech_app.hpp"
#include "dsp/lpc.hpp"

namespace spi::core {
namespace {

RunOptions iterations(std::int64_t n) {
  RunOptions options;
  options.iterations = n;
  return options;
}

/// The 3-processor pipeline the threaded-runtime tests use, as a plan
/// fixture for JobInstance: Src -(dynamic)-> Mid -(static)-> Dst.
struct PlanFixture {
  df::Graph g{"gang"};
  df::ActorId src, mid, dst;
  df::EdgeId dyn, stat;
  sched::Assignment assignment{3, 3};
  ExecutablePlan plan;

  PlanFixture() {
    src = g.add_actor("Src");
    mid = g.add_actor("Mid");
    dst = g.add_actor("Dst");
    dyn = g.connect(src, df::Rate::dynamic(8), mid, df::Rate::dynamic(8), 0, sizeof(double));
    stat = g.connect(mid, df::Rate::fixed(1), dst, df::Rate::fixed(1), 0, sizeof(double));
    assignment.assign(mid, 1);
    assignment.assign(dst, 2);
    plan = compile_plan(g, assignment);
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

  std::vector<double> gang_sink, colocated_sink;
  JobInstance gang_instance(f.plan);
  f.wire(gang_instance, gang_sink);
  gang_instance.run(iterations(kIters));

  JobInstance colocated_instance(f.plan);
  f.wire(colocated_instance, colocated_sink);
  colocated_instance.run_colocated(kIters);

  EXPECT_EQ(gang_sink, colocated_sink);
  EXPECT_EQ(gang_instance.stats().messages, colocated_instance.stats().messages);
}

// The segment-ends contract of a segmented colocated run: on_segment(k)
// fires on the calling thread right after iteration ends[k] - 1, in
// order; ends that do not increase from a first end above 0, or whose
// last is not the run's iteration count, throw before anything runs.
TEST(JobInstance, SegmentedColocatedRunFiresAtEachSegmentEnd) {
  PlanFixture f;
  std::vector<double> sink;
  JobInstance instance(f.plan);
  f.wire(instance, sink);

  const std::vector<std::int64_t> ends = {3, 4, 9, 10};
  std::vector<std::int64_t> fired;
  std::vector<std::size_t> sunk_at;  // sink size when each segment ended
  const JobInstance::SegmentFn on_segment = [&](std::int64_t k) {
    fired.push_back(k);
    sunk_at.push_back(sink.size());
  };
  instance.run_colocated(iterations(10), ends, on_segment);
  EXPECT_EQ(fired, (std::vector<std::int64_t>{0, 1, 2, 3}));
  EXPECT_EQ(sunk_at, (std::vector<std::size_t>{3, 4, 9, 10}));

  const auto rejects = [&](std::vector<std::int64_t> bad, std::int64_t iters) {
    fired.clear();
    const std::size_t before = sink.size();
    EXPECT_THROW(instance.run_colocated(iterations(iters), bad, on_segment),
                 std::invalid_argument);
    EXPECT_TRUE(fired.empty());
    EXPECT_EQ(sink.size(), before) << "a rejected run must not fire anything";
  };
  rejects({3, 3, 10}, 10);   // repeated end
  rejects({5, 4, 10}, 10);   // decreasing
  rejects({0, 4, 10}, 10);   // empty first segment
  rejects({-2, 4, 10}, 10);  // negative end
  rejects({3, 4, 9}, 10);    // last end short of the run
  rejects({3, 4, 11}, 10);   // last end past the run
  rejects({}, 10);           // no segments at all
}

TEST(JobInstance, InstanceIsReusableAcrossRunsWithCumulativeInvocations) {
  PlanFixture f;
  std::vector<double> split_sink, once_sink;

  JobInstance split(f.plan);
  f.wire(split, split_sink);
  split.run(iterations(40));
  split.run(iterations(60));  // invocations continue at 40

  JobInstance once(f.plan);
  f.wire(once, once_sink);
  once.run(iterations(100));

  EXPECT_EQ(split_sink, once_sink);

  // reset_invocations() restarts the stream (the serve layer's per-batch
  // contract): the next run reproduces the first 40 values.
  split.reset_invocations();
  std::vector<double> reset_sink;
  f.wire(split, reset_sink);
  split.run(iterations(40));
  EXPECT_EQ(reset_sink, std::vector<double>(once_sink.begin(), once_sink.begin() + 40));
}

TEST(JobInstance, ConcurrentInstancesOfOnePlanStayIsolated) {
  PlanFixture f;
  constexpr std::int64_t kIters = 200;

  std::vector<double> reference;
  {
    JobInstance instance(f.plan);
    f.wire(instance, reference);
    instance.run_colocated(kIters);
  }

  // Two instances of the same plan running concurrently (each colocated
  // on its own thread) must each reproduce the sequential bits — they
  // share the plan but never a channel slab or buffer.
  JobInstance a(f.plan), b(f.plan);
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

// Two gang runs of one plan from two caller threads: six workers in
// flight at once, each gang on its own instance's channels, and each
// sink must still equal the sequential oracle.
TEST(JobInstance, ConcurrentGangRunsOfTwoInstancesStayIsolated) {
  PlanFixture f;
  constexpr std::int64_t kIters = 200;

  std::vector<double> reference;
  {
    JobInstance instance(f.plan);
    f.wire(instance, reference);
    instance.run_colocated(kIters);
  }

  JobInstance a(f.plan), b(f.plan);
  std::vector<double> sink_a, sink_b;
  f.wire(a, sink_a);
  f.wire(b, sink_b);
  std::thread ta([&] { a.run(iterations(kIters)); });
  std::thread tb([&] { b.run(iterations(kIters)); });
  ta.join();
  tb.join();
  EXPECT_EQ(sink_a, reference);
  EXPECT_EQ(sink_b, reference);
}

/// Threads of this process: the entries of /proc/self/task.
std::size_t thread_count() {
  const std::filesystem::directory_iterator tasks("/proc/self/task");
  return static_cast<std::size_t>(std::distance(begin(tasks), end(tasks)));
}

/// thread_count() once it is back down to `expected`, or after 100 ms:
/// a joined thread leaves the task list a moment after its join returns.
std::size_t settled_thread_count(std::size_t expected) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::milliseconds(100);
  std::size_t count = thread_count();
  while (count > expected && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    count = thread_count();
  }
  return count;
}

// A gang run starts proc_count() threads and joins all of them before it
// returns — after a clean run, after a compute throws on one processor,
// and after the watchdog aborts a stalled run (whose monitor thread
// lives as long as the instance). Constructing an instance starts none.
TEST(JobInstance, GangRunLeavesNoThreadBehind) {
  PlanFixture f;
  const std::size_t before = thread_count();

  {
    // The sink's 3 ms per firing keeps the gang busy for 300 ms: a gang
    // that returned before its threads ended would still show them.
    std::vector<double> sink;
    JobInstance clean(f.plan);
    EXPECT_EQ(thread_count(), before);
    f.wire(clean, sink);
    clean.set_compute(f.dst, [&f, &sink](FiringContext& ctx) {
      std::this_thread::sleep_for(std::chrono::milliseconds(3));
      sink.push_back(apps::f64_at(ctx.inputs[ctx.input_index(f.stat)][0], 0));
    });
    clean.run(iterations(100));
    EXPECT_EQ(settled_thread_count(before), before) << "after a clean gang run";
    EXPECT_EQ(sink.size(), 100u);
  }

  {
    std::vector<double> sink;
    JobInstance throwing(f.plan);
    f.wire(throwing, sink);
    throwing.set_compute(f.mid, [](FiringContext& ctx) {
      if (ctx.invocation == 5) throw std::runtime_error("compute failed");
      ctx.emit(0).assign(sizeof(double), 0);
    });
    EXPECT_THROW(throwing.run(iterations(100)), std::runtime_error);
    EXPECT_EQ(settled_thread_count(before), before) << "after a compute threw";
  }

  {
    // Mid wedges at its fifth firing until the watchdog reports the
    // stall; the abort then unwinds Src and Dst from their channel waits.
    std::vector<double> sink;
    std::atomic<bool> stalled{false};
    JobInstance wedged(f.plan);
    f.wire(wedged, sink);
    wedged.set_compute(f.mid, [&stalled](FiringContext& ctx) {
      while (ctx.invocation == 5 && !stalled.load())
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      ctx.emit(0).assign(sizeof(double), 0);
    });
    RunOptions options = iterations(100);
    options.watchdog.enabled = true;
    options.watchdog.window_ms = 100;
    options.watchdog.dump_dir = ::testing::TempDir();
    options.watchdog.on_stall = [&stalled](const obs::StallReport&) { stalled.store(true); };
    EXPECT_THROW(wedged.run(options), obs::StallError);
    EXPECT_TRUE(stalled.load());
  }
  EXPECT_EQ(settled_thread_count(before), before) << "after a watchdog-aborted gang run";
}

/// Two apps' sequential runs on concurrent threads — each a colocated
/// JobInstance of its own — must not recycle each other's Bytes buffers:
/// every instance owns its token storage, and this test (run under TSan
/// in CI) pins the isolation against the sequential codec.
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
  const auto reference_a = codec.frame_errors(frame_a, coeffs_a);
  const auto reference_b = codec.frame_errors(frame_b, coeffs_b);

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
