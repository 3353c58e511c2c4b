/// Tests of the stall-detecting progress watchdog: the pure
/// classification logic on synthetic worker snapshots, report/health
/// JSON validity, healthy runs staying quiet, and the acceptance path —
/// a deliberately deadlocked reliable run (one dropped-forever edge via
/// a FaultPlan) detected within 2x the configured window, classified as
/// a deadlock with the blocking channel named, with a loadable flight
/// post-mortem and a /runtime snapshot dumped to disk. A JobInstance
/// keeps one monitor thread across its runs: stalls of successive runs
/// report from that thread, and no stall state or error leaks from one
/// run into the next.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/job_instance.hpp"
#include "core/pipeline.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/json_lint.hpp"
#include "obs/watchdog.hpp"
#include "sim/fault.hpp"

namespace spi::obs {
namespace {

WorkerSnapshot worker(std::int32_t proc, std::int32_t actor, std::int32_t waiting_edge,
                      std::int32_t waiting_side, bool done = false) {
  WorkerSnapshot w;
  w.proc = proc;
  w.actor = actor;
  w.waiting_edge = waiting_edge;
  w.waiting_side = waiting_side;
  w.done = done;
  return w;
}

/// A watchdog that never starts: only its classify() logic is used.
ProgressWatchdog make_classifier() {
  WatchdogOptions options;
  options.window_ms = 100;
  ProgressWatchdog::Hooks hooks;
  hooks.snapshot = [] { return std::vector<WorkerSnapshot>{}; };
  hooks.actor_name = [](std::int32_t a) { return "actor" + std::to_string(a); };
  hooks.channel_name = [](std::int32_t e) { return "chan" + std::to_string(e); };
  return ProgressWatchdog(std::move(options), std::move(hooks));
}

TEST(Watchdog, ClassifiesDeadlockOnModalWaitedChannel) {
  const auto wd = make_classifier();
  // Two workers wait on edge 2, one on edge 5: the report blames edge 2.
  const StallReport report = wd.classify(
      {worker(0, 1, 2, 1), worker(1, 3, 2, 0), worker(2, 4, 5, 0)}, 250);
  EXPECT_EQ(report.kind, StallKind::kDeadlock);
  EXPECT_EQ(report.classification, "deadlock");
  EXPECT_EQ(report.edge, 2);
  EXPECT_EQ(report.channel, "chan2");
  EXPECT_EQ(report.stalled_ms, 250);
  EXPECT_NE(report.message.find("chan2"), std::string::npos);
  EXPECT_EQ(report.workers.size(), 3u);
}

TEST(Watchdog, ClassifiesSlowActorWhenAWorkerIsInsideCompute) {
  const auto wd = make_classifier();
  // Worker 1 is inside actor 7's compute (no channel op in progress);
  // the waiters are back-pressure victims, not the cause.
  const StallReport report =
      wd.classify({worker(0, 1, 2, 1), worker(1, 7, -1, -1), worker(2, 4, 2, 0)}, 500);
  EXPECT_EQ(report.kind, StallKind::kSlowActor);
  EXPECT_EQ(report.classification, "slow-actor");
  EXPECT_EQ(report.actor, 7);
  EXPECT_EQ(report.actor_name, "actor7");
  EXPECT_EQ(report.edge, -1);
  EXPECT_NE(report.message.find("actor7"), std::string::npos);
}

TEST(Watchdog, ClassifiesLivelockWhenNobodyWaitsAndNobodyComputes) {
  const auto wd = make_classifier();
  const StallReport report = wd.classify({worker(0, -1, -1, -1), worker(1, -1, -1, -1)}, 300);
  EXPECT_EQ(report.kind, StallKind::kLivelock);
  EXPECT_EQ(report.classification, "livelock");
}

TEST(Watchdog, DoneWorkersAreExcludedFromClassification) {
  const auto wd = make_classifier();
  // A finished worker inside nothing must not turn a clean deadlock
  // into a livelock verdict.
  const StallReport report =
      wd.classify({worker(0, -1, -1, -1, /*done=*/true), worker(1, 3, 4, 0)}, 150);
  EXPECT_EQ(report.kind, StallKind::kDeadlock);
  EXPECT_EQ(report.edge, 4);
}

TEST(Watchdog, ReportAndHealthJsonAreStrictlyValid) {
  const auto wd = make_classifier();
  const StallReport report = wd.classify(
      {worker(0, 1, 2, 1), worker(1, 7, -1, -1)}, 123);
  EXPECT_EQ(detail::json_validate(report.to_json()), "") << report.to_json();

  HealthStatus health;
  health.ok = false;
  health.verdict = "stalled: deadlock on \"chan2\"";  // hostile quote
  health.last_progress_ms = 42;
  health.window_ms = 100;
  EXPECT_EQ(detail::json_validate(health.to_json()), "") << health.to_json();
}

TEST(Watchdog, FiresOnFrozenEpochsAndReArmsOnProgress) {
  std::atomic<std::uint64_t> epoch{0};
  std::atomic<int> fired{0};
  WatchdogOptions options;
  options.enabled = true;
  options.window_ms = 100;
  options.poll_ms = 20;
  options.on_stall = [&](const StallReport& r) {
    EXPECT_EQ(r.kind, StallKind::kLivelock);  // synthetic worker never waits
    fired.fetch_add(1);
  };
  ProgressWatchdog::Hooks hooks;
  hooks.snapshot = [&] {
    WorkerSnapshot w;
    w.epoch = epoch.load();
    return std::vector<WorkerSnapshot>{w};
  };
  ProgressWatchdog wd(options, std::move(hooks));
  wd.arm(options);

  // Frozen epoch: the stall must fire within 2x the window.
  const auto start = std::chrono::steady_clock::now();
  while (!wd.stalled() &&
         std::chrono::steady_clock::now() - start < std::chrono::seconds(5))
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ASSERT_TRUE(wd.stalled());
  EXPECT_EQ(fired.load(), 1);
  EXPECT_GE(wd.last_report().stalled_ms, options.window_ms);
  EXPECT_FALSE(wd.health().ok);
  EXPECT_NE(wd.health().verdict.find("stalled"), std::string::npos);

  // Progress resumes: the verdict clears and the episode re-arms...
  for (int i = 0; i < 20 && wd.stalled(); ++i) {
    epoch.fetch_add(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  EXPECT_FALSE(wd.stalled());
  EXPECT_TRUE(wd.health().ok);

  // ... so a second freeze fires a second episode.
  const auto again = std::chrono::steady_clock::now();
  while (fired.load() < 2 &&
         std::chrono::steady_clock::now() - again < std::chrono::seconds(5))
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(fired.load(), 2);
  wd.disarm();
}

TEST(Watchdog, RequiresSnapshotHookAndPositiveWindow) {
  WatchdogOptions options;
  options.window_ms = 100;
  EXPECT_THROW(ProgressWatchdog(options, ProgressWatchdog::Hooks{}), std::invalid_argument);
  ProgressWatchdog::Hooks hooks;
  hooks.snapshot = [] { return std::vector<WorkerSnapshot>{}; };
  options.window_ms = 0;
  EXPECT_THROW(ProgressWatchdog(options, hooks), std::invalid_argument);
}

}  // namespace
}  // namespace spi::obs

namespace spi::core {
namespace {

/// Src -> Mid -> Dst across three processors; the Mid->Dst wire is the
/// one the fault plan kills in the deadlock tests.
struct Fixture {
  df::Graph g{"watchdog"};
  df::ActorId src, mid, dst;
  df::EdgeId first, second;
  sched::Assignment assignment{3, 3};

  Fixture() {
    src = g.add_actor("Src");
    mid = g.add_actor("Mid");
    dst = g.add_actor("Dst");
    first = g.connect_simple(src, mid, 0, sizeof(double));
    second = g.connect_simple(mid, dst, 0, sizeof(double));
    assignment.assign(mid, 1);
    assignment.assign(dst, 2);
  }

  void wire(JobInstance& runtime) const {
    runtime.set_compute(src, [this](FiringContext& ctx) {
      ctx.outputs[ctx.output_index(first)] = {std::vector<std::uint8_t>(sizeof(double))};
    });
    runtime.set_compute(mid, [this](FiringContext& ctx) {
      ctx.outputs[ctx.output_index(second)] = {ctx.inputs[ctx.input_index(first)][0]};
    });
  }
};

/// A retry policy that keeps the sender retransmitting for tens of
/// seconds on a dead edge — long enough that only the watchdog can end
/// the run — while staying cheap on healthy edges.
sim::RetryPolicy stubborn_policy() {
  sim::RetryPolicy policy;
  policy.attempts = 300;
  policy.backoff_base_us = 50'000;
  policy.backoff_multiplier = 2.0;
  policy.backoff_max_us = 100'000;
  policy.jitter = 0.0;
  policy.timeout_us = 600'000'000;  // the receiver never gives up first
  return policy;
}

TEST(WatchdogRuntime, HealthyRunNeverFires) {
  Fixture f;
  const ExecutablePlan compiled = compile_plan(f.g, f.assignment);
  JobInstance runtime(compiled);
  f.wire(runtime);

  std::atomic<int> fired{0};
  RunOptions options;
  options.iterations = 200;
  options.watchdog.enabled = true;
  options.watchdog.window_ms = 2000;
  options.watchdog.on_stall = [&](const obs::StallReport&) { fired.fetch_add(1); };
  runtime.run(options);
  EXPECT_EQ(fired.load(), 0);
  EXPECT_EQ(runtime.stats().messages, 2 * 200);
}

// The acceptance test (ISSUE: observability): a dropped-forever edge
// wedges the reliable pipeline; the watchdog detects the stall within
// 2x the window, classifies it as a deadlock naming the dead channel,
// aborts the run with a typed StallError, and leaves a loadable flight
// post-mortem plus the /runtime snapshot on disk.
TEST(WatchdogRuntime, DeadEdgeDeadlockIsDetectedClassifiedAndDumped) {
  Fixture f;
  const ExecutablePlan compiled = compile_plan(f.g, f.assignment);

  sim::FaultPlan plan(7);
  plan.retry() = stubborn_policy();
  sim::EdgeFaultSpec dead;
  dead.drop = 1.0;
  plan.set_edge(f.second, dead);  // only Mid->Dst is dead

  ReliabilityOptions rel;
  rel.enabled = true;
  rel.faults = &plan;
  JobInstance runtime(compiled, {rel, nullptr, {}});
  f.wire(runtime);

  const std::string dir = ::testing::TempDir();
  obs::FlightRecorder recorder(3);
  recorder.set_postmortem_path(dir + "/wd_flight.json");
  runtime.set_flight_recorder(&recorder);

  RunOptions options;
  options.iterations = 50;
  options.watchdog.enabled = true;
  options.watchdog.window_ms = 750;
  options.watchdog.dump_dir = dir;

  const auto start = std::chrono::steady_clock::now();
  try {
    runtime.run(options);
    FAIL() << "a dropped-forever edge must surface obs::StallError";
  } catch (const obs::StallError& e) {
    const obs::StallReport& report = e.report();
    EXPECT_EQ(report.kind, obs::StallKind::kDeadlock);
    EXPECT_EQ(report.edge, f.second);
    EXPECT_EQ(report.channel, "Mid->Dst");
    EXPECT_NE(report.message.find("Mid->Dst"), std::string::npos);
    // Detection latency: measured from the last observed progress, the
    // stall is caught within twice the configured window.
    EXPECT_GE(report.stalled_ms, options.watchdog.window_ms);
    EXPECT_LE(report.stalled_ms, 2 * options.watchdog.window_ms);
    EXPECT_EQ(report.workers.size(), 3u);
  }
  // End-to-end the abort is prompt — nothing waited out the 600 s
  // receive deadline or the 300-attempt retry schedule.
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(elapsed).count(), 20);

  // The /runtime snapshot post-mortem: strict JSON with both sections.
  std::ifstream snap(dir + "/spi_stall.deadlock.json");
  ASSERT_TRUE(snap.good());
  std::stringstream buffer;
  buffer << snap.rdbuf();
  const std::string dump = buffer.str();
  EXPECT_EQ(obs::detail::json_validate(dump), "") << dump;
  EXPECT_NE(dump.find("\"report\""), std::string::npos);
  EXPECT_NE(dump.find("\"runtime\""), std::string::npos);
  EXPECT_NE(dump.find("\"classification\":\"deadlock\""), std::string::npos);

  // The flight post-mortem fired with the classification in its name
  // and loads back through the normal analyzer entry point.
  std::ifstream flight_file(dir + "/wd_flight.stall-deadlock.json");
  ASSERT_TRUE(flight_file.good());
  std::stringstream flight_buffer;
  flight_buffer << flight_file.rdbuf();
  const obs::FlightLog log = obs::FlightLog::from_json(flight_buffer.str());
  EXPECT_EQ(log.proc_count, 3);
  EXPECT_GT(log.events.size(), 0u);

  std::remove((dir + "/spi_stall.deadlock.json").c_str());
  std::remove((dir + "/wd_flight.stall-deadlock.json").c_str());
}

TEST(WatchdogRuntime, NonAbortingWatchdogObservesStallAndLetsTransportFail) {
  Fixture f;
  const ExecutablePlan compiled = compile_plan(f.g, f.assignment);

  sim::FaultPlan plan(7);
  plan.retry() = stubborn_policy();
  plan.retry().attempts = 40;  // the transport gives up after ~4 s
  sim::EdgeFaultSpec dead;
  dead.drop = 1.0;
  plan.set_edge(f.second, dead);

  ReliabilityOptions rel;
  rel.enabled = true;
  rel.faults = &plan;
  JobInstance runtime(compiled, {rel, nullptr, {}});
  f.wire(runtime);

  std::atomic<int> fired{0};
  RunOptions options;
  options.iterations = 50;
  options.watchdog.enabled = true;
  options.watchdog.window_ms = 500;
  options.watchdog.abort_on_stall = false;
  options.watchdog.dump_dir = ::testing::TempDir();
  options.watchdog.on_stall = [&](const obs::StallReport& r) {
    EXPECT_EQ(r.kind, obs::StallKind::kDeadlock);
    fired.fetch_add(1);
  };

  // The watchdog observes but does not abort: the run ends when the
  // reliable transport exhausts its retries, with the usual typed error.
  EXPECT_THROW(runtime.run(options), sim::ChannelError);
  EXPECT_GE(fired.load(), 1);
  std::remove((::testing::TempDir() + "/spi_stall.deadlock.json").c_str());
}

/// The Fixture's plan on one JobInstance whose Mid actor sleeps for
/// `mid_sleep_ms` per firing: a slow actor, stalled for as long as the
/// test asks, on the colocated path the serve layer uses.
struct SlowMidInstance {
  Fixture f;
  const ExecutablePlan compiled = compile_plan(f.g, f.assignment);
  JobInstance instance{compiled};
  std::atomic<int> mid_sleep_ms{0};

  SlowMidInstance() {
    instance.set_compute(f.src, [this](FiringContext& ctx) {
      ctx.outputs[ctx.output_index(f.first)] = {std::vector<std::uint8_t>(sizeof(double))};
    });
    instance.set_compute(f.mid, [this](FiringContext& ctx) {
      if (const int ms = mid_sleep_ms.load()) std::this_thread::sleep_for(std::chrono::milliseconds(ms));
      ctx.outputs[ctx.output_index(f.second)] = {ctx.inputs[ctx.input_index(f.first)][0]};
    });
  }

  /// Watched options with a short window, dumping into the test tempdir.
  static RunOptions watched(std::int64_t iterations, bool abort_on_stall) {
    RunOptions options;
    options.iterations = iterations;
    options.watchdog.enabled = true;
    options.watchdog.window_ms = 40;
    options.watchdog.poll_ms = 5;
    options.watchdog.abort_on_stall = abort_on_stall;
    options.watchdog.dump_dir = ::testing::TempDir();
    return options;
  }
};

constexpr int kStallSleepMs = 300;  // several windows: the stall always fires

// One monitor thread per JobInstance: every watched run arms the same
// thread instead of starting its own.
TEST(WatchdogRuntime, StallsOfSuccessiveRunsReportFromOneMonitorThread) {
  SlowMidInstance s;
  s.mid_sleep_ms = kStallSleepMs;
  std::mutex mutex;
  std::vector<std::thread::id> threads;
  RunOptions options = SlowMidInstance::watched(1, /*abort_on_stall=*/false);
  options.watchdog.on_stall = [&](const obs::StallReport& report) {
    EXPECT_EQ(report.kind, obs::StallKind::kSlowActor);
    const std::lock_guard lock(mutex);
    threads.push_back(std::this_thread::get_id());
  };
  s.instance.run_colocated(options);
  s.instance.run_colocated(options);
  ASSERT_EQ(threads.size(), 2u);
  EXPECT_EQ(threads[0], threads[1]);
  EXPECT_NE(threads[0], std::this_thread::get_id());
  std::remove((::testing::TempDir() + "/spi_stall.slow-actor.json").c_str());
}

TEST(WatchdogRuntime, HealthyRunAfterANonAbortingStallIsNotFlagged) {
  SlowMidInstance s;
  std::atomic<int> fired{0};
  RunOptions options = SlowMidInstance::watched(1, /*abort_on_stall=*/false);
  options.watchdog.on_stall = [&](const obs::StallReport&) { fired.fetch_add(1); };
  s.mid_sleep_ms = kStallSleepMs;
  s.instance.run_colocated(options);
  ASSERT_EQ(fired.load(), 1);

  // Long enough for dozens of samples, each firing well inside the window.
  s.mid_sleep_ms = 2;
  options.iterations = 60;
  s.instance.run_colocated(options);
  EXPECT_EQ(fired.load(), 1) << "the healthy run was flagged";
  std::remove((::testing::TempDir() + "/spi_stall.slow-actor.json").c_str());
}

TEST(WatchdogRuntime, RunAfterAnAbortingStallStartsWithNoStaleError) {
  SlowMidInstance s;
  RunOptions options = SlowMidInstance::watched(3, /*abort_on_stall=*/true);
  s.mid_sleep_ms = kStallSleepMs;
  EXPECT_THROW(s.instance.run_colocated(options), obs::StallError);

  s.mid_sleep_ms = 0;
  options.iterations = 50;
  EXPECT_NO_THROW(s.instance.run_colocated(options));
  EXPECT_EQ(s.instance.stats().messages, 2 * 50);
  std::remove((::testing::TempDir() + "/spi_stall.slow-actor.json").c_str());
}

// A run armed with a shorter poll period than the run before it wakes a
// monitor still waiting out the old period (a 15 s wait for a 60 s
// window) and is watched on its own schedule from its start.
TEST(WatchdogRuntime, ShortWindowRunAfterALongWindowRunFiresOnItsOwnWindow) {
  SlowMidInstance s;
  RunOptions long_window = SlowMidInstance::watched(1, /*abort_on_stall=*/false);
  long_window.watchdog.window_ms = 60'000;
  long_window.watchdog.poll_ms = 0;  // max(10, window/4): 15 s
  s.mid_sleep_ms = 50;  // the monitor takes its first sample, then waits
  s.instance.run_colocated(long_window);

  std::atomic<std::int64_t> fired_after_ms{-1};
  RunOptions short_window = SlowMidInstance::watched(1, /*abort_on_stall=*/false);
  short_window.watchdog.window_ms = 100;
  short_window.watchdog.poll_ms = 10;
  const auto start = std::chrono::steady_clock::now();
  short_window.watchdog.on_stall = [&](const obs::StallReport&) {
    fired_after_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                         std::chrono::steady_clock::now() - start)
                         .count();
  };
  s.mid_sleep_ms = kStallSleepMs;
  s.instance.run_colocated(short_window);
  ASSERT_GE(fired_after_ms.load(), 0) << "the stall never fired";
  EXPECT_GE(fired_after_ms.load(), short_window.watchdog.window_ms);
  EXPECT_LE(fired_after_ms.load(), 2 * short_window.watchdog.window_ms);
  std::remove((::testing::TempDir() + "/spi_stall.slow-actor.json").c_str());
}

// The serve pattern: short watched batches back to back with idle gaps
// between bursts, lasting several windows in all, while the monitor
// samples every millisecond across arm/disarm boundaries.
TEST(WatchdogRuntime, BackToBackWatchedColocatedRunsNeverStall) {
  SlowMidInstance s;
  std::atomic<int> fired{0};
  RunOptions options = SlowMidInstance::watched(4, /*abort_on_stall=*/false);
  options.watchdog.poll_ms = 1;
  options.watchdog.on_stall = [&](const obs::StallReport&) { fired.fetch_add(1); };
  for (int run = 0; run < 400; ++run) {
    s.instance.run_colocated(options);
    if (run % 4 == 3) std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(fired.load(), 0);
  EXPECT_EQ(s.instance.stats().messages, 2 * 4);
}

}  // namespace
}  // namespace spi::core
