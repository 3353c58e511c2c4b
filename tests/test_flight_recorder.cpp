/// Unit tests for the causal flight recorder (obs/flight_recorder.hpp):
/// SPSC ring semantics (ordering, bounded capacity, counted drops), the
/// recorder's multi-proc collection, and the JSON dump round-trip the
/// post-mortem tooling depends on — including hostile names and
/// malformed-input rejection.
#include "obs/flight_recorder.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "core/job_instance.hpp"
#include "core/pipeline.hpp"
#include "obs/critical_path.hpp"
#include "obs/metrics.hpp"

namespace spi::obs {
namespace {

FlightEvent make_event(std::int64_t t, FlightEventKind kind, std::int32_t proc = 0) {
  FlightEvent e;
  e.t = t;
  e.kind = kind;
  e.proc = proc;
  return e;
}

TEST(FlightRing, PreservesPushOrderAcrossDrains) {
  FlightRing ring(16);
  std::vector<FlightEvent> out;
  for (int i = 0; i < 10; ++i)
    ASSERT_TRUE(ring.try_push(make_event(i, FlightEventKind::kSend)));
  ring.drain(out);
  ASSERT_EQ(out.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(out[static_cast<std::size_t>(i)].t, i);
  // The ring is reusable after a drain; indices wrap around the mask.
  for (int i = 10; i < 30; ++i)
    ASSERT_TRUE(ring.try_push(make_event(i, FlightEventKind::kReceive)) || true);
  out.clear();
  ring.drain(out);
  EXPECT_EQ(out.front().t, 10);
  EXPECT_EQ(ring.dropped() + static_cast<std::int64_t>(out.size()), 20);
}

TEST(FlightRing, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(FlightRing(1).capacity(), 2u);  // floor of 2 slots
  EXPECT_EQ(FlightRing(3).capacity(), 4u);
  EXPECT_EQ(FlightRing(16).capacity(), 16u);
  EXPECT_EQ(FlightRing(17).capacity(), 32u);
}

TEST(FlightRing, OverflowDropsAreCountedNotSilent) {
  FlightRing ring(8);
  int accepted = 0;
  for (int i = 0; i < 20; ++i)
    if (ring.try_push(make_event(i, FlightEventKind::kSend))) ++accepted;
  EXPECT_EQ(accepted, 8);
  EXPECT_EQ(ring.dropped(), 12);
  std::vector<FlightEvent> out;
  ring.drain(out);
  ASSERT_EQ(out.size(), 8u);
  // The survivors are the *first* 8 — drop-newest keeps the causal
  // prefix intact for the analyzer.
  for (int i = 0; i < 8; ++i) EXPECT_EQ(out[static_cast<std::size_t>(i)].t, i);
}

TEST(FlightRing, SpscConcurrentPushDrainLosesNothingUnexpected) {
  FlightRing ring(1u << 12);
  constexpr std::int64_t kEvents = 200'000;
  std::vector<FlightEvent> out;
  std::atomic<bool> done{false};
  std::thread producer([&] {
    for (std::int64_t i = 0; i < kEvents; ++i)
      ring.try_push(make_event(i, FlightEventKind::kSend));
    done.store(true, std::memory_order_release);
  });
  std::int64_t drained = 0;
  std::int64_t last_seen = -1;
  while (true) {
    // Read the flag *before* draining: an empty drain after the
    // producer finished proves the ring is fully empty.
    const bool was_done = done.load(std::memory_order_acquire);
    out.clear();
    ring.drain(out);
    for (const FlightEvent& e : out) {
      EXPECT_GT(e.t, last_seen);  // order survives concurrency
      last_seen = e.t;
    }
    drained += static_cast<std::int64_t>(out.size());
    if (was_done && out.empty()) break;
  }
  producer.join();
  EXPECT_EQ(drained + ring.dropped(), kEvents);
}

TEST(FlightRecorder, CollectMergesProcsAndCountsDrops) {
  FlightRecorder rec(2, 8);
  for (int i = 0; i < 12; ++i) {
    rec.record(0, FlightEventKind::kFireBegin, /*actor=*/1, /*edge=*/-1, /*seq=*/0,
               /*iteration=*/i);
    rec.record(1, FlightEventKind::kSend, /*actor=*/-1, /*edge=*/3, /*seq=*/i,
               /*iteration=*/i, /*aux=*/0);
  }
  rec.set_names({"A", "B"}, {"", "", "", "A->B"});
  const FlightLog log = rec.collect();
  EXPECT_EQ(log.proc_count, 2);
  EXPECT_EQ(log.events.size(), 16u);  // 8 per proc survived
  EXPECT_EQ(log.dropped, 8);
  EXPECT_EQ(rec.dropped_total(), 8);
  EXPECT_EQ(log.actor_names.size(), 2u);
  EXPECT_EQ(log.edge_names[3], "A->B");
  // Timestamps are monotone per proc and relative to the recorder epoch.
  std::int64_t prev = -1;
  for (const FlightEvent& e : log.events) {
    if (e.proc != 0) continue;
    EXPECT_GE(e.t, prev);
    prev = e.t;
  }

  MetricRegistry registry;
  rec.publish_metrics(registry);
  EXPECT_EQ(registry.gauge_value("spi_flight_events_recorded"), 16.0);
  EXPECT_EQ(registry.gauge_value("spi_flight_events_dropped"), 8.0);
}

TEST(FlightRecorder, RejectsBadProcIndexQuietly) {
  FlightRecorder rec(1, 8);
  rec.record(-1, FlightEventKind::kSend, -1, 0, 0, 0);
  rec.record(7, FlightEventKind::kSend, -1, 0, 0, 0);  // out of range: ignored
  EXPECT_EQ(rec.collect().events.size(), 0u);
  EXPECT_THROW(FlightRecorder(0), std::invalid_argument);
}

// Each 1<<20-event ring is 48 MiB, above glibc's largest mmap threshold
// (32 MiB), so it is always a fresh mapping whose pages become resident
// only when written: construction must commit next to nothing, recording
// must commit at least the bytes it writes.
TEST(FlightRecorder, ConstructionCommitsNoRingMemory) {
  constexpr std::size_t kRingEvents = std::size_t{1} << 20;
  constexpr std::int64_t kRingBytes = kRingEvents * sizeof(FlightEvent);
  constexpr std::int64_t kRecorded = 200'000;

  const std::int64_t before = resident_memory_bytes();
  ASSERT_GT(before, 0) << "/proc/self/statm unreadable";
  FlightRecorder rec(2, kRingEvents);
  const std::int64_t constructed = resident_memory_bytes();
  EXPECT_LT(constructed - before, 2 * kRingBytes / 4)
      << "construction committed " << constructed - before << " bytes of two " << kRingBytes
      << "-byte rings";

  for (std::int64_t i = 0; i < kRecorded; ++i)
    rec.record(0, FlightEventKind::kSend, /*actor=*/-1, /*edge=*/0, /*seq=*/i, /*iteration=*/0);
  // The allocator's chunk header already committed the ring's first page.
  const std::int64_t recorded = resident_memory_bytes();
  EXPECT_GE(recorded - constructed,
            kRecorded * static_cast<std::int64_t>(sizeof(FlightEvent)) - sysconf(_SC_PAGESIZE));

  const FlightLog log = rec.collect();
  ASSERT_EQ(log.events.size(), static_cast<std::size_t>(kRecorded));
  for (std::int64_t i = 0; i < kRecorded; ++i)
    ASSERT_EQ(log.events[static_cast<std::size_t>(i)].seq, i);
  EXPECT_EQ(log.dropped, 0);
}

TEST(FlightLog, JsonRoundTripPreservesEverything) {
  FlightLog log;
  log.time_unit = "cycles";
  log.proc_count = 3;
  log.dropped = 42;
  log.actor_names = {"src", "filter \"q\"", "snk\nnewline"};
  log.edge_names = {"src->filter", "filter->snk\ttab"};
  for (int i = 0; i < 6; ++i) {
    FlightEvent e;
    e.t = 1000 + i;
    e.seq = i;
    e.iteration = i / 2;
    e.proc = i % 3;
    e.actor = i % 3;
    e.edge = i % 2;
    e.aux = i % 2;
    e.kind = static_cast<FlightEventKind>(i % 7);
    log.events.push_back(e);
  }
  const FlightLog back = FlightLog::from_json(log.to_json());
  EXPECT_EQ(back.time_unit, log.time_unit);
  EXPECT_EQ(back.proc_count, log.proc_count);
  EXPECT_EQ(back.dropped, log.dropped);
  EXPECT_EQ(back.actor_names, log.actor_names);
  EXPECT_EQ(back.edge_names, log.edge_names);
  ASSERT_EQ(back.events.size(), log.events.size());
  for (std::size_t i = 0; i < log.events.size(); ++i) {
    EXPECT_EQ(back.events[i].t, log.events[i].t);
    EXPECT_EQ(back.events[i].seq, log.events[i].seq);
    EXPECT_EQ(back.events[i].iteration, log.events[i].iteration);
    EXPECT_EQ(back.events[i].proc, log.events[i].proc);
    EXPECT_EQ(back.events[i].actor, log.events[i].actor);
    EXPECT_EQ(back.events[i].edge, log.events[i].edge);
    EXPECT_EQ(back.events[i].aux, log.events[i].aux);
    EXPECT_EQ(back.events[i].kind, log.events[i].kind);
  }
}

TEST(FlightLog, HostileNamesSurviveEscaping) {
  FlightLog log;
  log.proc_count = 1;
  log.actor_names = {std::string("ctrl\x01char") + "\\back\"quote\r\n"};
  const std::string json = log.to_json();
  // Raw control bytes must not leak into the document ('\n' between
  // top-level fields is legal JSON whitespace, everything else is not).
  for (char c : json)
    EXPECT_TRUE(static_cast<unsigned char>(c) >= 0x20u || c == '\n') << static_cast<int>(c);
  EXPECT_EQ(FlightLog::from_json(json).actor_names[0], log.actor_names[0]);
}

TEST(FlightLog, FromJsonRejectsMalformedInput) {
  EXPECT_THROW(FlightLog::from_json(""), std::invalid_argument);
  EXPECT_THROW(FlightLog::from_json("not json"), std::invalid_argument);
  EXPECT_THROW(FlightLog::from_json("{\"schema\":999}"), std::invalid_argument);
  FlightLog ok;
  ok.proc_count = 1;
  FlightEvent e;
  e.proc = 0;
  ok.events.push_back(e);
  const std::string good = ok.to_json();
  // Truncation anywhere must throw, never crash or mis-parse.
  for (std::size_t cut = 0; cut < good.size(); cut += 7)
    EXPECT_THROW(FlightLog::from_json(good.substr(0, cut)), std::invalid_argument);
  // An event naming a proc outside proc_count is rejected.
  FlightLog bad = ok;
  bad.events[0].proc = 5;
  EXPECT_THROW(FlightLog::from_json(bad.to_json()), std::invalid_argument);
}

/// The flight recorder is the one wall-clock trace producer: a threaded
/// run of a 3-processor pipeline logs exactly one kFireBegin/kFireEnd
/// pair per firing, and the Chrome trace spi_compile --trace-out writes
/// from that log names every actor's compute slices.
TEST(FlightRecorder, ThreadedRuntimeRecordsOneFirePairPerFiring) {
  constexpr std::int64_t kIterations = 40;
  df::Graph g{"parity"};
  const df::ActorId a = g.add_actor("Alpha", 10);
  const df::ActorId b = g.add_actor("Beta", 20);
  const df::ActorId c = g.add_actor("Gamma", 5);
  g.connect_simple(a, b, 0, 16);
  g.connect_simple(b, c, 0, 16);
  sched::Assignment assignment{3, 3};
  assignment.assign(b, 1);
  assignment.assign(c, 2);
  const core::ExecutablePlan plan = core::compile_plan(g, assignment);

  core::JobInstance runtime(plan);
  FlightRecorder recorder(3);
  runtime.set_flight_recorder(&recorder);
  runtime.run(kIterations);
  const FlightLog log = recorder.collect();
  EXPECT_EQ(log.dropped, 0);

  // Per processor, firings never nest: each begin is closed by the end
  // of the same actor and iteration before the next begin.
  std::int64_t begins = 0, ends = 0;
  std::vector<const FlightEvent*> open(3, nullptr);
  for (const FlightEvent& e : log.events) {
    if (e.kind != FlightEventKind::kFireBegin && e.kind != FlightEventKind::kFireEnd) continue;
    ASSERT_GE(e.proc, 0);
    ASSERT_LT(e.proc, 3);
    EXPECT_GE(e.iteration, 0);
    EXPECT_LT(e.iteration, kIterations);
    const FlightEvent*& pending = open[static_cast<std::size_t>(e.proc)];
    if (e.kind == FlightEventKind::kFireBegin) {
      ++begins;
      EXPECT_EQ(pending, nullptr) << "nested firing on proc " << e.proc;
      pending = &e;
    } else {
      ++ends;
      ASSERT_NE(pending, nullptr) << "end without begin on proc " << e.proc;
      EXPECT_EQ(pending->actor, e.actor);
      EXPECT_EQ(pending->iteration, e.iteration);
      EXPECT_GE(e.t, pending->t);
      pending = nullptr;
    }
  }
  EXPECT_EQ(begins, 3 * kIterations);
  EXPECT_EQ(ends, 3 * kIterations);

  const std::string chrome = analyze_critical_path(log).to_chrome_trace_json(log);
  for (const char* actor : {"Alpha", "Beta", "Gamma"})
    EXPECT_NE(chrome.find(std::string("{\"name\":\"") + actor + "\",\"cat\":\"compute\""),
              std::string::npos)
        << actor;
}

}  // namespace
}  // namespace spi::obs
