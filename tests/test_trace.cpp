#include "sim/trace.hpp"

#include <gtest/gtest.h>

#include "core/pipeline.hpp"

namespace spi::sim {
namespace {

/// Runs a 3-processor pipeline with a recorder attached.
struct TracedRun {
  TraceRecorder trace;
  ExecStats stats;
  std::int64_t iterations = 8;

  TracedRun() {
    df::Graph g("traced");
    const df::ActorId a = g.add_actor("Alpha", 10);
    const df::ActorId b = g.add_actor("Beta", 20);
    const df::ActorId c = g.add_actor("Gamma", 5);
    g.connect_simple(a, b, 0, 16);
    g.connect_simple(b, c, 0, 16);
    sched::Assignment assignment(3, 3);
    assignment.assign(b, 1);
    assignment.assign(c, 2);
    const core::ExecutablePlan plan = core::compile_plan(g, assignment);
    TimedExecutorOptions options;
    options.iterations = iterations;
    options.trace = &trace;
    stats = core::run_timed(plan, *plan.make_backend(), options);
  }
};

TEST(Trace, RecordsEveryFiring) {
  TracedRun run;
  EXPECT_EQ(run.trace.firings().size(), static_cast<std::size_t>(3 * run.iterations));
  for (const FiringRecord& f : run.trace.firings()) {
    EXPECT_LT(f.start, f.end);
    EXPECT_GE(f.iteration, 0);
    EXPECT_LT(f.iteration, run.iterations);
    EXPECT_FALSE(f.name.empty());
  }
}

TEST(Trace, FiringsPerPeDoNotOverlap) {
  TracedRun run;
  for (std::int32_t pe = 0; pe < 3; ++pe) {
    std::vector<std::pair<SimTime, SimTime>> intervals;
    for (const FiringRecord& f : run.trace.firings())
      if (f.pe == pe) intervals.emplace_back(f.start, f.end);
    std::sort(intervals.begin(), intervals.end());
    for (std::size_t i = 1; i < intervals.size(); ++i)
      EXPECT_GE(intervals[i].first, intervals[i - 1].second) << "overlap on PE " << pe;
  }
}

TEST(Trace, MessagesHaveCausalTimestamps) {
  TracedRun run;
  EXPECT_GT(run.trace.messages().size(), 0u);
  for (const MessageRecord& m : run.trace.messages()) {
    EXPECT_LT(m.send_time, m.arrival_time);
    EXPECT_GT(m.wire_bytes, 0);
    EXPECT_NE(m.src_pe, m.dst_pe);
  }
}

TEST(Trace, MakespanConsistentWithRecords) {
  TracedRun run;
  SimTime last_end = 0;
  for (const FiringRecord& f : run.trace.firings()) last_end = std::max(last_end, f.end);
  EXPECT_EQ(last_end, run.stats.makespan);
}

TEST(Trace, AsciiGanttShapes) {
  TracedRun run;
  const std::string gantt = to_ascii_gantt(run.trace, 3, run.stats.makespan, 80);
  EXPECT_NE(gantt.find("PE0 |"), std::string::npos);
  EXPECT_NE(gantt.find("PE2 |"), std::string::npos);
  EXPECT_NE(gantt.find('A'), std::string::npos);  // Alpha firings drawn
  EXPECT_NE(gantt.find("legend:"), std::string::npos);
  // Every row has exactly the requested width between the pipes.
  const std::size_t row_start = gantt.find("PE0 |") + 5;
  EXPECT_EQ(gantt.find('|', row_start) - row_start, 80u);
  // Degenerate time windows still render a well-formed (all idle) chart.
  const std::string zero_window = to_ascii_gantt(run.trace, 3, 0, 80);
  EXPECT_NE(zero_window.find("PE0 |"), std::string::npos);
  EXPECT_NE(zero_window.find("legend:"), std::string::npos);
  EXPECT_TRUE(to_ascii_gantt(run.trace, 3, run.stats.makespan, 0).empty());
  EXPECT_TRUE(to_ascii_gantt(run.trace, 0, run.stats.makespan, 80).empty());
}

TEST(Trace, EmptyTraceRendersWellFormed) {
  const TraceRecorder empty;
  const std::string gantt = to_ascii_gantt(empty, 4, 0, 40);
  EXPECT_NE(gantt.find("PE0 |"), std::string::npos);
  EXPECT_NE(gantt.find("PE3 |"), std::string::npos);
  EXPECT_NE(gantt.find("legend:\n"), std::string::npos);  // no tasks drawn
  // Every row is pure idle at the requested width.
  const std::size_t row_start = gantt.find("PE0 |") + 5;
  EXPECT_EQ(gantt.substr(row_start, 40), std::string(40, '.'));

  const std::string vcd = to_vcd(empty, 4);
  EXPECT_NE(vcd.find("$enddefinitions $end"), std::string::npos);
  EXPECT_NE(vcd.find("$var wire 1 b3 pe3_busy $end"), std::string::npos);
  EXPECT_NE(vcd.find("#0"), std::string::npos);
  EXPECT_EQ(vcd.find("\n1b"), std::string::npos);  // no busy edges at all
}

TEST(Trace, PeCountLargerThanRecordedPes) {
  TracedRun run;  // records PEs 0..2
  const std::string gantt = to_ascii_gantt(run.trace, 6, run.stats.makespan, 60);
  EXPECT_NE(gantt.find("PE5 |"), std::string::npos);
  const std::size_t row_start = gantt.find("PE5 |") + 5;
  EXPECT_EQ(gantt.substr(row_start, 60), std::string(60, '.'));  // idle extra row
  const std::string vcd = to_vcd(run.trace, 6);
  EXPECT_NE(vcd.find("$var wire 1 b5 pe5_busy $end"), std::string::npos);
}

TEST(Trace, VcdSkipsFiringsOnUndeclaredPes) {
  TraceRecorder trace;
  trace.record_firing(FiringRecord{1, 0, 0, 0, 5, "A"});
  trace.record_firing(FiringRecord{2, 7, 0, 2, 9, "B"});  // PE 7 not declared below
  const std::string vcd = to_vcd(trace, 2);
  EXPECT_NE(vcd.find("1b0"), std::string::npos);            // declared PE toggles
  EXPECT_EQ(vcd.find("1b7"), std::string::npos);            // undeclared PE skipped
  EXPECT_EQ(vcd.find("$var wire 1 b7"), std::string::npos);
  // The gantt also confines itself to declared rows.
  const std::string gantt = to_ascii_gantt(trace, 2, 10, 20);
  EXPECT_EQ(gantt.find("B=B"), std::string::npos);  // not drawn, not in legend
  EXPECT_NE(gantt.find("A=A"), std::string::npos);
}

TEST(Trace, ChromeJsonWellFormedEnough) {
  TracedRun run;
  const std::string json = to_chrome_trace_json(run.trace);
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json[json.size() - 2], ']');
  // Balanced braces and one event object per record.
  std::size_t opens = 0, closes = 0, events = 0;
  for (char c : json) {
    if (c == '{') ++opens;
    if (c == '}') ++closes;
  }
  EXPECT_EQ(opens, closes);
  events = run.trace.firings().size() + run.trace.messages().size();
  std::size_t ph_count = 0;
  for (std::size_t pos = json.find("\"ph\""); pos != std::string::npos;
       pos = json.find("\"ph\"", pos + 1))
    ++ph_count;
  EXPECT_EQ(ph_count, events);
}

TEST(Trace, VcdWellFormed) {
  TracedRun run;
  const std::string vcd = to_vcd(run.trace, 3);
  EXPECT_NE(vcd.find("$timescale 1ns $end"), std::string::npos);
  EXPECT_NE(vcd.find("$var wire 1 b0 pe0_busy $end"), std::string::npos);
  EXPECT_NE(vcd.find("$var reg 8 t2 pe2_task [7:0] $end"), std::string::npos);
  EXPECT_NE(vcd.find("$enddefinitions $end"), std::string::npos);
  // Every firing contributes a rising and falling busy edge.
  std::size_t rises = 0, falls = 0;
  for (std::size_t pos = 0; (pos = vcd.find("\n1b", pos)) != std::string::npos; ++pos) ++rises;
  for (std::size_t pos = 0; (pos = vcd.find("\n0b", pos)) != std::string::npos; ++pos) ++falls;
  EXPECT_EQ(rises, run.trace.firings().size());
  EXPECT_EQ(falls, run.trace.firings().size() + 3);  // + the #0 initial zeros
  // Timestamps must be non-decreasing.
  SimTime last = -1;
  for (std::size_t pos = vcd.find("\n#"); pos != std::string::npos; pos = vcd.find("\n#", pos + 1)) {
    const SimTime t = std::stoll(vcd.substr(pos + 2));
    EXPECT_GE(t, last);
    last = t;
  }
}

TEST(Trace, ClearResets) {
  TracedRun run;
  run.trace.clear();
  EXPECT_TRUE(run.trace.firings().empty());
  EXPECT_TRUE(run.trace.messages().empty());
}

}  // namespace
}  // namespace spi::sim
