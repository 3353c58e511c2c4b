#include "core/text_format.hpp"

#include <gtest/gtest.h>

#include "core/pipeline.hpp"
#include "sched/sync_dot.hpp"

namespace spi::core {
namespace {

constexpr const char* kSample = R"(
# an LPC-like front end
graph frontend
procs 3
actor Src  exec=32
actor Filt exec=128
actor Sink exec=16
edge Src:2 -> Filt:3 delay=1 bytes=4
edge Filt:dyn8 -> Sink:dyn8 bytes=8
proc Filt = 1
proc Sink = 2
)";

TEST(TextFormat, ParsesSample) {
  const ParsedSystem parsed = parse_system(kSample);
  EXPECT_EQ(parsed.graph.name(), "frontend");
  ASSERT_EQ(parsed.graph.actor_count(), 3u);
  ASSERT_EQ(parsed.graph.edge_count(), 2u);
  EXPECT_EQ(parsed.assignment.proc_count(), 3);

  const df::ActorId filt = parsed.graph.find_actor("Filt");
  EXPECT_EQ(parsed.graph.actor(filt).exec_cycles, 128);
  EXPECT_EQ(parsed.assignment.proc_of(filt), 1);
  EXPECT_EQ(parsed.assignment.proc_of(parsed.graph.find_actor("Src")), 0);  // default

  const df::Edge& e0 = parsed.graph.edge(0);
  EXPECT_EQ(e0.prod.value(), 2);
  EXPECT_EQ(e0.cons.value(), 3);
  EXPECT_EQ(e0.delay, 1);
  EXPECT_EQ(e0.token_bytes, 4);
  const df::Edge& e1 = parsed.graph.edge(1);
  EXPECT_TRUE(e1.is_dynamic());
  EXPECT_EQ(e1.prod.bound(), 8);
}

TEST(TextFormat, DefaultsAndMinimal) {
  const ParsedSystem parsed = parse_system("actor A\nactor B\nedge A -> B\n");
  EXPECT_EQ(parsed.graph.name(), "parsed");
  EXPECT_EQ(parsed.assignment.proc_count(), 1);
  EXPECT_EQ(parsed.graph.edge(0).prod.value(), 1);
  EXPECT_EQ(parsed.graph.edge(0).token_bytes, 4);
}

TEST(TextFormat, ForwardReferencesAllowed) {
  const ParsedSystem parsed =
      parse_system("edge A -> B\nactor A\nactor B\n");
  EXPECT_EQ(parsed.graph.edge_count(), 1u);
}

TEST(TextFormat, DerivesProcCountFromAssignments) {
  const ParsedSystem parsed = parse_system("actor A\nactor B\nproc B = 4\n");
  EXPECT_EQ(parsed.assignment.proc_count(), 5);
}

TEST(TextFormat, ErrorsCarryLineNumbers) {
  const auto expect_error = [](const char* text, const char* fragment) {
    try {
      (void)parse_system(text);
      FAIL() << "expected parse error for: " << text;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos) << e.what();
    }
  };
  expect_error("bogus A\n", "unknown keyword");
  expect_error("actor A\nactor A\n", "duplicate actor");
  expect_error("actor A\nedge A -> Z\n", "unknown actor 'Z'");
  expect_error("actor A\nactor B\nedge A -> B weird=1\n", "unknown edge attribute");
  expect_error("actor A exec=banana\n", "invalid exec");
  expect_error("edge A > B\n", "usage: edge");
  expect_error("proc A 0\n", "usage: proc");
  expect_error("procs 0\n", "must be positive");
  expect_error("actor A\nprocs 1\nproc A = 3\n", "exceeds declared procs");
  expect_error("proc Ghost = 0\n", "unknown actor 'Ghost'");
  expect_error("actor A\nactor B\nedge A:dynX -> B\n", "invalid dynamic bound");
}

TEST(TextFormat, RoundTripsThroughToText) {
  const ParsedSystem first = parse_system(kSample);
  const std::string rendered = to_text(first.graph, first.assignment);
  const ParsedSystem second = parse_system(rendered);
  EXPECT_EQ(second.graph.actor_count(), first.graph.actor_count());
  EXPECT_EQ(second.graph.edge_count(), first.graph.edge_count());
  for (std::size_t a = 0; a < first.graph.actor_count(); ++a) {
    const auto id = static_cast<df::ActorId>(a);
    EXPECT_EQ(second.graph.actor(id).name, first.graph.actor(id).name);
    EXPECT_EQ(second.graph.actor(id).exec_cycles, first.graph.actor(id).exec_cycles);
    EXPECT_EQ(second.assignment.proc_of(id), first.assignment.proc_of(id));
  }
  for (std::size_t e = 0; e < first.graph.edge_count(); ++e) {
    const auto id = static_cast<df::EdgeId>(e);
    EXPECT_EQ(second.graph.edge(id).prod, first.graph.edge(id).prod);
    EXPECT_EQ(second.graph.edge(id).cons, first.graph.edge(id).cons);
    EXPECT_EQ(second.graph.edge(id).delay, first.graph.edge(id).delay);
    EXPECT_EQ(second.graph.edge(id).token_bytes, first.graph.edge(id).token_bytes);
  }
}

TEST(TextFormat, ParsedSystemCompiles) {
  const ParsedSystem parsed = parse_system(kSample);
  const ExecutablePlan plan = compile_plan(parsed.graph, parsed.assignment);
  EXPECT_EQ(plan.channels.size(), 2u);
}

TEST(TextFormat, PlanJsonIsWellFormed) {
  const ParsedSystem parsed = parse_system(kSample);
  const ExecutablePlan plan = compile_plan(parsed.graph, parsed.assignment);
  const std::string json = plan.to_json();
  EXPECT_NE(json.find("\"graph\": \"frontend\""), std::string::npos);
  EXPECT_NE(json.find("\"SPI_dynamic\""), std::string::npos);
  EXPECT_NE(json.find("\"channels\": ["), std::string::npos);
  std::size_t opens = 0, closes = 0, brackets = 0;
  for (char c : json) {
    if (c == '{') ++opens;
    if (c == '}') ++closes;
    if (c == '[' || c == ']') ++brackets;
  }
  EXPECT_EQ(opens, closes);
  EXPECT_EQ(brackets % 2, 0u);
}

TEST(SyncDot, RendersClustersAndKinds) {
  const ParsedSystem parsed = parse_system(kSample);
  const ExecutablePlan plan = compile_plan(parsed.graph, parsed.assignment);
  const std::string dot = sched::to_dot(plan.sync_graph);
  EXPECT_NE(dot.find("cluster_p0"), std::string::npos);
  EXPECT_NE(dot.find("cluster_p2"), std::string::npos);
  EXPECT_NE(dot.find("color=blue"), std::string::npos);  // IPC edges present
  EXPECT_NE(dot.find("digraph sync"), std::string::npos);
  // Elided edges appear grey when shown, disappear when hidden.
  if (dot.find("elided") != std::string::npos) {
    const std::string hidden = sched::to_dot(plan.sync_graph, /*show_removed=*/false);
    EXPECT_EQ(hidden.find("elided"), std::string::npos);
  }
}

}  // namespace
}  // namespace spi::core
