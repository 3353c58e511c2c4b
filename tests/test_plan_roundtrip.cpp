/// Property test of the ExecutablePlan serialization contract: for
/// randomized consistent dataflow systems, compile -> to_json ->
/// from_json must reproduce the plan *exactly* — byte-identical
/// re-serialization, and identical execution on every engine (channel
/// counters of colocated and gang runs, timed message counts and
/// makespan) when the deserialized plan is run instead of the compiled
/// one.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "core/job_instance.hpp"
#include "core/pipeline.hpp"
#include "core/plan.hpp"
#include "dsp/rng.hpp"

namespace spi {
namespace {

/// Random consistent, deadlock-free system (same construction as
/// test_random_systems.cpp: rates derived from hidden repetition counts,
/// topological backbone, feedback only with delay).
struct RandomSystem {
  df::Graph graph{"random"};
  sched::Assignment assignment{0, 1};
};

RandomSystem make_random_system(dsp::Rng& rng) {
  RandomSystem rs;
  const int actors = static_cast<int>(rng.uniform_int(2, 9));
  std::vector<std::int64_t> hidden;
  for (int i = 0; i < actors; ++i) {
    rs.graph.add_actor("a" + std::to_string(i), rng.uniform_int(5, 60));
    hidden.push_back(rng.uniform_int(1, 3));
  }
  for (int i = 0; i + 1 < actors; ++i) {
    const auto u = static_cast<df::ActorId>(i);
    const auto v = static_cast<df::ActorId>(i + 1);
    const std::int64_t k = rng.uniform_int(1, 2);
    rs.graph.connect(u, df::Rate::fixed(k * hidden[static_cast<std::size_t>(v)]), v,
                     df::Rate::fixed(k * hidden[static_cast<std::size_t>(u)]),
                     rng.uniform_int(0, 2), rng.uniform_int(1, 16));
  }
  const int extra = static_cast<int>(rng.uniform_int(0, 6));
  for (int e = 0; e < extra; ++e) {
    const auto u = static_cast<df::ActorId>(rng.uniform_int(0, actors - 1));
    const auto v = static_cast<df::ActorId>(rng.uniform_int(0, actors - 1));
    if (u == v) continue;
    const bool forward = u < v;
    const bool dynamic = rng.uniform_int(0, 2) == 0;
    if (dynamic) {
      if (hidden[static_cast<std::size_t>(u)] != hidden[static_cast<std::size_t>(v)]) continue;
      if (hidden[static_cast<std::size_t>(u)] != 1) continue;
      rs.graph.connect(u, df::Rate::dynamic(rng.uniform_int(2, 12)), v,
                       df::Rate::dynamic(rng.uniform_int(2, 12)),
                       forward ? rng.uniform_int(0, 1) : rng.uniform_int(1, 3),
                       rng.uniform_int(1, 8));
    } else {
      const std::int64_t k = rng.uniform_int(1, 2);
      rs.graph.connect(u, df::Rate::fixed(k * hidden[static_cast<std::size_t>(v)]), v,
                       df::Rate::fixed(k * hidden[static_cast<std::size_t>(u)]),
                       forward ? rng.uniform_int(0, 2) : rng.uniform_int(1, 4),
                       rng.uniform_int(1, 16));
    }
  }

  const auto procs = static_cast<std::int32_t>(rng.uniform_int(1, 4));
  rs.assignment = sched::Assignment(rs.graph.actor_count(), procs);
  for (int i = 0; i < actors; ++i)
    rs.assignment.assign(static_cast<df::ActorId>(i),
                         static_cast<sched::Proc>(rng.uniform_int(0, procs - 1)));
  return rs;
}

class PlanRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PlanRoundTrip, SerializeDeserializeRunIdentical) {
  dsp::Rng rng(GetParam());
  for (int round = 0; round < 6; ++round) {
    RandomSystem rs = make_random_system(rng);
    core::ExecutablePlan compiled;
    try {
      compiled = core::compile_plan(rs.graph, rs.assignment);
    } catch (const std::invalid_argument&) {
      continue;  // rare inconsistent composition, cleanly rejected
    }

    // The serialization itself is lossless: a plan re-serialized after a
    // round trip is byte-identical (this also pins the golden-file
    // format — any change shows up here before it breaks the goldens).
    const std::string json = compiled.to_json();
    const core::ExecutablePlan loaded = core::ExecutablePlan::from_json(json);
    EXPECT_EQ(loaded.to_json(), json) << "seed " << GetParam();

    EXPECT_EQ(loaded.graph_name, compiled.graph_name);
    EXPECT_EQ(loaded.messages_per_iteration, compiled.messages_per_iteration);
    ASSERT_EQ(loaded.channels.size(), compiled.channels.size());

    // Both plans run with the default computes, the compiled one
    // colocated, the loaded one colocated and as a gang: every channel
    // must carry the same messages and the same bytes.
    const auto channel_traffic = [](const core::ExecutablePlan& plan, bool gang) {
      core::JobInstance runtime(plan);
      if (gang)
        runtime.run(4);
      else
        runtime.run_colocated(4);
      std::vector<std::pair<std::int64_t, std::int64_t>> traffic;
      for (const core::ChannelSpec& spec : plan.channels) {
        const obs::Labels labels{{"channel", spec.name}};
        traffic.emplace_back(
            runtime.metrics().counter_value("spi_threaded_messages_total", labels),
            runtime.metrics().counter_value("spi_threaded_payload_bytes_total", labels));
      }
      return traffic;
    };
    const auto original = channel_traffic(compiled, false);
    EXPECT_EQ(channel_traffic(loaded, false), original) << "seed " << GetParam();
    EXPECT_EQ(channel_traffic(loaded, true), original) << "seed " << GetParam();

    // Timed execution from each plan's own backend: identical message
    // counts, wire bytes and makespan.
    sim::TimedExecutorOptions options;
    options.iterations = 25;
    const auto backend_a = compiled.make_backend();
    const auto backend_b = loaded.make_backend();
    const sim::ExecStats a = core::run_timed(compiled, *backend_a, options);
    const sim::ExecStats b = core::run_timed(loaded, *backend_b, options);
    EXPECT_EQ(b.data_messages, a.data_messages) << "seed " << GetParam();
    EXPECT_EQ(b.sync_messages, a.sync_messages) << "seed " << GetParam();
    EXPECT_EQ(b.wire_bytes, a.wire_bytes) << "seed " << GetParam();
    EXPECT_EQ(b.makespan, a.makespan) << "seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlanRoundTrip,
                         ::testing::Values(101, 202, 303, 404, 505, 606, 707, 808));

TEST(PlanRoundTrip, ValidateRejectsCorruptPlans) {
  df::Graph g("v");
  const df::ActorId a = g.add_actor("A", 10);
  const df::ActorId b = g.add_actor("B", 20);
  g.connect_simple(a, b, 0, 8);
  sched::Assignment assignment(2, 2);
  assignment.assign(b, 1);
  const core::ExecutablePlan plan = core::compile_plan(g, assignment);
  ASSERT_NO_THROW(plan.validate());

  {
    core::ExecutablePlan broken = core::ExecutablePlan::from_json(plan.to_json());
    broken.messages_per_iteration += 1;
    EXPECT_THROW(broken.validate(), std::invalid_argument);
  }
  {
    core::ExecutablePlan broken = core::ExecutablePlan::from_json(plan.to_json());
    broken.proc_of_actor.pop_back();
    EXPECT_THROW(broken.validate(), std::invalid_argument);
  }
  {
    core::ExecutablePlan broken = core::ExecutablePlan::from_json(plan.to_json());
    ASSERT_FALSE(broken.channels.empty());
    broken.channels[0].edge += 40;  // no such edge in the graph
    EXPECT_THROW(broken.rebuild_channel_index(), std::invalid_argument);
  }
}

/// A program step's edge lists are what JobInstance::fire indexes its
/// per-edge channels with: a loaded plan whose step names an edge past
/// the graph, another actor's edge, or an id that only fits after 32-bit
/// wraparound must be rejected, never executed.
TEST(PlanRoundTrip, ValidateRejectsStepEdgesOutsideTheActor) {
  df::Graph g("steps");
  const df::ActorId a = g.add_actor("A", 10);
  const df::ActorId b = g.add_actor("B", 20);
  const df::ActorId c = g.add_actor("C", 5);
  g.connect_simple(a, b, 0, 8);
  g.connect_simple(b, c, 0, 8);
  sched::Assignment assignment(3, 3);
  assignment.assign(b, 1);
  assignment.assign(c, 2);
  const core::ExecutablePlan plan = core::compile_plan(g, assignment);
  const std::string json = plan.to_json();
  const std::string step_b = "{\"actor\": 1, \"invocation\": 0, \"in\": [0], \"out\": [1]}";
  const std::size_t at = json.find(step_b);
  ASSERT_NE(at, std::string::npos) << "step encoding changed; update this test";

  const auto tampered = [&](const std::string& in, const std::string& out) {
    std::string text = json;
    text.replace(at, step_b.size(),
                 "{\"actor\": 1, \"invocation\": 0, \"in\": " + in + ", \"out\": " + out + "}");
    return text;
  };
  const std::string edge_count = std::to_string(plan.vts.graph.edge_count());
  ASSERT_NO_THROW((void)core::ExecutablePlan::from_json(tampered("[0]", "[1]")));
  EXPECT_THROW((void)core::ExecutablePlan::from_json(tampered("[" + edge_count + "]", "[1]")),
               std::invalid_argument);
  EXPECT_THROW((void)core::ExecutablePlan::from_json(tampered("[0]", "[" + edge_count + "]")),
               std::invalid_argument);
  // Edge 1 is C's input, edge 0 is A's output.
  EXPECT_THROW((void)core::ExecutablePlan::from_json(tampered("[1]", "[1]")),
               std::invalid_argument);
  EXPECT_THROW((void)core::ExecutablePlan::from_json(tampered("[0]", "[0]")),
               std::invalid_argument);
  EXPECT_THROW((void)core::ExecutablePlan::from_json(tampered("[]", "[1]")),
               std::invalid_argument);
  EXPECT_THROW((void)core::ExecutablePlan::from_json(tampered("[0, 0]", "[1]")),
               std::invalid_argument);
  // 2^32 wraps to edge 0 under an unchecked narrowing.
  EXPECT_THROW((void)core::ExecutablePlan::from_json(tampered("[4294967296]", "[1]")),
               std::invalid_argument);

  core::ExecutablePlan broken = plan;
  broken.programs[1].front().in_edges = {static_cast<df::EdgeId>(plan.vts.graph.edge_count())};
  EXPECT_THROW(broken.validate(), std::invalid_argument);
}

/// The runtime allocates each channel's ring as capacity x frame bound
/// bytes from the loaded plan: a tampered b_max whose product wraps (or
/// is merely absurd) must be rejected at load, never allocated.
TEST(PlanRoundTrip, FromJsonRejectsAHostileChannelSlab) {
  df::Graph g("slab");
  const df::ActorId a = g.add_actor("A", 10);
  const df::ActorId b = g.add_actor("B", 10);
  const df::EdgeId e =
      g.connect(a, df::Rate::dynamic(8), b, df::Rate::dynamic(8), /*delay=*/4, sizeof(double));
  sched::Assignment assignment(2, 2);
  assignment.assign(b, 1);
  const core::ExecutablePlan plan = core::compile_plan(g, assignment);
  ASSERT_EQ(plan.channels.size(), 1u);
  ASSERT_TRUE(plan.vts.edges[static_cast<std::size_t>(e)].converted);
  ASSERT_GE(plan.channels.front().capacity_tokens(), 4);

  const std::string json = plan.to_json();
  const std::string key =
      "\"converted\": true, \"b_max_bytes\": " +
      std::to_string(plan.vts.edges[static_cast<std::size_t>(e)].b_max_bytes) + ",";
  const std::size_t at = json.find(key);
  ASSERT_NE(at, std::string::npos) << "edge encoding changed; update this test";
  ASSERT_NO_THROW((void)core::ExecutablePlan::from_json(json));

  const auto tampered = [&](const std::string& b_max) {
    std::string text = json;
    text.replace(at, key.size(), "\"converted\": true, \"b_max_bytes\": " + b_max + ",");
    return text;
  };
  // 2^62 bytes per slot: capacity x frame bound wraps size_t.
  EXPECT_THROW((void)core::ExecutablePlan::from_json(tampered("4611686018427387904")),
               std::invalid_argument);
  // No wrap, but far past any sane slab.
  EXPECT_THROW((void)core::ExecutablePlan::from_json(tampered("1099511627776")),
               std::invalid_argument);
  EXPECT_THROW((void)core::ExecutablePlan::from_json(tampered("-1")), std::invalid_argument);
}

std::string golden_plan(const std::string& name) {
  std::ifstream file(std::string(SPI_GOLDEN_DIR) + "/" + name);
  std::stringstream text;
  text << file.rdbuf();
  return text.str();
}

/// `json` with every occurrence of `from` replaced by `to`.
std::string edited(std::string json, const std::string& from, const std::string& to) {
  std::size_t at = json.find(from);
  EXPECT_NE(at, std::string::npos) << "plan encoding changed; update this test: " << from;
  for (; at != std::string::npos; at = json.find(from, at + to.size()))
    json.replace(at, from.size(), to);
  return json;
}

/// from_json's std::invalid_argument message, or "" when the plan loads.
std::string load_error(const std::string& json) {
  try {
    (void)core::ExecutablePlan::from_json(json);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

// Hostile but well-formed edits of the golden plans: the colocated run
// walks the PASS on one thread, so a PASS that consumes before anything
// is produced, or a ring too small for one firing's tokens, would wait
// on itself forever. validate() replays the PASS on token counts and
// rejects both at load, naming the firing and the edge.
TEST(PlanRoundTrip, FromJsonReplaysThePassOfThreadedPipeline) {
  const std::string json = golden_plan("threaded_pipeline.plan.json");
  ASSERT_EQ(load_error(json), "");

  const std::string reversed =
      load_error(edited(json, "\"firings\": [0, 1, 2]", "\"firings\": [2, 1, 0]"));
  EXPECT_NE(reversed.find("PASS firing 0 (Sink) finds 0 of its 32 tokens"), std::string::npos)
      << reversed;
  EXPECT_NE(reversed.find("Filter->Sink"), std::string::npos) << reversed;

  const std::string one_token =
      load_error(edited(json, "\"prod_tokens\": 32", "\"prod_tokens\": 1"));
  EXPECT_NE(one_token.find("PASS firing 0 (Source) overfills the ring capacity of 1 tokens"),
            std::string::npos)
      << one_token;
  EXPECT_NE(one_token.find("Source->Filter"), std::string::npos) << one_token;
}

TEST(PlanRoundTrip, FromJsonReplaysThePassOfSpeechErrorgen) {
  const std::string json = golden_plan("speech_errorgen.plan.json");
  ASSERT_EQ(load_error(json), "");

  const std::string reversed =
      load_error(edited(json, "\"firings\": [0, 1, 2, 4, 5, 6, 7, 3]",
                        "\"firings\": [3, 7, 6, 5, 4, 2, 1, 0]"));
  EXPECT_NE(reversed.find("PASS firing 0 (Huff) finds 0 of its 1 tokens"), std::string::npos)
      << reversed;
  EXPECT_NE(reversed.find("D0->Huff"), std::string::npos) << reversed;

  // Every channel of this plan already produces one token per firing, so
  // setting every prod_tokens to 1 changes nothing and the plan loads.
  EXPECT_EQ(load_error(edited(json, "\"prod_tokens\": 1", "\"prod_tokens\": 1")), "");
  // The same overfill on this plan: Read emits two tokens per firing
  // into Read->D0, whose ring holds one.
  const std::string overfill =
      load_error(edited(json, "{\"src\": 0, \"snk\": 4, \"prod\": 1,",
                        "{\"src\": 0, \"snk\": 4, \"prod\": 2,"));
  EXPECT_NE(overfill.find("PASS firing 0 (Read) overfills the ring capacity of 1 tokens"),
            std::string::npos)
      << overfill;
  EXPECT_NE(overfill.find("Read->D0"), std::string::npos) << overfill;
  // An unbalanced local edge: Read emits 2 tokens per firing into
  // Read->Fft, whose consumer takes 1, so every period would pile one up.
  const std::string unbalanced =
      load_error(edited(json, "{\"src\": 0, \"snk\": 1, \"prod\": 1,",
                        "{\"src\": 0, \"snk\": 1, \"prod\": 2,"));
  EXPECT_NE(unbalanced.find("the PASS period leaves 1 tokens on edge 0 (Read->Fft), not its 0 "
                            "delay tokens"),
            std::string::npos)
      << unbalanced;
}

TEST(PlanRoundTrip, FromJsonRejectsMalformedDocuments) {
  EXPECT_THROW((void)core::ExecutablePlan::from_json(""), std::invalid_argument);
  EXPECT_THROW((void)core::ExecutablePlan::from_json("{"), std::invalid_argument);
  EXPECT_THROW((void)core::ExecutablePlan::from_json("[1, 2]"), std::invalid_argument);
  EXPECT_THROW((void)core::ExecutablePlan::from_json(R"({"schema": 99})"),
               std::invalid_argument);
}

TEST(PlanRoundTrip, ChannelIndexMatchesLinearScan) {
  df::Graph g("idx");
  const df::ActorId a = g.add_actor("A", 10);
  const df::ActorId b = g.add_actor("B", 10);
  const df::ActorId c = g.add_actor("C", 10);
  g.connect_simple(a, b, 0, 8);
  g.connect_simple(b, c, 0, 8);
  g.connect_simple(a, c, 1, 4);
  sched::Assignment assignment(3, 3);
  assignment.assign(b, 1);
  assignment.assign(c, 2);
  const core::ExecutablePlan plan = core::compile_plan(g, assignment);
  for (const core::ChannelSpec& spec : plan.channels) {
    EXPECT_EQ(&plan.channel_for(spec.edge), &spec);
    ASSERT_NE(plan.find_channel(spec.edge), nullptr);
    EXPECT_EQ(plan.find_channel(spec.edge)->edge, spec.edge);
  }
  // A processor-local edge has no channel.
  EXPECT_THROW((void)plan.channel_for(static_cast<df::EdgeId>(999)), std::out_of_range);
  EXPECT_EQ(plan.find_channel(static_cast<df::EdgeId>(999)), nullptr);
}

/// Two dataflow edges between the same pair of firings on different
/// processors: each needs its own channel, or the second one would be a
/// local FIFO that two gang workers share. (The random sweep's seed 5005
/// found this shape.)
TEST(PlanRoundTrip, ParallelInterprocessorEdgesEachGetAChannel) {
  df::Graph g("parallel");
  const df::ActorId a = g.add_actor("a0", 10);
  const df::ActorId b = g.add_actor("a1", 10);
  const df::EdgeId wide = g.connect(a, df::Rate::fixed(4), b, df::Rate::fixed(2), 2, 3);
  const df::EdgeId narrow = g.connect(a, df::Rate::fixed(2), b, df::Rate::fixed(1), 1, 5);
  sched::Assignment assignment(2, 3);
  assignment.assign(a, 1);
  assignment.assign(b, 2);
  const core::ExecutablePlan plan =
      core::ExecutablePlan::from_json(core::compile_plan(g, assignment).to_json());
  ASSERT_EQ(plan.channels.size(), 2u);
  EXPECT_NE(plan.find_channel(wide), nullptr);
  EXPECT_NE(plan.find_channel(narrow), nullptr);

  // a0 stamps each token with its firing and position; a1 logs what it
  // gets. The gang must deliver exactly what the colocated walk does.
  const auto received = [&](bool gang) {
    core::JobInstance runtime(plan);
    runtime.set_compute(a, [](core::FiringContext& ctx) {
      for (std::size_t slot = 0; slot < ctx.out_edges.size(); ++slot) {
        const std::size_t count = slot == 0 ? 4 : 2;
        const std::size_t bytes = slot == 0 ? 3 : 5;
        for (std::size_t t = 0; t < count; ++t)
          ctx.emit(slot).assign(bytes, static_cast<std::uint8_t>(ctx.invocation * 8 + t));
      }
    });
    std::vector<std::uint8_t> log;
    runtime.set_compute(b, [&log](core::FiringContext& ctx) {
      for (const auto& tokens : ctx.inputs)
        for (const core::Bytes& token : tokens) log.insert(log.end(), token.begin(), token.end());
    });
    if (gang)
      runtime.run(12);
    else
      runtime.run_colocated(12);
    return log;
  };
  const std::vector<std::uint8_t> colocated = received(false);
  EXPECT_EQ(colocated.size(), 12u * (4 * 3 + 2 * 5));
  for (int round = 0; round < 20; ++round) ASSERT_EQ(received(true), colocated);
}

TEST(PlanRoundTrip, ValidateRejectsAnInterprocessorEdgeWithoutAChannel) {
  const core::ExecutablePlan golden =
      core::ExecutablePlan::from_json(golden_plan("threaded_pipeline.plan.json"));
  ASSERT_FALSE(golden.channels.empty());
  core::ExecutablePlan plan = golden;
  plan.channels.erase(plan.channels.begin());
  plan.rebuild_channel_index();
  EXPECT_THROW(plan.validate(), std::invalid_argument);
  const std::string error = load_error(plan.to_json());
  EXPECT_NE(error.find("interprocessor edge has no channel"), std::string::npos) << error;

  // Nor can an assignment that disagrees with the programs hide such an
  // edge: the sink claims its source's processor but runs on its own.
  core::ExecutablePlan moved = golden;
  const df::Edge& edge = moved.vts.graph.edge(golden.channels.front().edge);
  moved.proc_of_actor[static_cast<std::size_t>(edge.snk)] =
      moved.proc_of_actor[static_cast<std::size_t>(edge.src)];
  const std::string moved_error = load_error(moved.to_json());
  EXPECT_NE(moved_error.find("program step runs on a processor its actor is not assigned to"),
            std::string::npos)
      << moved_error;
}

}  // namespace
}  // namespace spi
