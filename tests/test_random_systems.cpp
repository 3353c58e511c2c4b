/// Randomized end-to-end sweep: generate random consistent dataflow
/// graphs (mixed static/dynamic rates, delays, feedback), random
/// assignments, and push each through the entire pipeline — compile,
/// analyze, execute colocated, as a gang and timed — asserting the
/// global invariants hold on every one. This is the fuzzer that guards
/// the interactions no hand-written test enumerates.
#include <gtest/gtest.h>

#include "core/job_instance.hpp"
#include "core/pipeline.hpp"
#include "dsp/rng.hpp"
#include "mpi/mpi_backend.hpp"

namespace spi {
namespace {

struct RandomSystem {
  df::Graph graph{"random"};
  sched::Assignment assignment{0, 1};
};

/// Builds a random graph that is consistent by construction (rates
/// derived from hidden repetition counts) and deadlock-free (a
/// topological backbone; feedback edges always carry delay).
RandomSystem make_random_system(dsp::Rng& rng) {
  RandomSystem rs;
  const int actors = static_cast<int>(rng.uniform_int(2, 9));
  std::vector<std::int64_t> hidden;
  for (int i = 0; i < actors; ++i) {
    rs.graph.add_actor("a" + std::to_string(i), rng.uniform_int(5, 60));
    hidden.push_back(rng.uniform_int(1, 3));
  }
  // Backbone chain keeps the graph connected.
  for (int i = 0; i + 1 < actors; ++i) {
    const auto u = static_cast<df::ActorId>(i);
    const auto v = static_cast<df::ActorId>(i + 1);
    const std::int64_t k = rng.uniform_int(1, 2);
    rs.graph.connect(u, df::Rate::fixed(k * hidden[static_cast<std::size_t>(v)]), v,
                     df::Rate::fixed(k * hidden[static_cast<std::size_t>(u)]),
                     rng.uniform_int(0, 2), rng.uniform_int(1, 16));
  }
  // Extra edges: forward static/dynamic, or delayed feedback.
  const int extra = static_cast<int>(rng.uniform_int(0, 6));
  for (int e = 0; e < extra; ++e) {
    const auto u = static_cast<df::ActorId>(rng.uniform_int(0, actors - 1));
    const auto v = static_cast<df::ActorId>(rng.uniform_int(0, actors - 1));
    if (u == v) continue;
    const bool forward = u < v;
    const bool dynamic = rng.uniform_int(0, 2) == 0;
    if (dynamic) {
      // Dynamic edges become rate 1/1 after VTS: repetition-safe only
      // between actors of equal hidden counts.
      if (hidden[static_cast<std::size_t>(u)] != hidden[static_cast<std::size_t>(v)]) continue;
      // Hidden counts must also be 1 to stay consistent with rate-1
      // conversion against the backbone's repetitions.
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

std::uint64_t fnv(std::uint64_t h, std::uint64_t value) {
  for (int i = 0; i < 8; ++i, value >>= 8) h = (h ^ (value & 0xFF)) * 0x100000001B3ull;
  return h;
}

/// Per-actor digests of everything each actor consumed in `iterations`
/// graph iterations, run as a gang or colocated. Every firing hashes its
/// inputs with (actor, invocation) and emits tokens derived from that
/// hash: the edge's exact size on a static edge, a whole number of raw
/// tokens up to b_max on a converted one. A token delivered to the wrong
/// firing, lost or reordered changes a digest.
std::vector<std::uint64_t> input_digests(const core::ExecutablePlan& plan, bool gang,
                                         std::int64_t iterations) {
  constexpr std::uint64_t kBasis = 0xCBF29CE484222325ull;
  const df::Graph& graph = plan.vts.graph;
  std::vector<std::uint64_t> digests(graph.actor_count(), kBasis);
  core::JobInstance runtime(plan);
  for (std::size_t a = 0; a < graph.actor_count(); ++a) {
    // Each digest is touched only by its actor's processor.
    runtime.set_compute(static_cast<df::ActorId>(a), [&plan, &graph, &digest = digests[a]](
                                                         core::FiringContext& ctx) {
      std::uint64_t h = fnv(fnv(kBasis, static_cast<std::uint64_t>(ctx.actor)),
                            static_cast<std::uint64_t>(ctx.invocation));
      for (const std::vector<core::Bytes>& tokens : ctx.inputs)
        for (const core::Bytes& token : tokens) {
          h = fnv(h, token.size());
          for (const std::uint8_t byte : token) h = fnv(h, byte);
        }
      digest = fnv(digest, h);
      for (std::size_t slot = 0; slot < ctx.out_edges.size(); ++slot) {
        const df::EdgeId e = ctx.out_edges[slot];
        const df::VtsEdgeInfo& info = plan.vts.edges[static_cast<std::size_t>(e)];
        for (std::int64_t t = 0; t < graph.edge(e).prod.value(); ++t) {
          const std::uint64_t x = fnv(fnv(h, slot), static_cast<std::uint64_t>(t));
          std::size_t size = static_cast<std::size_t>(graph.edge(e).token_bytes);
          if (info.converted) {  // 0 .. b_max / raw raw tokens
            const auto most = static_cast<std::uint64_t>(info.b_max_bytes / info.raw_token_bytes);
            size = static_cast<std::size_t>(info.raw_token_bytes) * (x % (most + 1));
          }
          core::Bytes& token = ctx.emit(slot);
          for (std::size_t i = 0; i < size; ++i)
            token.push_back(static_cast<std::uint8_t>(x >> (8 * (i % 8))) ^
                            static_cast<std::uint8_t>(i));
        }
      }
    });
  }
  if (gang)
    runtime.run(iterations);
  else
    runtime.run_colocated(iterations);
  return digests;
}

/// Runs `plan` colocated and as a gang with the data-dependent computes
/// and expects bit-identical per-actor input digests.
void expect_gang_matches_colocated(const core::ExecutablePlan& plan, const std::string& where) {
  constexpr std::int64_t kIterations = 6;
  std::vector<std::uint64_t> colocated, gang;
  ASSERT_NO_THROW(colocated = input_digests(plan, false, kIterations)) << where;
  ASSERT_NO_THROW(gang = input_digests(plan, true, kIterations)) << where;
  EXPECT_EQ(gang, colocated) << where;
}

class RandomSystems : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomSystems, FullPipelineInvariants) {
  dsp::Rng rng(GetParam());
  for (int round = 0; round < 8; ++round) {
    RandomSystem rs = make_random_system(rng);

    // Compilation must succeed (graphs are consistent and deadlock-free
    // by construction) or be rejected with a clean diagnostic in the
    // rare compositions where an extra edge breaks consistency.
    core::ExecutablePlan plan;
    try {
      plan = core::compile_plan(rs.graph, rs.assignment);
    } catch (const std::invalid_argument&) {
      continue;  // cleanly rejected; acceptable
    }

    // Analysis invariants.
    EXPECT_TRUE(plan.sync_graph.is_deadlock_free());
    for (const core::ChannelSpec& channel : plan.channels) {
      EXPECT_GT(channel.b_max_bytes, 0);
      EXPECT_GE(channel.c_bytes, channel.b_max_bytes);
      if (channel.bbs_capacity_tokens) {
        EXPECT_GE(*channel.bbs_capacity_tokens, 1);
      }
      EXPECT_GE(channel.acks_total, channel.acks_elided);
    }

    // The plan loads (every interprocessor edge has its channel) and
    // executes data-dependent computes identically on one thread and on
    // one thread per processor.
    const std::string where =
        "seed " + std::to_string(GetParam()) + " round " + std::to_string(round);
    EXPECT_NO_THROW(plan.validate()) << where;
    expect_gang_matches_colocated(plan, where);

    // Timed execution: completes, deterministic, occupancy within bounds,
    // message counts backend-invariant.
    sim::TimedExecutorOptions options;
    options.iterations = 40;
    const auto spi_backend = plan.make_backend();
    const sim::ExecStats spi_stats = core::run_timed(plan, *spi_backend, options);
    const sim::ExecStats again = core::run_timed(plan, *spi_backend, options);
    EXPECT_EQ(spi_stats.makespan, again.makespan);
    const mpi::MpiBackend mpi_backend;
    const sim::ExecStats mpi_stats = core::run_timed(plan, mpi_backend, options);
    EXPECT_EQ(spi_stats.data_messages, mpi_stats.data_messages);

    for (const core::ChannelSpec& channel : plan.channels) {
      if (!channel.bbs_capacity_tokens) continue;
      for (std::size_t idx : channel.sync_edges)
        EXPECT_LE(spi_stats.max_occupancy[idx], *channel.bbs_capacity_tokens)
            << "seed " << GetParam() << " channel " << channel.name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomSystems,
                         ::testing::Values(1001, 2002, 3003, 4004, 5005, 6006, 7007, 8008,
                                           9009, 10010));

TEST(LargeSystem, HundredsOfActorsCompileAndRun) {
  // Complexity guard: the compilation pipeline (repetitions, PASS, HSDF,
  // sync graph, all-pairs redundancy analysis, resynchronization) and
  // the executor must handle a 150-actor system quickly. A chain with
  // periodic feedback over 6 processors.
  df::Graph g("large");
  constexpr int kActors = 150;
  for (int i = 0; i < kActors; ++i) g.add_actor("t" + std::to_string(i), 10 + i % 7);
  for (int i = 0; i + 1 < kActors; ++i)
    g.connect_simple(static_cast<df::ActorId>(i), static_cast<df::ActorId>(i + 1), 0, 16);
  for (int i = 0; i + 30 < kActors; i += 30)  // feedback every 30 stages
    g.connect_simple(static_cast<df::ActorId>(i + 30), static_cast<df::ActorId>(i), 4, 4);
  sched::Assignment assignment(kActors, 6);
  for (int i = 0; i < kActors; ++i)
    assignment.assign(static_cast<df::ActorId>(i), static_cast<sched::Proc>((i / 25) % 6));

  const core::ExecutablePlan plan = core::compile_plan(g, assignment);
  EXPECT_GT(plan.channels.size(), 4u);
  EXPECT_TRUE(plan.sync_graph.is_deadlock_free());

  sim::TimedExecutorOptions options;
  options.iterations = 30;
  const sim::ExecStats stats = core::run_timed(plan, *plan.make_backend(), options);
  EXPECT_GT(stats.makespan, 0);

  expect_gang_matches_colocated(plan, "large system");
}

}  // namespace
}  // namespace spi
