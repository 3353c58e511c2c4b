/// \file micro_compile.cpp
/// google-benchmark microbenchmarks of the *compiler* itself: the whole
/// compile_plan() pipeline (VTS + repetitions + PASS + HSDF + sync graph
/// + protocol selection + resynchronization) and the individual analyses,
/// as a function of graph size. Guards the pipeline's asymptotics.
#include <benchmark/benchmark.h>

#include "core/pipeline.hpp"
#include "core/plan.hpp"
#include "dataflow/looped_schedule.hpp"
#include "sched/resync.hpp"

namespace {

using namespace spi;

/// Chain of n actors with periodic feedback, spread over 4 processors.
struct Chain {
  df::Graph g{"chain"};
  sched::Assignment assignment{0, 1};

  explicit Chain(int actors) {
    for (int i = 0; i < actors; ++i) g.add_actor("t" + std::to_string(i), 10);
    for (int i = 0; i + 1 < actors; ++i)
      g.connect_simple(static_cast<df::ActorId>(i), static_cast<df::ActorId>(i + 1), 0, 16);
    for (int i = 0; i + 20 < actors; i += 20)
      g.connect_simple(static_cast<df::ActorId>(i + 20), static_cast<df::ActorId>(i), 3, 4);
    assignment = sched::Assignment(g.actor_count(), 4);
    for (int i = 0; i < actors; ++i)
      assignment.assign(static_cast<df::ActorId>(i), static_cast<sched::Proc>(i % 4));
  }
};

/// compile_plan() end to end (the name predates the plan API and is kept
/// so the regression baseline rows still match).
void BM_SpiSystemCompile(benchmark::State& state) {
  const Chain chain(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    const core::ExecutablePlan plan = core::compile_plan(chain.g, chain.assignment);
    benchmark::DoNotOptimize(plan.channels.size());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SpiSystemCompile)->RangeMultiplier(2)->Range(8, 128)->Complexity();

void BM_Repetitions(benchmark::State& state) {
  const Chain chain(static_cast<int>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(df::compute_repetitions(chain.g));
}
BENCHMARK(BM_Repetitions)->Arg(64)->Arg(256);

void BM_McmAnalysis(benchmark::State& state) {
  const Chain chain(static_cast<int>(state.range(0)));
  core::SpiSystemOptions options;
  options.resynchronize = false;
  const core::ExecutablePlan plan = core::compile_plan(chain.g, chain.assignment, options);
  for (auto _ : state) benchmark::DoNotOptimize(plan.sync_graph.max_cycle_mean());
}
BENCHMARK(BM_McmAnalysis)->Arg(32)->Arg(96);

void BM_Apgan(benchmark::State& state) {
  // Multirate acyclic chain for the SAS heuristic.
  df::Graph g("apgan");
  const int actors = static_cast<int>(state.range(0));
  for (int i = 0; i < actors; ++i) g.add_actor("t" + std::to_string(i));
  for (int i = 0; i + 1 < actors; ++i)
    g.connect(static_cast<df::ActorId>(i), df::Rate::fixed(2 + i % 3),
              static_cast<df::ActorId>(i + 1), df::Rate::fixed(1 + i % 4));
  const df::Repetitions reps = df::compute_repetitions(g);
  for (auto _ : state) benchmark::DoNotOptimize(df::apgan_schedule(g, reps));
}
BENCHMARK(BM_Apgan)->Arg(8)->Arg(24);

void BM_PlanSerialize(benchmark::State& state) {
  const Chain chain(static_cast<int>(state.range(0)));
  const core::ExecutablePlan plan = core::compile_plan(chain.g, chain.assignment);
  for (auto _ : state) benchmark::DoNotOptimize(plan.to_json().size());
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_PlanSerialize)->RangeMultiplier(2)->Range(8, 128)->Complexity();

void BM_PlanDeserialize(benchmark::State& state) {
  // Loading a saved plan versus BM_SpiSystemCompile at the same size: the
  // payoff of compile-once/run-anywhere is this gap.
  const Chain chain(static_cast<int>(state.range(0)));
  const std::string json = core::compile_plan(chain.g, chain.assignment).to_json();
  for (auto _ : state) {
    const core::ExecutablePlan plan = core::ExecutablePlan::from_json(json);
    benchmark::DoNotOptimize(plan.channels.size());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_PlanDeserialize)->RangeMultiplier(2)->Range(8, 128)->Complexity();

void BM_ChannelLookup(benchmark::State& state) {
  // The edge-id index behind channel_for(): O(1) per lookup.
  const Chain chain(96);
  const core::ExecutablePlan plan = core::compile_plan(chain.g, chain.assignment);
  for (auto _ : state)
    for (const core::ChannelSpec& spec : plan.channels)
      benchmark::DoNotOptimize(&plan.channel_for(spec.edge));
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(plan.channels.size()));
}
BENCHMARK(BM_ChannelLookup);

/// Contiguous block assignment over `procs` processors: the layout a
/// partitioner would emit for a locality-friendly mapping, so channel
/// count stays proportional to the cut (block boundaries), not to the
/// edge count. This is what lets the compile path scale to 10k actors.
struct Synthetic {
  df::Graph g;
  sched::Assignment assignment{0, 1};

  Synthetic(df::Graph graph, int procs) : g(std::move(graph)) {
    const std::size_t n = g.actor_count();
    assignment = sched::Assignment(n, static_cast<sched::Proc>(procs));
    const std::size_t block = (n + static_cast<std::size_t>(procs) - 1) /
                              static_cast<std::size_t>(procs);
    for (std::size_t i = 0; i < n; ++i)
      assignment.assign(static_cast<df::ActorId>(i), static_cast<sched::Proc>(i / block));
  }
};

/// Linear pipeline with sparse long-range feedback (the Chain shape at
/// 10k scale).
df::Graph synth_chain(int actors) {
  df::Graph g("chain10k");
  for (int i = 0; i < actors; ++i) g.add_actor("t" + std::to_string(i), 10 + i % 7);
  for (int i = 0; i + 1 < actors; ++i)
    g.connect_simple(static_cast<df::ActorId>(i), static_cast<df::ActorId>(i + 1), 0, 16);
  for (int i = 0; i + 512 < actors; i += 512)
    g.connect_simple(static_cast<df::ActorId>(i + 512), static_cast<df::ActorId>(i), 3, 4);
  return g;
}

/// Binary scatter tree in DFS order, so each subtree is index-contiguous
/// and the block assignment cuts only O(procs * depth) edges.
df::Graph synth_tree(int actors) {
  df::Graph g("tree10k");
  for (int i = 0; i < actors; ++i) g.add_actor("t" + std::to_string(i), 8 + i % 5);
  const auto build = [&g](const auto& self, int lo, int hi) -> void {
    if (lo + 1 >= hi) return;
    const int mid = (lo + 1 + hi) / 2;
    g.connect_simple(static_cast<df::ActorId>(lo), static_cast<df::ActorId>(lo + 1), 0, 8);
    self(self, lo + 1, mid);
    if (mid < hi) {
      g.connect_simple(static_cast<df::ActorId>(lo), static_cast<df::ActorId>(mid), 0, 8);
      self(self, mid, hi);
    }
  };
  build(build, 0, actors);
  return g;
}

/// Blocks of 64-node strongly connected components (intra-block cycle
/// plus deterministic extra chords), chained by forward cross-block
/// links — the many-small-SCC shape MCM solvers see in practice.
df::Graph synth_scc(int actors) {
  df::Graph g("scc10k");
  for (int i = 0; i < actors; ++i) g.add_actor("t" + std::to_string(i), 6 + i % 9);
  constexpr int kBlock = 64;
  std::uint32_t lcg = 0x5eed5eedu;
  const auto next = [&lcg] { return lcg = lcg * 1664525u + 1013904223u; };
  for (int lo = 0; lo < actors; lo += kBlock) {
    const int hi = lo + kBlock < actors ? lo + kBlock : actors;
    for (int i = lo; i + 1 < hi; ++i)
      g.connect_simple(static_cast<df::ActorId>(i), static_cast<df::ActorId>(i + 1), 0, 4);
    if (hi - lo > 1)
      g.connect_simple(static_cast<df::ActorId>(hi - 1), static_cast<df::ActorId>(lo), 4, 4);
    // Two forward chords per block keep the SCC irregular without
    // risking a zero-delay cycle (chords only ever skip forward).
    for (int c = 0; c < 2 && hi - lo > 3; ++c) {
      const int u = lo + static_cast<int>(next() % static_cast<std::uint32_t>(hi - lo - 2));
      const int v = u + 1 + static_cast<int>(next() % static_cast<std::uint32_t>(hi - u - 1));
      g.connect_simple(static_cast<df::ActorId>(u), static_cast<df::ActorId>(v), 0, 4);
    }
    if (hi < actors)
      g.connect_simple(static_cast<df::ActorId>(hi - 1), static_cast<df::ActorId>(hi), 0, 4);
  }
  return g;
}

/// The acceptance bar for this tier: a 10k-actor system through the full
/// staged pipeline (VTS + HSDF + sync graph + protocol selection +
/// resynchronization + plan emission) in under a second.
void BM_Compile10kChain(benchmark::State& state) {
  const Synthetic s(synth_chain(10000), 8);
  for (auto _ : state)
    benchmark::DoNotOptimize(core::compile_plan(s.g, s.assignment).channels.size());
}
BENCHMARK(BM_Compile10kChain)->Unit(benchmark::kMillisecond);

void BM_Compile10kTree(benchmark::State& state) {
  const Synthetic s(synth_tree(10000), 8);
  for (auto _ : state)
    benchmark::DoNotOptimize(core::compile_plan(s.g, s.assignment).channels.size());
}
BENCHMARK(BM_Compile10kTree)->Unit(benchmark::kMillisecond);

void BM_Compile10kRandomScc(benchmark::State& state) {
  const Synthetic s(synth_scc(10000), 8);
  for (auto _ : state)
    benchmark::DoNotOptimize(core::compile_plan(s.g, s.assignment).channels.size());
}
BENCHMARK(BM_Compile10kRandomScc)->Unit(benchmark::kMillisecond);

/// Single-actor exec retune through the trace-replay fast path...
void BM_IncrementalRecompile(benchmark::State& state) {
  const Synthetic s(synth_chain(static_cast<int>(state.range(0))), 8);
  core::IncrementalCompiler inc(s.g, s.assignment);
  inc.compile();
  std::int64_t exec = 10;
  for (auto _ : state) {
    exec = exec == 10 ? 25 : 10;
    inc.recompile({{42, exec}});
    benchmark::DoNotOptimize(inc.plan().channels.size());
  }
}
BENCHMARK(BM_IncrementalRecompile)->Arg(512)->Arg(10000)->Unit(benchmark::kMicrosecond);

/// ... versus the from-scratch compile the fast path replaces: the
/// speedup derived from this pair is the incremental_recompile_speedup
/// key in BENCH_results.json.
void BM_FullRecompile(benchmark::State& state) {
  Synthetic s(synth_chain(static_cast<int>(state.range(0))), 8);
  std::int64_t exec = 10;
  for (auto _ : state) {
    exec = exec == 10 ? 25 : 10;
    s.g.actor(42).exec_cycles = exec;
    benchmark::DoNotOptimize(core::compile_plan(s.g, s.assignment).channels.size());
  }
}
BENCHMARK(BM_FullRecompile)->Arg(512)->Arg(10000)->Unit(benchmark::kMicrosecond);

void BM_TimedRunPerIteration(benchmark::State& state) {
  const Chain chain(32);
  const core::ExecutablePlan plan = core::compile_plan(chain.g, chain.assignment);
  const auto backend = plan.make_backend();
  sim::TimedExecutorOptions options;
  options.iterations = static_cast<std::int64_t>(state.range(0));
  for (auto _ : state) benchmark::DoNotOptimize(core::run_timed(plan, *backend, options).makespan);
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TimedRunPerIteration)->Arg(100);

}  // namespace

BENCHMARK_MAIN();
