/// \file auto_partition.cpp
/// Automatic partitioning: instead of hand-assigning actors to
/// processors (as the paper's experiments do), let the HLFET list
/// scheduler place a synthetic DSP pipeline-with-branches graph, and
/// compare the resulting timed period against naive assignments. Shows
/// the sched-layer API a mapping tool would build on.
#include <cstdio>

#include "core/pipeline.hpp"

namespace {

/// A two-branch analysis graph: source fans out to two filter chains of
/// different weights that merge into a sink — enough structure that
/// placement matters.
spi::df::Graph make_graph() {
  using namespace spi::df;
  Graph g("branches");
  const ActorId src = g.add_actor("Src", 40);
  const ActorId heavy1 = g.add_actor("HeavyA", 220);
  const ActorId heavy2 = g.add_actor("HeavyB", 200);
  const ActorId light1 = g.add_actor("LightA", 60);
  const ActorId light2 = g.add_actor("LightB", 70);
  const ActorId merge = g.add_actor("Merge", 50);
  g.connect_simple(src, heavy1, 0, 64);
  g.connect_simple(heavy1, heavy2, 0, 64);
  g.connect_simple(src, light1, 0, 64);
  g.connect_simple(light1, light2, 0, 64);
  g.connect_simple(heavy2, merge, 0, 64);
  g.connect_simple(light2, merge, 0, 64);
  return g;
}

struct Metrics {
  double period;   ///< steady-state cycles per iteration (throughput)
  double latency;  ///< completion time of the first iteration
};

Metrics measure(const spi::df::Graph& g, const spi::sched::Assignment& assignment) {
  const spi::core::ExecutablePlan plan = spi::core::compile_plan(g, assignment);
  spi::sim::TimedExecutorOptions options;
  options.iterations = 300;
  const spi::sim::ExecStats stats = spi::core::run_timed(plan, *plan.make_backend(), options);
  return Metrics{stats.steady_period_cycles,
                 static_cast<double>(stats.iteration_complete.front())};
}

}  // namespace

int main() {
  using namespace spi;
  const df::Graph g = make_graph();

  // Naive: everything on one processor.
  const sched::Assignment single(g.actor_count(), 1);

  // Naive: round-robin over 3 processors (ignores the critical path).
  sched::Assignment round_robin(g.actor_count(), 3);
  for (std::size_t a = 0; a < g.actor_count(); ++a)
    round_robin.assign(static_cast<df::ActorId>(a), static_cast<sched::Proc>(a % 3));

  // HLFET list scheduling with the default IPC cost model.
  const sched::Assignment automatic = sched::list_schedule(g, 3);

  std::printf("automatic partitioning of a 6-actor branch graph over 3 processors\n\n");
  std::printf("%-26s %14s %16s\n", "assignment", "period (cyc)", "latency (cyc)");
  const Metrics m_single = measure(g, single);
  const Metrics m_rr = measure(g, round_robin);
  const Metrics m_auto = measure(g, automatic);
  std::printf("%-26s %14.1f %16.1f\n", "single processor", m_single.period, m_single.latency);
  std::printf("%-26s %14.1f %16.1f\n", "round-robin", m_rr.period, m_rr.latency);
  std::printf("%-26s %14.1f %16.1f\n", "HLFET list scheduler", m_auto.period, m_auto.latency);

  std::printf("\nlist-scheduler placement:\n");
  for (std::size_t a = 0; a < g.actor_count(); ++a)
    std::printf("  %-8s -> PE%d\n", g.actor(static_cast<df::ActorId>(a)).name.c_str(),
                automatic.proc_of(static_cast<df::ActorId>(a)));
  std::printf(
      "\ntakeaway: HLFET minimizes MAKESPAN — it packs the critical path onto one\n"
      "processor, giving the best single-iteration latency. For pipelined\n"
      "THROUGHPUT (the self-timed steady state), spreading heavy actors can beat\n"
      "it: latency-oriented and throughput-oriented mapping are different\n"
      "problems, which is why SPI leaves the assignment to the designer.\n");
  return 0;
}
