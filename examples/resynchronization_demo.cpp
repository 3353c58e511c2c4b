/// \file resynchronization_demo.cpp
/// Shows the Section-4.1 machinery on the paper's figure-3 pattern: a
/// host processor feeding n hardware PEs and collecting results. Prints
/// the synchronization graph before and after resynchronization — the
/// acknowledgement edges all become redundant because the data round
/// trip through the host's schedule loop already enforces them.
#include <cstdio>

#include "core/pipeline.hpp"
#include "sched/resync.hpp"

namespace {

const char* kind_name(spi::sched::SyncEdgeKind kind) {
  switch (kind) {
    case spi::sched::SyncEdgeKind::kSequence: return "seq ";
    case spi::sched::SyncEdgeKind::kIpc: return "ipc ";
    case spi::sched::SyncEdgeKind::kAck: return "ack ";
    case spi::sched::SyncEdgeKind::kResync: return "rsyn";
  }
  return "?";
}

void print_sync_graph(const spi::sched::SyncGraph& g) {
  for (const auto& e : g.edges()) {
    std::printf("  [%s] %-12s -> %-12s delay=%lld%s\n", kind_name(e.kind),
                g.task(e.src).name.c_str(), g.task(e.snk).name.c_str(),
                static_cast<long long>(e.delay), e.removed ? "   (ELIDED)" : "");
  }
}

}  // namespace

int main() {
  using namespace spi;

  // Figure-3 pattern with 2 PEs: per PE, the host sends an input block
  // and coefficients and receives results; each PE is its own processor.
  df::Graph g("fig3-pattern");
  sched::Assignment assignment(0, 1);
  std::vector<df::ActorId> actors;
  {
    std::vector<std::pair<df::ActorId, sched::Proc>> placement;
    for (int pe = 0; pe < 2; ++pe) {
      const std::string s = std::to_string(pe);
      const df::ActorId send_in = g.add_actor("SendIn" + s, 20);
      const df::ActorId send_cf = g.add_actor("SendCoef" + s, 5);
      const df::ActorId compute = g.add_actor("PE" + s, 100);
      const df::ActorId recv = g.add_actor("Recv" + s, 20);
      g.connect_simple(send_in, compute, 0, 512);
      g.connect_simple(send_cf, compute, 0, 64);
      g.connect_simple(compute, recv, 0, 512);
      placement.emplace_back(send_in, 0);
      placement.emplace_back(send_cf, 0);
      placement.emplace_back(compute, static_cast<sched::Proc>(1 + pe));
      placement.emplace_back(recv, 0);
    }
    assignment = sched::Assignment(g.actor_count(), 3);
    for (auto [actor, proc] : placement) assignment.assign(actor, proc);
  }

  core::SpiSystemOptions options;
  options.resynchronize = false;  // inspect the raw graph first
  const core::ExecutablePlan before = core::compile_plan(g, assignment, options);
  std::printf("BEFORE RESYNCHRONIZATION (%zu sync messages/iteration):\n",
              before.messages_per_iteration);
  print_sync_graph(before.sync_graph);

  options.resynchronize = true;
  const core::ExecutablePlan after = core::compile_plan(g, assignment, options);
  std::printf("\nAFTER RESYNCHRONIZATION (%zu sync messages/iteration):\n",
              after.messages_per_iteration);
  print_sync_graph(after.sync_graph);

  const auto& report = *after.resync;
  std::printf("\nresynchronization: %zu ack edges -> %zu (removed %zu, added %zu), "
              "MCM %.1f -> %.1f cycles\n",
              report.acks_before, report.acks_after, report.edges_removed,
              report.edges_added, report.mcm_before, report.mcm_after);

  sim::TimedExecutorOptions run;
  run.iterations = 300;
  const auto stats_before = core::run_timed(before, *before.make_backend(), run);
  const auto stats_after = core::run_timed(after, *after.make_backend(), run);
  std::printf("simulated period: %.1f cycles before, %.1f after; sync messages "
              "%lld -> %lld over the run\n",
              stats_before.steady_period_cycles, stats_after.steady_period_cycles,
              static_cast<long long>(stats_before.sync_messages),
              static_cast<long long>(stats_after.sync_messages));
  return 0;
}
