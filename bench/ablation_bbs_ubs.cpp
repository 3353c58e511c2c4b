/// \file ablation_bbs_ubs.cpp
/// Ablation for Section 4's protocol pair. SPI_BBS applies when
/// equation 2 statically bounds an IPC buffer (feedback in the graph);
/// SPI_UBS needs runtime back-pressure whose credit window throttles
/// pipelining. Three sweeps:
///   (a) UBS credit window vs steady period on a feedforward pipeline
///       (larger window -> deeper pipelining -> shorter period, at the
///       cost of buffer space),
///   (b) the same pipeline with a data feedback edge added (BBS): all
///       acks become elidable, no runtime sync messages remain,
///   (c) ack traffic comparison.
#include <cstdio>

#include "core/pipeline.hpp"

namespace {

spi::core::ExecutablePlan make_pipeline(std::int64_t feedback_delay, std::int64_t credit) {
  using namespace spi;
  df::Graph g("pipe3");
  const df::ActorId a = g.add_actor("A", 40);
  const df::ActorId b = g.add_actor("B", 60);
  const df::ActorId c = g.add_actor("C", 40);
  g.connect(a, df::Rate::fixed(1), b, df::Rate::fixed(1), 0, 64);
  g.connect(b, df::Rate::fixed(1), c, df::Rate::fixed(1), 0, 64);
  if (feedback_delay > 0) g.connect(c, df::Rate::fixed(1), a, df::Rate::fixed(1), feedback_delay, 4);
  sched::Assignment assignment(3, 3);
  assignment.assign(a, 0);
  assignment.assign(b, 1);
  assignment.assign(c, 2);
  core::SpiSystemOptions options;
  options.sync.ubs_credit_window = credit;
  return core::compile_plan(g, assignment, options);
}

}  // namespace

int main() {
  using namespace spi;
  sim::TimedExecutorOptions run;
  run.iterations = 400;

  std::printf("(a) feedforward pipeline (UBS): credit window vs steady period\n");
  std::printf("%8s %12s %12s %14s\n", "credit", "period(cyc)", "sync/iter", "protocol");
  for (std::int64_t credit : {1, 2, 4, 8}) {
    const core::ExecutablePlan plan = make_pipeline(0, credit);
    const auto stats = core::run_timed(plan, *plan.make_backend(), run);
    std::size_t ubs = 0;
    for (const auto& channel : plan.channels)
      if (channel.protocol == sched::SyncProtocol::kUbs) ++ubs;
    std::printf("%8lld %12.1f %12.2f %10zu UBS\n", static_cast<long long>(credit),
                stats.steady_period_cycles, static_cast<double>(stats.sync_messages) / 400.0,
                ubs);
  }

  std::printf("\n(b) same pipeline with feedback delay 2 (BBS path)\n");
  std::printf("%8s %12s %12s %22s\n", "credit", "period(cyc)", "sync/iter", "channels");
  for (std::int64_t credit : {1, 4}) {
    const core::ExecutablePlan plan = make_pipeline(2, credit);
    const auto stats = core::run_timed(plan, *plan.make_backend(), run);
    std::size_t bbs = 0, ubs = 0;
    for (const auto& channel : plan.channels)
      (channel.protocol == sched::SyncProtocol::kBbs ? bbs : ubs) += 1;
    std::printf("%8lld %12.1f %12.2f %11zu BBS, %zu UBS\n", static_cast<long long>(credit),
                stats.steady_period_cycles, static_cast<double>(stats.sync_messages) / 400.0,
                bbs, ubs);
  }

  std::printf("\n(c) static buffer bytes bought by BBS (equation 2)\n");
  {
    const core::ExecutablePlan plan = make_pipeline(2, 1);
    for (const auto& channel : plan.channels) {
      std::printf("  %-10s %s  B(e)=%s\n", channel.name.c_str(),
                  channel.protocol == sched::SyncProtocol::kBbs ? "BBS" : "UBS",
                  channel.bbs_capacity_bytes
                      ? (std::to_string(*channel.bbs_capacity_bytes) + " bytes").c_str()
                      : "unbounded without acks");
    }
  }
  std::printf("\nexpected: (a) period falls as credit grows (pipelining), acks stay;\n"
              "(b) feedback turns channels BBS and resynchronization elides the acks.\n");
  return 0;
}
