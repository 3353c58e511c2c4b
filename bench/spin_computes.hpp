/// \file spin_computes.hpp
/// WCET busy-spin computes for the threaded-run microbenchmarks
/// (micro_obs, micro_flight): every actor spins its modeled WCET at
/// 1 cycle -> kNsPerCycle ns, then emits zero-filled full-rate tokens,
/// so a run carries representative per-firing compute instead of being
/// pure channel ping-pong (which would measure an observer against an
/// empty workload no real application resembles).
#pragma once

#include <benchmark/benchmark.h>

#include <cstdint>

#include "core/job_instance.hpp"
#include "obs/metrics.hpp"

namespace spi::bench {

inline constexpr std::int64_t kNsPerCycle = 250;

inline void spin_for_ns(std::int64_t ns) {
  const std::int64_t deadline = obs::monotonic_ns() + ns;
  while (obs::monotonic_ns() < deadline) benchmark::DoNotOptimize(deadline);
}

/// Installs the spin compute on every actor of `plan` (the plan
/// `instance` was built from). The plan must outlive the instance's runs.
inline void install_spin_computes(core::JobInstance& instance, const core::ExecutablePlan& plan) {
  const df::Graph& graph = plan.vts.graph;
  for (df::ActorId a = 0; a < static_cast<df::ActorId>(graph.actor_count()); ++a) {
    const std::int64_t spin_ns = graph.actor(a).exec_cycles * kNsPerCycle;
    instance.set_compute(a, [&graph, spin_ns](core::FiringContext& ctx) {
      spin_for_ns(spin_ns);
      for (std::size_t i = 0; i < ctx.out_edges.size(); ++i) {
        const df::Edge& e = graph.edge(ctx.out_edges[i]);
        for (std::int64_t t = 0; t < e.prod.value(); ++t)
          ctx.outputs[i].emplace_back(static_cast<std::size_t>(e.token_bytes), 0);
      }
    });
  }
}

}  // namespace spi::bench
