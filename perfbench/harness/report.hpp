/// \file report.hpp
/// What one harness run hands back (named metrics plus operation
/// counts), the CPU placement it runs under, and the helpers main.cpp
/// and layers.cpp share.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "openloop.hpp"
#include "workload.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  std::vector<Metric> metrics;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;  ///< wrong answers, error statuses, unanswered requests
  std::int64_t wrong = 0;   ///< answers that failed their output check

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Counts a phase's operations into the run totals. A 429 is the
  /// server's answer to overload, counted in the phase but not failed.
  void count(const PhaseResult& phase) {
    attempted += phase.attempted;
    failed += phase.failed + phase.wrong;
    wrong += phase.wrong;
  }
};

/// Disjoint CPU sets: spi_served, the driver thread, gang workers. All
/// empty (no pinning) on hosts with fewer than 4 usable CPUs.
struct Placement {
  std::vector<int> server;
  std::vector<int> driver;
  std::vector<int> gang;
};

/// The driver's own p99 schedule slip beyond which a run is rejected: a
/// tenth of the workload's p99 latency limit. Every latency runs from the
/// due time, so a slip this small is measured, not hidden.
inline double lateness_bound_us(const WorkloadSpec& spec) { return spec.limit_us / 10.0; }

/// p99 (or, with few bursts, the maximum) of a phase's generator lateness.
double lateness_p99_us(const PhaseResult& phase);

/// The per-layer traced run of any workload (layers.cpp).
void run_traced(const WorkloadSpec& spec, const JobSet& jobs, std::uint64_t seed, double seconds,
                const Placement& placement, Report& report);

}  // namespace perfbench
