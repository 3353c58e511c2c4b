/// \file critical_path.hpp
/// Realized critical-path reconstruction over a flight-recorder log.
///
/// The paper's static side predicts an iteration period — the sync
/// graph's maximum cycle mean, exported as `spi_plan_resync_mcm_after`.
/// This analyzer computes the *dynamic* side from a FlightLog: the
/// chain of causally-dependent activity that tiles the run's makespan,
/// with every nanosecond (or modeled cycle) attributed to exactly one
/// of four categories:
///
///  * compute — inside an actor firing on the critical path
///  * blocked — a processor waiting on a channel (back-pressure or an
///              empty queue) while on the critical path
///  * comm    — the in-flight window between a matched send and the
///              receive that unblocked the path
///  * idle    — critical-path time with no recorded activity (engine
///              scheduling gaps, pre-first-firing warmup)
///
/// Reconstruction walks *backward* from the last event: within a
/// processor, program order gives dependencies; across processors,
/// (edge, aux, seq) matches a receive to its send. Each step attributes
/// the interval [cursor_bottom, cursor_top] and moves the cursor to the
/// interval's bottom (possibly on another processor), so the emitted
/// segments tile [t_first, t_last] exactly: cp length == makespan by
/// construction. The parity test leans on that: over the *simulator's*
/// event stream the analyzer's cp length equals the simulator's
/// reported makespan to the cycle.
///
/// Attribution is also aggregated off the path: per-channel and
/// per-actor blocked time over *all* processors, so the report answers
/// "which channel is the bottleneck" even when the path only grazes it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"

namespace spi::obs {

/// One attributed interval of the realized critical path, in reverse
/// chronological discovery order reversed back to chronological.
struct CriticalSegment {
  enum class Kind { kCompute, kBlocked, kComm, kIdle };
  Kind kind = Kind::kIdle;
  std::int64_t begin = 0;
  std::int64_t end = 0;
  std::int32_t proc = -1;
  std::int32_t actor = -1;  ///< kCompute: the firing actor
  std::int32_t edge = -1;   ///< kBlocked / kComm: the channel involved
  std::int64_t iteration = -1;

  [[nodiscard]] std::int64_t duration() const { return end - begin; }
};

/// Blocked/communication time charged to one channel (edge id), summed
/// over all processors — not just the critical path.
struct ChannelAttribution {
  std::int32_t edge = -1;
  std::string name;
  std::int64_t producer_blocked = 0;  ///< back-pressure (full channel)
  std::int64_t consumer_blocked = 0;  ///< starvation (empty channel)
  std::int64_t cp_blocked = 0;        ///< blocked time on the critical path
  std::int64_t cp_comm = 0;           ///< in-flight time on the critical path
  std::int64_t messages = 0;          ///< receives observed
};

/// Compute/blocked time charged to one actor.
struct ActorAttribution {
  std::int32_t actor = -1;
  std::string name;
  std::int64_t compute = 0;     ///< total firing time, all processors
  std::int64_t cp_compute = 0;  ///< firing time on the critical path
  std::int64_t firings = 0;
};

struct AnalyzeOptions {
  /// The plan's predicted iteration-period bound (sync-graph MCM, in
  /// the same unit as the log's timestamps). <= 0 means unknown; the
  /// realized-vs-predicted fields are then omitted from the report.
  double predicted_mcm = 0.0;
  /// Unit scale for predicted_mcm relative to log timestamps (e.g. a
  /// wall-clock run at 1 cycle = 1 us has mcm_scale = 1000 with "ns"
  /// logs). Default 1: same unit.
  double mcm_scale = 1.0;
};

/// The analyzer's full output.
struct CriticalPathReport {
  std::string time_unit;  ///< copied from the log
  std::int32_t proc_count = 0;
  std::int64_t events = 0;
  std::int64_t dropped = 0;

  std::int64_t t_first = 0;  ///< earliest event timestamp
  std::int64_t t_last = 0;   ///< latest event timestamp
  /// == t_last - t_first == sum of segment durations (exact tiling).
  std::int64_t cp_length = 0;
  std::int64_t cp_compute = 0;
  std::int64_t cp_blocked = 0;
  std::int64_t cp_comm = 0;
  std::int64_t cp_idle = 0;

  /// Realized iteration period: mean over observed iterations, and a
  /// steady-state estimate (slope over the second half, mirroring
  /// sim::ExecStats). 0 when fewer than 2 iterations completed.
  double realized_period_avg = 0.0;
  double realized_period_steady = 0.0;
  std::int64_t iterations_observed = 0;

  /// Maximum number of iterations simultaneously "open" (between an
  /// iteration's first FireBegin and its last FireEnd): the realized
  /// cross-iteration pipelining depth. 1 = barriered/sequential; >1 =
  /// the free-running workers actually overlapped iterations.
  std::int64_t pipelined_iterations_max = 0;

  /// Predicted bound echoed from AnalyzeOptions (already scaled into
  /// the log's unit); 0 = unknown.
  double predicted_mcm = 0.0;
  /// realized_period_steady / predicted_mcm (0 when either unknown).
  double period_ratio = 0.0;

  std::vector<CriticalSegment> segments;        ///< chronological
  std::vector<ChannelAttribution> channels;     ///< sorted by total blocked desc
  std::vector<ActorAttribution> actors;         ///< sorted by cp_compute desc

  /// Bottleneck headline: the channel with the most critical-path
  /// blocked+comm time (-1 = none; compute-bound run).
  std::int32_t bottleneck_edge = -1;
  std::string bottleneck_channel;

  /// Full report as a JSON document (stable key order; validated by
  /// tools/json_check in the tooling ctest tier).
  [[nodiscard]] std::string to_json() const;

  /// Chrome trace-event JSON: one "X" slice per firing / block /
  /// critical-path segment, plus "s"/"t" flow events chaining the
  /// critical path so Perfetto draws it as connected arrows.
  [[nodiscard]] std::string to_chrome_trace_json(const FlightLog& log) const;

  /// spi_critpath_* gauges (lengths, breakdown, realized vs predicted
  /// period, per-channel/per-actor attribution).
  void publish_metrics(MetricRegistry& registry) const;
};

/// Reconstructs the realized critical path from a flight log.
/// The log may come from a JobInstance run (wall clock) or from the timed
/// simulator via sim/flight_adapter.hpp (modeled time) — same schema.
/// Tolerates truncated logs (ring overflow): unmatched events degrade
/// to idle/blocked attribution, never UB. Throws std::invalid_argument
/// only on structurally impossible input (proc out of range).
[[nodiscard]] CriticalPathReport analyze_critical_path(const FlightLog& log,
                                                       const AnalyzeOptions& options = {});

}  // namespace spi::obs
