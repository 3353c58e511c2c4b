/// \file flight_adapter.hpp
/// Timed-simulator bridge into the flight-recorder event schema.
///
/// A JobInstance records flight events natively (wall clock);
/// this adapter derives the *same* event stream from a timed-simulation
/// trace, in modeled time ("cycles" as the log's time_unit). The
/// critical-path analyzer then runs identically on both, so the
/// schedule's predicted bottleneck attribution and the realized one are
/// directly diffable — and over a simulator stream the analyzer's
/// critical-path length must reproduce the simulator's makespan exactly
/// (the parity test in tests/test_critical_path.cpp).
///
/// Event mapping:
///  * FiringRecord        -> kFireBegin / kFireEnd (actor = HSDF task id)
///  * MessageRecord       -> kSend on the source PE at send_time and
///                           kReceive on the destination PE at
///                           arrival_time, matched by (edge, aux, seq).
///
/// One dataflow edge can be realized by several sync-graph edges (HSDF
/// expansion) carrying both data and pure-sync messages, each an
/// independent sequence stream; aux = sync_edge_index * 2 + (0 data /
/// 1 sync) keeps the streams disjoint. Messages of edges without a
/// dataflow identity (resynchronization edges) get synthetic edge ids
/// past the real ones so their in-flight time is still attributable.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "sched/sync_graph.hpp"
#include "sim/trace.hpp"

namespace spi::sim {

/// Converts a recorded timed simulation into a FlightLog (modeled time).
/// `edge_names` (indexed by dataflow EdgeId) overrides the default
/// "SrcTask->SnkTask" naming where provided — pass the plan's channel
/// names for reports that match the compile-side metrics labels.
[[nodiscard]] obs::FlightLog to_flight_log(const TraceRecorder& trace,
                                           const sched::SyncGraph& sync, std::int32_t pe_count,
                                           std::vector<std::string> edge_names = {});

}  // namespace spi::sim
