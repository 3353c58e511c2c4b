/// \file plan.hpp
/// ExecutablePlan — the serializable compiled artifact of the SPI
/// pipeline (docs/architecture.md).
///
/// The paper's thesis is that SPI *compiles* an application's static
/// structure into lean, specialized communication actors instead of a
/// general-purpose runtime. The ExecutablePlan makes that compiled
/// artifact explicit: everything the execution engines need — the
/// VTS-converted graph, repetitions vector, PASS, per-processor firing
/// programs, synchronization graph, per-edge ChannelSpec (SPI mode,
/// BBS/UBS protocol, equation-1/2 capacities, token widths, elided
/// acks), cost-model parameters and the iteration message budget — in
/// one value type with full JSON round-trip serialization. A system is
/// compiled once (core/pipeline.hpp), optionally written to disk
/// (`spi_compile --emit-plan`), and executed later or elsewhere
/// (`--load-plan`) without re-running any analysis.
///
/// Every execution engine constructs from `const ExecutablePlan&`:
/// JobInstance (gang or colocated) takes it directly; the timed self-timed simulator and the
/// fully-static executor are driven through the run_timed()/
/// run_fully_static() wrappers below, which install the plan's payload
/// and channel-descriptor hooks into the sim layer.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/spi_backend.hpp"
#include "dataflow/graph.hpp"
#include "dataflow/repetitions.hpp"
#include "dataflow/sdf_schedule.hpp"
#include "dataflow/vts.hpp"
#include "obs/metrics.hpp"
#include "sched/resync.hpp"
#include "sched/sync_graph.hpp"
#include "sim/static_executor.hpp"
#include "sim/timed_executor.hpp"

namespace spi::core {

/// Which SPI interface component serves the edge (paper Section 5.1).
enum class SpiMode : std::uint8_t {
  kStatic,   ///< SPI_static: compile-time payload size, edge-id header
  kDynamic,  ///< SPI_dynamic: VTS packed tokens, edge-id + size header
};

/// Compile-time plan for one interprocessor dataflow edge. This is the
/// single source of truth for channel descriptors: JobInstance and the
/// simulated engines derive their per-channel configuration (including
/// sim::ChannelInfo) from it. validate() requires one for every edge
/// whose actors sit on different processors.
struct ChannelSpec {
  df::EdgeId edge = df::kInvalidEdge;
  std::string name;
  SpiMode mode = SpiMode::kStatic;
  sched::SyncProtocol protocol = sched::SyncProtocol::kUbs;
  std::int64_t b_max_bytes = 0;  ///< max bytes of one message payload
  std::int64_t c_bytes = 0;      ///< equation 1: c_sdf(e) · b_max(e)
  /// Equation 2 (BBS only): statically guaranteed buffer bound.
  std::optional<std::int64_t> bbs_capacity_tokens;
  std::optional<std::int64_t> bbs_capacity_bytes;
  /// Sync-graph edge indices realizing this dataflow edge (>1 when the
  /// HSDF expansion splits a multirate edge across firings).
  std::vector<std::size_t> sync_edges;
  std::size_t acks_total = 0;   ///< UBS ack edges created for this channel
  std::size_t acks_elided = 0;  ///< of those, removed by resynchronization
  /// Token geometry on the VTS-converted edge: bytes of one (packed)
  /// token, bytes of one raw token, tokens per producing firing and
  /// initial tokens. Lets engines size buffers without graph lookups.
  std::int64_t token_bytes = 0;
  std::int64_t raw_token_bytes = 0;
  std::int64_t prod_tokens = 1;
  std::int64_t delay_tokens = 0;
  std::int64_t src_firings_per_iteration = 1;  ///< q[src(e)]
  /// Reliability hook: whether the channel is wrapped by the reliable
  /// transport when a runtime enables it (docs/reliability.md).
  bool reliable = true;

  /// Worst-case payload of one message (prod tokens of token_bytes each).
  [[nodiscard]] std::int64_t payload_bound_bytes() const { return prod_tokens * token_bytes; }
  /// Token capacity of the channel's ring: the BBS window (equation 2)
  /// — or the UBS credit window of one — times the producer's tokens per
  /// graph iteration, plus the initial tokens. -1 when that overflows.
  [[nodiscard]] std::int64_t capacity_tokens() const;
  /// The sim-layer channel descriptor, derived here and nowhere else.
  [[nodiscard]] sim::ChannelInfo channel_info() const {
    return sim::ChannelInfo{edge, mode == SpiMode::kDynamic};
  }
};

/// Ceiling on one channel's ring slab in bytes. validate() rejects a
/// plan whose channel would need more, framing overhead and the reliable
/// ring's discardable slots included, so a tampered plan file cannot
/// make the runtime allocate (or miscompute) an absurd slab.
inline constexpr std::int64_t kMaxChannelSlabBytes = std::int64_t{1} << 30;

/// One firing in a processor's per-iteration program: which actor fires,
/// its invocation index within the iteration, and the edge bindings its
/// FiringContext sees.
struct FiringStep {
  df::ActorId actor = df::kInvalidActor;
  std::int32_t invocation = 0;  ///< 0 .. q[actor]-1 within one iteration
  std::vector<df::EdgeId> in_edges;
  std::vector<df::EdgeId> out_edges;
};

/// FNV-1a fingerprints of a plan's compile inputs, stored in the emitted
/// JSON. `topology` covers everything except actor exec times (actor
/// names and count, edges, rates, delays, token geometry, the processor
/// assignment and the sync/resync options); `exec` covers the per-actor
/// exec cycles alone. Incremental recompilation (core/pipeline.hpp)
/// reuses a cached plan's stages when `topology` matches and only `exec`
/// changed; a plan-serving daemon can make the same check without
/// recompiling.
struct PlanFingerprints {
  std::uint64_t topology = 0;
  std::uint64_t exec = 0;
};

/// The compiled, serializable SPI system.
struct ExecutablePlan {
  /// Schema version of the JSON encoding; bumped on breaking changes.
  static constexpr int kSchemaVersion = 1;

  std::string graph_name;       ///< original application graph name
  std::int32_t proc_count = 1;
  SpiCostParams costs;          ///< SPI backend cost parameters
  df::VtsResult vts;            ///< converted pure-SDF graph + per-edge VTS info
  df::Repetitions repetitions;
  df::SequentialSchedule pass;
  std::vector<sched::Proc> proc_of_actor;  ///< actor -> processor
  sched::SyncGraph sync_graph{{}, {}, 1};
  sched::ProcOrder proc_order;
  std::optional<sched::ResyncReport> resync;
  std::vector<ChannelSpec> channels;
  /// programs[p] = processor p's firing sequence for one iteration.
  std::vector<std::vector<FiringStep>> programs;
  /// Iteration message budget: data + surviving ack + resync messages.
  std::size_t messages_per_iteration = 0;
  /// Edge-id -> index into channels (-1 = processor-local edge). Built
  /// once at plan emission; makes channel_for() O(1).
  std::vector<std::int32_t> channel_index;
  /// Input fingerprints for incremental-recompile / cache-match checks.
  PlanFingerprints fingerprints;

  /// Stable identity of this compiled plan: one FNV-1a round over the
  /// schema version and the topology/exec input fingerprints. Two plans
  /// share a content hash exactly when they were compiled from identical
  /// inputs under the same schema — the key spi_served's /runtime
  /// reports for each model, surfaced in the spi_compile report and in
  /// the plan JSON (fingerprints.content). Stable across processes and
  /// serialization round-trips.
  [[nodiscard]] std::uint64_t content_hash() const;
  /// content_hash() as the fixed-width lowercase hex string used in
  /// JSON and reports.
  [[nodiscard]] std::string content_hash_hex() const;

  [[nodiscard]] sched::Proc proc_of(df::ActorId a) const {
    return proc_of_actor.at(static_cast<std::size_t>(a));
  }

  /// O(1) channel lookup; nullptr for processor-local edges.
  [[nodiscard]] const ChannelSpec* find_channel(df::EdgeId edge) const;
  /// Throwing variant (std::out_of_range for non-interprocessor edges).
  [[nodiscard]] const ChannelSpec& channel_for(df::EdgeId edge) const;
  /// Rebuilds channel_index from channels (called by the pipeline's plan
  /// emission and by from_json()).
  void rebuild_channel_index();
  /// Bytes of the largest token `edge` carries: b_max for VTS-converted
  /// edges, the token size otherwise — what a channel slot or a local
  /// token buffer must hold.
  [[nodiscard]] std::int64_t token_bound_bytes(df::EdgeId edge) const;

  /// The schedule's predicted iteration-period bound: the sync graph's
  /// maximum cycle mean after resynchronization (cycles/iteration, the
  /// spi_plan_resync_mcm_after gauge). The critical-path analyzer
  /// compares a run's realized period against it.
  [[nodiscard]] double predicted_mcm() const {
    return resync ? resync->mcm_after : sync_graph.max_cycle_mean();
  }

  /// Edges the SPI backend treats as dynamic (VTS-converted).
  [[nodiscard]] std::unordered_set<df::EdgeId> dynamic_edges() const;
  /// The SPI cost-model backend configured for this plan's channels.
  [[nodiscard]] std::unique_ptr<SpiBackend> make_backend() const;

  /// Human-readable compilation report (channels, protocols, bounds,
  /// resynchronization summary).
  [[nodiscard]] std::string report() const;

  /// Serializes the whole plan as JSON (round-trip format; see
  /// docs/architecture.md for the field-by-field schema). Deterministic:
  /// the same plan always produces byte-identical output, so emitted
  /// plans can be golden-filed and diffed.
  [[nodiscard]] std::string to_json() const;

  /// Parses a plan previously produced by to_json(). Throws
  /// std::invalid_argument with a descriptive message on malformed input
  /// or schema mismatch. The result passes validate().
  [[nodiscard]] static ExecutablePlan from_json(std::string_view text);

  /// Internal-consistency check (sizes, index maps, message budget,
  /// channel slab sizes) plus the colocated run's no-wait proof, replayed
  /// on token counts instead of trusted: from every edge's delays, each
  /// PASS firing must find `cons` tokens on each input, no IPC edge may
  /// hold more than its ring's capacity_tokens(), and one period must end
  /// back at the delays (so every later period replays identically). The
  /// gang's deadlock freedom is not checked. Throws std::invalid_argument
  /// naming the first violated invariant (for the replay, the firing and
  /// the edge).
  void validate() const;

  /// Publishes the compile-time plan as gauges (spi_plan_*); see
  /// docs/observability.md.
  void publish_metrics(obs::MetricRegistry& registry) const;

  /// Fills null workload hooks with the plan's defaults: worst-case
  /// per-edge payload bytes and the ChannelSpec-derived ChannelInfo
  /// descriptor (the one place sim::ChannelInfo is built from the plan).
  void install_workload_defaults(sim::WorkloadModel& workload) const;
};

/// Runs the timed self-timed platform simulation from a plan.
[[nodiscard]] sim::ExecStats run_timed(const ExecutablePlan& plan,
                                       const sim::CommBackend& backend,
                                       const sim::TimedExecutorOptions& options,
                                       sim::WorkloadModel workload = {});

/// Runs the fully-static (clock-driven) executor from a plan.
[[nodiscard]] sim::StaticRunResult run_fully_static(const ExecutablePlan& plan,
                                                    const sim::CommBackend& backend,
                                                    sim::WorkloadModel wcet,
                                                    sim::WorkloadModel actual,
                                                    const sim::TimedExecutorOptions& options);

}  // namespace spi::core
