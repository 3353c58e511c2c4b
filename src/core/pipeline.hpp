/// \file pipeline.hpp
/// The SPI compile pipeline as explicit, typed stages
/// (docs/architecture.md):
///
///   VtsStage -> ScheduleStage -> SyncStage -> ProtocolStage -> plan_emit
///
/// Each stage function consumes the previous stage's typed result and
/// produces its own; compile_plan() chains them all and returns the
/// serializable ExecutablePlan (core/plan.hpp), the one compiled
/// artifact every caller reads and every engine executes.
///
/// Stage boundaries match the paper's structure: VTS conversion
/// (Section 3), repetitions/PASS/HSDF/self-timed order, the IPC and
/// synchronization graph with optional resynchronization (Section 4 and
/// 4.1), and BBS/UBS protocol selection with the equation-1/2 buffer
/// bounds.
#pragma once

#include <optional>
#include <utility>
#include <vector>

#include "core/plan.hpp"
#include "dataflow/graph.hpp"
#include "dataflow/repetitions.hpp"
#include "dataflow/sdf_schedule.hpp"
#include "dataflow/vts.hpp"
#include "obs/metrics.hpp"
#include "sched/assignment.hpp"
#include "sched/hsdf.hpp"
#include "sched/resync.hpp"
#include "sched/sync_graph.hpp"

namespace spi::core {

struct SpiSystemOptions {
  bool resynchronize = true;
  sched::ResyncOptions resync;
  sched::SyncGraphOptions sync;
  SpiCostParams costs;
  /// Policy for the sequential PASS the per-processor self-timed orders
  /// are derived from. kFirstFireable follows actor-id order — an
  /// application can shape its processors' schedules (e.g. issue all
  /// sends before any receive) by choosing actor creation order;
  /// kMinBufferDemand greedily minimizes buffer occupancy instead.
  df::SchedulePolicy pass_policy = df::SchedulePolicy::kMinBufferDemand;
  /// Optional observability sink (docs/observability.md). When set, the
  /// pipeline records per-phase wall-clock timings
  /// (`spi_compile_phase_seconds{phase=...}`) and publishes the
  /// plan-level gauges on completion. Not owned; must outlive the
  /// compile.
  obs::MetricRegistry* metrics = nullptr;
};

/// Stage 1 — VTS conversion: dynamic rates become packed rate-1/1 SDF
/// edges with byte bounds (paper Section 3).
struct VtsStage {
  df::VtsResult vts;
};

/// Stage 2 — scheduling analyses on the converted graph: repetitions
/// vector (consistency), sequential PASS (admissibility), HSDF
/// expansion, and the per-processor self-timed firing order.
struct ScheduleStage {
  df::Repetitions repetitions;
  df::SequentialSchedule pass;
  sched::HsdfGraph hsdf;
  sched::ProcOrder proc_order;
};

/// Stage 3 — the IPC/synchronization graph plus the optional
/// resynchronization transformation (paper Sections 4, 4.1). The trace
/// records the resynchronizer's decision sequence; incremental
/// recompilation replays it instead of re-searching (resync.hpp).
struct SyncStage {
  sched::SyncGraphBuild build;
  std::optional<sched::ResyncReport> resync;
  sched::ResyncTrace trace;
};

/// Stage 4 — per-channel protocol selection: SPI mode, BBS/UBS,
/// equation-1/2 capacities, token geometry, ack accounting.
struct ProtocolStage {
  std::vector<ChannelSpec> channels;
};

/// Throws std::invalid_argument on inconsistent graphs (repetitions) or
/// deadlock (PASS), like compile_plan().
[[nodiscard]] VtsStage run_vts_stage(const df::Graph& application,
                                     const SpiSystemOptions& options = {});
[[nodiscard]] ScheduleStage run_schedule_stage(const VtsStage& stage,
                                               const sched::Assignment& assignment,
                                               const SpiSystemOptions& options = {});
[[nodiscard]] SyncStage run_sync_stage(const ScheduleStage& stage,
                                       const sched::Assignment& assignment,
                                       const SpiSystemOptions& options = {});
[[nodiscard]] ProtocolStage run_protocol_stage(const VtsStage& vts, const ScheduleStage& sched,
                                               const SyncStage& sync);

/// Stage 5 — assembles the ExecutablePlan: per-processor firing
/// programs, the O(1) channel index, the iteration message budget and
/// all plan-level metadata. Stages are moved into the plan.
[[nodiscard]] ExecutablePlan plan_emit(const df::Graph& application,
                                       const sched::Assignment& assignment,
                                       const SpiSystemOptions& options, VtsStage vts,
                                       ScheduleStage sched, SyncStage sync,
                                       ProtocolStage protocol);

/// Runs the whole pipeline. Throws std::invalid_argument on a mismatched
/// assignment, an inconsistent graph, or deadlock. When
/// options.metrics is set, records the per-phase and total compile
/// timings and publishes the spi_plan_* gauges.
[[nodiscard]] ExecutablePlan compile_plan(const df::Graph& application,
                                          const sched::Assignment& assignment,
                                          const SpiSystemOptions& options = {});

/// Fingerprints of the compile inputs (PlanFingerprints in plan.hpp):
/// `topology` hashes everything a stage other than exec-time analysis
/// depends on — actors, edges, rates, delays, token geometry, processor
/// assignment, sync/resync options; `exec` hashes the per-actor exec
/// cycles alone. FNV-1a, stable across runs.
[[nodiscard]] std::uint64_t topology_fingerprint(const df::Graph& g,
                                                 const sched::Assignment& assignment,
                                                 const SpiSystemOptions& options);
[[nodiscard]] std::uint64_t exec_fingerprint(const df::Graph& g);

/// One actor's new exec-cycles value for IncrementalCompiler::recompile().
struct ExecUpdate {
  df::ActorId actor = df::kInvalidActor;
  std::int64_t exec_cycles = 1;
};

/// Incremental recompilation driver (docs/architecture.md, "Incremental
/// recompilation"). Owns the application graph and the last full
/// compile's plan + resynchronization trace, and re-runs only the stages
/// an edit invalidates:
///
///  * exec-only edits (recompile()) — the common scenario-retune case —
///    reuse VTS, repetitions, PASS, HSDF, the sync-graph structure, the
///    protocol/channel stage and the firing programs wholesale. Only the
///    exec-dependent values are recomputed: task exec times are patched
///    in place, the resynchronizer's recorded decision trace is replayed
///    with the throughput verdicts re-checked against the new exec
///    profile (a few warm policy-iteration solves), and the MCM scalars
///    plus witness cycle are re-derived. The result is byte-identical
///    (to_json) to a from-scratch compile of the edited graph.
///  * when a replayed verdict flips (the edit changed which candidate
///    edges preserve throughput), the fast path is abandoned and a full
///    compile runs — still correct, just not incremental.
///
/// With options.metrics set, recompiles record
/// spi_recompile_phase_seconds{phase=patch_exec|resync_replay} gauges,
/// spi_recompile_total_seconds and spi_recompile_full (1 = fell back).
class IncrementalCompiler {
 public:
  IncrementalCompiler(df::Graph application, sched::Assignment assignment,
                      SpiSystemOptions options = {});

  /// Full staged compile of the current graph; (re)caches the plan and
  /// the resynchronization trace. Same throwing behaviour as
  /// compile_plan().
  const ExecutablePlan& compile();

  /// The last compiled plan; throws std::logic_error before compile().
  [[nodiscard]] const ExecutablePlan& plan() const;

  /// Applies per-actor exec updates and recompiles. Takes the fast path
  /// described above when possible; falls back to compile() when a
  /// resynchronization verdict flips (or nothing is cached yet).
  const ExecutablePlan& recompile(const std::vector<ExecUpdate>& updates);

  /// True when the last recompile() reused the cached stages; false when
  /// it fell back to a full compile.
  [[nodiscard]] bool last_recompile_incremental() const { return last_incremental_; }

  [[nodiscard]] const df::Graph& application() const { return app_; }

 private:
  bool try_incremental();

  df::Graph app_;
  sched::Assignment assignment_;
  SpiSystemOptions options_;
  ExecutablePlan plan_;
  sched::ResyncTrace trace_;
  bool compiled_ = false;
  bool last_incremental_ = false;
};

/// An application's compiled plan together with the graph and assignment
/// it was compiled from, as the paper apps (ErrorGenApp,
/// ParticleFilterApp, BeamformerApp) hold it: plan() for execution, the
/// inputs for callers that recompile or time the stages. Everything else
/// reads the plan's fields.
class SpiSystem {
 public:
  SpiSystem(df::Graph application, sched::Assignment assignment,
            const SpiSystemOptions& options = {})
      : app_(std::move(application)),
        assignment_(std::move(assignment)),
        plan_(compile_plan(app_, assignment_, options)) {}

  [[nodiscard]] const ExecutablePlan& plan() const { return plan_; }
  [[nodiscard]] const df::Graph& application() const { return app_; }
  [[nodiscard]] const sched::Assignment& assignment() const { return assignment_; }

 private:
  df::Graph app_;
  sched::Assignment assignment_;
  ExecutablePlan plan_;
};

}  // namespace spi::core
