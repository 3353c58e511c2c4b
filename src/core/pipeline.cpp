#include "core/pipeline.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <utility>

#include "sched/sync_path.hpp"

namespace spi::core {

namespace {

df::Repetitions checked_repetitions(const df::Graph& g) {
  df::Repetitions reps = df::compute_repetitions(g);
  if (!reps.consistent) {
    std::string edge = reps.conflict_edge != df::kInvalidEdge
                           ? g.edge(reps.conflict_edge).name
                           : std::string("<structural>");
    throw std::invalid_argument("compile_plan: inconsistent dataflow graph after VTS conversion"
                                " (balance equation fails at edge " + edge + ")");
  }
  return reps;
}

df::SequentialSchedule checked_pass(const df::Graph& g, const df::Repetitions& reps,
                                    df::SchedulePolicy policy) {
  df::SequentialSchedule s = df::build_sequential_schedule(g, reps, policy);
  if (!s.admissible)
    throw std::invalid_argument("compile_plan: graph deadlocks (insufficient delay on a cycle)");
  return s;
}

/// Runs one compile phase, recording its wall-clock seconds into
/// `spi_compile_phase_seconds{phase=...}` when a registry is attached.
template <typename F>
auto timed_phase(obs::MetricRegistry* registry, const char* phase, F&& f) {
  if (!registry) return f();
  obs::ScopedTimer timer(&registry->gauge(
      "spi_compile_phase_seconds", {{"phase", phase}},
      "Wall-clock seconds spent in one phase of the SPI compile pipeline"));
  return f();
}

}  // namespace

VtsStage run_vts_stage(const df::Graph& application, const SpiSystemOptions& options) {
  VtsStage stage;
  stage.vts = timed_phase(options.metrics, "vts_convert",
                          [&] { return df::vts_convert(application); });
  return stage;
}

ScheduleStage run_schedule_stage(const VtsStage& vts, const sched::Assignment& assignment,
                                 const SpiSystemOptions& options) {
  ScheduleStage stage;
  const df::Graph& g = vts.vts.graph;
  stage.repetitions =
      timed_phase(options.metrics, "repetitions", [&] { return checked_repetitions(g); });
  stage.pass = timed_phase(options.metrics, "pass_schedule", [&] {
    return checked_pass(g, stage.repetitions, options.pass_policy);
  });
  stage.hsdf = timed_phase(options.metrics, "hsdf_expand",
                           [&] { return sched::hsdf_expand(g, stage.repetitions); });
  stage.proc_order = timed_phase(options.metrics, "proc_order", [&] {
    return sched::proc_order_from_pass(stage.hsdf, stage.pass.firings, assignment);
  });
  return stage;
}

SyncStage run_sync_stage(const ScheduleStage& sched, const sched::Assignment& assignment,
                         const SpiSystemOptions& options) {
  SyncStage stage{timed_phase(options.metrics, "sync_graph",
                              [&] {
                                return sched::build_sync_graph(sched.hsdf, assignment,
                                                               sched.proc_order, options.sync);
                              }),
                  std::nullopt,
                  {}};
  if (options.resynchronize)
    stage.resync = timed_phase(options.metrics, "resynchronize", [&] {
      return sched::resynchronize(stage.build.graph, options.resync, &stage.trace);
    });
  return stage;
}

ProtocolStage run_protocol_stage(const VtsStage& vts, const ScheduleStage& sched,
                                 const SyncStage& sync) {
  // One channel per interprocessor dataflow edge. The VTS result is the
  // single source: names are preserved by the conversion and
  // `converted` marks the originally-dynamic edges.
  const std::vector<std::int64_t> c_bytes = df::packed_buffer_byte_bounds(vts.vts);
  std::map<df::EdgeId, ChannelSpec> plans;
  for (const auto& [sync_index, protocol] : sync.build.ipc_edges) {
    const sched::SyncEdge& se = sync.build.graph.edges()[sync_index];
    ChannelSpec& plan = plans[se.dataflow_edge];
    if (plan.edge == df::kInvalidEdge) {
      const auto slot = static_cast<std::size_t>(se.dataflow_edge);
      const df::Edge& edge = vts.vts.graph.edge(se.dataflow_edge);
      const df::VtsEdgeInfo& info = vts.vts.edges[slot];
      plan.edge = se.dataflow_edge;
      plan.name = edge.name;
      plan.mode = info.converted ? SpiMode::kDynamic : SpiMode::kStatic;
      plan.b_max_bytes = info.b_max_bytes;
      plan.c_bytes = c_bytes[slot];
      plan.protocol = sched::SyncProtocol::kBbs;  // demoted to UBS below if any arc needs it
      plan.token_bytes = edge.token_bytes;
      plan.raw_token_bytes = info.raw_token_bytes;
      plan.prod_tokens = edge.prod.value();
      plan.delay_tokens = edge.delay;
      plan.src_firings_per_iteration = sched.repetitions.of(edge.src);
    }
    plan.sync_edges.push_back(sync_index);
    if (protocol == sched::SyncProtocol::kUbs) plan.protocol = sched::SyncProtocol::kUbs;
  }

  // Equation 2 bounds for BBS channels; ack bookkeeping for UBS channels.
  sched::SyncPathEngine paths(sync.build.graph);
  for (auto& [edge, plan] : plans) {
    if (plan.protocol == sched::SyncProtocol::kBbs) {
      std::int64_t tokens = 0;
      for (std::size_t idx : plan.sync_edges) {
        const auto bound = sched::ipc_buffer_bound_tokens(sync.build.graph, paths, idx);
        if (!bound) {  // should not happen for a BBS-classified edge
          plan.protocol = sched::SyncProtocol::kUbs;
          tokens = 0;
          break;
        }
        tokens = std::max(tokens, *bound);
      }
      if (plan.protocol == sched::SyncProtocol::kBbs) {
        plan.bbs_capacity_tokens = tokens;
        plan.bbs_capacity_bytes = tokens * plan.b_max_bytes;
      }
    }
  }
  for (const sched::SyncEdge& se : sync.build.graph.edges()) {
    if (se.kind != sched::SyncEdgeKind::kAck) continue;
    auto it = plans.find(se.dataflow_edge);
    if (it == plans.end()) continue;
    it->second.acks_total += 1;
    if (se.removed) it->second.acks_elided += 1;
  }

  ProtocolStage stage;
  stage.channels.reserve(plans.size());
  for (auto& [edge, plan] : plans) stage.channels.push_back(std::move(plan));
  return stage;
}

ExecutablePlan plan_emit(const df::Graph& application, const sched::Assignment& assignment,
                         const SpiSystemOptions& options, VtsStage vts, ScheduleStage sched,
                         SyncStage sync, ProtocolStage protocol) {
  ExecutablePlan plan;
  plan.graph_name = application.name();
  plan.proc_count = assignment.proc_count();
  plan.costs = options.costs;
  plan.vts = std::move(vts.vts);
  plan.repetitions = std::move(sched.repetitions);
  plan.pass = std::move(sched.pass);
  plan.proc_order = std::move(sched.proc_order);
  plan.sync_graph = std::move(sync.build.graph);
  plan.resync = sync.resync;
  plan.channels = std::move(protocol.channels);

  plan.proc_of_actor.reserve(plan.vts.graph.actor_count());
  for (std::size_t a = 0; a < plan.vts.graph.actor_count(); ++a)
    plan.proc_of_actor.push_back(assignment.proc_of(static_cast<df::ActorId>(a)));

  // Per-processor firing programs: the PASS in per-processor slices,
  // each firing carrying its invocation index and edge bindings.
  plan.programs.assign(static_cast<std::size_t>(plan.proc_count), {});
  std::vector<std::int32_t> invocation(plan.vts.graph.actor_count(), 0);
  for (df::ActorId actor : plan.pass.firings) {
    FiringStep step;
    step.actor = actor;
    step.invocation = invocation[static_cast<std::size_t>(actor)]++;
    const auto in = plan.vts.graph.in_edges(actor);
    const auto out = plan.vts.graph.out_edges(actor);
    step.in_edges.assign(in.begin(), in.end());
    step.out_edges.assign(out.begin(), out.end());
    plan.programs[static_cast<std::size_t>(plan.proc_of(actor))].push_back(std::move(step));
  }

  plan.messages_per_iteration = plan.sync_graph.count_active(sched::SyncEdgeKind::kIpc) +
                                plan.sync_graph.count_active(sched::SyncEdgeKind::kAck) +
                                plan.sync_graph.count_active(sched::SyncEdgeKind::kResync);
  plan.fingerprints = PlanFingerprints{topology_fingerprint(application, assignment, options),
                                       exec_fingerprint(application)};
  plan.rebuild_channel_index();
  return plan;
}

namespace {

/// compile_plan() with the resynchronization trace captured for
/// IncrementalCompiler (the trace dies with SyncStage otherwise).
ExecutablePlan compile_with_trace(const df::Graph& application,
                                  const sched::Assignment& assignment,
                                  const SpiSystemOptions& options,
                                  sched::ResyncTrace* out_trace) {
  const std::int64_t compile_start_ns = obs::monotonic_ns();
  if (assignment.actor_count() != application.actor_count())
    throw std::invalid_argument("compile_plan: assignment size does not match the graph");

  VtsStage vts = run_vts_stage(application, options);
  ScheduleStage sched = run_schedule_stage(vts, assignment, options);
  SyncStage sync = run_sync_stage(sched, assignment, options);
  if (out_trace) *out_trace = sync.trace;

  ExecutablePlan plan = [&] {
    obs::ScopedTimer plan_timer(
        options.metrics ? &options.metrics->gauge(
                              "spi_compile_phase_seconds", {{"phase", "channel_plan"}},
                              "Wall-clock seconds spent in one phase of the SPI compile pipeline")
                        : nullptr);
    ProtocolStage protocol = run_protocol_stage(vts, sched, sync);
    return plan_emit(application, assignment, options, std::move(vts), std::move(sched),
                     std::move(sync), std::move(protocol));
  }();

  if (options.metrics) {
    options.metrics
        ->gauge("spi_compile_total_seconds", {},
                "Wall-clock seconds of the whole SPI compile pipeline")
        .set(static_cast<double>(obs::monotonic_ns() - compile_start_ns) * 1e-9);
    plan.publish_metrics(*options.metrics);
  }
  return plan;
}

}  // namespace

ExecutablePlan compile_plan(const df::Graph& application, const sched::Assignment& assignment,
                            const SpiSystemOptions& options) {
  return compile_with_trace(application, assignment, options, nullptr);
}

namespace {

/// 64-bit FNV-1a accumulator for the input fingerprints.
struct Fnv1a {
  std::uint64_t h = 14695981039346656037ull;
  void bytes(const void* data, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ull;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void str(const std::string& s) {  // length-prefixed so fields can't bleed
    u64(s.size());
    bytes(s.data(), s.size());
  }
};

}  // namespace

std::uint64_t topology_fingerprint(const df::Graph& g, const sched::Assignment& assignment,
                                   const SpiSystemOptions& options) {
  Fnv1a h;
  h.str(g.name());
  h.u64(g.actor_count());
  for (const df::Actor& a : g.actors()) h.str(a.name);
  h.u64(g.edge_count());
  for (const df::Edge& e : g.edges()) {
    h.i64(e.src);
    h.i64(e.snk);
    h.i64(e.prod.bound());
    h.i64(e.prod.is_dynamic() ? 1 : 0);
    h.i64(e.cons.bound());
    h.i64(e.cons.is_dynamic() ? 1 : 0);
    h.i64(e.delay);
    h.i64(e.token_bytes);
    h.str(e.name);
  }
  h.i64(assignment.proc_count());
  for (std::size_t a = 0; a < assignment.actor_count(); ++a)
    h.i64(assignment.proc_of(static_cast<df::ActorId>(a)));
  h.i64(options.resynchronize ? 1 : 0);
  h.i64(options.resync.preserve_throughput ? 1 : 0);
  h.u64(options.resync.min_cover);
  h.u64(options.resync.max_added);
  h.u64(options.resync.greedy_max_tasks);
  h.i64(options.sync.ubs_credit_window);
  h.i64(static_cast<std::int64_t>(options.pass_policy));
  h.i64(options.costs.send_enqueue_cycles);
  h.i64(options.costs.offload_fixed_cycles);
  h.i64(options.costs.ack_wire_bytes);
  return h.h;
}

std::uint64_t exec_fingerprint(const df::Graph& g) {
  Fnv1a h;
  h.u64(g.actor_count());
  for (const df::Actor& a : g.actors()) h.i64(a.exec_cycles);
  return h.h;
}

IncrementalCompiler::IncrementalCompiler(df::Graph application, sched::Assignment assignment,
                                         SpiSystemOptions options)
    : app_(std::move(application)),
      assignment_(std::move(assignment)),
      options_(std::move(options)) {}

const ExecutablePlan& IncrementalCompiler::compile() {
  plan_ = compile_with_trace(app_, assignment_, options_, &trace_);
  compiled_ = true;
  last_incremental_ = false;
  return plan_;
}

const ExecutablePlan& IncrementalCompiler::plan() const {
  if (!compiled_)
    throw std::logic_error("IncrementalCompiler::plan: compile() has not run yet");
  return plan_;
}

const ExecutablePlan& IncrementalCompiler::recompile(const std::vector<ExecUpdate>& updates) {
  const std::int64_t start_ns = obs::monotonic_ns();
  for (const ExecUpdate& u : updates) app_.actor(u.actor).exec_cycles = u.exec_cycles;
  const bool incremental = compiled_ && try_incremental();
  if (!incremental) compile();
  last_incremental_ = incremental;
  if (options_.metrics) {
    options_.metrics
        ->gauge("spi_recompile_total_seconds", {},
                "Wall-clock seconds of the last IncrementalCompiler::recompile")
        .set(static_cast<double>(obs::monotonic_ns() - start_ns) * 1e-9);
    options_.metrics
        ->gauge("spi_recompile_full", {},
                "1 when the last recompile fell back to a full compile, else 0")
        .set(incremental ? 0.0 : 1.0);
    if (incremental) plan_.publish_metrics(*options_.metrics);
  }
  return plan_;
}

bool IncrementalCompiler::try_incremental() {
  // The fast path covers exec-only edits: everything structural must hash
  // to what the cached plan was compiled from.
  if (plan_.fingerprints.topology != topology_fingerprint(app_, assignment_, options_))
    return false;

  {
    obs::ScopedTimer timer(
        options_.metrics
            ? &options_.metrics->gauge(
                  "spi_recompile_phase_seconds", {{"phase", "patch_exec"}},
                  "Wall-clock seconds spent in one phase of an incremental recompile")
            : nullptr);
    df::Graph& vg = plan_.vts.graph;
    for (std::size_t a = 0; a < app_.actor_count(); ++a) {
      const auto id = static_cast<df::ActorId>(a);
      vg.actor(id).exec_cycles = app_.actor(id).exec_cycles;
    }
    sched::SyncGraph& sg = plan_.sync_graph;
    for (std::int32_t t = 0; t < static_cast<std::int32_t>(sg.task_count()); ++t)
      sg.set_task_exec(t, vg.actor(sg.task(t).actor).exec_cycles);
    plan_.fingerprints.exec = exec_fingerprint(app_);
  }

  if (plan_.resync) {
    obs::ScopedTimer timer(
        options_.metrics
            ? &options_.metrics->gauge(
                  "spi_recompile_phase_seconds", {{"phase", "resync_replay"}},
                  "Wall-clock seconds spent in one phase of an incremental recompile")
            : nullptr);
    const sched::SyncGraph& sg = plan_.sync_graph;
    const auto exec_of = [&](std::int32_t t) {
      return static_cast<double>(sg.task(t).exec_cycles);
    };

    // mcm_before: the pristine pre-resync graph, reconstructed as the
    // first pre_resync_edges edges with every removed flag ignored (none
    // were set when resynchronize() sampled it). Same arc order and same
    // solver as SyncGraph::max_cycle_mean, so the double is bit-identical.
    std::vector<sched::McmArc> pristine;
    pristine.reserve(trace_.pre_resync_edges);
    for (std::size_t i = 0; i < trace_.pre_resync_edges; ++i) {
      const sched::SyncEdge& e = sg.edges()[i];
      pristine.push_back(sched::McmArc{e.src, e.snk, exec_of(e.src), e.delay});
    }
    const double mcm_before = sched::max_cycle_ratio_howard(sg.task_count(), pristine).mcm;

    // Replay the recorded insertion rounds, re-evaluating only the
    // throughput verdicts (the sole exec-dependent decision). Any flip
    // means the structural outcome would differ: fall back.
    if (options_.resync.preserve_throughput) {
      std::vector<char> removed_at_start(sg.edges().size(), 0);
      for (std::size_t i : trace_.phase1_removed) removed_at_start[i] = 1;
      std::vector<std::ptrdiff_t> arc_of_edge(sg.edges().size(), -1);
      std::vector<sched::McmArc> arcs;
      for (std::size_t i = 0; i < trace_.pre_resync_edges; ++i) {
        if (removed_at_start[i]) continue;
        const sched::SyncEdge& e = sg.edges()[i];
        arc_of_edge[i] = static_cast<std::ptrdiff_t>(arcs.size());
        arcs.push_back(sched::McmArc{e.src, e.snk, exec_of(e.src), e.delay});
      }
      sched::HowardSolver solver;
      solver.reset(sg.task_count(), std::move(arcs));
      for (const sched::ResyncTrace::Round& r : trace_.rounds) {
        const sched::SyncEdge& e = sg.edges()[r.edge_index];
        const std::size_t arc =
            solver.add_arc(sched::McmArc{e.src, e.snk, exec_of(e.src), e.delay});
        const double mcm = solver.solve().mcm;
        const bool accepted = !(mcm > mcm_before * (1.0 + 1e-9));
        if (accepted != r.accepted) return false;
        if (!r.accepted || r.rolled_back) {
          solver.remove_arc(arc);
          break;  // both outcomes ended the original greedy loop
        }
        arc_of_edge[r.edge_index] = static_cast<std::ptrdiff_t>(arc);
        for (std::size_t i : r.removed)
          if (arc_of_edge[i] >= 0) {
            solver.remove_arc(static_cast<std::size_t>(arc_of_edge[i]));
            arc_of_edge[i] = -1;
          }
      }
    }

    // All verdicts held: the cached structure is exactly what a fresh
    // compile would produce. Re-derive the exec-dependent report fields
    // with the same calls resynchronize() ends with.
    sched::ResyncReport& report = *plan_.resync;
    report.mcm_before = mcm_before;
    sched::McmResult after = plan_.sync_graph.max_cycle_mean_witness();
    report.mcm_after = after.mcm;
    report.critical_cycle = std::move(after.cycle_nodes);
  }
  return true;
}

}  // namespace spi::core
