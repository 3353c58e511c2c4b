/// \file spi_compile.cpp
/// Command-line front end to the SPI compilation pipeline: reads a
/// system description (see core/text_format.hpp) from a file or stdin,
/// compiles it (VTS, schedules, sync graph, protocols, buffer bounds,
/// resynchronization) and reports the channel plan. Optionally renders
/// DOT, exports observability metrics, runs the timed simulation or the
/// real-thread runtime, and writes Chrome trace JSON. The compiled
/// artifact is a serializable ExecutablePlan (core/plan.hpp):
/// --emit-plan writes it, --load-plan executes one without re-running
/// any analysis (compile once, run anywhere).
///
///   spi_compile system.spi                      # compile + report
///   spi_compile --dot system.spi                # application-graph DOT
///   spi_compile --sync-dot system.spi           # synchronization graph DOT
///   spi_compile --json system.spi               # machine-readable plan (round-trip)
///   spi_compile --no-resync system.spi          # keep every ack edge
///   spi_compile --metrics=prom system.spi       # Prometheus text exposition
///   spi_compile --metrics=json system.spi       # same registry as JSON
///   spi_compile --emit-plan p.json system.spi   # compile once, save the plan
///   spi_compile --load-plan p.json --run 500    # run a saved plan (no compile)
///   spi_compile --incremental A=500 system.spi  # compile, retune actor A's exec
///                                               # cycles to 500 and *re*compile
///                                               # incrementally (repeatable flag;
///                                               # all later output uses the
///                                               # recompiled plan)
///   spi_compile --run 500 system.spi            # timed run, 500 iterations
///   spi_compile --run 500 --mpi system.spi      # ... under the MPI baseline
///   spi_compile --run-threads 500 system.spi    # real-thread run (default computes)
///   spi_compile --run 500 --trace-out t.json s  # Chrome trace (Perfetto) of the run
///   spi_compile --run-threads 500 --flight-out f.json s
///                                               # causal flight-recorder dump, fed to
///                                               # spi_trace_analyze (bottleneck report)
///   spi_compile --fault-plan f.txt --run 500 s  # timed run over a lossy wire
///   spi_compile --fault-plan f.txt --reliability --run-threads 500 s
///                                               # reliable threaded run (retry/
///                                               # timeout/backoff, typed failure)
///   cat system.spi | spi_compile -              # read from stdin
///
/// With --metrics the human-readable report and run summaries move to
/// stderr so stdout is exactly one machine-readable document.
///
/// When --run and --run-threads are both given, per-run outputs are
/// written for *both* engines: --trace-out/--flight-out FILE.json
/// becomes FILE.modeled.json (timed simulation) and FILE.wallclock.json
/// (threaded run).
///
/// Exit codes: 0 success, 1 I/O or compile error, 2 usage, 3 a reliable
/// channel degraded gracefully (sim::ChannelError — retries exhausted or
/// receive timeout) instead of hanging, 4 the progress watchdog aborted
/// a stalled threaded run (obs::StallError — see --watchdog-ms).
///
/// Live telemetry (docs/observability.md): --obs-port N mounts the
/// embedded HTTP server on the threaded run (N = 0 picks an ephemeral
/// port, printed to stderr as "obs server listening on ..."), serving
/// /metrics, /metrics.json, /healthz and /runtime. --watchdog-ms W arms
/// the progress watchdog: when no worker completes a firing for W
/// milliseconds the stall is classified (deadlock/livelock/slow-actor),
/// post-mortems are dumped and the run exits 4.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/job_instance.hpp"
#include "core/pipeline.hpp"
#include "core/plan.hpp"
#include "core/text_format.hpp"
#include "dataflow/dot.hpp"
#include "mpi/mpi_backend.hpp"
#include "obs/critical_path.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "sched/sync_dot.hpp"
#include "sim/fault.hpp"
#include "sim/flight_adapter.hpp"
#include "sim/trace.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: spi_compile [--dot] [--sync-dot] [--json] [--no-resync]\n"
               "                   [--metrics[=json|prom]] [--trace-out FILE]\n"
               "                   [--flight-out FILE]\n"
               "                   [--emit-plan FILE] [--fault-plan FILE] [--reliability]\n"
               "                   [--incremental ACTOR=CYCLES]...\n"
               "                   [--run N] [--run-threads N] [--mpi]\n"
               "                   [--obs-port N] [--watchdog-ms N]\n"
               "                   <file | - | --load-plan FILE>\n");
  return 2;
}

bool write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "spi_compile: cannot write '%s'\n", path.c_str());
    return false;
  }
  out << content;
  return true;
}

bool read_file(const std::string& path, std::string& content) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "spi_compile: cannot open '%s'\n", path.c_str());
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  content = buffer.str();
  return true;
}

/// "f.json" -> "f.modeled.json" (or "f.wallclock.json") when both
/// engines run and would otherwise fight over one output file; the
/// plain path when only one engine runs.
std::string engine_path(const std::string& base, const char* tag, bool both_engines) {
  if (!both_engines) return base;
  static constexpr std::string_view kJson = ".json";
  std::string stem = base;
  if (stem.size() >= kJson.size() &&
      stem.compare(stem.size() - kJson.size(), kJson.size(), kJson) == 0)
    stem.resize(stem.size() - kJson.size());
  return stem + "." + tag + ".json";
}

/// Positive integer or -1; --run/--run-threads reject anything else.
std::int64_t parse_iterations(const char* text) {
  char* end = nullptr;
  const long long value = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || value <= 0) return -1;
  return value;
}

/// "ActorName=123" for --incremental; returns false on malformed input.
bool parse_exec_update(const std::string& text, std::string& name, std::int64_t& cycles) {
  const std::size_t eq = text.find('=');
  if (eq == std::string::npos || eq == 0) return false;
  name = text.substr(0, eq);
  cycles = parse_iterations(text.c_str() + eq + 1);
  return cycles > 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool dot = false, sync_dot = false, resync = true, use_mpi = false, json = false;
  bool metrics = false, reliability = false;
  std::string metrics_format = "prom";
  std::string trace_out;
  std::string flight_out;
  std::string fault_plan_path;
  std::string emit_plan_path;
  std::string load_plan_path;
  std::vector<std::pair<std::string, std::int64_t>> exec_updates;
  std::int64_t run_iterations = 0;
  std::int64_t thread_iterations = 0;
  int obs_port = -1;
  std::int64_t watchdog_ms = 0;
  std::string path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--dot") {
      dot = true;
    } else if (arg == "--sync-dot") {
      sync_dot = true;
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--no-resync") {
      resync = false;
    } else if (arg == "--mpi") {
      use_mpi = true;
    } else if (arg == "--metrics" || arg.starts_with("--metrics=")) {
      metrics = true;
      if (arg.starts_with("--metrics=")) metrics_format = arg.substr(std::strlen("--metrics="));
      if (metrics_format != "json" && metrics_format != "prom") return usage();
    } else if (arg == "--trace-out") {
      if (++i >= argc) return usage();
      trace_out = argv[i];
    } else if (arg == "--flight-out") {
      if (++i >= argc) return usage();
      flight_out = argv[i];
    } else if (arg == "--fault-plan") {
      if (++i >= argc) return usage();
      fault_plan_path = argv[i];
    } else if (arg == "--emit-plan") {
      if (++i >= argc) return usage();
      emit_plan_path = argv[i];
    } else if (arg == "--load-plan") {
      if (++i >= argc) return usage();
      load_plan_path = argv[i];
    } else if (arg == "--incremental") {
      if (++i >= argc) return usage();
      std::string name;
      std::int64_t cycles = 0;
      if (!parse_exec_update(argv[i], name, cycles)) {
        std::fprintf(stderr,
                     "spi_compile: --incremental needs ACTOR=CYCLES with positive cycles, "
                     "got '%s'\n",
                     argv[i]);
        return 2;
      }
      exec_updates.emplace_back(std::move(name), cycles);
    } else if (arg == "--reliability") {
      reliability = true;
    } else if (arg == "--run" || arg == "--run-threads") {
      if (++i >= argc) return usage();
      const std::int64_t n = parse_iterations(argv[i]);
      if (n < 0) {
        std::fprintf(stderr, "spi_compile: %s needs a positive iteration count, got '%s'\n",
                     arg.c_str(), argv[i]);
        return 2;
      }
      (arg == "--run" ? run_iterations : thread_iterations) = n;
    } else if (arg == "--obs-port") {
      if (++i >= argc) return usage();
      char* end = nullptr;
      const long long value = std::strtoll(argv[i], &end, 10);
      if (end == argv[i] || *end != '\0' || value < 0 || value > 65535) {
        std::fprintf(stderr, "spi_compile: --obs-port needs a port in [0, 65535], got '%s'\n",
                     argv[i]);
        return 2;
      }
      obs_port = static_cast<int>(value);
    } else if (arg == "--watchdog-ms") {
      if (++i >= argc) return usage();
      const std::int64_t value = parse_iterations(argv[i]);
      if (value < 0) {
        std::fprintf(stderr,
                     "spi_compile: --watchdog-ms needs a positive window, got '%s'\n", argv[i]);
        return 2;
      }
      watchdog_ms = value;
    } else if (!arg.empty() && arg[0] == '-' && arg != "-") {
      return usage();
    } else {
      if (!path.empty()) return usage();
      path = arg;
    }
  }
  // Exactly one plan source: a system description to compile, or a
  // previously emitted plan to load.
  if (path.empty() == load_plan_path.empty()) return usage();
  if (dot && !load_plan_path.empty()) {
    std::fprintf(stderr,
                 "spi_compile: --dot needs the application source, not a compiled plan\n");
    return 2;
  }
  if (!exec_updates.empty() && !load_plan_path.empty()) {
    std::fprintf(stderr,
                 "spi_compile: --incremental needs the application source, not a compiled "
                 "plan (it re-runs the exec-dependent analyses)\n");
    return 2;
  }
  if (!trace_out.empty() && run_iterations <= 0 && thread_iterations <= 0) {
    std::fprintf(stderr, "spi_compile: --trace-out needs --run N or --run-threads N\n");
    return 2;
  }
  if (!flight_out.empty() && run_iterations <= 0 && thread_iterations <= 0) {
    std::fprintf(stderr, "spi_compile: --flight-out needs --run N or --run-threads N\n");
    return 2;
  }
  if ((obs_port >= 0 || watchdog_ms > 0) && thread_iterations <= 0) {
    std::fprintf(stderr,
                 "spi_compile: --obs-port/--watchdog-ms need --run-threads N "
                 "(they observe the live threaded run)\n");
    return 2;
  }
  const bool both_engines = run_iterations > 0 && thread_iterations > 0;
  if (!fault_plan_path.empty() && thread_iterations > 0 && !reliability) {
    std::fprintf(stderr,
                 "spi_compile: a threaded run under a fault plan requires --reliability "
                 "(the unprotected path would lose tokens and deadlock)\n");
    return 2;
  }

  std::optional<spi::sim::FaultPlan> fault_plan;
  if (!fault_plan_path.empty()) {
    std::string fault_text;
    if (!read_file(fault_plan_path, fault_text)) return 1;
    try {
      fault_plan = spi::sim::parse_fault_plan(fault_text);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "spi_compile: %s: %s\n", fault_plan_path.c_str(), e.what());
      return 1;
    }
  }

  // Human-oriented output goes to stdout normally, to stderr when a
  // machine-readable metrics document owns stdout.
  std::FILE* report_out = metrics ? stderr : stdout;

  try {
    spi::obs::MetricRegistry registry;
    spi::core::ExecutablePlan plan;
    if (!load_plan_path.empty()) {
      std::string plan_text;
      if (!read_file(load_plan_path, plan_text)) return 1;
      plan = spi::core::ExecutablePlan::from_json(plan_text);
      // No compile-phase timings here — the analysis already happened
      // when the plan was emitted; only the plan gauges are published.
      plan.publish_metrics(registry);
    } else {
      std::string text;
      if (path == "-") {
        std::ostringstream buffer;
        buffer << std::cin.rdbuf();
        text = buffer.str();
      } else if (!read_file(path, text)) {
        return 1;
      }
      spi::core::ParsedSystem parsed = spi::core::parse_system(text);
      if (dot) {
        std::printf("%s", spi::df::to_dot(parsed.graph).c_str());
        return 0;
      }
      spi::core::SpiSystemOptions options;
      options.resynchronize = resync;
      options.metrics = &registry;
      if (exec_updates.empty()) {
        plan = spi::core::compile_plan(parsed.graph, parsed.assignment, options);
      } else {
        // Incremental demo: full compile, retune the named actors' exec
        // cycles, recompile. Exec-only edits replay the cached
        // resynchronization trace instead of re-running the pipeline.
        std::vector<spi::core::ExecUpdate> updates;
        updates.reserve(exec_updates.size());
        for (const auto& [name, cycles] : exec_updates) {
          const spi::df::ActorId id = parsed.graph.find_actor(name);
          if (id == spi::df::kInvalidActor) {
            std::fprintf(stderr, "spi_compile: --incremental: no actor named '%s'\n",
                         name.c_str());
            return 1;
          }
          updates.push_back(spi::core::ExecUpdate{id, cycles});
        }
        spi::core::IncrementalCompiler compiler(parsed.graph, parsed.assignment, options);
        compiler.compile();
        const std::int64_t t0 = spi::obs::monotonic_ns();
        compiler.recompile(updates);
        const std::int64_t recompile_ns = spi::obs::monotonic_ns() - t0;
        plan = compiler.plan();
        std::fprintf(report_out,
                     "incremental recompile: %zu actor exec update%s applied via the %s "
                     "path in %.1f us\n",
                     updates.size(), updates.size() == 1 ? "" : "s",
                     compiler.last_recompile_incremental() ? "incremental (trace-replay)"
                                                           : "full-compile fallback",
                     static_cast<double>(recompile_ns) * 1e-3);
      }
    }
    if (!emit_plan_path.empty() && !write_file(emit_plan_path, plan.to_json())) return 1;
    if (sync_dot) {
      std::printf("%s", spi::sched::to_dot(plan.sync_graph).c_str());
      return 0;
    }
    if (json) {
      std::printf("%s", plan.to_json().c_str());
      return 0;
    }
    std::fprintf(report_out, "%s", plan.report().c_str());

    if (run_iterations > 0) {
      spi::sim::TraceRecorder trace;
      spi::sim::TimedExecutorOptions run;
      run.iterations = run_iterations;
      if (!trace_out.empty() || !flight_out.empty()) run.trace = &trace;
      const auto spi_backend = plan.make_backend();
      const spi::mpi::MpiBackend mpi_backend;
      const spi::sim::IdealBackend ideal_backend;
      const spi::sim::CommBackend& inner =
          use_mpi ? static_cast<const spi::sim::CommBackend&>(mpi_backend) : ideal_backend;
      std::optional<spi::sim::FaultyBackend> faulty;
      if (fault_plan) faulty.emplace(inner, *fault_plan, &registry);
      const spi::sim::CommBackend& backend =
          faulty    ? static_cast<const spi::sim::CommBackend&>(*faulty)
          : use_mpi ? static_cast<const spi::sim::CommBackend&>(mpi_backend)
                    : *spi_backend;
      const spi::sim::ExecStats stats = spi::core::run_timed(plan, backend, run);
      std::fprintf(report_out, "\ntimed run (%s%s backend, %lld iterations):\n",
                   fault_plan ? "faulty " : "", use_mpi ? "MPI-generic" : "SPI",
                   static_cast<long long>(run_iterations));
      std::fprintf(report_out, "  makespan        : %lld cycles\n",
                   static_cast<long long>(stats.makespan));
      std::fprintf(report_out, "  steady period   : %.1f cycles (%.3f us @ %.0f MHz)\n",
                   stats.steady_period_cycles,
                   run.clock.to_microseconds(
                       static_cast<spi::sim::SimTime>(stats.steady_period_cycles)),
                   run.clock.mhz);
      std::fprintf(report_out, "  data messages   : %lld\n",
                   static_cast<long long>(stats.data_messages));
      std::fprintf(report_out, "  sync messages   : %lld\n",
                   static_cast<long long>(stats.sync_messages));
      std::fprintf(report_out, "  wire bytes      : %lld\n",
                   static_cast<long long>(stats.wire_bytes));
      for (std::size_t pe = 0; pe < stats.pe_busy_cycles.size(); ++pe)
        std::fprintf(report_out, "  PE%zu busy/stall : %lld / %lld cycles\n", pe,
                     static_cast<long long>(stats.pe_busy_cycles[pe]),
                     static_cast<long long>(stats.pe_stall_cycles[pe]));
      // Simulator-side message counters into the shared registry, so the
      // exporters carry both executions.
      registry
          .gauge("spi_sim_data_messages", {},
                 "Data messages of the last timed simulation run")
          .set(static_cast<double>(stats.data_messages));
      registry
          .gauge("spi_sim_sync_messages", {},
                 "Synchronization messages of the last timed simulation run")
          .set(static_cast<double>(stats.sync_messages));
      registry.gauge("spi_sim_makespan_cycles", {}, "Makespan of the last timed simulation run")
          .set(static_cast<double>(stats.makespan));
      if (!trace_out.empty() &&
          !write_file(engine_path(trace_out, "modeled", both_engines),
                      spi::sim::to_chrome_trace_json(trace, run.clock)))
        return 1;
      if (!flight_out.empty()) {
        std::vector<std::string> edge_names;
        for (const auto& spec : plan.channels) {
          if (spec.edge >= 0 && static_cast<std::size_t>(spec.edge) >= edge_names.size())
            edge_names.resize(static_cast<std::size_t>(spec.edge) + 1);
          if (spec.edge >= 0) edge_names[static_cast<std::size_t>(spec.edge)] = spec.name;
        }
        const spi::obs::FlightLog log = spi::sim::to_flight_log(
            trace, plan.sync_graph, static_cast<std::int32_t>(plan.proc_count),
            std::move(edge_names));
        if (!write_file(engine_path(flight_out, "modeled", both_engines), log.to_json()))
          return 1;
        spi::obs::AnalyzeOptions cp_options;
        cp_options.predicted_mcm = plan.predicted_mcm();
        const spi::obs::CriticalPathReport cp = spi::obs::analyze_critical_path(log, cp_options);
        cp.publish_metrics(registry);
        std::fprintf(report_out,
                     "  critical path   : %lld cycles (compute %lld, blocked %lld, "
                     "comm %lld, idle %lld)\n",
                     static_cast<long long>(cp.cp_length), static_cast<long long>(cp.cp_compute),
                     static_cast<long long>(cp.cp_blocked), static_cast<long long>(cp.cp_comm),
                     static_cast<long long>(cp.cp_idle));
        if (!cp.bottleneck_channel.empty())
          std::fprintf(report_out, "  bottleneck      : %s\n", cp.bottleneck_channel.c_str());
      }
    }

    if (thread_iterations > 0) {
      const spi::core::ReliabilityOptions rel{reliability, fault_plan ? &*fault_plan : nullptr};
      spi::core::JobInstance job(plan, {rel, &registry, {}});
      // The flight recorder is the one wall-clock trace producer: it
      // serves --flight-out directly and --trace-out through its
      // critical-path Chrome export.
      std::optional<spi::obs::FlightRecorder> flight;
      const std::string flight_path = engine_path(flight_out, "wallclock", both_engines);
      if (!flight_out.empty() || !trace_out.empty()) {
        flight.emplace(static_cast<std::int32_t>(plan.proc_count));
        // On a ChannelError the instance dumps the log post-mortem to the
        // same path the success case would have used.
        if (!flight_out.empty()) flight->set_postmortem_path(flight_path);
        job.set_flight_recorder(&*flight);
      }
      spi::core::RunOptions run_options;
      run_options.iterations = thread_iterations;
      run_options.obs_port = obs_port;
      if (obs_port >= 0) {
        // The bound port goes to stderr: stdout may belong to a metrics
        // document, and scripts (the CI live-scrape smoke) parse this
        // line to find an ephemeral port.
        run_options.on_obs_start = [](int port) {
          std::fprintf(stderr, "spi_compile: obs server listening on 127.0.0.1:%d\n", port);
        };
      }
      if (watchdog_ms > 0) {
        run_options.watchdog.enabled = true;
        run_options.watchdog.window_ms = watchdog_ms;
      }
      try {
        job.run(run_options);
      } catch (const spi::sim::ChannelError& e) {
        // Graceful degradation: the reliable transport gave up on one
        // channel within its deadline instead of hanging the pipeline.
        std::fprintf(stderr, "spi_compile: %s\n", e.what());
        if (flight) flight->publish_metrics(registry);
        if (metrics)
          std::printf("%s", metrics_format == "json" ? registry.to_json().c_str()
                                                     : registry.to_prometheus().c_str());
        return 3;
      } catch (const spi::obs::StallError& e) {
        // The watchdog aborted a wedged run: the classification and the
        // blocking channel are on stderr, the post-mortems are on disk
        // (spi_stall.<kind>.json + the flight dump when --flight-out).
        std::fprintf(stderr, "spi_compile: %s\n", e.what());
        if (flight) flight->publish_metrics(registry);
        if (metrics)
          std::printf("%s", metrics_format == "json" ? registry.to_json().c_str()
                                                     : registry.to_prometheus().c_str());
        return 4;
      }
      const spi::core::ThreadedRunStats& ts = job.stats();
      std::fprintf(report_out,
                   "\nthreaded run (%lld iterations, default computes%s):\n"
                   "  messages        : %lld\n  payload bytes   : %lld\n"
                   "  producer blocks : %lld (%lld us)\n  consumer blocks : %lld (%lld us)\n",
                   static_cast<long long>(thread_iterations),
                   reliability ? ", reliable transport" : "",
                   static_cast<long long>(ts.messages),
                   static_cast<long long>(ts.payload_bytes),
                   static_cast<long long>(ts.producer_blocks),
                   static_cast<long long>(ts.producer_block_micros),
                   static_cast<long long>(ts.consumer_blocks),
                   static_cast<long long>(ts.consumer_block_micros));
      if (reliability)
        std::fprintf(report_out,
                     "  retries         : %lld\n  dropped frames  : %lld\n"
                     "  crc failures    : %lld\n  duplicates      : %lld\n"
                     "  timeouts        : %lld\n  backoff total   : %lld us\n",
                     static_cast<long long>(ts.retries),
                     static_cast<long long>(ts.dropped_frames),
                     static_cast<long long>(ts.crc_failures),
                     static_cast<long long>(ts.duplicates),
                     static_cast<long long>(ts.timeouts),
                     static_cast<long long>(ts.backoff_micros));
      if (flight) {
        const spi::obs::FlightLog log = flight->collect();
        // Wall-clock time and the plan's cycle-domain MCM have no fixed
        // exchange rate for the default computes, so the predicted MCM is
        // left unknown here; spi_trace_analyze accepts an explicit
        // --mcm-scale when the mapping is known.
        const spi::obs::CriticalPathReport cp = spi::obs::analyze_critical_path(log);
        if (!trace_out.empty() &&
            !write_file(engine_path(trace_out, "wallclock", both_engines),
                        cp.to_chrome_trace_json(log)))
          return 1;
        if (!flight_out.empty()) {
          if (!write_file(flight_path, log.to_json())) return 1;
          cp.publish_metrics(registry);
          flight->publish_metrics(registry);
          std::fprintf(report_out,
                       "  critical path   : %lld ns (compute %lld, blocked %lld, "
                       "comm %lld, idle %lld; %lld events, %lld dropped)\n",
                       static_cast<long long>(cp.cp_length), static_cast<long long>(cp.cp_compute),
                       static_cast<long long>(cp.cp_blocked), static_cast<long long>(cp.cp_comm),
                       static_cast<long long>(cp.cp_idle), static_cast<long long>(cp.events),
                       static_cast<long long>(cp.dropped));
          if (!cp.bottleneck_channel.empty())
            std::fprintf(report_out, "  bottleneck      : %s\n", cp.bottleneck_channel.c_str());
        }
      }
    }

    if (metrics)
      std::printf("%s", metrics_format == "json" ? registry.to_json().c_str()
                                                 : registry.to_prometheus().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "spi_compile: %s\n", e.what());
    return 1;
  }
}
