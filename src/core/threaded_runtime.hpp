/// \file threaded_runtime.hpp
/// Software SPI: executes a compiled SpiSystem on real host threads —
/// one thread per modeled processor, self-timed scheduling realized by
/// blocking SPI channels.
///
/// The paper's preliminary SPI was exactly this: a software library for
/// multiprocessor signal processing. Every interprocessor edge is a
/// bounded, single-producer/single-consumer token FIFO: a BBS channel
/// back-pressures the producer at its equation-2 capacity (a safety net
/// the static analysis guarantees is never exercised in a correctly
/// scheduled system); a UBS channel at its credit window. Dataflow
/// determinacy guarantees the parallel result is identical to the
/// sequential PASS interleaving (JobInstance::run_colocated), whatever
/// the thread schedule — the tests assert it.
///
/// Since the serving refactor this class is a thin facade over the real
/// execution stack (docs/serving.md): a JobInstance holds the channels,
/// firing contexts and per-run state; a private WorkerPool sized to the
/// plan's processor count supplies the threads and keeps them across
/// runs, so repeated run() calls no longer spawn and join. Everything
/// below — channels, reliability, observability — is JobInstance
/// behavior surfaced unchanged.
///
/// Channels (docs/architecture.md): every interprocessor edge rides the
/// lock-free zero-copy SpscChannel — a slab sized from the plan's
/// equation-2 bound, no lock and no heap allocation in steady state.
/// Reliability-enabled edges run the retry protocol over the same ring
/// (reliable_link.hpp).
///
/// Actor compute functions are the same ComputeFn a colocated
/// JobInstance runs, so an application wires up once and runs either
/// way.
///
/// Reliability (docs/reliability.md): construct with ReliabilityOptions
/// and every reliable interprocessor channel becomes a reliable link
/// over an (optionally faulty) wire — sequenced CRC-checked frames,
/// bounded retry with exponential backoff + deterministic jitter,
/// duplicate suppression, receive timeouts. Because the FaultPlan is
/// keyed by (edge, sequence, attempt), a lossy run delivers exactly the
/// payloads of a lossless run; persistent faults surface a typed
/// sim::ChannelError from run() instead of hanging.
///
/// Observability (docs/observability.md): every channel feeds lock-free
/// counters in a MetricRegistry — messages, payload bytes, block counts
/// and block *durations* per side, and under reliability the
/// retry/drop/CRC/duplicate/timeout counters plus a backoff histogram —
/// either a registry the caller provides (shared with the compile
/// pipeline) or a private one. Message/byte counters are batched per
/// firing, so the per-token hot path touches no atomics. Attach a
/// FlightRecorder to capture every firing, send, receive and park;
/// obs::analyze_critical_path turns the log into a wall-clock Chrome
/// trace that loads in Perfetto beside the timed simulator's trace of
/// the same system.
#pragma once

#include "core/job_instance.hpp"
#include "core/spi_system.hpp"
#include "core/worker_pool.hpp"

namespace spi::core {

/// Multithreaded execution engine for a compiled plan: one JobInstance
/// plus a private, persistent WorkerPool of proc_count() threads.
class ThreadedRuntime {
 public:
  /// `metrics`: registry receiving the per-channel counters
  /// (spi_threaded_* — see docs/observability.md). Not owned; must
  /// outlive the runtime. Null = the runtime owns a private registry,
  /// reachable through metrics(). The plan must outlive the runtime.
  explicit ThreadedRuntime(const ExecutablePlan& plan, obs::MetricRegistry* metrics = nullptr)
      : ThreadedRuntime(plan, ReliabilityOptions{}, metrics) {}

  /// Reliable-transport variant: reliable interprocessor channels speak
  /// the sequenced retry protocol (spi_reliable_* counters), optionally
  /// over the fault plan in `reliability`.
  ThreadedRuntime(const ExecutablePlan& plan, ReliabilityOptions reliability,
                  obs::MetricRegistry* metrics = nullptr)
      : job_(plan, JobInstanceOptions{reliability, metrics, {}}), pool_(plan.programs.size()) {}

  /// Convenience overloads running the facade's plan().
  explicit ThreadedRuntime(const SpiSystem& system, obs::MetricRegistry* metrics = nullptr)
      : ThreadedRuntime(system.plan(), metrics) {}
  ThreadedRuntime(const SpiSystem& system, ReliabilityOptions reliability,
                  obs::MetricRegistry* metrics = nullptr)
      : ThreadedRuntime(system.plan(), reliability, metrics) {}

  /// Registers an actor's computation (same contract as
  /// JobInstance::set_compute; must be called before run()).
  /// Compute functions for actors on different processors run
  /// concurrently — they must not share mutable state without their own
  /// synchronization.
  void set_compute(df::ActorId actor, ComputeFn fn) { job_.set_compute(actor, std::move(fn)); }

  /// Attaches a flight recorder (docs/observability.md): every firing,
  /// interprocessor send/receive and blocking wait becomes a causal
  /// event, wait-free on the hot path. On SPSC channels kBlockBegin/
  /// kBlockEnd are emitted only when a wait actually parks the thread —
  /// spin waits are not blocks. The recorder's proc_count must match the
  /// plan's. Actor/edge names are installed from the plan so post-mortem
  /// dumps are self-describing. Not owned; must outlive run(). Null
  /// detaches. If the recorder has a postmortem_path and run() fails
  /// with sim::ChannelError, the collected log is written there before
  /// the error is rethrown.
  void set_flight_recorder(obs::FlightRecorder* recorder) { job_.set_flight_recorder(recorder); }

  /// Runs `iterations` graph iterations across proc_count() pool workers
  /// and waits for the gang — every worker finishes its body on every
  /// exit path, including mid-run channel or compute failures (no
  /// detached or leaked work). Exceptions thrown by compute functions or
  /// by the reliable transport (sim::ChannelError) are rethrown on the
  /// caller thread (first one wins); other workers are unblocked and
  /// wound down. stats() is reset on entry and aggregated on every exit
  /// path — after a throw it reflects the partial run.
  void run(std::int64_t iterations) {
    RunOptions options;
    options.iterations = iterations;
    run(options);
  }

  /// Full-control run: optionally mounts the embedded telemetry server
  /// (options.obs_port) and the progress watchdog (options.watchdog)
  /// for the duration of the run. A watchdog stall with abort_on_stall
  /// interrupts the workers and throws obs::StallError after writing
  /// the post-mortems (flight dump with the stall classification in
  /// the filename, plus the /runtime snapshot + report into
  /// watchdog.dump_dir).
  void run(const RunOptions& options) { job_.run(pool_, options); }

  /// The current per-worker heartbeat/state snapshot (relaxed reads of
  /// the workers' published atomics; meaningful during and after run()).
  [[nodiscard]] std::vector<obs::WorkerSnapshot> worker_snapshots() const {
    return job_.worker_snapshots();
  }

  /// The /runtime endpoint body: graph identity, per-worker state and
  /// per-channel depth / high-watermark vs. capacity. Valid strict JSON.
  /// Callable from any thread while run() executes.
  [[nodiscard]] std::string runtime_status_json() const { return job_.runtime_status_json(); }

  /// Pushes every channel's current depth and high watermark into the
  /// spi_channel_* gauges (called by the server before each scrape;
  /// callable manually for registry-only consumers).
  void refresh_channel_gauges() { job_.refresh_channel_gauges(); }

  /// Aggregated channel statistics of the last run() (partial if it
  /// threw).
  [[nodiscard]] const ThreadedRunStats& stats() const { return job_.stats(); }

  [[nodiscard]] const ReliabilityOptions& reliability() const { return job_.reliability(); }

  /// The underlying job instance (the serve layer builds these directly;
  /// exposed here so diagnostics and tests can reach the full surface).
  [[nodiscard]] JobInstance& job() { return job_; }
  [[nodiscard]] const JobInstance& job() const { return job_; }

  /// The registry the channel counters live in (the caller-provided one,
  /// or the runtime's own). Counters are cumulative across runs and
  /// include initial-token placement at construction.
  [[nodiscard]] obs::MetricRegistry& metrics() { return job_.metrics(); }
  [[nodiscard]] const obs::MetricRegistry& metrics() const { return job_.metrics(); }

 private:
  JobInstance job_;
  WorkerPool pool_;
};

}  // namespace spi::core
