/// \file job_instance.hpp
/// Per-job execution state of a compiled plan: channels, firing
/// contexts, worker heartbeats, statistics — everything one run of one
/// plan instance needs, separated from the threads that execute it.
///
/// The execution stack is three layers (docs/serving.md):
///
///   WorkerPool      persistent threads, gang-scheduled (worker_pool.hpp)
///   JobInstance     this file — one plan instance's channels + contexts
///   ThreadedRuntime facade for the classic one-plan/one-runtime API
///                   (threaded_runtime.hpp)
///
/// A JobInstance is built once from an ExecutablePlan and executed many
/// times: `run(pool, options)` borrows plan.programs.size() pool workers
/// as a gang (the pre-serving one-thread-per-processor behavior without
/// the thread churn), while `run_colocated(...)` executes the whole
/// iteration on the *calling* thread by walking the plan's PASS in its
/// admissible sequential order through the very same channels. Dataflow
/// determinacy makes both orders produce bit-identical token streams —
/// the serve layer exploits that to batch many queued jobs into one
/// program traversal without a single cross-thread handoff.
///
/// Instances are isolated: each owns its channel slabs and freelists, so
/// concurrent JobInstances of the same (or different) plans never share
/// a buffer. When several instances feed one MetricRegistry, pass a
/// distinct `label` so their per-channel series do not collide.
#pragma once

#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/blocking_channel.hpp"
#include "core/functional.hpp"
#include "core/spsc_channel.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/runtime_trace.hpp"
#include "obs/watchdog.hpp"
#include "sim/fault.hpp"

namespace spi::core {

class WorkerPool;

/// Turns the runtime's interprocessor channels into reliable links.
struct ReliabilityOptions {
  bool enabled = false;
  /// Deterministic fault injection on every interprocessor wire. Not
  /// owned; must outlive the runtime. Null = perfect wire (the protocol
  /// still frames, sequences and CRC-checks every message).
  const sim::FaultPlan* faults = nullptr;
  /// Retry/backoff/timeout knobs. When `faults` is set its embedded
  /// retry() policy wins, so one fault-plan file configures everything.
  sim::RetryPolicy retry;

  [[nodiscard]] const sim::RetryPolicy& policy() const {
    return faults ? faults->retry() : retry;
  }
};

/// Which channel implementation plain (non-reliable) IPC edges get.
enum class ChannelPolicy : std::uint8_t {
  kAuto,          ///< lock-free SpscChannel; BlockingChannel only where the
                  ///< reliable protocol demands it (the default)
  kBlockingOnly,  ///< mutex-based BlockingChannel everywhere (the
                  ///< pre-slab behavior; parity tests and fallback)
};

/// Aggregated channel statistics of one run() (see JobInstance::stats).
/// Derived from the registry counters: the difference between their
/// values at run() entry and exit.
struct ThreadedRunStats {
  std::int64_t messages = 0;         ///< interprocessor tokens moved
  std::int64_t payload_bytes = 0;
  std::int64_t producer_blocks = 0;  ///< times a sender hit a full channel
  std::int64_t consumer_blocks = 0;  ///< times a receiver waited for data
  std::int64_t producer_block_micros = 0;  ///< wall-clock µs senders spent blocked
  std::int64_t consumer_block_micros = 0;  ///< wall-clock µs receivers spent blocked
  // Reliability protocol (all zero when reliability is off):
  std::int64_t retries = 0;          ///< retransmissions after a failed attempt
  std::int64_t dropped_frames = 0;   ///< attempts the faulty wire swallowed
  std::int64_t crc_failures = 0;     ///< corrupted frames rejected by the receiver
  std::int64_t duplicates = 0;       ///< stale-sequence frames discarded
  std::int64_t timeouts = 0;         ///< receive deadlines that expired
  std::int64_t backoff_micros = 0;   ///< wall-clock µs senders spent backing off
};

/// Everything one run() needs beyond the iteration count: the live
/// telemetry endpoint and the progress watchdog (docs/observability.md,
/// "Live telemetry"). The plain-iteration overload run(n) is equivalent
/// to run({.iterations = n}).
struct RunOptions {
  std::int64_t iterations = 1;
  /// Cross-iteration pipelining cap (docs/architecture.md): under
  /// run(pool, ...) each worker free-runs into iteration i+1 as soon as
  /// its own channels permit — the eq.-2 channel capacities already bound
  /// the skew in tokens. This caps it in *iterations*: a worker may start
  /// iteration i only once every worker has completed iteration
  /// i - max_inflight_iterations, so at most that many iterations are
  /// ever in flight. 0 (default) = unbounded (capacity-limited only);
  /// 1 = barriered lockstep (every iteration fully drains before the
  /// next starts — the pipelining-off baseline perf gates compare
  /// against). Ignored by run_colocated(), which is sequential.
  std::int64_t max_inflight_iterations = 0;
  /// >= 0: serve /metrics, /metrics.json, /healthz and /runtime on this
  /// TCP port for the duration of the run (0 = kernel-assigned
  /// ephemeral port — see on_obs_start). < 0 (default): no server.
  int obs_port = -1;
  std::string obs_bind = "127.0.0.1";
  /// Called once the telemetry server is listening, with the bound
  /// port (resolves obs_port = 0).
  std::function<void(int)> on_obs_start;
  /// Stall detection (watchdog.enabled). On stall: post-mortems are
  /// dumped, watchdog.on_stall fires, and with abort_on_stall the run
  /// is interrupted and run() throws obs::StallError.
  obs::WatchdogOptions watchdog;
  /// >= 0: bracket this run's flight-recorder stream with
  /// kBatchBegin/kBatchEnd markers carrying this id (seq) and the
  /// iteration count (aux), so the serve layer's request spans can be
  /// matched to their causal firing log (request_trace.hpp).
  std::int64_t batch_id = -1;
};

/// Construction knobs beyond the plan itself.
struct JobInstanceOptions {
  ChannelPolicy policy = ChannelPolicy::kAuto;
  ReliabilityOptions reliability;
  /// Registry receiving the per-channel counters (spi_threaded_* — see
  /// docs/observability.md). Not owned; must outlive the instance.
  /// Null = the instance owns a private registry.
  obs::MetricRegistry* metrics = nullptr;
  /// Extra {"job": label} metric label on every per-channel series.
  /// Mandatory in spirit whenever several instances share a registry —
  /// without it their counters collide on the channel name.
  std::string label;
};

/// One plan instance's complete execution state.
class JobInstance {
 public:
  /// The plan must outlive the instance.
  explicit JobInstance(const ExecutablePlan& plan, JobInstanceOptions options = {});
  JobInstance(const JobInstance&) = delete;
  JobInstance& operator=(const JobInstance&) = delete;

  /// Registers an actor's computation (same contract as
  /// FunctionalRuntime::set_compute; must be called before run()).
  /// Compute functions for actors on different processors run
  /// concurrently under run(pool, ...) — they must not share mutable
  /// state without their own synchronization. Re-registering between
  /// runs is allowed (the serve layer rewires per batch).
  void set_compute(df::ActorId actor, ComputeFn fn);

  /// Attaches a wall-clock trace recorder: every firing is recorded as a
  /// span (tid = processor). Not owned; must outlive run(). Null
  /// detaches.
  void set_trace(obs::RuntimeTraceRecorder* trace) { trace_ = trace; }

  /// Attaches a flight recorder (docs/observability.md). The recorder's
  /// proc_count must cover the plan's. Not owned; must outlive run().
  /// Null detaches.
  void set_flight_recorder(obs::FlightRecorder* recorder);

  /// Runs `options.iterations` graph iterations as a gang of
  /// plan.programs.size() workers borrowed from `pool`, joining the gang
  /// on every exit path. Exceptions thrown by compute functions or by
  /// the reliable transport (sim::ChannelError) are rethrown on the
  /// caller thread (first one wins), after every edge is restored to
  /// its delay tokens, so the instance runs again cleanly. stats() is
  /// reset on entry and aggregated on every exit path. Optionally
  /// mounts the embedded telemetry server (options.obs_port) and the
  /// progress watchdog (options.watchdog) for the duration of the run.
  void run(WorkerPool& pool, const RunOptions& options);

  /// Colocated execution: the *calling* thread walks the plan's PASS —
  /// its admissible sequential order — through the same channels, so a
  /// whole batch of iterations executes with zero cross-thread traffic.
  /// Admissibility guarantees no channel operation ever waits. Same
  /// watchdog/stats/error semantics as run(); the embedded telemetry
  /// server is also honored (a serving daemon normally mounts its own
  /// HTTP front instead and leaves obs_port negative).
  void run_colocated(const RunOptions& options);
  void run_colocated(std::int64_t iterations);

  /// Told that segment k of a segmented colocated run has completed.
  using SegmentFn = std::function<void(std::int64_t segment)>;
  /// run_colocated in segments of `segment_iterations` iterations:
  /// `on_segment(k)` runs on the calling thread as soon as iteration
  /// (k + 1) * segment_iterations - 1 completes, before the next one
  /// starts. It runs inside the run: the watchdog stays armed through it
  /// and a throw from it fails the run like a compute's.
  void run_colocated(const RunOptions& options, std::int64_t segment_iterations,
                     const SegmentFn& on_segment);

  /// Resets the per-actor invocation counters that feed
  /// FiringContext::invocation. The classic runtime never calls this
  /// (invocations stay cumulative across runs); the serve layer resets
  /// per batch so computes can index batch inputs by invocation.
  void reset_invocations();

  /// The current per-worker heartbeat/state snapshot (relaxed reads of
  /// the workers' published atomics; meaningful during and after run()).
  [[nodiscard]] std::vector<obs::WorkerSnapshot> worker_snapshots() const;

  /// The /runtime endpoint body: graph identity, per-worker state and
  /// per-channel depth / high-watermark vs. capacity. Valid strict JSON.
  /// Callable from any thread while run() executes.
  [[nodiscard]] std::string runtime_status_json() const;

  /// Pushes every channel's current depth and high watermark into the
  /// spi_channel_* gauges (called by the server before each scrape;
  /// callable manually for registry-only consumers).
  void refresh_channel_gauges();

  /// Aggregated channel statistics of the last run() (partial if it
  /// threw).
  [[nodiscard]] const ThreadedRunStats& stats() const { return stats_; }

  /// Wall-clock nanoseconds the last completed run() / run_colocated()
  /// spent inside plan execution (gang or colocated walk), excluding
  /// watchdog/server mount and stats aggregation. The serve layer's
  /// exec-stage spans should closely bound this.
  [[nodiscard]] std::int64_t last_run_ns() const { return last_run_ns_; }

  [[nodiscard]] const ReliabilityOptions& reliability() const { return reliability_; }
  [[nodiscard]] ChannelPolicy channel_policy() const { return policy_; }
  /// How many IPC edges ride the lock-free SPSC path.
  [[nodiscard]] std::int64_t spsc_channel_count() const { return spsc_count_; }
  [[nodiscard]] const ExecutablePlan& plan() const { return plan_; }
  /// Workers a gang run needs (= the plan's processor count).
  [[nodiscard]] std::size_t proc_count() const { return worker_count_; }
  [[nodiscard]] const std::string& label() const { return label_; }

  /// Bytes of channel buffering this instance keeps resident — the sum
  /// of every channel's slab (equation-2/credit-window capacity × frame
  /// bound). This is the quantity the serve layer's AdmissionController
  /// budgets; computed from the plan alone so admission can reject
  /// *before* construction.
  [[nodiscard]] std::int64_t resident_bytes() const { return resident_channel_bytes(plan_); }
  [[nodiscard]] static std::int64_t resident_channel_bytes(const ExecutablePlan& plan);

  /// The registry the channel counters live in (the caller-provided one,
  /// or the instance's own). Counters are cumulative across runs and
  /// include initial-token placement, at construction and again after
  /// a failed run.
  [[nodiscard]] obs::MetricRegistry& metrics() { return *registry_; }
  [[nodiscard]] const obs::MetricRegistry& metrics() const { return *registry_; }

 private:
  /// Per-worker published state, one cache line per worker so heartbeat
  /// stores never contend: the worker writes with relaxed stores (the
  /// only hot-path cost), the watchdog/scrape threads read with relaxed
  /// loads. Approximate across fields by design — liveness needs only
  /// "does the epoch ever change".
  struct alignas(64) WorkerState {
    std::atomic<std::uint64_t> epoch{0};        ///< firings completed
    std::atomic<std::int64_t> iteration{0};
    std::atomic<std::int64_t> completed{0};     ///< graph iterations finished
    std::atomic<std::int32_t> step{-1};
    std::atomic<std::int32_t> actor{-1};        ///< -1 between firings
    std::atomic<std::int32_t> waiting_edge{-1}; ///< channel op in progress
    std::atomic<std::int32_t> waiting_side{-1}; ///< 0 consume / 1 produce
    std::atomic<bool> done{false};
  };

  void init();
  void interrupt_all();
  /// Smallest completed-iteration count over all workers — the floor of
  /// the pipelining window (relaxed reads; callers that need wake-up
  /// ordering hold inflight_mutex_).
  [[nodiscard]] std::int64_t min_completed_iterations() const;
  /// Parks the calling worker until iteration `iter` fits inside the
  /// run's in-flight cap (run_inflight_cap_); returns false when the run
  /// aborted while waiting. No-op when the cap is 0 (unbounded).
  [[nodiscard]] bool await_inflight_slot(std::int64_t iter);
  /// Empties every edge and puts its delay tokens on it: the state a
  /// run starts from. init() and the failure path (a failed run leaves
  /// edges mid-iteration). Only while no worker body runs.
  void reset_tokens();
  /// Shared run prologue/epilogue (abort/error/stats/heartbeat reset,
  /// watchdog + telemetry mounts, error rethrow) around `execute`,
  /// which must leave every worker body finished on every exit path.
  void run_with(const RunOptions& options, const std::function<void()>& execute);
  /// Creates the instance's watchdog on the first watched run; every
  /// later run re-arms the same monitor thread.
  void ensure_watchdog(const obs::WatchdogOptions& options);
  void worker(std::int32_t proc, std::int64_t iterations);
  /// The colocated worker body: PASS order, one thread, all procs;
  /// `on_segment` (nullable) every `segment` iterations.
  void colocated_body(std::int64_t iterations, std::int64_t segment,
                      const SegmentFn* on_segment);
  void fire(const FiringStep& step, FiringContext& ctx, std::int32_t proc,
            std::int64_t iteration, WorkerState& ws);
  [[nodiscard]] ThreadedRunStats counter_totals() const;
  /// Writes the flight recorder's post-mortem dump when the pending
  /// first_error_ is a sim::ChannelError (recorder's postmortem_path
  /// verbatim) or an obs::StallError (same path with ".stall-<kind>"
  /// inserted before the extension) and a dump path is configured.
  void maybe_dump_flight_postmortem();
  /// Monitor-thread stall handling: writes the report + /runtime
  /// snapshot into dump_dir, dumps the flight log for non-aborting
  /// watchdogs, and on abort_on_stall records StallError and
  /// interrupts the workers.
  void handle_stall(const obs::StallReport& report, const obs::WatchdogOptions& options);
  [[nodiscard]] std::string actor_display_name(std::int32_t actor) const;
  [[nodiscard]] std::string channel_display_name(std::int32_t edge) const;

  /// A processor-local edge's FIFO: a ring of token buffers that trade
  /// places with the producer's output token and the consumer's input
  /// slot, so storage circulates instead of being freed and reallocated.
  /// init() sizes it for one iteration's traffic plus the delays; it
  /// grows only if a schedule ever needs more.
  struct LocalRing {
    std::vector<Bytes> slots;
    std::size_t head = 0;
    std::size_t count = 0;
    /// The tail slot, counted as queued; the caller fills or swaps it.
    Bytes& push_slot();
    /// Swaps the head token into `dest` (which hands back its buffer).
    void pop_into(Bytes& dest);
  };

  const ExecutablePlan& plan_;
  const df::Graph& graph_;  ///< the VTS-converted graph
  ReliabilityOptions reliability_;
  ChannelPolicy policy_ = ChannelPolicy::kAuto;
  std::string label_;
  std::unique_ptr<obs::MetricRegistry> owned_registry_;  ///< when none was provided
  obs::MetricRegistry* registry_ = nullptr;
  obs::RuntimeTraceRecorder* trace_ = nullptr;
  obs::FlightRecorder* flight_ = nullptr;
  std::vector<ComputeFn> compute_;
  /// Per-edge local rings (touched only by the owning processor's
  /// thread) and cross-processor channels, all indexed by edge id.
  /// Exactly one of spsc_/blocking_ is non-null for an IPC edge; both
  /// null = processor-local edge. Direct indexing keeps the per-token
  /// hot path free of map lookups.
  std::vector<LocalRing> local_;
  std::vector<std::unique_ptr<SpscChannel>> spsc_;
  std::vector<std::unique_ptr<BlockingChannel>> blocking_;
  std::int64_t spsc_count_ = 0;
  /// Per-edge message counters for the per-firing batch increments
  /// (indexed by edge id; null entries = local edge or reliable channel,
  /// which counts for itself).
  std::vector<obs::Counter*> edge_messages_;
  std::vector<obs::Counter*> edge_payload_bytes_;
  std::vector<ChannelCounters> channel_counters_;  ///< for stats aggregation
  /// Per-(proc, step) firing contexts, built once and reused every
  /// iteration so input/output token buffers keep their heap capacity —
  /// a warm firing whose compute emits through FiringContext::emit
  /// allocates nothing. Each context is touched only by its processor's
  /// thread.
  std::vector<std::vector<FiringContext>> contexts_;
  std::vector<std::int64_t> fired_;  ///< per actor, owned by its processor's thread
  /// The PASS as (proc, step) pairs — the colocated traversal order.
  /// Each processor's program is a subsequence, so the heartbeat and
  /// context bookkeeping is shared with the gang path.
  std::vector<std::pair<std::int32_t, std::int32_t>> colocated_order_;
  /// Heartbeat/wait state, one aligned slot per worker (see
  /// WorkerState). Allocated once in init(); reset at run() entry.
  std::unique_ptr<WorkerState[]> worker_state_;
  std::size_t worker_count_ = 0;
  std::vector<std::uint64_t> colocated_epochs_;  ///< per-proc scratch
  /// Depth/watermark gauges per plan channel (indexed like
  /// channel_counters_), refreshed on scrape — never on the hot path.
  std::vector<obs::Gauge*> depth_gauges_;
  std::vector<obs::Gauge*> watermark_gauges_;
  std::int64_t run_iterations_ = 0;  ///< written before workers/server start
  std::int64_t run_inflight_cap_ = 0;  ///< this run's max_inflight_iterations
  std::int64_t last_run_ns_ = 0;     ///< wall time of the last completed run
  /// Eventcount for the in-flight cap: workers that would exceed the cap
  /// park here; every completed iteration (and any abort) notifies. Only
  /// touched when run_inflight_cap_ > 0 — the unbounded default never
  /// takes the lock.
  std::mutex inflight_mutex_;
  std::condition_variable inflight_cv_;
  std::atomic<bool> running_{false};
  std::atomic<bool> abort_{false};
  std::mutex error_mutex_;
  std::exception_ptr first_error_;
  ThreadedRunStats stats_;
  /// One monitor thread for the instance's lifetime, armed per watched
  /// run. Declared last: it is destroyed (and its thread joined) before
  /// any state its hooks read.
  std::optional<obs::ProgressWatchdog> watchdog_;
};

}  // namespace spi::core
