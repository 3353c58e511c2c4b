/// \file job_instance.hpp
/// One compiled plan instance and its executor: channels, firing
/// contexts, worker heartbeats, statistics, and the two ways to run
/// them (docs/serving.md, "The execution stack").
///
/// A JobInstance is built once from an ExecutablePlan and executed many
/// times. `run(options)` is the paper's self-timed execution: it starts
/// one thread per processor (plan.programs.size() of them) from the
/// calling thread, each running its own program, and joins them all
/// before it returns — only the channels couple the threads.
/// `run_colocated(...)` executes the whole iteration on the *calling*
/// thread by walking the plan's PASS in its admissible sequential order.
/// Both run the same resolved firing records; with one thread at both
/// ends, a plain interprocessor edge is a local ring whose tokens are
/// swapped, not copied. Dataflow determinacy makes both orders produce
/// bit-identical token streams — the serve layer exploits that to batch
/// many queued jobs into one program traversal without a single
/// cross-thread handoff. Constructing an instance starts no thread.
///
/// run_colocated is the one sequential executor of a plan: every
/// single-threaded run (the apps' sequential entry points, the examples,
/// the functional tests) is a JobInstance walking the PASS. Both run
/// kinds check each token's shape as they route it (set_compute).
///
/// Instances are isolated: each owns its channel slabs and freelists, so
/// concurrent JobInstances of the same (or different) plans never share
/// a buffer. When several instances feed one MetricRegistry, pass a
/// distinct `label` so their per-channel series do not collide.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/firing_context.hpp"
#include "core/plan.hpp"
#include "core/reliable_link.hpp"
#include "core/spsc_channel.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/watchdog.hpp"
#include "sim/fault.hpp"

namespace spi::core {

/// Retry/backoff/timeout knobs of a reliable run without a fault plan.
inline const sim::RetryPolicy kDefaultRetryPolicy{};

/// Turns the runtime's interprocessor channels into reliable links.
struct ReliabilityOptions {
  bool enabled = false;
  /// Deterministic fault injection on every interprocessor wire. Not
  /// owned; must outlive the runtime. Null = perfect wire (the protocol
  /// still frames, sequences and CRC-checks every message).
  const sim::FaultPlan* faults = nullptr;

  /// Retry/backoff/timeout knobs: the fault plan's embedded retry()
  /// policy, so one fault-plan file configures everything; without a
  /// plan, kDefaultRetryPolicy.
  [[nodiscard]] const sim::RetryPolicy& policy() const {
    return faults ? faults->retry() : kDefaultRetryPolicy;
  }
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
/// to run({.iterations = n}). There is no iteration gate: under
/// run(...) every worker free-runs into its next iteration as soon
/// as its own channels permit, so the eq.-2 channel capacities are the
/// only bound on cross-iteration overlap (docs/architecture.md).
struct RunOptions {
  std::int64_t iterations = 1;
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

  /// Registers an actor's computation (must be called before run()).
  /// An actor without one emits zero-filled full-rate tokens. A compute
  /// must fill each output with the edge's rate of tokens: exactly
  /// token-sized on a static edge, a whole number of raw tokens up to
  /// b_max on a converted one; anything else fails the run with a
  /// std::logic_error (std::length_error above b_max).
  /// Compute functions for actors on different processors run
  /// concurrently under run() — they must not share mutable
  /// state without their own synchronization. Re-registering between
  /// runs is allowed (the serve layer rewires per batch).
  void set_compute(df::ActorId actor, ComputeFn fn);

  /// Attaches a flight recorder (docs/observability.md). The recorder's
  /// proc_count must cover the plan's. Not owned; must outlive run().
  /// Null detaches.
  void set_flight_recorder(obs::FlightRecorder* recorder);

  /// Runs `options.iterations` graph iterations on proc_count() threads
  /// started from the calling thread (so they inherit its CPU affinity),
  /// one per processor, and joins every one of them on every exit path.
  /// Exceptions thrown by compute functions or by the reliable transport
  /// (sim::ChannelError) — or by starting a thread — are rethrown on the
  /// caller thread (first one wins), after every edge is restored to its
  /// delay tokens, so the instance runs again cleanly. stats() is reset
  /// on entry and aggregated on every exit path. Optionally mounts the
  /// embedded telemetry server (options.obs_port) and the progress
  /// watchdog (options.watchdog) for the duration of the run; a
  /// watchdog stall with abort_on_stall interrupts the workers and
  /// throws obs::StallError after writing the post-mortems.
  void run(const RunOptions& options);
  void run(std::int64_t iterations);

  /// Colocated execution: the *calling* thread walks the plan's PASS —
  /// its admissible sequential order — over the same firing records, so
  /// a whole batch of iterations executes with zero cross-thread
  /// traffic. Every plain interprocessor edge becomes a local ring for
  /// the run (its delay tokens move there at entry and back on a clean
  /// exit); reliable edges keep their ring and protocol. Admissibility
  /// guarantees no token operation ever waits. Channel message/byte
  /// counters are updated at each segment end and at run end. Same
  /// watchdog/stats/error semantics as run(); the embedded telemetry
  /// server is also honored (a serving daemon normally mounts its own
  /// HTTP front instead and leaves obs_port negative).
  void run_colocated(const RunOptions& options);
  void run_colocated(std::int64_t iterations);

  /// Told that segment k of a segmented colocated run has completed.
  using SegmentFn = std::function<void(std::int64_t segment)>;
  /// run_colocated in segments of varying length: segment k ends with
  /// iteration segment_ends[k] - 1, and `on_segment(k)` runs on the
  /// calling thread as soon as that iteration completes, before the next
  /// one starts. The ends must be strictly increasing from a first end
  /// above 0, and the last must equal options.iterations; anything else
  /// throws std::invalid_argument before the run starts. `on_segment`
  /// runs inside the run: the watchdog stays armed through it and a
  /// throw from it fails the run like a compute's. The serve layer runs
  /// one job per segment, so a segment's length is a parameter rebound
  /// between segments of one fixed graph and schedule.
  void run_colocated(const RunOptions& options, std::span<const std::int64_t> segment_ends,
                     const SegmentFn& on_segment);

  /// Resets the per-actor invocation counters that feed
  /// FiringContext::invocation. No run calls this itself (invocations
  /// stay cumulative across runs); the serve layer resets per batch so
  /// computes can index batch inputs by invocation.
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

  [[nodiscard]] const ReliabilityOptions& reliability() const { return reliability_; }
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

  /// A processor-local edge's FIFO (and a plain IPC edge's in a
  /// colocated run): a ring of token buffers that trade places with the
  /// producer's output token and the consumer's input slot, so storage
  /// circulates instead of being freed and reallocated. init() sizes it
  /// for one iteration's traffic plus the delays; it grows only if a
  /// schedule ever needs more.
  struct LocalRing {
    std::vector<Bytes> slots;
    std::size_t head = 0;
    std::size_t count = 0;
    /// The tail slot, counted as queued; the caller fills or swaps it.
    Bytes& push_slot();
    Bytes& front() { return slots[head]; }
    void pop() { --count; if (++head == slots.size()) head = 0; }
  };

  /// Where an edge's tokens live between firings.
  enum class Store : std::uint8_t {
    kLocal,     ///< processor-local: the LocalRing
    kRing,      ///< plain IPC: the SpscChannel in a gang, else the LocalRing
    kReliable,  ///< reliable IPC: the protocol over the SpscChannel
  };

  /// One edge as the firing routine sees it, resolved at init().
  struct EdgeState {
    df::EdgeId id = -1;
    Store store = Store::kLocal;
    /// The token size routing accepts without a closer look: a static
    /// token's exact size, a converted edge's b_max (what the default
    /// compute emits).
    std::size_t token_bytes = 0;
    /// Converted edges only (0 on static ones): a packed token is a whole
    /// number of raw tokens of this size, at most token_bytes in all.
    std::size_t raw_token_bytes = 0;
    LocalRing local;
    std::unique_ptr<SpscChannel> ring;           ///< IPC edges only
    std::unique_ptr<ReliableSender> sender;      ///< reliable edges: producer end
    std::unique_ptr<ReliableReceiver> receiver;  ///< reliable edges: consumer end
    ChannelCounters counters;                    ///< all null on local edges
    /// A colocated run's messages/bytes not yet added to the registry,
    /// and the flight sequence numbers of its next send / receive.
    std::int64_t messages = 0, payload_bytes = 0, send_seq = 0, recv_seq = 0;
  };

  /// One (proc, step) of a program, lowered at init(): its persistent
  /// firing context (buffers keep their capacity across iterations) and
  /// each port's edge and token rate. Touched only by proc's thread.
  struct Firing {
    struct Port { EdgeState* edge; std::size_t rate; };
    std::int32_t proc = 0, step = 0;
    FiringContext ctx;
    std::vector<Port> in, out;
  };

  void init();
  /// Records `error` as the run's error unless one is already recorded,
  /// then aborts the run and wakes every channel wait.
  void fail(std::exception_ptr error);
  void interrupt_all();
  /// Empties both stores of every edge and puts its delay tokens on it:
  /// the state a run starts from. init() and the failure path (a failed
  /// run leaves edges mid-iteration). Only while no worker body runs.
  void reset_tokens();
  /// Shared run prologue/epilogue (abort/error/stats/heartbeat reset,
  /// watchdog + telemetry mounts, error rethrow) around `execute`,
  /// which records its errors through fail() instead of throwing and
  /// returns only once every worker body has finished.
  void run_with(const RunOptions& options, const std::function<void()>& execute);
  /// Creates the instance's watchdog on the first watched run; every
  /// later run re-arms the same monitor thread.
  void ensure_watchdog(const obs::WatchdogOptions& options);
  void worker(std::int32_t proc, std::int64_t iterations);
  /// The colocated worker body: PASS order, one thread, all procs;
  /// `on_segment` (nullable) at each of `segment_ends`.
  void colocated_body(std::int64_t iterations, std::span<const std::int64_t> segment_ends,
                      const SegmentFn* on_segment);
  /// The one firing routine of both run kinds. `colocated`: the calling
  /// thread owns both ends of every edge, so plain IPC edges use their
  /// local ring and nothing publishes a wait state.
  void fire(Firing& firing, WorkerState& ws, std::int64_t iteration, bool colocated);
  /// Throws for a token of `size` bytes that does not fit edge `e`: on a
  /// static edge a std::logic_error; on a converted edge a packed token
  /// above b_max is a std::length_error, one that is not a whole number
  /// of raw tokens a std::logic_error.
  [[noreturn]] void throw_token_shape(const EdgeState& e, std::size_t size) const;
  /// Adds a colocated run's pending channel traffic to the registry.
  void flush_traffic();
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

  const ExecutablePlan& plan_;
  const df::Graph& graph_;  ///< the VTS-converted graph
  ReliabilityOptions reliability_;
  std::string label_;
  std::unique_ptr<obs::MetricRegistry> owned_registry_;  ///< when none was provided
  obs::MetricRegistry* registry_ = nullptr;
  obs::FlightRecorder* flight_ = nullptr;
  /// flight_ is attached and armed: read once per run, before any worker
  /// body starts, so a disarmed recorder costs the firings nothing.
  bool recording_ = false;
  std::vector<ComputeFn> compute_;
  std::vector<EdgeState> edges_;  ///< indexed by edge id
  /// Zeros for initial tokens (the widest token).
  Bytes zero_token_;
  std::vector<std::vector<Firing>> programs_;  ///< per proc, in program order
  std::vector<std::int64_t> fired_;  ///< per actor, owned by its processor's thread
  /// The PASS as firing records — the colocated traversal order. Each
  /// processor's program is a subsequence, so the heartbeat and context
  /// bookkeeping is shared with the gang path.
  std::vector<Firing*> colocated_order_;
  /// Heartbeat/wait state, one aligned slot per worker (see
  /// WorkerState). Allocated once in init(); reset at run() entry.
  std::unique_ptr<WorkerState[]> worker_state_;
  std::size_t worker_count_ = 0;
  std::vector<std::uint64_t> colocated_epochs_;  ///< per-proc scratch
  /// Depth/watermark gauges per plan channel (indexed like
  /// plan_.channels), refreshed on scrape — never on the hot path.
  std::vector<obs::Gauge*> depth_gauges_;
  std::vector<obs::Gauge*> watermark_gauges_;
  std::int64_t run_iterations_ = 0;  ///< written before workers/server start
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
