/// \file watchdog.hpp
/// Stall-detecting progress watchdog for core::JobInstance runs.
///
/// A JobInstance publishes one heartbeat epoch per worker — a relaxed
/// atomic counter bumped once per firing (the only hot-path cost is that
/// single store to a worker-private cache line). The watchdog samples
/// those epochs from its own monitor thread: when *no* live worker's
/// epoch advances for a configurable window, the run has stopped making
/// progress, and the watchdog classifies the stall from the workers'
/// published wait state:
///
///  * **deadlock**  — every stalled worker is blocked on a channel
///    operation; the report names the channel with the most waiters
///    (in the classic dropped-forever reliability stall that is the
///    dead edge, with its producer stuck retransmitting and its
///    consumer stuck in the receive timeout).
///  * **slow-actor** — at least one stalled worker is *inside* a
///    compute function (not waiting on any channel); the others are
///    victims of its back-pressure. The report names the actor.
///  * **livelock**  — workers are neither waiting nor inside an actor
///    (e.g. spinning between firings) yet nothing advances.
///
/// The watchdog itself is runtime-agnostic: it sees the world only
/// through the `Hooks` (a snapshot function plus name resolvers), so it
/// lives in obs without a dependency on core. A JobInstance keeps one
/// for its lifetime and arms it around each watched run, dumps a
/// flight-recorder post-mortem + /runtime snapshot when it fires, and
/// turns the report into a StallError when `abort_on_stall` is set.
/// docs/observability.md ("Progress watchdog") covers tuning.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace spi::obs {

/// One worker's published state as sampled by the watchdog (and served
/// by /runtime). All fields come from relaxed per-worker atomics, so a
/// snapshot is approximate across workers but exact enough for
/// liveness: an epoch that never changes is a worker that never fires.
struct WorkerSnapshot {
  std::int32_t proc = 0;
  std::uint64_t epoch = 0;        ///< firings completed (heartbeat)
  std::int64_t iteration = 0;     ///< graph iteration being executed
  std::int64_t completed = 0;     ///< graph iterations fully completed
  std::int32_t step = -1;         ///< index into the proc's firing program
  std::int32_t actor = -1;        ///< actor of the current firing (-1 between firings)
  std::int32_t waiting_edge = -1; ///< edge id of the channel op in progress (-1: none)
  std::int32_t waiting_side = -1; ///< 0 = consuming inputs, 1 = producing outputs
  bool done = false;              ///< worker finished its iterations (or unwound)
};

enum class StallKind { kNone, kDeadlock, kLivelock, kSlowActor };

/// "deadlock" / "livelock" / "slow-actor" / "none" — used in report
/// JSON, post-mortem dump filenames and /healthz verdicts.
[[nodiscard]] const char* to_string(StallKind kind);

/// Everything the watchdog knows about one detected stall.
struct StallReport {
  StallKind kind = StallKind::kNone;
  std::string classification;       ///< to_string(kind)
  std::int32_t edge = -1;           ///< blocking edge (deadlock) or -1
  std::string channel;              ///< name of the blocking channel, "" if none
  std::int32_t actor = -1;          ///< stuck actor (slow-actor) or -1
  std::string actor_name;           ///< resolved actor name, "" if none
  std::int64_t window_ms = 0;       ///< configured no-progress window
  std::int64_t stalled_ms = 0;      ///< measured time since the last progress
  /// Iteration spread across the live workers at detection — under
  /// cross-iteration pipelining the stalled workers are legitimately on
  /// *different* iterations, and the spread tells the operator how deep
  /// the overlapped window was when it wedged.
  std::int64_t iteration_min = 0;   ///< lowest live-worker iteration
  std::int64_t iteration_max = 0;   ///< highest live-worker iteration
  std::int64_t inflight_iterations = 0;  ///< iteration_max - iteration_min + 1 (0: no live workers)
  std::string message;              ///< one-line human summary
  std::vector<WorkerSnapshot> workers;  ///< per-worker state at detection

  /// Self-contained JSON object (strict, json_check-clean); embedded
  /// verbatim in watchdog post-mortem dumps and /runtime output.
  [[nodiscard]] std::string to_json() const;
};

/// Liveness verdict served by /healthz.
struct HealthStatus {
  bool ok = true;
  std::string verdict = "ok";       ///< "ok" | "idle" | "stalled: ..."
  std::int64_t last_progress_ms = 0;  ///< ms since a worker last advanced
  std::int64_t window_ms = 0;         ///< configured stall window (0: no watchdog)
  [[nodiscard]] std::string to_json() const;
};

/// Watchdog configuration carried by RunOptions.
struct WatchdogOptions {
  bool enabled = false;
  std::int64_t window_ms = 1000;  ///< no-progress window before a stall fires
  std::int64_t poll_ms = 0;       ///< epoch sampling period; 0 = max(10, window/4)
  /// Directory for the stall post-mortem (flight dump + runtime
  /// snapshot), written by the JobInstance when the watchdog fires.
  /// Empty = current directory.
  std::string dump_dir;
  /// When true (default) a stall aborts the run: workers are
  /// interrupted and run() throws StallError after dumping the
  /// post-mortem. When false the run is left executing (the callback
  /// observes the stall; /healthz turns unhealthy).
  bool abort_on_stall = true;
  /// User callback invoked once per stall episode, from the monitor
  /// thread, before any abort is initiated.
  std::function<void(const StallReport&)> on_stall;

  [[nodiscard]] std::int64_t effective_poll_ms() const {
    if (poll_ms > 0) return poll_ms;
    return window_ms / 4 > 10 ? window_ms / 4 : 10;
  }
};

/// Thrown out of JobInstance::run() when the watchdog aborts a
/// stalled run (abort_on_stall). Carries the full report.
class StallError : public std::runtime_error {
 public:
  explicit StallError(StallReport report);
  [[nodiscard]] const StallReport& report() const { return report_; }

 private:
  StallReport report_;
};

/// The monitor: one thread, created by the first arm() and joined by the
/// destructor. While armed it samples worker snapshots every poll
/// period, detects no-progress windows, classifies them and fires the
/// hooks; each stall episode fires once and re-arms when progress
/// resumes. While disarmed it blocks with no timeout, and arm()/disarm()
/// wake it only when they must, so back-to-back runs start and join no
/// thread and usually cause no context switch at all.
class ProgressWatchdog {
 public:
  struct Hooks {
    /// Required: the current per-worker state (a JobInstance reads its
    /// relaxed worker atomics).
    std::function<std::vector<WorkerSnapshot>()> snapshot;
    /// Optional name resolvers for the report.
    std::function<std::string(std::int32_t)> actor_name;
    std::function<std::string(std::int32_t)> channel_name;
    /// Fired once per stall episode from the monitor thread (after the
    /// user callback in `options.on_stall`, which fires first), with the
    /// options the watchdog was armed with. The runtime uses this to
    /// dump post-mortems and abort.
    std::function<void(const StallReport&, const WatchdogOptions&)> on_stall;
  };

  /// `options` serve classify() and health() until the first arm().
  ProgressWatchdog(WatchdogOptions options, Hooks hooks);
  ProgressWatchdog(const ProgressWatchdog&) = delete;
  ProgressWatchdog& operator=(const ProgressWatchdog&) = delete;
  ~ProgressWatchdog();

  /// Starts watching under `options` (window, poll period, callbacks),
  /// with the progress clock and the stalled flag reset; the first call
  /// creates the monitor thread. Arming an armed watchdog disarms it
  /// first. Throws std::invalid_argument on a non-positive window.
  void arm(WatchdogOptions options);
  /// Stops watching. Once it returns no hook is running and none will
  /// fire for this arming, so a late stall never reaches the next run.
  /// Must not be called from a hook.
  void disarm();

  [[nodiscard]] bool stalled() const { return stalled_.load(std::memory_order_relaxed); }
  /// Last stall report (kind == kNone when no stall ever fired).
  [[nodiscard]] StallReport last_report() const;
  /// Liveness verdict for /healthz.
  [[nodiscard]] HealthStatus health() const;

  /// Pure classification logic, exposed for unit tests: given the
  /// stalled worker set and the measured stall duration, produce the
  /// report (names resolved through the hooks).
  [[nodiscard]] StallReport classify(const std::vector<WorkerSnapshot>& workers,
                                     std::int64_t stalled_ms) const;

 private:
  void monitor();
  /// One sample of the armed run: tracks progress against `last_epochs`
  /// and fires the hooks when the window elapses (`fired` latches one
  /// firing per episode).
  void sample(std::vector<std::uint64_t>& last_epochs, bool& fired);

  /// Written by arm() under mutex_ while no sample runs; read by the
  /// monitor without the lock while armed.
  WatchdogOptions options_;
  Hooks hooks_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  // Guarded by mutex_:
  bool armed_ = false;
  bool shutdown_ = false;
  bool idle_ = false;             ///< monitor blocked with no timeout
  bool sampling_ = false;         ///< monitor inside sample(), hooks included
  std::uint64_t generation_ = 0;  ///< bumped by every arm()
  std::int64_t poll_ms_ = 0;      ///< poll period of the monitor's current arming

  std::atomic<bool> stalled_{false};
  std::atomic<std::int64_t> last_progress_ns_{0};
  StallReport last_report_;  ///< guarded by mutex_
  std::thread thread_;       ///< the monitor; declared after all it uses
};

}  // namespace spi::obs
