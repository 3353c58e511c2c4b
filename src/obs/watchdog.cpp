#include "obs/watchdog.hpp"

#include <algorithm>
#include <chrono>
#include <map>

#include "obs/metrics.hpp"
#include "obs/text_escape.hpp"

namespace spi::obs {

const char* to_string(StallKind kind) {
  switch (kind) {
    case StallKind::kNone: return "none";
    case StallKind::kDeadlock: return "deadlock";
    case StallKind::kLivelock: return "livelock";
    case StallKind::kSlowActor: return "slow-actor";
  }
  return "none";
}

namespace {

void append_worker_json(std::string& out, const WorkerSnapshot& w) {
  out += "{\"proc\":" + std::to_string(w.proc);
  out += ",\"epoch\":" + std::to_string(w.epoch);
  out += ",\"iteration\":" + std::to_string(w.iteration);
  out += ",\"completed\":" + std::to_string(w.completed);
  out += ",\"step\":" + std::to_string(w.step);
  out += ",\"actor\":" + std::to_string(w.actor);
  out += ",\"waiting_edge\":" + std::to_string(w.waiting_edge);
  out += ",\"waiting_side\":" + std::to_string(w.waiting_side);
  out += std::string(",\"done\":") + (w.done ? "true" : "false") + "}";
}

}  // namespace

std::string StallReport::to_json() const {
  std::string out = "{\"classification\":\"";
  out += to_string(kind);
  out += "\",\"edge\":" + std::to_string(edge);
  out += ",\"channel\":\"" + detail::json_escaped(channel);
  out += "\",\"actor\":" + std::to_string(actor);
  out += ",\"actor_name\":\"" + detail::json_escaped(actor_name);
  out += "\",\"window_ms\":" + std::to_string(window_ms);
  out += ",\"stalled_ms\":" + std::to_string(stalled_ms);
  out += ",\"iteration_min\":" + std::to_string(iteration_min);
  out += ",\"iteration_max\":" + std::to_string(iteration_max);
  out += ",\"inflight_iterations\":" + std::to_string(inflight_iterations);
  out += ",\"message\":\"" + detail::json_escaped(message);
  out += "\",\"workers\":[";
  for (std::size_t i = 0; i < workers.size(); ++i) {
    if (i) out += ",";
    append_worker_json(out, workers[i]);
  }
  out += "]}";
  return out;
}

std::string HealthStatus::to_json() const {
  std::string out = std::string("{\"ok\":") + (ok ? "true" : "false");
  out += ",\"verdict\":\"" + detail::json_escaped(verdict);
  out += "\",\"last_progress_ms\":" + std::to_string(last_progress_ms);
  out += ",\"window_ms\":" + std::to_string(window_ms) + "}";
  return out;
}

StallError::StallError(StallReport report)
    : std::runtime_error("SPI watchdog: " + report.message), report_(std::move(report)) {}

ProgressWatchdog::ProgressWatchdog(WatchdogOptions options, Hooks hooks)
    : options_(std::move(options)), hooks_(std::move(hooks)) {
  if (!hooks_.snapshot)
    throw std::invalid_argument("ProgressWatchdog: a snapshot hook is required");
  if (options_.window_ms <= 0)
    throw std::invalid_argument("ProgressWatchdog: window_ms must be positive");
  last_progress_ns_.store(monotonic_ns(), std::memory_order_relaxed);
}

ProgressWatchdog::~ProgressWatchdog() {
  {
    std::lock_guard lock(mutex_);
    shutdown_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void ProgressWatchdog::arm(WatchdogOptions options) {
  if (options.window_ms <= 0)
    throw std::invalid_argument("ProgressWatchdog: window_ms must be positive");
  disarm();
  std::lock_guard lock(mutex_);
  options_ = std::move(options);
  last_progress_ns_.store(monotonic_ns(), std::memory_order_relaxed);
  stalled_.store(false, std::memory_order_relaxed);
  ++generation_;
  armed_ = true;
  if (!thread_.joinable()) {
    thread_ = std::thread([this] { monitor(); });
  } else if (idle_ || options_.effective_poll_ms() < poll_ms_) {
    // A monitor still in the previous arming's poll wait needs no wake
    // when that wait is no longer than this arming's own poll period:
    // it sees the new generation when the wait times out.
    cv_.notify_all();
  }
}

void ProgressWatchdog::disarm() {
  std::unique_lock lock(mutex_);
  if (!armed_) return;
  armed_ = false;
  // The monitor checks armed_ under the lock before every sample, so
  // once the sample in progress (if any) ends, no hook can fire again.
  cv_.wait(lock, [this] { return !sampling_; });
}

StallReport ProgressWatchdog::last_report() const {
  std::lock_guard lock(mutex_);
  return last_report_;
}

HealthStatus ProgressWatchdog::health() const {
  HealthStatus status;
  std::lock_guard lock(mutex_);
  status.window_ms = options_.window_ms;
  status.last_progress_ms =
      (monotonic_ns() - last_progress_ns_.load(std::memory_order_relaxed)) / 1'000'000;
  if (stalled_.load(std::memory_order_relaxed)) {
    status.ok = false;
    status.verdict = "stalled: " + last_report_.message;
  }
  return status;
}

StallReport ProgressWatchdog::classify(const std::vector<WorkerSnapshot>& workers,
                                       std::int64_t stalled_ms) const {
  StallReport report;
  report.window_ms = options_.window_ms;
  report.stalled_ms = stalled_ms;
  report.workers = workers;

  // Only live (not-done) workers can hold the run up; a done worker's
  // frozen epoch is success, not a stall.
  std::vector<const WorkerSnapshot*> live;
  for (const WorkerSnapshot& w : workers)
    if (!w.done) live.push_back(&w);
  if (live.empty()) {
    report.kind = StallKind::kNone;
    report.classification = to_string(report.kind);
    report.message = "all workers done";
    return report;
  }

  // Iteration spread across the live workers: under cross-iteration
  // pipelining a healthy run keeps workers on *different* iterations, so
  // the spread is context for the diagnosis, never evidence of a stall
  // by itself (only frozen epochs are).
  report.iteration_min = live.front()->iteration;
  report.iteration_max = live.front()->iteration;
  for (const WorkerSnapshot* w : live) {
    report.iteration_min = std::min(report.iteration_min, w->iteration);
    report.iteration_max = std::max(report.iteration_max, w->iteration);
  }
  report.inflight_iterations = report.iteration_max - report.iteration_min + 1;

  // A worker inside a compute function (an actor is set, no channel op
  // in flight) dominates the diagnosis: everyone else is back-pressure
  // downstream/upstream of it.
  const WorkerSnapshot* busy = nullptr;
  bool all_waiting = true;
  for (const WorkerSnapshot* w : live) {
    if (w->waiting_edge < 0) {
      all_waiting = false;
      if (w->actor >= 0 && busy == nullptr) busy = w;
    }
  }

  if (busy != nullptr) {
    report.kind = StallKind::kSlowActor;
    report.actor = busy->actor;
    if (hooks_.actor_name) report.actor_name = hooks_.actor_name(busy->actor);
    report.message = "no progress for " + std::to_string(stalled_ms) + "ms; actor '" +
                     (report.actor_name.empty() ? std::to_string(report.actor)
                                                : report.actor_name) +
                     "' on proc " + std::to_string(busy->proc) +
                     " is executing and not returning";
  } else if (all_waiting) {
    // Every live worker is parked on a channel: a cyclic (or dead-edge)
    // wait. Name the channel with the most waiters — in the
    // dropped-forever reliability case that is the dead edge, with the
    // producer retransmitting into it and the consumer timing out on it.
    std::map<std::int32_t, int> waiters;
    for (const WorkerSnapshot* w : live) ++waiters[w->waiting_edge];
    std::int32_t edge = live.front()->waiting_edge;
    int best = 0;
    for (const auto& [e, n] : waiters)
      if (n > best) {
        best = n;
        edge = e;
      }
    report.kind = StallKind::kDeadlock;
    report.edge = edge;
    if (hooks_.channel_name) report.channel = hooks_.channel_name(edge);
    report.message = "no progress for " + std::to_string(stalled_ms) +
                     "ms; all workers blocked on channels, most on '" +
                     (report.channel.empty() ? "edge " + std::to_string(edge)
                                             : report.channel) +
                     "' (edge " + std::to_string(edge) + ")";
  } else {
    report.kind = StallKind::kLivelock;
    report.message = "no progress for " + std::to_string(stalled_ms) +
                     "ms; workers are running but no firing completes";
  }
  report.classification = to_string(report.kind);
  if (report.inflight_iterations > 1)
    report.message += "; " + std::to_string(report.inflight_iterations) +
                      " iterations in flight [" + std::to_string(report.iteration_min) +
                      ".." + std::to_string(report.iteration_max) + "]";
  // The classification leads the message so log lines, StallError
  // what() and /healthz verdicts all name the verdict verbatim.
  report.message = report.classification + (": " + report.message);
  return report;
}

void ProgressWatchdog::monitor() {
  std::vector<std::uint64_t> last_epochs;
  std::unique_lock lock(mutex_);
  for (;;) {
    if (!armed_ && !shutdown_) {
      idle_ = true;
      cv_.wait(lock, [this] { return armed_ || shutdown_; });
      idle_ = false;
    }
    if (shutdown_) return;
    // One arming: the first sample is the epoch baseline, then one
    // sample per poll period until disarm(), a re-arm or shutdown.
    const std::uint64_t generation = generation_;
    poll_ms_ = options_.effective_poll_ms();
    const auto poll = std::chrono::milliseconds(poll_ms_);
    const auto watching = [&] { return armed_ && generation_ == generation && !shutdown_; };
    last_epochs.clear();
    bool fired = false;
    do {
      sampling_ = true;
      lock.unlock();
      sample(last_epochs, fired);
      lock.lock();
      sampling_ = false;
      cv_.notify_all();  // a disarm() may be waiting for this sample
    } while (!cv_.wait_for(lock, poll, [&] { return !watching(); }));
  }
}

void ProgressWatchdog::sample(std::vector<std::uint64_t>& last_epochs, bool& fired) {
  const std::vector<WorkerSnapshot> workers = hooks_.snapshot();
  const std::int64_t now = monotonic_ns();

  bool progressed = last_epochs.size() != workers.size();
  bool all_done = !workers.empty();
  for (std::size_t i = 0; i < workers.size(); ++i) {
    if (!workers[i].done) all_done = false;
    if (!progressed && (workers[i].epoch != last_epochs[i] || workers[i].done))
      progressed = true;
  }
  last_epochs.resize(workers.size());
  for (std::size_t i = 0; i < workers.size(); ++i) last_epochs[i] = workers[i].epoch;

  if (progressed || all_done) {
    last_progress_ns_.store(now, std::memory_order_relaxed);
    if (fired || stalled_.load(std::memory_order_relaxed)) {
      // Progress resumed after a (non-aborting) stall: re-arm.
      stalled_.store(false, std::memory_order_relaxed);
      fired = false;
    }
    return;
  }

  const std::int64_t stalled_ns = now - last_progress_ns_.load(std::memory_order_relaxed);
  if (fired || stalled_ns < options_.window_ms * 1'000'000) return;
  const StallReport report = classify(workers, stalled_ns / 1'000'000);
  if (report.kind == StallKind::kNone) return;
  {
    std::lock_guard report_lock(mutex_);
    last_report_ = report;
  }
  stalled_.store(true, std::memory_order_relaxed);
  fired = true;
  if (options_.on_stall) options_.on_stall(report);
  if (hooks_.on_stall) hooks_.on_stall(report, options_);
}

}  // namespace spi::obs
