/// \file job_queue.hpp
/// Per-tenant job queues for the plan server (docs/serving.md).
///
/// Jobs admitted from one HTTP read burst are queued per tenant (the
/// unit of admission), then drained in request order across tenants:
/// each maximal stretch of consecutive jobs of one app is ONE colocated
/// run, so N such speech jobs become N graph iterations through one
/// JobInstance — one program traversal amortized over the whole stretch
/// (dataflow determinacy makes the per-job results bit-identical to N
/// separate runs; the serve tests assert it).
///
/// Single-threaded like the rest of the serve layer: queues live on the
/// server's poll thread.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <utility>

namespace spi::serve {

/// The built-in model a job runs on, resolved once when it is routed.
enum class App : std::uint8_t { kSpeech, kParticle };

/// One admitted job waiting for its run: which burst slot to answer,
/// which model runs it, and the raw request body (parsed at drain time).
/// The trace fields are the job's request-lifecycle context
/// (obs/request_trace.hpp): span id plus the ingest and enqueue stamps,
/// carried through the queue so the drain can attribute queue wait.
struct QueuedJob {
  std::size_t request_index = 0;  ///< slot in the burst's response vector
  App app = App::kSpeech;
  std::string body;               ///< request JSON
  std::uint64_t span_id = 0;      ///< 0 = untraced
  std::int64_t ingest_ns = 0;     ///< burst entry (tracer clock)
  std::int64_t enqueued_ns = 0;   ///< enqueue stamp (shared per burst)
};

class JobQueue {
 public:
  explicit JobQueue(std::string tenant) : tenant_(std::move(tenant)) {}

  void push(QueuedJob job) {
    queue_.push_back(std::move(job));
    depth_watermark_ = std::max<std::int64_t>(depth_watermark_, depth());
  }

  [[nodiscard]] const QueuedJob& front() const { return queue_.front(); }

  QueuedJob pop() {
    QueuedJob job = std::move(queue_.front());
    queue_.pop_front();
    return job;
  }

  [[nodiscard]] bool empty() const { return queue_.empty(); }
  [[nodiscard]] std::int64_t depth() const { return static_cast<std::int64_t>(queue_.size()); }
  /// High-water queue depth since construction (a gauge on /metrics —
  /// the closest the synchronous server gets to "queueing delay").
  [[nodiscard]] std::int64_t depth_watermark() const { return depth_watermark_; }
  /// Re-bases the watermark on the current depth (scrape-and-reset
  /// consumers). Monotonic between resets; never drops below depth().
  void reset_watermark() { depth_watermark_ = depth(); }
  [[nodiscard]] std::int64_t jobs_served() const { return jobs_served_; }
  void count_served(std::int64_t n) { jobs_served_ += n; }
  [[nodiscard]] const std::string& tenant() const { return tenant_; }

 private:
  std::string tenant_;
  std::deque<QueuedJob> queue_;
  std::int64_t depth_watermark_ = 0;
  std::int64_t jobs_served_ = 0;
};

}  // namespace spi::serve
