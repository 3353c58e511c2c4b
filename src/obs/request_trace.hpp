/// \file request_trace.hpp
/// Span-based request-lifecycle tracing for the serving layer
/// (docs/serving.md, docs/observability.md).
///
/// The paper's contribution is *accounting*: attributing every cycle of
/// an iteration period to computation, communication or synchronization.
/// The plan server extends that discipline to the request path — every
/// admitted job carries a trace context stamped at each stage boundary:
///
///   ingest -> admission verdict -> tenant queue -> batch formation ->
///   colocated gang firing -> response write
///
/// Stage durations are defined to tile the request exactly: admission +
/// queue + batch + exec + reply == end-to-end, by construction, so the
/// per-stage attribution always sums to the measured request latency.
///
/// Cost model (the serve bench enforces < 2% traced-vs-bare regression):
///
///  * every completed request: a handful of relaxed counter adds into
///    cached per-tenant instruments (spi_serve_stage_ns_total{tenant,
///    stage} et al) — complete accounting, no sampling error in totals;
///  * head-sampled requests (1 in sample_every, decided at ingest from
///    the span id): a full span copy into a bounded overwrite ring plus
///    per-stage histogram observations;
///  * tail outliers: the slowest-N reservoir captures a span regardless
///    of the sampling decision — the requests worth debugging are never
///    the ones head sampling happens to keep.
///
/// Threading: spans are produced and rendered on the server's poll
/// thread (the single-threaded serve contract); the ring is a bounded
/// single-writer overwrite ring and the aggregate counters are relaxed
/// atomics, so cross-thread readers (metric scrapes from an embedded
/// registry, tests) see consistent totals without locks.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"

namespace spi::obs {

/// Request stages, in pipeline order. Label values of the `stage` label
/// on spi_serve_stage_* series.
enum class RequestStage : std::uint8_t {
  kAdmission = 0,  ///< burst ingest -> parse + admission verdict + enqueue
  kQueue = 1,      ///< enqueue -> tenant queue drain start
  kBatch = 2,      ///< drain start -> batch formed (drain-time parsing)
  kExec = 3,       ///< batch formed -> colocated gang firing returned
  kReply = 4,      ///< firing returned -> response bodies written
};
inline constexpr std::size_t kRequestStageCount = 5;

[[nodiscard]] const char* request_stage_name(RequestStage stage);

/// One request's POD trace record. Strings (tenant, app) ride alongside
/// only when a span is stored (sampled or outlier) — the hot path never
/// copies them.
struct RequestSpan {
  std::uint64_t id = 0;        ///< monotonic span id (1-based)
  int status = 200;            ///< HTTP status of the response
  std::int64_t batch_id = -1;  ///< colocated batch this job rode in (-1 = none)
  std::int32_t batch_size = 0;
  bool sampled = false;         ///< head-sampling decision, made at ingest
  std::int64_t ingest_ns = 0;  ///< burst entry, tracer clock
  std::int64_t stage_ns[kRequestStageCount] = {};

  /// Stages tile the request: their sum IS the end-to-end latency.
  [[nodiscard]] std::int64_t e2e_ns() const {
    std::int64_t total = 0;
    for (const std::int64_t ns : stage_ns) total += ns;
    return total;
  }
};

/// A span as stored in the ring / outlier reservoir.
struct StoredRequestSpan {
  RequestSpan span;
  std::string tenant;
  std::string app;
};

struct RequestTracerOptions {
  bool enabled = true;
  /// Head-sampling period: 1 span in `sample_every` is kept in the ring
  /// (and observed into the per-stage histograms). Clamped to >= 1.
  std::int64_t sample_every = 64;
  /// Bounded ring of recent sampled spans (oldest overwritten).
  std::size_t ring_capacity = 512;
  /// Slowest-N reservoir, captured regardless of sampling.
  std::size_t outlier_capacity = 16;
  /// Flight-log bridge period: 1 in `flight_every` *sampled* batches
  /// also captures its colocated firing log (GET /trace/flight). The
  /// capture — FlightRecorder::collect plus JSON rendering at scrape —
  /// is orders of magnitude pricier than a span, so it is sampled much
  /// more coarsely than spans are. The first sampled batch always
  /// captures. Clamped to >= 1.
  std::int64_t flight_every = 64;
  /// Label-cardinality cap: tenants beyond this aggregate under the
  /// tenant="_other" series (the serve layer keeps per-tenant queues
  /// regardless; only the metric label space is capped).
  std::size_t max_tenants = 64;
};

/// Cached per-tenant instrument handles. Registry lookups take a lock;
/// the serve layer resolves a tenant's series once and stamps through
/// the cached pointers on every request.
struct TenantSeries {
  std::string name;  ///< tenant label value ("_other" for overflow)
  Counter* requests = nullptr;   ///< completed spans
  Counter* rejects = nullptr;    ///< completed with a 429 verdict
  Counter* e2e_ns = nullptr;     ///< sum of end-to-end ns, all spans
  Counter* stage_ns[kRequestStageCount] = {};
  Histogram* e2e_seconds = nullptr;  ///< sampled spans only
  Histogram* stage_seconds[kRequestStageCount] = {};
};

class RequestTracer {
 public:
  RequestTracer(RequestTracerOptions options, MetricRegistry& registry);

  [[nodiscard]] bool enabled() const { return options_.enabled; }
  [[nodiscard]] const RequestTracerOptions& options() const { return options_; }

  /// Nanoseconds since tracer construction (steady clock).
  [[nodiscard]] std::int64_t now_ns() const;

  /// Allocates the next span id (1-based). The sampling decision is a
  /// pure function of the id — "head" sampling: decided at ingest.
  [[nodiscard]] std::uint64_t begin_span();
  [[nodiscard]] bool is_sampled(std::uint64_t id) const {
    return options_.enabled && (id - 1) % static_cast<std::uint64_t>(sample_every_) == 0;
  }

  /// Resolves (and caches) the instrument handles for `tenant`; returns
  /// nullptr when tracing is disabled. Stable for the tracer's lifetime.
  TenantSeries* tenant_series(const std::string& tenant);

  /// Completes a span: aggregate counters always; ring + histograms when
  /// sampled; outlier reservoir when slow enough. `tenant`/`app` are
  /// only copied when the span is actually stored.
  void complete(TenantSeries& series, const RequestSpan& span, const std::string& tenant,
                const std::string& app);

  /// Completes `ids.size()` jobs of one drained batch that share every
  /// stage boundary as copies of `span`. The jobs of a batch that
  /// answers once share them by construction — the stage stamps are
  /// taken once per batch, the enqueue stamp once per burst, and the
  /// whole batch answers with one status; a job answered on its own
  /// (its exec ends with its own iterations) is a call with one id. The
  /// aggregate counters collapse to one multiplied add per instrument
  /// and the only per-job work left is the head-sampling check on each
  /// id. Sampled ids are stored individually (ring + histograms +
  /// outlier reservoir); an unsampled batch still offers one
  /// representative to the reservoir, so slow batches are captured
  /// regardless of the sampling decision.
  void complete_batch(TenantSeries& series, RequestSpan span,
                      std::span<const std::uint64_t> ids, const std::string& tenant,
                      const std::string& app);

  /// Flight-bridge pacing: true when the sampled batch being formed
  /// should also capture its firing log (every `flight_every`-th sampled
  /// batch; the first one always captures, so a fresh server yields a
  /// loadable log as soon as anything samples).
  [[nodiscard]] bool want_flight() {
    return options_.enabled && (flight_tick_++ % flight_every_) == 0;
  }

  /// Remembers the flight-recorder log of the most recent captured batch
  /// (servable at GET /trace/flight — serialized there, off the request
  /// path).
  void note_flight(std::int64_t batch_id, FlightLog log);
  [[nodiscard]] std::int64_t flight_batch() const { return flight_batch_; }
  [[nodiscard]] std::string flight_json() const { return flight_log_.to_json(); }
  [[nodiscard]] bool has_flight() const { return flight_batch_ >= 0; }

  [[nodiscard]] std::int64_t requests_total() const {
    return requests_total_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t sampled_total() const {
    return sampled_total_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t outlier_min_ns() const { return outlier_min_ns_; }

  /// GET /trace body: recent sampled spans (oldest first), the slowest-N
  /// reservoir (slowest first), and the tracer config/totals. Span
  /// objects are FLAT (no nesting) so line tooling can scan them.
  [[nodiscard]] std::string trace_json() const;

  /// Appends one tenant's rollup fields (no enclosing braces): request
  /// totals and per-stage means from the complete counters, percentiles
  /// from the sampled histograms.
  void append_rollup_json(std::string& out, const TenantSeries& series) const;

 private:
  /// The storage half of completing a span: sampled ring + histograms,
  /// outlier reservoir. Shared by complete() and complete_batch().
  void store_span(TenantSeries& series, const RequestSpan& span, std::int64_t e2e,
                  const std::string& tenant, const std::string& app);
  void store_outlier(const RequestSpan& span, const std::string& tenant, const std::string& app);
  TenantSeries* make_series(const std::string& tenant);

  RequestTracerOptions options_;
  MetricRegistry& registry_;
  std::int64_t sample_every_ = 1;
  std::int64_t flight_every_ = 1;
  std::int64_t flight_tick_ = 0;  ///< sampled batches seen (flight pacing)
  std::chrono::steady_clock::time_point epoch_;

  std::atomic<std::int64_t> requests_total_{0};
  std::atomic<std::int64_t> sampled_total_{0};

  std::map<std::string, std::unique_ptr<TenantSeries>> series_;
  TenantSeries* other_series_ = nullptr;

  std::vector<StoredRequestSpan> ring_;  ///< bounded overwrite ring
  std::uint64_t ring_count_ = 0;         ///< spans ever pushed

  std::vector<StoredRequestSpan> outliers_;  ///< <= outlier_capacity
  std::int64_t outlier_min_ns_ = 0;          ///< reservoir admission threshold

  std::int64_t flight_batch_ = -1;
  FlightLog flight_log_;
};

}  // namespace spi::obs
