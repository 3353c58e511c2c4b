/// \file plan_server.hpp
/// The multi-tenant plan server (docs/serving.md).
///
/// One persistent process serves many plan instances:
///
///   POST /plan      — submit a compiled plan JSON; cached by content
///                     hash (PlanCache), its equation-2 resident channel
///                     memory reserved against the admission budget.
///   POST /job       — run one job on a built-in model ("speech" or
///                     "particle"); jobs admitted from one HTTP read
///                     burst are queued per tenant and drained as ONE
///                     batched colocated firing per app.
///   GET  /metrics   — Prometheus exposition of the serve + runtime
///                     counters; /metrics.json for the JSON form.
///   GET  /runtime   — live server status JSON (cache, admission,
///                     tenants, models).
///   GET  /healthz   — liveness.
///
/// The server is synchronous and single-threaded by design: the target
/// is one hardware thread, where the fastest schedule is to batch the
/// pipelined requests of each read burst through one program traversal
/// (HTTP/1.1 pipelining + BatchHandler + JobInstance::run_colocated)
/// rather than to context-switch between worker threads. Every request
/// is serialized through the poll thread, which is what makes the
/// single-threaded PlanCache/JobQueue/BufferPool contracts sound.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "apps/particle_app.hpp"
#include "apps/speech_app.hpp"
#include "obs/http_server.hpp"
#include "obs/metrics.hpp"
#include "obs/request_trace.hpp"
#include "serve/admission.hpp"
#include "serve/job_queue.hpp"
#include "serve/plan_cache.hpp"

namespace spi::serve {

struct PlanServerOptions {
  int port = 0;  ///< 0 = ephemeral
  std::string bind_address = "127.0.0.1";
  AdmissionController::Options admission;
  std::size_t plan_cache_capacity = 64;
  /// Built-in model shapes (small defaults sized for one serving core;
  /// the bounds cap per-job input sizes).
  std::int32_t speech_pes = 2;
  apps::SpeechParams speech_params{.frame_size = 64,
                                   .max_frame_size = 256,
                                   .order = 4,
                                   .max_order = 8};
  std::int32_t particle_pes = 2;
  apps::ParticleParams particle_params{.particles = 16, .max_particles = 64, .model = {}};
  /// Watchdog over each batch run (0 = off): a batch making no progress
  /// for this window writes spi_stall.<kind>.json (the stall report plus
  /// a /runtime snapshot) into `flight_dump_dir` and counts
  /// spi_serve_stalls_total — without aborting the batch (abort_on_stall
  /// stays false so one wedged job cannot take the server down with
  /// it). No flight log is written: the served flight recorders are
  /// armed only around trace-bridge captures.
  std::int64_t watchdog_ms = 0;
  std::string flight_dump_dir;
  obs::MetricRegistry* metrics = nullptr;  ///< optional external registry
  /// Request-lifecycle tracing (GET /trace, /tenants — see
  /// obs/request_trace.hpp). On by default; the serve bench holds the
  /// traced-vs-bare throughput regression under 2%.
  obs::RequestTracerOptions trace;
};

class PlanServer {
 public:
  explicit PlanServer(PlanServerOptions options = {});
  ~PlanServer();
  PlanServer(const PlanServer&) = delete;
  PlanServer& operator=(const PlanServer&) = delete;

  void start();
  void stop();
  [[nodiscard]] bool running() const { return http_ && http_->running(); }
  [[nodiscard]] int port() const { return http_ ? http_->port() : -1; }

  /// The batch handler: routes every request of one read burst, then
  /// drains the tenant queues app by app as batched firings. Public so
  /// tests (and in-process embedders) can drive the server without a
  /// socket — `responses` is filled with exactly one response per
  /// request, in order.
  void handle_burst(std::span<obs::HttpRequest> requests,
                    std::vector<obs::HttpResponse>& responses);

  [[nodiscard]] const PlanCache& plan_cache() const { return cache_; }
  [[nodiscard]] const AdmissionController& admission() const { return admission_; }
  [[nodiscard]] obs::MetricRegistry& metrics() { return *metrics_; }
  [[nodiscard]] std::int64_t jobs_served() const { return jobs_served_; }
  [[nodiscard]] std::string runtime_json() const;
  /// The GET /tenants body: per-tenant queue facts merged with the
  /// tracer's per-stage rollups.
  [[nodiscard]] std::string tenants_json() const;
  [[nodiscard]] const obs::RequestTracer& tracer() const { return *tracer_; }
  /// Flight events the built-in models' recorders hold (recorded, not
  /// yet collected or discarded) plus those they dropped. Zero outside
  /// a trace-bridge capture: the recorders are armed only around one.
  [[nodiscard]] std::int64_t flight_events_held() const;
  /// Content hashes of the built-in model plans (pre-cached at startup).
  [[nodiscard]] const std::string& speech_plan_key() const { return speech_plan_key_; }
  [[nodiscard]] const std::string& particle_plan_key() const { return particle_plan_key_; }

 private:
  struct SpeechModel;
  struct ParticleModel;

  /// One tenant's serving state: the queue plus the tracer's cached
  /// instrument handles (resolved once — per-request stamping must not
  /// take the registry lock).
  struct TenantState {
    explicit TenantState(std::string tenant) : queue(std::move(tenant)) {}
    JobQueue queue;
    obs::TenantSeries* series = nullptr;
  };

  [[nodiscard]] obs::HttpResponse handle_get(const obs::HttpRequest& request);
  [[nodiscard]] obs::HttpResponse handle_plan_post(const obs::HttpRequest& request);
  /// Parses and queues one POST /job, or answers it immediately (400 /
  /// 429) in `responses`.
  void route_job(std::size_t index, const obs::HttpRequest& request,
                 std::vector<obs::HttpResponse>& responses);
  void drain_queue(TenantState& tenant, std::vector<obs::HttpResponse>& responses);

  PlanServerOptions options_;
  std::unique_ptr<obs::MetricRegistry> owned_metrics_;
  obs::MetricRegistry* metrics_ = nullptr;

  PlanCache cache_;
  AdmissionController admission_;
  std::map<std::string, TenantState> tenants_;
  std::unique_ptr<obs::RequestTracer> tracer_;
  std::int64_t next_batch_id_ = 0;
  std::int64_t burst_ingest_ns_ = 0;  ///< tracer stamp at handle_burst entry
  /// Shared enqueue stamp, taken lazily at the burst's first admitted
  /// job (-1 = not yet): one clock read per burst, not per job.
  std::int64_t burst_admit_ns_ = -1;
  std::vector<std::uint64_t> span_ids_scratch_;  ///< reused per drained batch

  std::unique_ptr<SpeechModel> speech_;
  std::unique_ptr<ParticleModel> particle_;
  std::string speech_plan_key_;
  std::string particle_plan_key_;

  std::unique_ptr<obs::HttpServer> http_;
  std::int64_t jobs_served_ = 0;
  std::int64_t bursts_ = 0;
  std::int64_t stalls_ = 0;
};

}  // namespace spi::serve
