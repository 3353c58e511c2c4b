/// \file plan_server.hpp
/// The multi-tenant plan server (docs/serving.md).
///
/// One persistent process serves the built-in models, whose plans are
/// compiled at startup with every compute bound:
///
///   POST /job       — run one job on a built-in model ("speech" or
///                     "particle"); jobs admitted from one HTTP read
///                     burst are queued per tenant and drained in
///                     arrival order across tenants, each maximal
///                     stretch of consecutive jobs of one app as ONE
///                     colocated run; every reply leaves as soon as its
///                     own job's result exists.
///   GET  /metrics   — Prometheus exposition of the serve + runtime
///                     counters; /metrics.json for the JSON form.
///   GET  /runtime   — live server status JSON (admission, models,
///                     tenants).
///   GET  /healthz   — liveness.
///
/// The server is synchronous and single-threaded by design: the target
/// is one hardware thread, where the fastest schedule is to run the
/// pipelined requests of each read burst through one program traversal
/// (HTTP/1.1 pipelining + BatchHandler + JobInstance::run_colocated)
/// rather than to context-switch between worker threads. Every request
/// is serialized through the poll thread, which is what makes the
/// single-threaded JobQueue contract sound.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "apps/particle_app.hpp"
#include "apps/speech_app.hpp"
#include "obs/http_server.hpp"
#include "obs/metrics.hpp"
#include "obs/request_trace.hpp"
#include "serve/admission.hpp"
#include "serve/job_queue.hpp"

namespace spi::serve {

struct PlanServerOptions {
  int port = 0;  ///< 0 = ephemeral
  std::string bind_address = "127.0.0.1";
  AdmissionController::Options admission;
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
  /// obs/request_trace.hpp). On by default; its cost is
  /// derived.serve_trace_overhead_pct in BENCH_results.json.
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

  /// Told that responses [0, n) of the burst in progress are final.
  using ReleaseFn = std::function<void(std::size_t n)>;

  /// The batch handler: routes every request of one read burst, then
  /// walks the admitted jobs in request order across tenants and fires
  /// each maximal stretch of consecutive jobs of one app as one
  /// colocated run. Public so tests (and in-process embedders) can drive
  /// the server without a socket — `responses` is filled with exactly
  /// one response per request, in order. When `ready` is set, it is
  /// called with the burst's answered in-order prefix whenever that
  /// prefix grows (after routing, after a staging 400, after each job's
  /// reply); start() wires it to HttpServer::release so a reply leaves
  /// as soon as it is final. Without it every response is final only on
  /// return.
  void handle_burst(std::span<obs::HttpRequest> requests,
                    std::vector<obs::HttpResponse>& responses, const ReleaseFn& ready = {});

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
  /// Content hashes of the built-in model plans.
  [[nodiscard]] const std::string& speech_plan_key() const;
  [[nodiscard]] const std::string& particle_plan_key() const;

 private:
  /// A built-in model: the app plus the instance that fires its batches.
  template <class AppT>
  struct Model;

  /// One tenant's serving state: the queue plus cached instrument
  /// handles (resolved once — per-request stamping must not take the
  /// registry lock): the tracer's series and spi_serve_jobs_total per app.
  struct TenantState {
    explicit TenantState(std::string tenant) : queue(std::move(tenant)) {}
    JobQueue queue;
    obs::TenantSeries* series = nullptr;
    obs::Counter* jobs_total[2] = {};  ///< by App, resolved at first admission
  };

  [[nodiscard]] obs::HttpResponse handle_get(const obs::HttpRequest& request);
  /// Parses and queues one POST /job, or answers it immediately (400 /
  /// 429) in `responses`.
  void route_job(std::size_t index, const obs::HttpRequest& request,
                 std::vector<obs::HttpResponse>& responses);
  /// Pops the next job of `tenant` and parses it into its model's
  /// stretch, or answers it 400 if it is malformed. `start_ns` opens the
  /// stretch's formation.
  void stage_next(TenantState& tenant, std::int64_t start_ns,
                  std::vector<obs::HttpResponse>& responses, const ReleaseFn& ready);
  /// Fires the model's staged stretch as one colocated run and answers
  /// its jobs one by one as each result exists: 200 for each job that
  /// finished, 500 for the job that threw and every job after it. Each
  /// reply is released through `ready` at once, and each job's span
  /// gets its own exec-end and reply stamps. `start_ns` opens the
  /// stretch's formation: its jobs queued until then.
  template <class AppT>
  void fire(Model<AppT>& model, std::int64_t start_ns,
            std::vector<obs::HttpResponse>& responses, const ReleaseFn& ready);
  /// Hands `ready` the burst's answered in-order prefix if it grew.
  void release_prefix(const ReleaseFn& ready);

  PlanServerOptions options_;
  std::unique_ptr<obs::MetricRegistry> owned_metrics_;
  obs::MetricRegistry* metrics_ = nullptr;

  /// spi_serve_requests_total by route and spi_serve_burst_seconds,
  /// resolved once: a registry lookup takes its lock and walks its map.
  struct RouteCounters {
    obs::Counter* healthz;
    obs::Counter* metrics;
    obs::Counter* runtime;
    obs::Counter* trace;
    obs::Counter* tenants;
    obs::Counter* job;
    obs::Counter* other;
  };
  RouteCounters route_requests_{};
  obs::Histogram* burst_seconds_ = nullptr;

  AdmissionController admission_;
  std::map<std::string, TenantState> tenants_;
  std::unique_ptr<obs::RequestTracer> tracer_;
  std::int64_t next_batch_id_ = 0;
  std::int64_t burst_ingest_ns_ = 0;  ///< tracer stamp at handle_burst entry
  /// Shared enqueue stamp, taken lazily at the burst's first admitted
  /// job (-1 = not yet): one clock read per burst, not per job.
  std::int64_t burst_admit_ns_ = -1;
  /// The tenant of each admitted job of the burst in progress, in
  /// request order: the drain pops each tenant's queue in this order.
  std::vector<TenantState*> arrivals_;
  /// (exec end, reply) stamps of each job of the run in progress.
  std::vector<std::pair<std::int64_t, std::int64_t>> job_ends_;
  /// Per request of the burst in progress: answered yet (a queued job
  /// is not until its run answers it or its staging fails).
  std::vector<char> answered_;
  std::size_t released_ = 0;  ///< the answered in-order prefix handed to `ready`

  std::unique_ptr<Model<apps::ErrorGenApp>> speech_;
  std::unique_ptr<Model<apps::ParticleFilterApp>> particle_;

  std::unique_ptr<obs::HttpServer> http_;
  std::int64_t jobs_served_ = 0;
  std::int64_t bursts_ = 0;
  std::int64_t stalls_ = 0;
};

}  // namespace spi::serve
