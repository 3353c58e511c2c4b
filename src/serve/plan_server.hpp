/// \file plan_server.hpp
/// The multi-tenant plan server (docs/serving.md).
///
/// One persistent process serves the built-in models, whose plans are
/// compiled at startup with every compute bound:
///
///   POST /job       — run one job on a built-in model ("speech" or
///                     "particle"); jobs admitted from one HTTP read
///                     burst are queued per tenant and drained as ONE
///                     batched colocated firing per tenant and app (per
///                     trajectory length for particle), fired in arrival
///                     order; a particle reply leaves as its own job's
///                     iterations end, a speech reply as its batch ends.
///   GET  /metrics   — Prometheus exposition of the serve + runtime
///                     counters; /metrics.json for the JSON form.
///   GET  /runtime   — live server status JSON (admission, models,
///                     tenants).
///   GET  /healthz   — liveness.
///
/// The server is synchronous and single-threaded by design: the target
/// is one hardware thread, where the fastest schedule is to batch the
/// pipelined requests of each read burst through one program traversal
/// (HTTP/1.1 pipelining + BatchHandler + JobInstance::run_colocated)
/// rather than to context-switch between worker threads. Every request
/// is serialized through the poll thread, which is what makes the
/// single-threaded JobQueue/BufferPool contracts sound.
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

  /// Told that responses [0, n) of the burst in progress are final.
  using ReleaseFn = std::function<void(std::size_t n)>;

  /// The batch handler: routes every request of one read burst, stages
  /// every tenant queue into batches — one per (tenant, app, group key)
  /// — and fires them in order of each batch's earliest request. Public
  /// so tests (and in-process embedders) can drive the server without a
  /// socket — `responses` is filled with exactly one response per
  /// request, in order. When `ready` is set, it is called with the
  /// burst's answered in-order prefix whenever that prefix grows (after
  /// routing, after a staging 400, after each multi-iteration job,
  /// after each batch); start() wires it
  /// to HttpServer::release so a reply leaves as soon as it is final.
  /// Without it every response is final only on return.
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

  /// One tenant's serving state: the queue plus the tracer's cached
  /// instrument handles (resolved once — per-request stamping must not
  /// take the registry lock).
  struct TenantState {
    explicit TenantState(std::string tenant) : queue(std::move(tenant)) {}
    JobQueue queue;
    obs::TenantSeries* series = nullptr;
  };

  /// One staged batch in firing order: its earliest request, its model
  /// and its slot in that model's groups.
  struct Firing {
    std::size_t first;
    bool particle;
    std::size_t group;
  };

  [[nodiscard]] obs::HttpResponse handle_get(const obs::HttpRequest& request);
  /// Parses and queues one POST /job, or answers it immediately (400 /
  /// 429) in `responses`.
  void route_job(std::size_t index, const obs::HttpRequest& request,
                 std::vector<obs::HttpResponse>& responses);
  /// Parses every job queued by `tenant` into its model's groups (one
  /// per tenant and group key), answering a malformed one 400. Fires
  /// nothing: handle_burst fires every tenant's groups in arrival order.
  void stage_queue(TenantState& tenant, std::int64_t drain_ns,
                   std::vector<obs::HttpResponse>& responses, const ReleaseFn& ready);
  /// Fires one staged group as one batch and answers its jobs: 200 for
  /// each job that finished, 500 for the job that threw and every job
  /// after it. A job spanning several graph iterations (particle, steps
  /// > 1) is answered and released through `ready` as soon as its own
  /// iterations end, and its span's exec stage ends there; a batch of
  /// one-iteration jobs is answered and released once, at its end.
  /// `start_ns` opens the batch's formation: its jobs queued until then.
  template <class AppT>
  void fire_group(Model<AppT>& model, std::size_t group, std::int64_t start_ns,
                  std::vector<obs::HttpResponse>& responses, const ReleaseFn& ready);
  /// Hands `ready` the burst's answered in-order prefix if it grew.
  void release_prefix(const ReleaseFn& ready);

  PlanServerOptions options_;
  std::unique_ptr<obs::MetricRegistry> owned_metrics_;
  obs::MetricRegistry* metrics_ = nullptr;

  AdmissionController admission_;
  std::map<std::string, TenantState> tenants_;
  std::unique_ptr<obs::RequestTracer> tracer_;
  std::int64_t next_batch_id_ = 0;
  std::int64_t burst_ingest_ns_ = 0;  ///< tracer stamp at handle_burst entry
  /// Shared enqueue stamp, taken lazily at the burst's first admitted
  /// job (-1 = not yet): one clock read per burst, not per job.
  std::int64_t burst_admit_ns_ = -1;
  std::vector<std::uint64_t> span_ids_scratch_;  ///< reused per drained batch
  /// (exec end, reply) stamps of each job the batch in progress has
  /// released on its own, in job order.
  std::vector<std::pair<std::int64_t, std::int64_t>> job_ends_;
  std::vector<Firing> firings_;                   ///< reused per burst
  /// Per request of the burst in progress: answered yet (a queued job
  /// is not until its batch fires or its staging fails).
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
