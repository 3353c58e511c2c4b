#include "serve/plan_server.hpp"

#include <algorithm>
#include <chrono>
#include <limits>

#include "core/job_instance.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/text_escape.hpp"
#include "serve/request.hpp"

namespace spi::serve {

namespace {

/// Deterministic synthetic speech frame: a splitmix-style stream keyed
/// by the job seed, so identical requests produce identical jobs (the
/// loadgen relies on this for cheap request bodies).
std::vector<double> synth_frame(std::uint64_t seed, std::size_t n) {
  std::vector<double> frame(n);
  std::uint64_t x = seed * 0x9E3779B97F4A7C15ull + 0xD1B54A32D192ED03ull;
  for (std::size_t i = 0; i < n; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    frame[i] = static_cast<double>((x >> 33) % 2000) / 1000.0 - 1.0;
  }
  return frame;
}

std::vector<double> synth_coeffs(std::size_t order) {
  std::vector<double> coeffs(order);
  for (std::size_t j = 0; j < order; ++j) coeffs[j] = 0.5 / static_cast<double>(j + 1);
  return coeffs;
}

void append_doubles(std::string& out, std::span<const double> values) {
  out += '[';
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) out += ',';
    append_json_number(out, values[i]);
  }
  out += ']';
}

constexpr std::uint64_t kAnySeed = std::numeric_limits<std::uint64_t>::max();

/// The per-app half of a served model: parse a job body into a spec,
/// run a batch of specs handing each job's result to `done`, render one
/// result as reply fields. Everything else about a firing is shared
/// (PlanServer::fire_group). Parsing answers a present but malformed
/// field with its 400 message, never with the field's default; nullptr
/// means the spec is valid.
template <class AppT>
struct AppTraits;

template <>
struct AppTraits<apps::ErrorGenApp> {
  using Spec = apps::ErrorGenApp::SpeechJobSpec;
  using Result = std::vector<double>;

  static const char* parse(const apps::ErrorGenApp& app, std::string_view body, Spec& spec,
                           bool& explicit_io) {
    const apps::SpeechParams& params = app.params();
    auto frame = json_array_field(body, "frame");
    explicit_io = frame.has_value();
    if (explicit_io) {
      spec.frame = std::move(*frame);
      auto coeffs = json_array_field(body, "coeffs");
      if (coeffs) {
        spec.coeffs = std::move(*coeffs);
      } else if (json_has_field(body, "coeffs")) {
        return "speech job coeffs must be an array of numbers";
      } else {
        spec.coeffs = synth_coeffs(params.order);
      }
    } else {
      if (json_has_field(body, "frame")) return "speech job frame must be an array of numbers";
      const auto n =
          json_integer_field(body, "frame_size", 1, params.max_frame_size, params.frame_size);
      const auto order = json_integer_field(body, "order", 1, params.max_order, params.order);
      const auto seed = json_integer_field(body, "seed", 0, kAnySeed, 0);
      if (!n || !order || !seed)
        return "speech job frame_size, order and seed must be integers within the model bounds";
      spec.frame = synth_frame(*seed, *n);
      spec.coeffs = synth_coeffs(*order);
    }
    if (spec.frame.empty() || spec.frame.size() > params.max_frame_size ||
        spec.coeffs.empty() || spec.coeffs.size() > params.max_order)
      return "speech job exceeds the model bounds";
    return nullptr;
  }

  /// Every speech job shares one batch.
  static std::int64_t group_of(const Spec&) { return 0; }
  /// A speech job is one graph iteration.
  static std::int64_t iterations_per_job(std::int64_t) { return 1; }

  template <class Done>
  static void run(const apps::ErrorGenApp& app, std::span<const Spec> specs,
                  core::JobInstance& instance, const core::RunOptions* options, const Done& done) {
    const std::vector<Result> results = app.compute_errors_batch(specs, instance, options);
    for (std::size_t k = 0; k < results.size(); ++k) done(k, results[k]);
  }

  static void render(std::string& body, const Result& errors, bool explicit_io, std::int64_t) {
    if (explicit_io) {
      body += "\"errors\": ";
      append_doubles(body, errors);
      return;
    }
    double checksum = 0.0;
    for (const double e : errors) checksum += e;
    body += "\"n\": " + std::to_string(errors.size()) + ", \"checksum\": ";
    append_json_number(body, checksum);
  }
};

template <>
struct AppTraits<apps::ParticleFilterApp> {
  using Spec = apps::ParticleFilterApp::ParticleJobSpec;
  using Result = apps::TrackResult;

  static const char* parse(const apps::ParticleFilterApp& app, std::string_view body, Spec& spec,
                           bool& explicit_io) {
    const apps::ParticleParams& params = app.params();
    const auto seed = json_integer_field(body, "seed", 0, kAnySeed, params.seed);
    if (!seed) return "particle job seed must be a non-negative integer";
    spec.seed = *seed;
    auto observations = json_array_field(body, "observations");
    explicit_io = observations.has_value();
    if (explicit_io) {
      spec.trajectory.observations = std::move(*observations);
      auto truth = json_array_field(body, "truth");
      if (truth) {
        spec.trajectory.truth = std::move(*truth);
      } else if (json_has_field(body, "truth")) {
        return "particle job truth must be an array of numbers";
      } else {
        spec.trajectory.truth.assign(spec.trajectory.observations.size(), 0.0);
      }
    } else {
      if (json_has_field(body, "observations"))
        return "particle job observations must be an array of numbers";
      const auto steps = json_integer_field(body, "steps", 1, 4096, 8);
      if (!steps) return "particle job steps must be an integer in [1, 4096]";
      // Built by track_batch just before the job runs.
      spec.synthetic_steps = static_cast<std::size_t>(*steps);
    }
    if (spec.steps() == 0) return "particle job has no observations";
    return nullptr;
  }

  /// A particle batch must share one trajectory length.
  static std::int64_t group_of(const Spec& spec) {
    return static_cast<std::int64_t>(spec.steps());
  }
  /// A particle job is one graph iteration per trajectory step.
  static std::int64_t iterations_per_job(std::int64_t steps) { return steps; }

  template <class Done>
  static void run(const apps::ParticleFilterApp& app, std::span<const Spec> specs,
                  core::JobInstance& instance, const core::RunOptions* options, const Done& done) {
    static_cast<void>(app.track_batch(specs, instance, options, std::cref(done)));
  }

  static void render(std::string& body, const Result& r, bool explicit_io, std::int64_t steps) {
    if (explicit_io) {
      body += "\"estimates\": ";
      append_doubles(body, r.estimates);
      body += ", \"rmse\": ";
      append_json_number(body, r.rmse_vs_truth);
      body += ", \"resample_steps\": " + std::to_string(r.resample_steps);
      body += ", \"particles_exchanged\": " + std::to_string(r.particles_exchanged);
      return;
    }
    body += "\"steps\": " + std::to_string(steps) + ", \"estimate\": ";
    append_json_number(body, r.estimates.empty() ? 0.0 : r.estimates.back());
    body += ", \"rmse\": ";
    append_json_number(body, r.rmse_vs_truth);
  }
};

obs::HttpResponse json_response(int status, std::string body) {
  obs::HttpResponse response;
  response.status = status;
  response.content_type = "application/json";
  response.body = std::move(body);
  return response;
}

obs::HttpResponse reject_response(const std::string& reason) {
  return json_response(429, "{\"error\": \"" + reason + "\"}\n");
}

obs::HttpResponse bad_request(const std::string& what) {
  return json_response(400, "{\"error\": \"" + obs::detail::json_escaped(what) + "\"}\n");
}

std::string_view path_of(const obs::HttpRequest& request) {
  const std::string_view target = request.target;
  const std::size_t query = target.find('?');
  return query == std::string_view::npos ? target : target.substr(0, query);
}

// Stage indices into RequestSpan::stage_ns (request_trace.hpp).
constexpr auto kStAdmission = static_cast<std::size_t>(obs::RequestStage::kAdmission);
constexpr auto kStQueue = static_cast<std::size_t>(obs::RequestStage::kQueue);
constexpr auto kStBatch = static_cast<std::size_t>(obs::RequestStage::kBatch);
constexpr auto kStExec = static_cast<std::size_t>(obs::RequestStage::kExec);
constexpr auto kStReply = static_cast<std::size_t>(obs::RequestStage::kReply);

}  // namespace

/// A built-in model: the app, one persistent JobInstance executing every
/// batch, that instance's flight recorder (armed only around the trace
/// bridge's captured batches — nothing else reads its events), the
/// model's batch instruments, and the groups staged by the drain in
/// progress, one per (tenant, AppTraits::group_of) in staging order.
template <class AppT>
struct PlanServer::Model {
  using Traits = AppTraits<AppT>;
  using Spec = typename Traits::Spec;

  /// A staged job: its burst slot, whether its reply echoes explicit
  /// I/O, and its trace context.
  struct Staged {
    std::size_t index;
    bool explicit_io;
    std::uint64_t span_id;
    std::int64_t ingest_ns;
    std::int64_t enqueued_ns;
  };
  /// One batched firing's jobs, all of one tenant; staged[k] is the
  /// reply context of specs[k], in arrival order.
  struct Group {
    const TenantState* tenant;
    std::int64_t key;
    std::vector<Staged> staged;
    std::vector<Spec> specs;
  };

  std::string name;
  std::string reply_head;  ///< {"app": "<name>", — every 200 body starts so
  AppT app;
  std::string plan_key;  ///< content hash of the compiled plan
  obs::FlightRecorder flight;
  core::JobInstance instance;
  core::RunOptions run_options;
  obs::Counter& batches;
  obs::Histogram& batch_jobs;
  std::vector<Group> groups;

  template <class Params>
  Model(std::string model_name, std::int32_t pes, const Params& params,
        obs::MetricRegistry& metrics)
      : name(std::move(model_name)),
        reply_head("{\"app\": \"" + name + "\", "),
        app(pes, params),
        plan_key(app.system().plan().content_hash_hex()),
        flight(app.system().plan().proc_count),
        instance(app.system().plan(),
                 core::JobInstanceOptions{core::ChannelPolicy::kAuto, {}, &metrics, name}),
        batches(metrics.counter("spi_serve_batches_total", {{"app", name}})),
        batch_jobs(metrics.histogram("spi_serve_batch_jobs",
                                     obs::Histogram::exponential_bounds(1.0, 2.0, 11),
                                     {{"app", name}})) {
    instance.set_flight_recorder(&flight);
    // The recorder stays attached for the server's lifetime but records
    // only around the batches the flight bridge captures (it arms and
    // disarms per capture): the trace bridge is its only reader. A
    // stalled batch's watchdog writes the stall report and /runtime
    // snapshot, never a flight log, so the watchdog needs no recording.
    flight.set_armed(false);
  }

  /// Parses one queued job of `tenant` into its group; returns the 400
  /// message of a malformed job (staging nothing), nullptr otherwise.
  const char* stage(const TenantState& tenant, const QueuedJob& job) {
    Spec spec;
    bool explicit_io = false;
    if (const char* error = Traits::parse(app, job.body, spec, explicit_io)) return error;
    const std::int64_t key = Traits::group_of(spec);
    auto group = std::find_if(groups.begin(), groups.end(), [&](const Group& g) {
      return g.tenant == &tenant && g.key == key;
    });
    if (group == groups.end()) group = groups.insert(groups.end(), Group{&tenant, key, {}, {}});
    group->staged.push_back(
        {job.request_index, explicit_io, job.span_id, job.ingest_ns, job.enqueued_ns});
    group->specs.push_back(std::move(spec));
    return nullptr;
  }

  /// Lists every staged group for the firing order.
  void list_firings(std::vector<Firing>& firings, bool particle) const {
    for (std::size_t g = 0; g < groups.size(); ++g)
      firings.push_back({groups[g].staged.front().index, particle, g});
  }
};

PlanServer::PlanServer(PlanServerOptions options)
    : options_(std::move(options)), admission_(options_.admission) {
  if (options_.metrics) {
    metrics_ = options_.metrics;
  } else {
    owned_metrics_ = std::make_unique<obs::MetricRegistry>();
    metrics_ = owned_metrics_.get();
  }
  tracer_ = std::make_unique<obs::RequestTracer>(options_.trace, *metrics_);

  speech_ = std::make_unique<Model<apps::ErrorGenApp>>("speech", options_.speech_pes,
                                                       options_.speech_params, *metrics_);
  particle_ = std::make_unique<Model<apps::ParticleFilterApp>>(
      "particle", options_.particle_pes, options_.particle_params, *metrics_);
  for (auto* run_options : {&speech_->run_options, &particle_->run_options}) {
    if (options_.watchdog_ms > 0) {
      run_options->watchdog.enabled = true;
      run_options->watchdog.window_ms = options_.watchdog_ms;
      run_options->watchdog.dump_dir = options_.flight_dump_dir;
      run_options->watchdog.abort_on_stall = false;  // survive a wedged batch
      run_options->watchdog.on_stall = [this](const obs::StallReport&) {
        ++stalls_;
        metrics_->counter("spi_serve_stalls_total").inc();
      };
    }
  }
}

PlanServer::~PlanServer() { stop(); }

void PlanServer::start() {
  if (http_) return;
  obs::HttpServer::Options http;
  http.port = options_.port;
  http.bind_address = options_.bind_address;
  http.batch_handler = [this](std::span<obs::HttpRequest> requests,
                              std::vector<obs::HttpResponse>& responses) {
    handle_burst(requests, responses, [this](std::size_t n) { http_->release(n); });
  };
  http_ = std::make_unique<obs::HttpServer>(std::move(http));
  http_->start();
}

void PlanServer::stop() {
  if (!http_) return;
  http_->stop();
  http_.reset();
}

obs::HttpResponse PlanServer::handle_get(const obs::HttpRequest& request) {
  const std::string_view path = path_of(request);
  if (path == "/healthz") {
    metrics_->counter("spi_serve_requests_total", {{"route", "healthz"}}).inc();
    obs::HttpResponse response;
    response.body = "ok\n";
    return response;
  }
  if (path == "/metrics" || path == "/metrics.json") {
    metrics_->counter("spi_serve_requests_total", {{"route", "metrics"}}).inc();
    speech_->instance.refresh_channel_gauges();
    particle_->instance.refresh_channel_gauges();
    for (const auto& [tenant, state] : tenants_) {
      const obs::Labels tenant_label{{"tenant", tenant}};
      metrics_->gauge("spi_serve_queue_depth", tenant_label)
          .set(static_cast<double>(state.queue.depth()));
      metrics_->gauge("spi_serve_queue_depth_watermark", tenant_label)
          .set(static_cast<double>(state.queue.depth_watermark()));
    }
    obs::HttpResponse response;
    if (path == "/metrics.json") {
      response.content_type = "application/json";
      response.body = metrics_->to_json();
    } else {
      response.content_type = "text/plain; version=0.0.4; charset=utf-8";
      response.body = metrics_->to_prometheus();
    }
    return response;
  }
  if (path == "/runtime") {
    metrics_->counter("spi_serve_requests_total", {{"route", "runtime"}}).inc();
    return json_response(200, runtime_json());
  }
  if (path == "/trace") {
    metrics_->counter("spi_serve_requests_total", {{"route", "trace"}}).inc();
    return json_response(200, tracer_->trace_json());
  }
  if (path == "/trace/flight") {
    metrics_->counter("spi_serve_requests_total", {{"route", "trace"}}).inc();
    if (!tracer_->has_flight())
      return json_response(404, "{\"error\": \"no sampled flight log captured yet\"}\n");
    return json_response(200, tracer_->flight_json());
  }
  if (path == "/tenants") {
    metrics_->counter("spi_serve_requests_total", {{"route", "tenants"}}).inc();
    return json_response(200, tenants_json());
  }
  metrics_->counter("spi_serve_requests_total", {{"route", "other"}}).inc();
  return json_response(404, "{\"error\": \"not found\"}\n");
}

void PlanServer::route_job(std::size_t index, const obs::HttpRequest& request,
                           std::vector<obs::HttpResponse>& responses) {
  metrics_->counter("spi_serve_requests_total", {{"route", "job"}}).inc();
  const auto app = json_string_field(request.body, "app");
  if (app != "speech" && app != "particle") {
    responses[index] = bad_request("job requires \"app\": \"speech\" or \"particle\"");
    return;
  }
  auto tenant_field = json_string_field(request.body, "tenant");
  if (!tenant_field && json_has_field(request.body, "tenant")) {
    responses[index] = bad_request("job tenant must be a string without escapes");
    return;
  }
  std::string tenant = std::move(tenant_field).value_or("default");
  auto [it, inserted] = tenants_.try_emplace(tenant, TenantState(tenant));
  TenantState& state = it->second;
  if (inserted) state.series = tracer_->tenant_series(tenant);
  JobQueue& queue = state.queue;
  const AdmissionDecision decision = admission_.admit_job(queue.depth());
  if (!decision.admitted) {
    metrics_->counter("spi_serve_rejects_total", {{"reason", decision.reason}}).inc();
    responses[index] = reject_response(decision.reason);
    if (state.series != nullptr) {
      // A 429 is a complete (short) lifecycle: ingest -> admission
      // verdict -> reply. Rejects show up in the per-tenant rollups.
      obs::RequestSpan span;
      span.id = tracer_->begin_span();
      span.sampled = tracer_->is_sampled(span.id);
      span.status = 429;
      span.ingest_ns = burst_ingest_ns_;
      span.stage_ns[kStAdmission] = tracer_->now_ns() - burst_ingest_ns_;
      tracer_->complete(*state.series, span, tenant, *app);
    }
    return;
  }
  QueuedJob job{index, *app == "speech" ? App::kSpeech : App::kParticle, request.body, 0, 0, 0};
  if (state.series != nullptr) {
    job.span_id = tracer_->begin_span();
    job.ingest_ns = burst_ingest_ns_;
    // One enqueue stamp per burst, taken at the first admitted job: the
    // per-job clock read was the largest per-request tracing cost, and
    // sharing the stamp only moves sibling-routing time from the
    // admission stage into the queue stage (time spent waiting for the
    // rest of the burst to route IS batch-formation wait). Stage tiling
    // is unaffected — the stamp still falls between ingest and drain.
    if (burst_admit_ns_ < 0) burst_admit_ns_ = tracer_->now_ns();
    job.enqueued_ns = burst_admit_ns_;
  }
  queue.push(std::move(job));
  answered_[index] = 0;
}

void PlanServer::stage_queue(TenantState& tenant, std::int64_t drain_ns,
                             std::vector<obs::HttpResponse>& responses, const ReleaseFn& ready) {
  JobQueue& queue = tenant.queue;
  if (queue.empty()) return;

  std::int64_t drained = 0;
  while (!queue.empty()) {
    const QueuedJob job = queue.pop();
    ++drained;
    const bool speech = job.app == App::kSpeech;
    const char* error = speech ? speech_->stage(tenant, job) : particle_->stage(tenant, job);
    if (error == nullptr) continue;
    // Answered 400 at parse time; the lifecycle ends inside the
    // batch-formation stage.
    responses[job.request_index] = bad_request(error);
    answered_[job.request_index] = 1;
    release_prefix(ready);
    if (tenant.series == nullptr || job.span_id == 0) continue;
    obs::RequestSpan span;
    span.id = job.span_id;
    span.sampled = tracer_->is_sampled(job.span_id);
    span.status = 400;
    span.ingest_ns = job.ingest_ns;
    span.stage_ns[kStAdmission] = job.enqueued_ns - job.ingest_ns;
    span.stage_ns[kStQueue] = drain_ns - job.enqueued_ns;
    span.stage_ns[kStBatch] = tracer_->now_ns() - drain_ns;
    tracer_->complete(*tenant.series, span, queue.tenant(),
                      speech ? speech_->name : particle_->name);
  }
  queue.count_served(drained);
}

template <class AppT>
void PlanServer::fire_group(Model<AppT>& model, std::size_t group_index, std::int64_t start_ns,
                            std::vector<obs::HttpResponse>& responses, const ReleaseFn& ready) {
  using Traits = typename Model<AppT>::Traits;
  auto& group = model.groups[group_index];
  const TenantState& tenant = *group.tenant;
  const bool traced = tenant.series != nullptr;
  const auto& staged = group.staged;
  const std::size_t jobs = staged.size();
  model.batches.inc();
  model.batch_jobs.observe(static_cast<double>(jobs));
  const std::int64_t batch_id = next_batch_id_++;
  bool sample_batch = false;
  if (traced)
    for (const auto& s : staged)
      if (s.span_id != 0 && tracer_->is_sampled(s.span_id)) {
        sample_batch = true;
        break;
      }
  // Flight bridge, paced much coarser than span sampling (collect is
  // the one expensive capture): drop whatever the rings still hold,
  // tag the run, and collect right after — the captured log is
  // exactly this batch's causal firing stream (GET /trace/flight).
  const bool capture_flight = sample_batch && tracer_->want_flight();
  if (capture_flight) {
    model.flight.set_armed(true);
    model.flight.discard_all();
    model.run_options.batch_id = batch_id;
  } else {
    model.run_options.batch_id = -1;
  }
  // A job that spans several graph iterations is answered and released
  // as soon as its own iterations end, each with its own exec and reply
  // stamps (job_ends_). A batch of one-iteration jobs releases once, at
  // its end: one send per such job would cost more than the job.
  const bool release_per_job = Traits::iterations_per_job(group.key) > 1;
  job_ends_.clear();
  const std::int64_t formed_ns = traced ? tracer_->now_ns() : 0;
  std::int64_t exec_end_ns = formed_ns;
  std::size_t served = 0;
  const auto answer = [&](std::size_t k, const typename Traits::Result& result) {
    if (traced && (release_per_job || k == 0)) exec_end_ns = tracer_->now_ns();
    std::string body = model.reply_head;
    Traits::render(body, result, staged[k].explicit_io, group.key);
    body += "}\n";
    responses[staged[k].index] = json_response(200, std::move(body));
    answered_[staged[k].index] = 1;
    ++served;
    if (!release_per_job) return;
    // Reply stamp first: the send is not part of the request's lifecycle.
    job_ends_.emplace_back(exec_end_ns, traced ? tracer_->now_ns() : 0);
    release_prefix(ready);
  };
  try {
    Traits::run(model.app, group.specs, model.instance, &model.run_options, answer);
  } catch (const std::exception& e) {
    // The jobs answered before the failure keep their 200s.
    exec_end_ns = traced ? tracer_->now_ns() : 0;
    for (const auto& s : staged)
      if (answered_[s.index] == 0)
        responses[s.index] =
            json_response(500, "{\"error\": \"" + obs::detail::json_escaped(e.what()) + "\"}\n");
  }
  if (served > 0) {
    jobs_served_ += static_cast<std::int64_t>(served);
    metrics_
        ->counter("spi_serve_jobs_total", {{"app", model.name}, {"tenant", tenant.queue.tenant()}})
        .inc(static_cast<std::int64_t>(served));
  }
  // Reply stamp first: the send and the flight collection are not
  // part of any request's lifecycle (serialization of the flight log
  // waits for the GET /trace/flight scrape).
  const std::int64_t reply_ns = traced ? tracer_->now_ns() : 0;
  for (const auto& s : staged) answered_[s.index] = 1;
  release_prefix(ready);
  if (!traced) return;
  if (capture_flight) {
    tracer_->note_flight(batch_id, model.flight.collect());
    model.flight.set_armed(false);
  }
  // Jobs [first, last) share every stage boundary (batch stamps, the
  // burst's enqueue stamp, the same exec end), so one representative
  // span covers them and only the ids differ. The queue stage runs
  // until this batch's formation opens, so it covers the batches that
  // fired before it, of any tenant.
  const auto complete = [&](std::size_t first, std::size_t last, std::int64_t exec_end,
                            std::int64_t reply) {
    span_ids_scratch_.clear();
    for (std::size_t k = first; k < last; ++k)
      if (staged[k].span_id != 0) span_ids_scratch_.push_back(staged[k].span_id);
    if (span_ids_scratch_.empty()) return;
    const auto& front = staged[first];
    obs::RequestSpan span;
    span.status = responses[front.index].status;
    span.batch_id = batch_id;
    span.batch_size = static_cast<std::int32_t>(jobs);
    span.ingest_ns = front.ingest_ns;
    span.stage_ns[kStAdmission] = front.enqueued_ns - front.ingest_ns;
    span.stage_ns[kStQueue] = start_ns - front.enqueued_ns;
    span.stage_ns[kStBatch] = formed_ns - start_ns;
    span.stage_ns[kStExec] = exec_end - formed_ns;
    span.stage_ns[kStReply] = reply - exec_end;
    tracer_->complete_batch(*tenant.series, span, span_ids_scratch_, tenant.queue.tenant(),
                            model.name);
  };
  for (std::size_t k = 0; k < job_ends_.size(); ++k)
    complete(k, k + 1, job_ends_[k].first, job_ends_[k].second);
  complete(job_ends_.size(), jobs, exec_end_ns, reply_ns);
}

void PlanServer::release_prefix(const ReleaseFn& ready) {
  if (!ready) return;
  const std::size_t before = released_;
  while (released_ < answered_.size() && answered_[released_] != 0) ++released_;
  if (released_ != before) ready(released_);
}

void PlanServer::handle_burst(std::span<obs::HttpRequest> requests,
                              std::vector<obs::HttpResponse>& responses, const ReleaseFn& ready) {
  const auto start = std::chrono::steady_clock::now();
  ++bursts_;
  burst_ingest_ns_ = tracer_->enabled() ? tracer_->now_ns() : 0;
  burst_admit_ns_ = -1;
  responses.resize(requests.size());
  answered_.assign(requests.size(), 1);  // route_job clears the slots it queues
  released_ = 0;

  for (std::size_t i = 0; i < requests.size(); ++i) {
    const obs::HttpRequest& request = requests[i];
    if (request.method == "GET") {
      responses[i] = handle_get(request);
      continue;
    }
    if (request.method != "POST") {
      responses[i] = json_response(405, "{\"error\": \"method not allowed\"}\n");
      continue;
    }
    const std::string_view path = path_of(request);
    if (path == "/job") {
      route_job(i, request, responses);
    } else {
      metrics_->counter("spi_serve_requests_total", {{"route", "other"}}).inc();
      responses[i] = json_response(404, "{\"error\": \"not found\"}\n");
    }
  }
  release_prefix(ready);

  // Batched firing: every tenant queue stages into one group per (app,
  // group key), then the groups fire in order of their earliest request
  // (one program traversal amortized over all their jobs). Arrival
  // order across tenants is what lets the first in-order reply prefix
  // leave after the first batch, instead of behind a whole tenant.
  const std::int64_t drain_ns = tracer_->enabled() ? tracer_->now_ns() : 0;
  for (auto& [tenant, state] : tenants_) stage_queue(state, drain_ns, responses, ready);
  firings_.clear();
  speech_->list_firings(firings_, false);
  particle_->list_firings(firings_, true);
  std::sort(firings_.begin(), firings_.end(),
            [](const Firing& a, const Firing& b) { return a.first < b.first; });
  // The first batch's formation includes the staging; each later batch
  // opens when the one before it is done.
  std::int64_t start_ns = drain_ns;
  for (const Firing& firing : firings_) {
    if (firing.particle)
      fire_group(*particle_, firing.group, start_ns, responses, ready);
    else
      fire_group(*speech_, firing.group, start_ns, responses, ready);
    start_ns = tracer_->enabled() ? tracer_->now_ns() : 0;
  }
  speech_->groups.clear();
  particle_->groups.clear();

  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  metrics_
      ->histogram("spi_serve_burst_seconds", obs::Histogram::exponential_bounds(1e-6, 4.0, 10))
      .observe(seconds);
}

std::int64_t PlanServer::flight_events_held() const {
  std::int64_t held = 0;
  for (const obs::FlightRecorder* flight : {&speech_->flight, &particle_->flight})
    held += static_cast<std::int64_t>(flight->pending_events()) + flight->dropped_total();
  return held;
}

const std::string& PlanServer::speech_plan_key() const { return speech_->plan_key; }
const std::string& PlanServer::particle_plan_key() const { return particle_->plan_key; }

std::string PlanServer::runtime_json() const {
  std::string out = "{\n  \"server\": \"spi_served\",\n";
  out += "  \"jobs_served\": " + std::to_string(jobs_served_) + ",\n";
  out += "  \"bursts\": " + std::to_string(bursts_) + ",\n";
  out += "  \"stalls\": " + std::to_string(stalls_) + ",\n";
  out += "  \"admission\": {\"max_queue_depth\": " +
         std::to_string(admission_.options().max_queue_depth) +
         ", \"rejected_queue\": " + std::to_string(admission_.rejected_queue()) + "},\n";
  out += "  \"models\": [\n";
  out += "    {\"app\": \"speech\", \"plan\": \"" + speech_->plan_key +
         "\", \"resident_bytes\": " + std::to_string(speech_->instance.resident_bytes()) + "},\n";
  out += "    {\"app\": \"particle\", \"plan\": \"" + particle_->plan_key +
         "\", \"resident_bytes\": " + std::to_string(particle_->instance.resident_bytes()) + "}\n";
  out += "  ],\n";
  out += "  \"tenants\": [";
  bool first = true;
  for (const auto& [tenant, state] : tenants_) {
    if (!first) out += ", ";
    first = false;
    out += "{\"tenant\": \"" + obs::detail::json_escaped(tenant) +
           "\", \"depth_watermark\": " + std::to_string(state.queue.depth_watermark()) +
           ", \"jobs_served\": " + std::to_string(state.queue.jobs_served()) + "}";
  }
  out += "]\n}\n";
  return out;
}

std::string PlanServer::tenants_json() const {
  std::string out = "{\"schema\": 1, \"tracing\": ";
  out += tracer_->enabled() ? "true" : "false";
  out += ", \"requests_total\": " + std::to_string(tracer_->requests_total());
  out += ", \"sampled_total\": " + std::to_string(tracer_->sampled_total());
  out += ",\n \"tenants\": [\n";
  bool first = true;
  for (const auto& [tenant, state] : tenants_) {
    if (!first) out += ",\n";
    first = false;
    out += "  {\"tenant\": \"" + obs::detail::json_escaped(tenant) + "\"";
    out += ", \"queue_depth\": " + std::to_string(state.queue.depth());
    out += ", \"depth_watermark\": " + std::to_string(state.queue.depth_watermark());
    out += ", \"jobs_served\": " + std::to_string(state.queue.jobs_served());
    if (state.series != nullptr) {
      out += ", ";
      tracer_->append_rollup_json(out, *state.series);
    }
    out += "}";
  }
  out += "\n ]\n}\n";
  return out;
}

}  // namespace spi::serve
