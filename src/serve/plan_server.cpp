#include "serve/plan_server.hpp"

#include <chrono>
#include <cstdio>
#include <stdexcept>

#include "core/job_instance.hpp"
#include "dsp/particle_filter.hpp"
#include "dsp/rng.hpp"
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

void append_double(std::string& out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

void append_doubles(std::string& out, std::span<const double> values) {
  out += '[';
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) out += ',';
    append_double(out, values[i]);
  }
  out += ']';
}

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
/// batch, and that instance's flight recorder (armed only around the
/// trace bridge's captured batches — nothing else reads its events).
struct PlanServer::SpeechModel {
  apps::ErrorGenApp app;
  obs::FlightRecorder flight;
  core::JobInstance instance;
  core::RunOptions run_options;

  SpeechModel(const PlanServerOptions& options, obs::MetricRegistry* metrics)
      : app(options.speech_pes, options.speech_params),
        flight(app.system().plan().proc_count),
        instance(app.system().plan(),
                 core::JobInstanceOptions{
                     core::ChannelPolicy::kAuto, {}, metrics, "speech"}) {
    instance.set_flight_recorder(&flight);
  }
};

struct PlanServer::ParticleModel {
  apps::ParticleFilterApp app;
  obs::FlightRecorder flight;
  core::JobInstance instance;
  core::RunOptions run_options;

  ParticleModel(const PlanServerOptions& options, obs::MetricRegistry* metrics)
      : app(options.particle_pes, options.particle_params),
        flight(app.system().plan().proc_count),
        instance(app.system().plan(),
                 core::JobInstanceOptions{
                     core::ChannelPolicy::kAuto, {}, metrics, "particle"}) {
    instance.set_flight_recorder(&flight);
  }
};

PlanServer::PlanServer(PlanServerOptions options)
    : options_(std::move(options)),
      cache_(options_.plan_cache_capacity),
      admission_(options_.admission) {
  if (options_.metrics) {
    metrics_ = options_.metrics;
  } else {
    owned_metrics_ = std::make_unique<obs::MetricRegistry>();
    metrics_ = owned_metrics_.get();
  }
  tracer_ = std::make_unique<obs::RequestTracer>(options_.trace, *metrics_);

  speech_ = std::make_unique<SpeechModel>(options_, metrics_);
  particle_ = std::make_unique<ParticleModel>(options_, metrics_);
  // The recorders stay attached for the server's lifetime but record
  // only around the batches the flight bridge captures (it arms and
  // disarms per capture): the trace bridge is their only reader. A
  // stalled batch's watchdog writes the stall report and /runtime
  // snapshot, never a flight log, so the watchdog needs no recording.
  speech_->flight.set_armed(false);
  particle_->flight.set_armed(false);
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

  // The built-in plans take the same admission + cache path tenant plans
  // do — the server refuses to start with a budget its own models bust.
  for (const auto* plan :
       {&speech_->app.system().plan(), &particle_->app.system().plan()}) {
    const auto resident = core::JobInstance::resident_channel_bytes(*plan);
    if (!admission_.admit_plan(resident).admitted)
      throw std::invalid_argument(
          "PlanServer: memory budget below the built-in models' resident bytes");
    (void)cache_.insert(*plan);
  }
  speech_plan_key_ = speech_->app.system().plan().content_hash_hex();
  particle_plan_key_ = particle_->app.system().plan().content_hash_hex();
}

PlanServer::~PlanServer() { stop(); }

void PlanServer::start() {
  if (http_) return;
  obs::HttpServer::Options http;
  http.port = options_.port;
  http.bind_address = options_.bind_address;
  http.batch_handler = [this](std::span<obs::HttpRequest> requests,
                              std::vector<obs::HttpResponse>& responses) {
    handle_burst(requests, responses);
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
    metrics_->gauge("spi_serve_plan_cache_entries").set(static_cast<double>(cache_.size()));
    metrics_->gauge("spi_serve_plan_cache_hits").set(static_cast<double>(cache_.hits()));
    metrics_->gauge("spi_serve_plan_cache_misses").set(static_cast<double>(cache_.misses()));
    metrics_->gauge("spi_serve_plan_cache_evictions").set(static_cast<double>(cache_.evictions()));
    metrics_->gauge("spi_serve_resident_reserved_bytes")
        .set(static_cast<double>(admission_.reserved_bytes()));
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

obs::HttpResponse PlanServer::handle_plan_post(const obs::HttpRequest& request) {
  metrics_->counter("spi_serve_requests_total", {{"route", "plan"}}).inc();
  core::ExecutablePlan plan;
  try {
    plan = core::ExecutablePlan::from_json(request.body);
  } catch (const std::exception& e) {
    return bad_request(e.what());
  }

  const std::string key = plan.content_hash_hex();
  const bool cached = cache_.contains(key);
  std::int64_t resident = 0;
  if (!cached) {
    resident = core::JobInstance::resident_channel_bytes(plan);
    const AdmissionDecision decision = admission_.admit_plan(resident);
    if (!decision.admitted) {
      metrics_->counter("spi_serve_rejects_total", {{"reason", decision.reason}}).inc();
      return reject_response(decision.reason);
    }
  }
  const auto entry = cache_.insert(std::move(plan));
  // Evictions hand their reservation back to the budget.
  admission_.release_plan(cache_.take_evicted_bytes());

  std::string body = "{\"plan\": \"" + entry->key + "\", \"cached\": ";
  body += cached ? "true" : "false";
  body += ", \"resident_bytes\": " + std::to_string(entry->resident_bytes) + "}\n";
  return json_response(cached ? 200 : 201, std::move(body));
}

void PlanServer::route_job(std::size_t index, const obs::HttpRequest& request,
                           std::vector<obs::HttpResponse>& responses) {
  metrics_->counter("spi_serve_requests_total", {{"route", "job"}}).inc();
  const auto app = json_string_field(request.body, "app");
  if (!app || (*app != "speech" && *app != "particle")) {
    responses[index] = bad_request("job requires \"app\": \"speech\" or \"particle\"");
    return;
  }
  std::string tenant = json_string_field(request.body, "tenant").value_or("default");
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
  QueuedJob job{index, *app, request.body, 0, 0, 0};
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
}

void PlanServer::drain_queue(TenantState& tenant, std::vector<obs::HttpResponse>& responses) {
  JobQueue& queue = tenant.queue;
  if (queue.empty()) return;
  obs::TenantSeries* series = tenant.series;
  const bool traced = series != nullptr;
  const std::int64_t drain_ns = traced ? tracer_->now_ns() : 0;

  struct SpeechParsed {
    std::size_t index;
    bool explicit_io;
    std::uint64_t span_id;
    std::int64_t ingest_ns;
    std::int64_t enqueued_ns;
  };
  struct ParticleParsed {
    std::size_t index;
    bool explicit_io;
    std::int64_t steps;
    std::uint64_t span_id;
    std::int64_t ingest_ns;
    std::int64_t enqueued_ns;
  };

  // Completes a span for a job rejected while parsing at drain time:
  // its lifecycle ends inside the batch-formation stage.
  const auto complete_drain_reject = [&](const QueuedJob& job, int status) {
    if (!traced || job.span_id == 0) return;
    obs::RequestSpan span;
    span.id = job.span_id;
    span.sampled = tracer_->is_sampled(job.span_id);
    span.status = status;
    span.ingest_ns = job.ingest_ns;
    span.stage_ns[kStAdmission] = job.enqueued_ns - job.ingest_ns;
    span.stage_ns[kStQueue] = drain_ns - job.enqueued_ns;
    span.stage_ns[kStBatch] = tracer_->now_ns() - drain_ns;
    tracer_->complete(*series, span, queue.tenant(), job.app);
  };
  std::vector<SpeechParsed> speech_meta;
  std::vector<apps::ErrorGenApp::SpeechJobSpec> speech_jobs;
  // Particle batches must share one trajectory length — group by it.
  std::map<std::int64_t,
           std::pair<std::vector<ParticleParsed>, std::vector<apps::ParticleFilterApp::ParticleJobSpec>>>
      particle_groups;

  const auto& speech_params = speech_->app.params();
  const auto& particle_params = particle_->app.params();
  std::int64_t drained = 0;

  while (!queue.empty()) {
    const QueuedJob job = queue.pop();
    ++drained;
    if (job.app == "speech") {
      apps::ErrorGenApp::SpeechJobSpec spec;
      const auto frame = json_array_field(job.body, "frame");
      const bool explicit_io = frame.has_value();
      if (explicit_io) {
        spec.frame = *frame;
        spec.coeffs = json_array_field(job.body, "coeffs").value_or(synth_coeffs(speech_params.order));
      } else {
        const auto n = static_cast<std::size_t>(
            json_number_field(job.body, "frame_size").value_or(static_cast<double>(speech_params.frame_size)));
        const auto order = static_cast<std::size_t>(
            json_number_field(job.body, "order").value_or(static_cast<double>(speech_params.order)));
        const auto seed =
            static_cast<std::uint64_t>(json_number_field(job.body, "seed").value_or(0.0));
        if (n == 0 || n > speech_params.max_frame_size || order == 0 ||
            order > speech_params.max_order) {
          responses[job.request_index] = bad_request("speech job exceeds the model bounds");
          complete_drain_reject(job, 400);
          continue;
        }
        spec.frame = synth_frame(seed, n);
        spec.coeffs = synth_coeffs(order);
      }
      if (spec.frame.empty() || spec.frame.size() > speech_params.max_frame_size ||
          spec.coeffs.empty() || spec.coeffs.size() > speech_params.max_order) {
        responses[job.request_index] = bad_request("speech job exceeds the model bounds");
        complete_drain_reject(job, 400);
        continue;
      }
      speech_meta.push_back(
          {job.request_index, explicit_io, job.span_id, job.ingest_ns, job.enqueued_ns});
      speech_jobs.push_back(std::move(spec));
    } else {
      apps::ParticleFilterApp::ParticleJobSpec spec;
      spec.seed = static_cast<std::uint64_t>(
          json_number_field(job.body, "seed").value_or(static_cast<double>(particle_params.seed)));
      const auto observations = json_array_field(job.body, "observations");
      const bool explicit_io = observations.has_value();
      if (explicit_io) {
        spec.trajectory.observations = *observations;
        spec.trajectory.truth = json_array_field(job.body, "truth")
                                    .value_or(std::vector<double>(spec.trajectory.observations.size(), 0.0));
      } else {
        const auto steps = static_cast<std::size_t>(
            json_number_field(job.body, "steps").value_or(8.0));
        if (steps == 0 || steps > 4096) {
          responses[job.request_index] = bad_request("particle job steps out of range");
          complete_drain_reject(job, 400);
          continue;
        }
        dsp::Rng rng(spec.seed + 1);
        spec.trajectory = dsp::simulate_crack(particle_params.model, steps, rng);
      }
      if (spec.trajectory.observations.empty()) {
        responses[job.request_index] = bad_request("particle job has no observations");
        complete_drain_reject(job, 400);
        continue;
      }
      const auto steps = static_cast<std::int64_t>(spec.trajectory.observations.size());
      auto& [meta, specs] = particle_groups[steps];
      meta.push_back(
          {job.request_index, explicit_io, steps, job.span_id, job.ingest_ns, job.enqueued_ns});
      specs.push_back(std::move(spec));
    }
  }
  queue.count_served(drained);

  if (!speech_jobs.empty()) {
    metrics_->counter("spi_serve_batches_total", {{"app", "speech"}}).inc();
    metrics_
        ->histogram("spi_serve_batch_jobs", obs::Histogram::exponential_bounds(1.0, 2.0, 11),
                    {{"app", "speech"}})
        .observe(static_cast<double>(speech_jobs.size()));
    const std::int64_t batch_id = next_batch_id_++;
    bool sample_batch = false;
    if (traced)
      for (const SpeechParsed& m : speech_meta)
        if (m.span_id != 0 && tracer_->is_sampled(m.span_id)) {
          sample_batch = true;
          break;
        }
    // Flight bridge, paced much coarser than span sampling (collect is
    // the one expensive capture): drop whatever the rings still hold,
    // tag the run, and collect right after — the captured log is
    // exactly this batch's causal firing stream (GET /trace/flight).
    const bool capture_flight = sample_batch && tracer_->want_flight();
    if (capture_flight) {
      speech_->flight.set_armed(true);
      speech_->flight.discard_all();
      speech_->run_options.batch_id = batch_id;
    } else {
      speech_->run_options.batch_id = -1;
    }
    const std::int64_t formed_ns = traced ? tracer_->now_ns() : 0;
    std::int64_t exec_end_ns = formed_ns;
    try {
      const auto results = speech_->app.compute_errors_batch(
          speech_jobs, speech_->instance, &speech_->run_options);
      exec_end_ns = traced ? tracer_->now_ns() : 0;
      for (std::size_t k = 0; k < speech_meta.size(); ++k) {
        std::string body = "{\"app\": \"speech\", ";
        if (speech_meta[k].explicit_io) {
          body += "\"errors\": ";
          append_doubles(body, results[k]);
        } else {
          double checksum = 0.0;
          for (const double e : results[k]) checksum += e;
          body += "\"n\": " + std::to_string(results[k].size()) + ", \"checksum\": ";
          append_double(body, checksum);
        }
        body += "}\n";
        responses[speech_meta[k].index] = json_response(200, std::move(body));
      }
      jobs_served_ += static_cast<std::int64_t>(speech_jobs.size());
      metrics_->counter("spi_serve_jobs_total", {{"app", "speech"}, {"tenant", queue.tenant()}})
          .inc(static_cast<std::int64_t>(speech_jobs.size()));
    } catch (const std::exception& e) {
      exec_end_ns = traced ? tracer_->now_ns() : 0;
      for (const SpeechParsed& meta : speech_meta)
        responses[meta.index] =
            json_response(500, "{\"error\": \"" + obs::detail::json_escaped(e.what()) + "\"}\n");
    }
    if (traced) {
      // Reply stamp first: flight collection is tracer bookkeeping, not
      // part of any request's lifecycle (serialization waits for the
      // GET /trace/flight scrape).
      const std::int64_t reply_ns = tracer_->now_ns();
      if (capture_flight) {
        tracer_->note_flight(batch_id, speech_->flight.collect());
        speech_->flight.set_armed(false);
      }
      span_ids_scratch_.clear();
      for (const SpeechParsed& m : speech_meta)
        if (m.span_id != 0) span_ids_scratch_.push_back(m.span_id);
      if (!span_ids_scratch_.empty()) {
        // One representative span for the whole batch: the jobs share
        // every stage boundary (batch stamps, the burst's enqueue stamp,
        // one status for the batched firing), so only the ids differ.
        const SpeechParsed& front = speech_meta.front();
        obs::RequestSpan span;
        span.status = responses[front.index].status;
        span.batch_id = batch_id;
        span.batch_size = static_cast<std::int32_t>(speech_jobs.size());
        span.ingest_ns = front.ingest_ns;
        span.stage_ns[kStAdmission] = front.enqueued_ns - front.ingest_ns;
        span.stage_ns[kStQueue] = drain_ns - front.enqueued_ns;
        span.stage_ns[kStBatch] = formed_ns - drain_ns;
        span.stage_ns[kStExec] = exec_end_ns - formed_ns;
        span.stage_ns[kStReply] = reply_ns - exec_end_ns;
        tracer_->complete_batch(*series, span, span_ids_scratch_, queue.tenant(), "speech");
      }
    }
  }

  for (auto& [steps, group] : particle_groups) {
    auto& [meta, specs] = group;
    metrics_->counter("spi_serve_batches_total", {{"app", "particle"}}).inc();
    metrics_
        ->histogram("spi_serve_batch_jobs", obs::Histogram::exponential_bounds(1.0, 2.0, 11),
                    {{"app", "particle"}})
        .observe(static_cast<double>(specs.size()));
    const std::int64_t batch_id = next_batch_id_++;
    bool sample_batch = false;
    if (traced)
      for (const ParticleParsed& m : meta)
        if (m.span_id != 0 && tracer_->is_sampled(m.span_id)) {
          sample_batch = true;
          break;
        }
    const bool capture_flight = sample_batch && tracer_->want_flight();
    if (capture_flight) {
      particle_->flight.set_armed(true);
      particle_->flight.discard_all();
      particle_->run_options.batch_id = batch_id;
    } else {
      particle_->run_options.batch_id = -1;
    }
    const std::int64_t formed_ns = traced ? tracer_->now_ns() : 0;
    std::int64_t exec_end_ns = formed_ns;
    try {
      const auto results =
          particle_->app.track_batch(specs, particle_->instance, &particle_->run_options);
      exec_end_ns = traced ? tracer_->now_ns() : 0;
      for (std::size_t k = 0; k < meta.size(); ++k) {
        const apps::TrackResult& r = results[k];
        std::string body = "{\"app\": \"particle\", ";
        if (meta[k].explicit_io) {
          body += "\"estimates\": ";
          append_doubles(body, r.estimates);
          body += ", \"rmse\": ";
          append_double(body, r.rmse_vs_truth);
          body += ", \"resample_steps\": " + std::to_string(r.resample_steps);
          body += ", \"particles_exchanged\": " + std::to_string(r.particles_exchanged);
        } else {
          body += "\"steps\": " + std::to_string(steps) + ", \"estimate\": ";
          append_double(body, r.estimates.empty() ? 0.0 : r.estimates.back());
          body += ", \"rmse\": ";
          append_double(body, r.rmse_vs_truth);
        }
        body += "}\n";
        responses[meta[k].index] = json_response(200, std::move(body));
      }
      jobs_served_ += static_cast<std::int64_t>(specs.size());
      metrics_->counter("spi_serve_jobs_total", {{"app", "particle"}, {"tenant", queue.tenant()}})
          .inc(static_cast<std::int64_t>(specs.size()));
    } catch (const std::exception& e) {
      exec_end_ns = traced ? tracer_->now_ns() : 0;
      for (const ParticleParsed& m : meta)
        responses[m.index] =
            json_response(500, "{\"error\": \"" + obs::detail::json_escaped(e.what()) + "\"}\n");
    }
    if (traced) {
      const std::int64_t reply_ns = tracer_->now_ns();
      if (capture_flight) {
        tracer_->note_flight(batch_id, particle_->flight.collect());
        particle_->flight.set_armed(false);
      }
      span_ids_scratch_.clear();
      for (const ParticleParsed& m : meta)
        if (m.span_id != 0) span_ids_scratch_.push_back(m.span_id);
      if (!span_ids_scratch_.empty()) {
        const ParticleParsed& front = meta.front();
        obs::RequestSpan span;
        span.status = responses[front.index].status;
        span.batch_id = batch_id;
        span.batch_size = static_cast<std::int32_t>(specs.size());
        span.ingest_ns = front.ingest_ns;
        span.stage_ns[kStAdmission] = front.enqueued_ns - front.ingest_ns;
        span.stage_ns[kStQueue] = drain_ns - front.enqueued_ns;
        span.stage_ns[kStBatch] = formed_ns - drain_ns;
        span.stage_ns[kStExec] = exec_end_ns - formed_ns;
        span.stage_ns[kStReply] = reply_ns - exec_end_ns;
        tracer_->complete_batch(*series, span, span_ids_scratch_, queue.tenant(), "particle");
      }
    }
  }
}

void PlanServer::handle_burst(std::span<obs::HttpRequest> requests,
                              std::vector<obs::HttpResponse>& responses) {
  const auto start = std::chrono::steady_clock::now();
  ++bursts_;
  burst_ingest_ns_ = tracer_->enabled() ? tracer_->now_ns() : 0;
  burst_admit_ns_ = -1;
  responses.resize(requests.size());

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
    if (path == "/plan") {
      responses[i] = handle_plan_post(request);
    } else if (path == "/job") {
      route_job(i, request, responses);
    } else {
      metrics_->counter("spi_serve_requests_total", {{"route", "other"}}).inc();
      responses[i] = json_response(404, "{\"error\": \"not found\"}\n");
    }
  }

  // Batched firing: each tenant queue drains as one colocated batch per
  // app (one program traversal amortized over all its queued jobs).
  for (auto& [tenant, state] : tenants_) drain_queue(state, responses);

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

std::string PlanServer::runtime_json() const {
  std::string out = "{\n  \"server\": \"spi_served\",\n";
  out += "  \"jobs_served\": " + std::to_string(jobs_served_) + ",\n";
  out += "  \"bursts\": " + std::to_string(bursts_) + ",\n";
  out += "  \"stalls\": " + std::to_string(stalls_) + ",\n";
  out += "  \"plan_cache\": {\"entries\": " + std::to_string(cache_.size()) +
         ", \"capacity\": " + std::to_string(cache_.capacity()) +
         ", \"hits\": " + std::to_string(cache_.hits()) +
         ", \"misses\": " + std::to_string(cache_.misses()) +
         ", \"evictions\": " + std::to_string(cache_.evictions()) +
         ", \"resident_bytes\": " + std::to_string(cache_.resident_bytes()) + "},\n";
  out += "  \"admission\": {\"reserved_bytes\": " + std::to_string(admission_.reserved_bytes()) +
         ", \"memory_budget_bytes\": " + std::to_string(admission_.options().memory_budget_bytes) +
         ", \"max_queue_depth\": " + std::to_string(admission_.options().max_queue_depth) +
         ", \"rejected_memory\": " + std::to_string(admission_.rejected_memory()) +
         ", \"rejected_queue\": " + std::to_string(admission_.rejected_queue()) + "},\n";
  out += "  \"models\": [\n";
  out += "    {\"app\": \"speech\", \"plan\": \"" + speech_plan_key_ +
         "\", \"resident_bytes\": " + std::to_string(speech_->instance.resident_bytes()) + "},\n";
  out += "    {\"app\": \"particle\", \"plan\": \"" + particle_plan_key_ +
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
