/// \file layers.cpp
/// The traced run: per-layer self time, wait time and counts for one
/// workload, timed by the harness around calls into each layer's public
/// functions (nothing inside src/ is instrumented for it). Four parts,
/// all on the workload's own job shapes (spec.server):
///   1. serve probe: serve::PlanServer hosted in this process behind an
///      obs::HttpServer whose batch handler wraps handle_burst, driven by
///      the workload's open loop once bare and once traced;
///   2. apps + dsp: compute_errors_batch / track_batch on a JobInstance
///      of the served plans, and the same jobs' kernels called directly;
///   3. core: both apps as gangs on real threads, channel counters read
///      from the run's own telemetry endpoint;
///   4. compile: the pipeline stages on both apps' graphs.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "apps/particle_app.hpp"
#include "apps/speech_app.hpp"
#include "core/job_instance.hpp"
#include "core/pipeline.hpp"
#include "dsp/lpc.hpp"
#include "dsp/particle_filter.hpp"
#include "net.hpp"
#include "obs/http_server.hpp"
#include "report.hpp"
#include "serve/plan_server.hpp"
#include "stats.hpp"

namespace perfbench {

namespace {

/// Spans kept in memory and written as JSON lines when the run ends.
class SpanLog {
 public:
  /// Returns the new span's 1-based id.
  std::int64_t add(const char* name, std::int64_t begin, std::int64_t end, std::int64_t parent,
                   std::int64_t key) {
    spans_.push_back({name, begin, end, parent, key});
    return static_cast<std::int64_t>(spans_.size());
  }
  void write(const std::string& path) const {
    std::ofstream out(path);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"id\": " << i + 1 << ", \"name\": \"" << s.name << "\", \"begin_ns\": " << s.begin
          << ", \"end_ns\": " << s.end << ", \"parent\": " << s.parent << ", \"key\": " << s.key
          << "}\n";
    }
  }

 private:
  struct Span {
    const char* name;
    std::int64_t begin;
    std::int64_t end;
    std::int64_t parent;  ///< span id, 0 = root
    std::int64_t key;     ///< client burst id, or batch id for exec spans
  };
  std::vector<Span> spans_;
};

/// One handle_burst call, stamped on the server thread.
struct ServerCall {
  std::int64_t begin_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t tracer_begin = 0;  ///< the same instants on the tracer's clock
  std::int64_t tracer_end = 0;
  int requests = 0;
  std::vector<std::int64_t> bursts;  ///< client burst ids, in request order
};

std::int64_t burst_of(const std::string& target) {
  const std::size_t at = target.find("?b=");
  return at == std::string::npos ? -1 : std::strtoll(target.c_str() + at + 3, nullptr, 10);
}

double finite_mean(const std::vector<double>& v) {
  double sum = 0.0;
  std::size_t n = 0;
  for (const double x : v) {
    if (!std::isfinite(x)) continue;
    sum += x;
    ++n;
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

Checker checker_for(const JobSet& jobs) {
  return [&jobs](std::size_t index, int status, std::string_view body) {
    return check_response(jobs, index, status, body);
  };
}

void count_check(Report& report, bool ok) {
  ++report.attempted;
  if (ok) return;
  ++report.wrong;
  ++report.failed;
}

/// Part 1, bare: the same server without the wrapper, tracer at its
/// shipped defaults. Returns the client mean latency.
double serve_bare(const WorkloadSpec& spec, const JobSet& jobs, double seconds,
                  const Placement& placement, Report& report) {
  serve::PlanServer server(spec.server);
  obs::HttpServer::Options http_options;
  http_options.batch_handler = [&server](std::span<obs::HttpRequest> requests,
                                         std::vector<obs::HttpResponse>& responses) {
    server.handle_burst(requests, responses);
  };
  obs::HttpServer http(std::move(http_options));
  pin_thread(placement.server);  // the event-loop thread inherits it
  http.start();
  pin_thread(placement.driver);
  PhaseResult phase;
  {
    OpenLoop loop(http.port(), kConnections, jobs.pool, checker_for(jobs));
    report.count(loop.run(spec.nominal_rps, kBurst, 0.3));
    phase = loop.run(spec.nominal_rps, kBurst, seconds);
    report.count(phase);
  }
  http.stop();
  return finite_mean(phase.latency_us);
}

/// Part 1, traced: handle_burst wrapped and every request's span kept.
void serve_traced(const WorkloadSpec& spec, const JobSet& jobs, double seconds,
                  double bare_mean_us, const Placement& placement, SpanLog& spans,
                  Report& report) {
  serve::PlanServerOptions options = spec.server;
  options.trace.sample_every = 1;
  options.trace.ring_capacity = 1u << 17;
  serve::PlanServer server(options);
  std::vector<ServerCall> calls;
  calls.reserve(1u << 16);
  obs::HttpServer::Options http_options;
  http_options.batch_handler = [&server, &calls](std::span<obs::HttpRequest> requests,
                                                 std::vector<obs::HttpResponse>& responses) {
    ServerCall call;
    call.requests = static_cast<int>(requests.size());
    for (const obs::HttpRequest& request : requests) {
      const std::int64_t id = burst_of(request.target);
      if (call.bursts.empty() || call.bursts.back() != id) call.bursts.push_back(id);
    }
    call.tracer_begin = server.tracer().now_ns();
    call.begin_ns = now_ns();
    server.handle_burst(requests, responses);
    call.end_ns = now_ns();
    call.tracer_end = server.tracer().now_ns();
    calls.push_back(std::move(call));
  };
  obs::HttpServer http(std::move(http_options));
  pin_thread(placement.server);
  http.start();
  pin_thread(placement.driver);
  PhaseResult phase;
  {
    OpenLoop loop(http.port(), kConnections, jobs.pool, checker_for(jobs));
    report.count(loop.run(spec.nominal_rps, kBurst, 0.3));
    phase = loop.run(spec.nominal_rps, kBurst, seconds, 0.0, /*record_bursts=*/true);
    report.count(phase);
  }
  http.stop();  // joins the event loop: `calls` is only ours from here on

  // Exec interval of every batch, on the tracer clock, from the spans
  // (this run samples every request).
  std::map<std::int64_t, Interval> exec_by_batch;
  const std::string trace = server.tracer().trace_json();
  const std::size_t outliers_at = trace.find("\"outliers\"");
  for (std::size_t pos = trace.find("{\"id\": "); pos < outliers_at;
       pos = trace.find("{\"id\": ", pos + 1)) {
    const std::string_view span(trace.data() + pos, trace.find('}', pos) - pos);
    const auto batch = find_number(span, "batch");
    if (!batch || *batch < 0 || exec_by_batch.count(static_cast<std::int64_t>(*batch))) continue;
    const double begin = find_number(span, "ingest_ns").value_or(0) +
                         find_number(span, "admission_ns").value_or(0) +
                         find_number(span, "queue_ns").value_or(0) +
                         find_number(span, "batch_ns").value_or(0);
    const double exec = find_number(span, "exec_ns").value_or(0);
    exec_by_batch[static_cast<std::int64_t>(*batch)] = {static_cast<std::int64_t>(begin),
                                                        static_cast<std::int64_t>(begin + exec)};
  }

  // Spans: client bursts; server calls under the burst of their first
  // request; exec intervals under the call that ran them.
  std::unordered_map<std::int64_t, std::int64_t> client_span;
  for (const ClientBurst& b : phase.bursts)
    client_span[b.id] = spans.add("client.burst", b.sent_ns, b.last_reply_ns, 0, b.id);
  std::vector<ServerCallSpan> answered;
  std::vector<double> self_us;
  std::int64_t requests = 0;
  std::vector<Interval> batches;
  for (const auto& [batch, interval] : exec_by_batch) batches.push_back(interval);
  std::sort(batches.begin(), batches.end(),
            [](const Interval& a, const Interval& b) { return a.begin < b.begin; });
  std::size_t next_batch = 0;
  for (const ServerCall& call : calls) {
    requests += call.requests;
    const std::int64_t first = call.bursts.empty() ? -1 : call.bursts.front();
    const auto parent = client_span.find(first);
    const std::int64_t id = spans.add("serve.handle_burst", call.begin_ns, call.end_ns,
                                      parent == client_span.end() ? 0 : parent->second, first);
    answered.push_back({{call.begin_ns, call.end_ns}, call.bursts});
    const std::int64_t offset = call.begin_ns - call.tracer_begin;  // tracer -> steady clock
    std::vector<Interval> children;
    while (next_batch < batches.size() && batches[next_batch].begin < call.tracer_begin)
      ++next_batch;
    for (; next_batch < batches.size() && batches[next_batch].begin <= call.tracer_end;
         ++next_batch) {
      const Interval steady{batches[next_batch].begin + offset, batches[next_batch].end + offset};
      spans.add("serve.exec", steady.begin, steady.end, id, first);
      children.push_back(steady);
    }
    if (!children.empty())
      self_us.push_back(
          static_cast<double>(self_time({call.begin_ns, call.end_ns}, children)) * 1e-3);
  }

  const std::map<std::int64_t, std::int64_t> burst_server_ns = server_ns_by_burst(answered);
  double transport_sum = 0.0;
  std::int64_t transport_requests = 0;
  for (const ClientBurst& b : phase.bursts) {
    const auto server_ns = burst_server_ns.find(b.id);
    if (b.answered != b.requests || server_ns == burst_server_ns.end()) continue;
    const auto rtt = static_cast<double>(b.last_reply_ns - b.sent_ns);
    transport_sum += (rtt - static_cast<double>(server_ns->second)) * 1e-3 * b.requests;
    transport_requests += b.requests;
  }
  const double transport_us =
      transport_requests > 0 ? transport_sum / static_cast<double>(transport_requests) : 0.0;

  // Per-stage means from the all-request counters /tenants serves
  // (ns_total / requests), never from its sampled quantiles.
  const std::string tenants = server.tenants_json();
  const char* stages[] = {"admission", "queue", "batch", "exec", "reply"};
  double stage_ns[5] = {};
  double all_requests = 0.0;
  double queue_min = kInf;
  double queue_max = 0.0;
  for (std::size_t at = tenants.find("{\"tenant\": "); at != std::string::npos;) {
    const std::size_t next = tenants.find("{\"tenant\": ", at + 1);
    const std::string_view entry(tenants.data() + at,
                                 (next == std::string::npos ? tenants.size() : next) - at);
    at = next;
    const double n = find_number(entry, "requests").value_or(0);
    if (n <= 0) continue;
    all_requests += n;
    for (int k = 0; k < 5; ++k) {
      const std::size_t stage_at = entry.find("\"" + std::string(stages[k]) + "\": {");
      const double ns = stage_at == std::string_view::npos
                            ? 0.0
                            : find_number(entry, "ns_total", stage_at).value_or(0);
      stage_ns[k] += ns;
      if (k == 1) {
        queue_min = std::min(queue_min, ns / n);
        queue_max = std::max(queue_max, ns / n);
      }
    }
  }
  const std::string prom = server.metrics().to_prometheus();
  const double jobs_total = prometheus_sum(prom, "spi_serve_jobs_total");
  const double batches_total = prometheus_sum(prom, "spi_serve_batches_total");

  const double client_mean_us = finite_mean(phase.latency_us);
  double stages_us = 0.0;
  report.add("http.transport_us", transport_us, "us");
  report.add("http.requests_per_read",
             calls.empty() ? 0.0 : static_cast<double>(requests) / static_cast<double>(calls.size()),
             "count");
  report.add("serve.handle_burst_us", mean(self_us), "us");
  for (int k = 0; k < 5; ++k) {
    const double us = all_requests > 0 ? stage_ns[k] / all_requests * 1e-3 : 0.0;
    stages_us += us;
    report.add(std::string("serve.stage.") + stages[k] + "_us", us, "us");
  }
  report.add("serve.queue_tenant_ratio",
             queue_min > 0 && std::isfinite(queue_min) ? queue_max / queue_min : 1.0, "ratio");
  report.add("serve.jobs_per_batch", batches_total > 0 ? jobs_total / batches_total : 0.0,
             "count");
  report.add("serve.rejected", static_cast<double>(phase.refused), "count");
  report.add("serve.failed", static_cast<double>(phase.failed + phase.wrong), "count");
  const double remainder_us = client_mean_us - transport_us - stages_us;
  report.add("ledger.client_mean_us", client_mean_us, "us");
  report.add("ledger.remainder_us", remainder_us, "us");
  report.add("driver.lateness_p99_us", lateness_p99_us(phase), "us");
  report.add("trace.overhead_pct",
             bare_mean_us > 0 ? (client_mean_us / bare_mean_us - 1.0) * 100.0 : 0.0, "%");
  std::printf("{\"report\": {\"ledger\": {\"client_mean_us\": %.2f, \"transport_us\": %.2f, "
              "\"stages_us\": %.2f, \"remainder_us\": %.2f, \"bare_client_mean_us\": %.2f, "
              "\"server_calls\": %zu, \"exec_batches\": %zu}}}\n",
              client_mean_us, transport_us, stages_us, remainder_us, bare_mean_us, calls.size(),
              exec_by_batch.size());
}

/// Part 2: the apps layer's batched entry points against the same jobs'
/// kernels called directly.
void apps_and_dsp(const WorkloadSpec& spec, const JobSet& jobs, double seconds, Report& report) {
  const apps::ErrorGenApp speech(spec.server.speech_pes, spec.server.speech_params);
  const apps::ParticleFilterApp particle(spec.server.particle_pes, spec.server.particle_params);
  core::JobInstance speech_instance(speech.system().plan());
  core::JobInstance particle_instance(particle.system().plan());

  // Replay the pool burst by burst, grouped the way the server drains:
  // per tenant one speech batch and one particle batch per length.
  std::vector<std::size_t> replayed;
  std::int64_t apps_ns = 0;
  const std::int64_t budget_end = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  std::size_t next = 0;
  while (now_ns() < budget_end || replayed.empty()) {
    std::map<int, std::vector<std::size_t>> speech_groups;
    std::map<std::pair<int, std::int64_t>, std::vector<std::size_t>> particle_groups;
    for (int j = 0; j < kBurst; ++j, ++next) {
      const std::size_t index = next % jobs.pool.size();
      const Request& request = jobs.pool[index];
      if (request.particle) {
        particle_groups[{request.tenant, request.steps}].push_back(index);
      } else {
        speech_groups[request.tenant].push_back(index);
      }
    }
    for (const auto& [tenant, group] : speech_groups) {
      std::vector<apps::ErrorGenApp::SpeechJobSpec> batch;
      for (const std::size_t index : group) batch.push_back(jobs.speech_jobs[jobs.ref[index]]);
      const std::int64_t t0 = now_ns();
      const auto results = speech.compute_errors_batch(batch, speech_instance);
      apps_ns += now_ns() - t0;
      for (std::size_t k = 0; k < group.size(); ++k)
        count_check(report, same_bits(results[k], jobs.speech_errors[jobs.ref[group[k]]]));
      replayed.insert(replayed.end(), group.begin(), group.end());
    }
    for (const auto& [key, group] : particle_groups) {
      std::vector<apps::ParticleFilterApp::ParticleJobSpec> batch;
      for (const std::size_t index : group) batch.push_back(jobs.particle_jobs[jobs.ref[index]]);
      const std::int64_t t0 = now_ns();
      const auto results = particle.track_batch(batch, particle_instance);
      apps_ns += now_ns() - t0;
      for (std::size_t k = 0; k < group.size(); ++k) {
        const std::size_t ref = jobs.ref[group[k]];
        count_check(report, same_bits({results[k].estimates.back(), results[k].rmse_vs_truth},
                                      {jobs.particle_estimate[ref], jobs.particle_rmse[ref]}));
      }
      replayed.insert(replayed.end(), group.begin(), group.end());
    }
  }

  // The same jobs' kernels: actor D's prediction error per PE section,
  // and the sequential particle filter over the trajectory.
  double sink = 0.0;
  const std::int64_t t0 = now_ns();
  for (const std::size_t index : replayed) {
    if (jobs.pool[index].particle) {
      const auto& job = jobs.particle_jobs[jobs.ref[index]];
      dsp::ParticleFilter filter(spec.server.particle_params.particles,
                                 spec.server.particle_params.model, job.seed);
      for (const double observation : job.trajectory.observations) sink += filter.step(observation);
    } else {
      const auto& job = jobs.speech_jobs[jobs.ref[index]];
      const std::span<const double> frame(job.frame);
      for (std::int32_t pe = 0; pe < speech.pe_count(); ++pe) {
        const auto sec = speech.section(pe, job.frame.size(), job.coeffs.size());
        sink += dsp::prediction_error(frame.subspan(sec.begin - sec.history, sec.history + sec.count),
                                      job.coeffs, sec.history, sec.count)
                    .front();
      }
    }
  }
  const double jobs_run = static_cast<double>(replayed.size());
  const double dsp_us = static_cast<double>(now_ns() - t0) * 1e-3 / jobs_run;
  const double apps_us = static_cast<double>(apps_ns) * 1e-3 / jobs_run;
  report.add("apps.batch_us_per_job", apps_us, "us");
  report.add("dsp.kernel_us_per_job", dsp_us, "us");
  report.add("exec.channel_share_pct", (1.0 - dsp_us / apps_us) * 100.0, "%");
  std::printf("{\"report\": {\"apps_jobs\": %zu, \"kernel_checksum\": %.6g}}\n", replayed.size(),
              sink);
}

struct Scrape {
  double messages = 0;
  double payload = 0;
  double producer_block_us = 0;
  double consumer_block_us = 0;
  double iteration = 0;
  bool valid = false;
};

Scrape scrape(int port) {
  Scrape s;
  const auto metrics = http_get(port, "/metrics");
  const auto runtime = http_get(port, "/runtime");
  if (!metrics || !runtime || metrics->status != 200 || runtime->status != 200) return s;
  s.messages = prometheus_sum(metrics->body, "spi_threaded_messages_total");
  s.payload = prometheus_sum(metrics->body, "spi_threaded_payload_bytes_total");
  s.producer_block_us = prometheus_sum(metrics->body, "spi_threaded_producer_block_micros_total");
  s.consumer_block_us = prometheus_sum(metrics->body, "spi_threaded_consumer_block_micros_total");
  const auto iteration = find_number(runtime->body, "min_iteration");
  s.iteration = iteration.value_or(0);
  s.valid = iteration.has_value();
  return s;
}

/// Part 3 for one app. `call(options)` runs options.iterations gang
/// iterations and says whether the output matched its reference. The
/// count is sized so a run lasts about `target_s`; the channel counters
/// come from scraping a further run's own telemetry endpoint every 20 ms
/// (the first and last answered scrapes bound the window).
void profile_gang(const std::string& app, std::size_t procs, double kernel_us_per_iter,
                  double target_s, std::int64_t probe_iterations,
                  const std::function<bool(const core::RunOptions&)>& call, Report& report) {
  core::RunOptions options;
  options.iterations = probe_iterations;
  std::int64_t t0 = now_ns();
  count_check(report, call(options));
  const double probe_s = static_cast<double>(now_ns() - t0) * 1e-9;
  options.iterations = std::max<std::int64_t>(
      probe_iterations,
      static_cast<std::int64_t>(static_cast<double>(probe_iterations) * target_s / probe_s));

  t0 = now_ns();
  count_check(report, call(options));
  const double run_s = static_cast<double>(now_ns() - t0) * 1e-9;
  const double iter_us = run_s * 1e6 / static_cast<double>(options.iterations);

  Scrape a;
  Scrape b;
  {
    std::jthread scraper;
    core::RunOptions scraped = options;
    scraped.obs_port = 0;
    scraped.on_obs_start = [&](int port) {
      scraper = std::jthread([&a, &b, port] {
        for (;;) {
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
          const Scrape s = scrape(port);
          if (!s.valid) return;  // the run ended and took its endpoint along
          (a.valid ? b : a) = s;
        }
      });
    };
    count_check(report, call(scraped));
  }  // joins the scraper

  const double iterations = b.iteration - a.iteration;
  const bool scraped_ok = a.valid && b.valid && iterations > 0;
  const auto per_iter = [&](double delta) { return scraped_ok ? delta / iterations : 0.0; };
  const std::string suffix = "." + app;
  report.add("core.iter_us" + suffix, iter_us, "us");
  report.add("core.messages_per_iter" + suffix, per_iter(b.messages - a.messages), "count");
  report.add("core.payload_bytes_per_iter" + suffix, per_iter(b.payload - a.payload), "B");
  report.add("core.producer_block_us_per_iter" + suffix,
             per_iter(b.producer_block_us - a.producer_block_us), "us");
  report.add("core.consumer_block_us_per_iter" + suffix,
             per_iter(b.consumer_block_us - a.consumer_block_us), "us");
  report.add("dsp.kernel_us_per_iter" + suffix, kernel_us_per_iter, "us");
  report.add("core.parallel_efficiency" + suffix,
             kernel_us_per_iter / (static_cast<double>(procs) * iter_us), "ratio");
  std::printf("{\"report\": {\"gang\": \"%s\", \"iterations\": %lld, \"scraped_iterations\": %.0f}}\n",
              app.c_str(), static_cast<long long>(options.iterations), iterations);
}

void core_gangs(const WorkloadSpec& spec, const JobSet& jobs, std::uint64_t seed, double target_s,
                const Placement& placement, Report& report) {
  pin_thread(placement.gang);  // gang workers inherit the caller's CPUs
  const apps::ErrorGenApp speech(spec.server.speech_pes, spec.server.speech_params);
  const apps::ParticleFilterApp particle(spec.server.particle_pes, spec.server.particle_params);

  // Speech: one frame of the workload's shape, iterated (each iteration
  // re-sends the same sections, so the output does not depend on count).
  const auto& job = jobs.speech_jobs.front();
  const std::vector<double>& speech_ref = jobs.speech_errors.front();
  double sink = 0.0;
  const int reps = 2000;
  std::int64_t t0 = now_ns();
  for (int r = 0; r < reps; ++r)
    for (std::int32_t pe = 0; pe < speech.pe_count(); ++pe) {
      const auto sec = speech.section(pe, job.frame.size(), job.coeffs.size());
      sink += dsp::prediction_error(
                  std::span<const double>(job.frame).subspan(sec.begin - sec.history,
                                                             sec.history + sec.count),
                  job.coeffs, sec.history, sec.count)
                  .back();
    }
  const double speech_kernel_us = static_cast<double>(now_ns() - t0) * 1e-3 / reps;
  profile_gang("speech", speech.system().plan().programs.size(), speech_kernel_us, target_s, 2000,
               [&](const core::RunOptions& options) {
                 return same_bits(speech.compute_errors_threaded(job.frame, job.coeffs, options),
                                  speech_ref);
               },
               report);

  // Particle: a trajectory as long as the iteration count, checked
  // against the colocated walk of the same plan.
  core::JobInstance reference_instance(particle.system().plan());
  const apps::ParticleParams& params = spec.server.particle_params;
  std::map<std::int64_t, std::pair<dsp::CrackTrajectory, std::vector<double>>> cases;
  const auto case_for = [&](std::int64_t steps) -> const auto& {
    auto it = cases.find(steps);
    if (it == cases.end()) {
      dsp::Rng rng(seed * 31 + 7);
      dsp::CrackTrajectory trajectory =
          dsp::simulate_crack(params.model, static_cast<std::size_t>(steps), rng);
      const std::vector<apps::ParticleFilterApp::ParticleJobSpec> one{{trajectory, params.seed}};
      std::vector<double> ref = particle.track_batch(one, reference_instance).front().estimates;
      it = cases.emplace(steps, std::make_pair(std::move(trajectory), std::move(ref))).first;
    }
    return it->second;
  };
  const auto& probe = case_for(500);
  dsp::ParticleFilter filter(params.particles, params.model, params.seed);
  t0 = now_ns();
  for (const double observation : probe.first.observations) sink += filter.step(observation);
  const double particle_kernel_us = static_cast<double>(now_ns() - t0) * 1e-3 /
                                    static_cast<double>(probe.first.observations.size());
  profile_gang("particle", particle.system().plan().programs.size(), particle_kernel_us, target_s,
               500,
               [&](const core::RunOptions& options) {
                 const auto& [trajectory, ref] = case_for(options.iterations);
                 return same_bits(particle.track_threaded(trajectory, options).estimates, ref);
               },
               report);
  std::printf("{\"report\": {\"gang_kernel_checksum\": %.6g}}\n", sink);
  pin_thread(placement.driver);
}

/// Part 4: the compile pipeline's stages on both apps' graphs, median of
/// five repetitions of the sum over the two apps.
void compile_stages(const WorkloadSpec& spec, Report& report) {
  const apps::ErrorGenApp speech(spec.server.speech_pes, spec.server.speech_params);
  const apps::ParticleFilterApp particle(spec.server.particle_pes, spec.server.particle_params);
  core::SpiSystemOptions speech_options;
  speech_options.pass_policy = df::SchedulePolicy::kFirstFireable;  // as ErrorGenApp compiles
  const std::pair<const core::SpiSystem*, core::SpiSystemOptions> systems[] = {
      {&speech.system(), speech_options}, {&particle.system(), core::SpiSystemOptions{}}};
  std::vector<double> stage_ms[5];
  for (int rep = 0; rep < 5; ++rep) {
    double sums[5] = {};
    for (const auto& [system, options] : systems) {
      const df::Graph& graph = system->application();
      const sched::Assignment& assignment = system->assignment();
      std::int64_t t[6];
      t[0] = now_ns();
      core::VtsStage vts = core::run_vts_stage(graph, options);
      t[1] = now_ns();
      core::ScheduleStage schedule = core::run_schedule_stage(vts, assignment, options);
      t[2] = now_ns();
      core::SyncStage sync = core::run_sync_stage(schedule, assignment, options);
      t[3] = now_ns();
      core::ProtocolStage protocol = core::run_protocol_stage(vts, schedule, sync);
      t[4] = now_ns();
      const core::ExecutablePlan plan =
          core::plan_emit(graph, assignment, options, std::move(vts), std::move(schedule),
                          std::move(sync), std::move(protocol));
      t[5] = now_ns();
      if (plan.programs.empty()) throw std::runtime_error("compile produced an empty plan");
      for (int k = 0; k < 5; ++k) sums[k] += static_cast<double>(t[k + 1] - t[k]) * 1e-6;
    }
    for (int k = 0; k < 5; ++k) stage_ms[k].push_back(sums[k]);
  }
  const char* names[] = {"compile.vts_ms", "compile.schedule_ms", "compile.sync_ms",
                         "compile.protocol_ms", "compile.emit_ms"};
  for (int k = 0; k < 5; ++k) report.add(names[k], median(stage_ms[k]), "ms");
}

}  // namespace

void run_traced(const WorkloadSpec& spec, const JobSet& jobs, std::uint64_t seed, double seconds,
                const Placement& placement, Report& report) {
  SpanLog spans;
  const double bare_mean_us = serve_bare(spec, jobs, 0.15 * seconds, placement, report);
  serve_traced(spec, jobs, 0.25 * seconds, bare_mean_us, placement, spans, report);
  apps_and_dsp(spec, jobs, 0.12 * seconds, report);
  core_gangs(spec, jobs, seed, 0.03 * seconds, placement, report);
  compile_stages(spec, report);
  spans.write("trace-" + spec.name + "-" + std::to_string(seed) + ".jsonl");
}

}  // namespace perfbench
