/// Tests of the serving layer (docs/serving.md): PlanCache hit / miss /
/// LRU eviction and deduplication, AdmissionController memory and
/// queue-depth budgets, the PlanServer's socketless burst contract —
/// including the headline guarantee that a batched colocated firing is
/// bit-identical to running each job alone, for both built-in models —
/// and a multi-client soak over real sockets (TSan-clean in CI).
#include "serve/plan_server.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "apps/speech_app.hpp"
#include "core/job_instance.hpp"
#include "dsp/lpc.hpp"
#include "dsp/particle_filter.hpp"
#include "dsp/rng.hpp"
#include "obs/json_lint.hpp"
#include "serve/request.hpp"

namespace spi::serve {
namespace {

/// The server's built-in model shapes, mirrored so tests can compute
/// references through the same apps.
apps::SpeechParams server_speech_params() {
  return {.frame_size = 64, .max_frame_size = 256, .order = 4, .max_order = 8};
}

apps::ParticleParams server_particle_params() {
  apps::ParticleParams params;
  params.particles = 16;
  params.max_particles = 64;
  return params;
}

core::ExecutablePlan speech_plan(std::int32_t pes, std::size_t max_frame) {
  apps::SpeechParams params = server_speech_params();
  params.max_frame_size = max_frame;
  params.frame_size = std::min(params.frame_size, max_frame);
  const apps::ErrorGenApp app(pes, params);
  // Plans are value types: from_json(to_json) round-trips through the
  // same path POST /plan uses.
  return core::ExecutablePlan::from_json(app.system().plan().to_json());
}

TEST(PlanCache, DedupesHitsAndEvictsLeastRecentlyUsed) {
  PlanCache cache(2);
  const auto a = cache.insert(speech_plan(2, 128));
  const auto b = cache.insert(speech_plan(2, 256));
  ASSERT_NE(a->key, b->key) << "distinct bounds must hash differently";
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.misses(), 0);

  // Re-inserting cached content is a hit, not a new entry.
  EXPECT_EQ(cache.insert(speech_plan(2, 128))->key, a->key);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.hits(), 1);

  EXPECT_NE(cache.find(a->key), nullptr);  // touches a: b is now LRU
  EXPECT_EQ(cache.find("no-such-key"), nullptr);
  EXPECT_EQ(cache.misses(), 1);

  const auto c = cache.insert(speech_plan(3, 128));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1);
  EXPECT_TRUE(cache.contains(a->key));
  EXPECT_TRUE(cache.contains(c->key));
  EXPECT_FALSE(cache.contains(b->key)) << "LRU entry must be the one evicted";
  EXPECT_EQ(cache.take_evicted_bytes(), b->resident_bytes);
  EXPECT_EQ(cache.take_evicted_bytes(), 0) << "take must drain";
  EXPECT_EQ(cache.resident_bytes(), a->resident_bytes + c->resident_bytes);
}

TEST(PlanCache, RejectsZeroCapacity) {
  EXPECT_THROW(PlanCache(0), std::invalid_argument);
}

TEST(AdmissionController, BudgetsMemoryAndQueueDepth) {
  AdmissionController::Options options;
  options.memory_budget_bytes = 1000;
  options.max_queue_depth = 2;
  AdmissionController admission(options);

  EXPECT_TRUE(admission.admit_plan(600).admitted);
  const AdmissionDecision over = admission.admit_plan(500);
  EXPECT_FALSE(over.admitted);
  EXPECT_EQ(over.reason, "memory-budget");
  EXPECT_EQ(admission.reserved_bytes(), 600);
  EXPECT_EQ(admission.rejected_memory(), 1);

  admission.release_plan(600);
  EXPECT_TRUE(admission.admit_plan(500).admitted);

  EXPECT_TRUE(admission.admit_job(0).admitted);
  EXPECT_TRUE(admission.admit_job(1).admitted);
  const AdmissionDecision full = admission.admit_job(2);
  EXPECT_FALSE(full.admitted);
  EXPECT_EQ(full.reason, "queue-depth");
  EXPECT_EQ(admission.rejected_queue(), 1);
}

/// Builds a burst of POST /job requests from raw JSON bodies.
std::vector<obs::HttpRequest> job_burst(const std::vector<std::string>& bodies) {
  std::vector<obs::HttpRequest> requests;
  for (const std::string& body : bodies)
    requests.push_back({"POST", "/job", "HTTP/1.1", body, true});
  return requests;
}

std::string frame_json(std::span<const double> values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) out += ',';
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", values[i]);
    out += buf;
  }
  return out + "]";
}

TEST(PlanServer, RoutesGetEndpointsWithoutSockets) {
  PlanServer server;
  std::vector<obs::HttpRequest> requests = {
      {"GET", "/healthz", "HTTP/1.1", "", true},
      {"GET", "/runtime", "HTTP/1.1", "", true},
      {"GET", "/metrics.json", "HTTP/1.1", "", true},
      {"GET", "/nope", "HTTP/1.1", "", true},
      {"PUT", "/job", "HTTP/1.1", "{}", true},
      {"POST", "/elsewhere", "HTTP/1.1", "{}", true},
  };
  std::vector<obs::HttpResponse> responses;
  server.handle_burst(requests, responses);
  ASSERT_EQ(responses.size(), requests.size());
  EXPECT_EQ(responses[0].status, 200);
  EXPECT_EQ(responses[1].status, 200);
  EXPECT_TRUE(obs::detail::json_validate(responses[1].body).empty()) << responses[1].body;
  EXPECT_EQ(responses[2].status, 200);
  EXPECT_TRUE(obs::detail::json_validate(responses[2].body).empty());
  EXPECT_EQ(responses[3].status, 404);
  EXPECT_EQ(responses[4].status, 405);
  EXPECT_EQ(responses[5].status, 404);
}

TEST(PlanServer, BatchedSpeechFiringBitIdenticalToSingleJobRuns) {
  // References through an identically-parameterized app, one job at a
  // time — the pre-serving execution model.
  const apps::ErrorGenApp reference_app(2, server_speech_params());
  const apps::SpeechCompressor codec(server_speech_params());
  constexpr std::size_t kJobs = 5;
  std::vector<std::vector<double>> frames, coeffs;
  for (std::size_t j = 0; j < kJobs; ++j) {
    dsp::Rng rng(100 + j);
    // Varying sizes exercise the SPI_dynamic path inside one batch.
    frames.push_back(dsp::synthetic_speech(32 + 8 * j, rng));
    coeffs.push_back(codec.frame_coefficients(frames.back()));
  }

  std::vector<std::string> bodies;
  for (std::size_t j = 0; j < kJobs; ++j)
    bodies.push_back("{\"app\":\"speech\",\"frame\":" + frame_json(frames[j]) +
                     ",\"coeffs\":" + frame_json(coeffs[j]) + "}");

  PlanServer server;
  std::vector<obs::HttpRequest> requests = job_burst(bodies);
  std::vector<obs::HttpResponse> responses;
  server.handle_burst(requests, responses);

  ASSERT_EQ(responses.size(), kJobs);
  for (std::size_t j = 0; j < kJobs; ++j) {
    ASSERT_EQ(responses[j].status, 200) << responses[j].body;
    const auto errors = json_array_field(responses[j].body, "errors");
    ASSERT_TRUE(errors.has_value()) << responses[j].body;
    // %.17g serialization round-trips doubles exactly, so equality here
    // is bit-identity of the computed errors.
    EXPECT_EQ(*errors, reference_app.compute_errors_parallel(frames[j], coeffs[j]))
        << "batched job " << j << " diverged from its single-job run";
  }
  EXPECT_EQ(server.jobs_served(), static_cast<std::int64_t>(kJobs));
}

TEST(PlanServer, WatchdogBurstsLeaveTheFlightRecordersEmpty) {
  // The watchdog writes only the stall report + /runtime snapshot, so
  // it needs no flight recording: bursts outside a trace-bridge capture
  // must not record a single event, whatever watchdog_ms is.
  const std::vector<std::string> bodies = {
      R"({"app":"speech","frame_size":48,"seed":1})", R"({"app":"particle","steps":12,"seed":2})",
      R"({"app":"speech","frame_size":64,"seed":3})", R"({"app":"particle","steps":12,"seed":4})"};
  {
    PlanServerOptions options;
    options.watchdog_ms = 2000;
    options.trace.enabled = false;  // no capture can happen
    PlanServer server(options);
    std::vector<obs::HttpResponse> responses;
    for (int burst = 0; burst < 3; ++burst) {
      std::vector<obs::HttpRequest> requests = job_burst(bodies);
      server.handle_burst(requests, responses);
      for (const auto& r : responses) ASSERT_EQ(r.status, 200) << r.body;
      EXPECT_EQ(server.flight_events_held(), 0) << "burst " << burst;
    }
  }
  {
    // Traced: the first sampled batch is captured (and drained); the
    // bursts after it are outside any capture and record nothing.
    PlanServerOptions options;
    options.watchdog_ms = 2000;
    options.trace.sample_every = 1;
    options.trace.flight_every = 1000;
    PlanServer server(options);
    std::vector<obs::HttpResponse> responses;
    std::vector<obs::HttpRequest> first = job_burst(bodies);
    server.handle_burst(first, responses);
    ASSERT_TRUE(server.tracer().has_flight()) << "the first sampled batch must be captured";
    EXPECT_EQ(server.flight_events_held(), 0) << "a capture is drained and disarmed";
    for (int burst = 0; burst < 3; ++burst) {
      std::vector<obs::HttpRequest> requests = job_burst(bodies);
      server.handle_burst(requests, responses);
      for (const auto& r : responses) ASSERT_EQ(r.status, 200) << r.body;
      EXPECT_EQ(server.flight_events_held(), 0) << "burst " << burst;
    }
  }
}

TEST(PlanServer, BatchedParticleFiringBitIdenticalToSingleJobRuns) {
  const apps::ParticleFilterApp reference_app(2, server_particle_params());
  const auto& model = server_particle_params().model;
  dsp::Rng traj_rng_a(5), traj_rng_b(6);
  const auto traj_a = dsp::simulate_crack(model, 10, traj_rng_a);
  const auto traj_b = dsp::simulate_crack(model, 10, traj_rng_b);
  // A third job with a different length lands in its own length group.
  dsp::Rng traj_rng_c(7);
  const auto traj_c = dsp::simulate_crack(model, 6, traj_rng_c);

  const auto body_for = [](const dsp::CrackTrajectory& traj) {
    return "{\"app\":\"particle\",\"seed\":42,\"observations\":" +
           frame_json(traj.observations) + ",\"truth\":" + frame_json(traj.truth) + "}";
  };

  PlanServer server;
  std::vector<obs::HttpRequest> requests =
      job_burst({body_for(traj_a), body_for(traj_b), body_for(traj_c)});
  std::vector<obs::HttpResponse> responses;
  server.handle_burst(requests, responses);
  ASSERT_EQ(responses.size(), 3u);

  const dsp::CrackTrajectory* trajs[] = {&traj_a, &traj_b, &traj_c};
  for (std::size_t j = 0; j < 3; ++j) {
    ASSERT_EQ(responses[j].status, 200) << responses[j].body;
    const auto estimates = json_array_field(responses[j].body, "estimates");
    ASSERT_TRUE(estimates.has_value()) << responses[j].body;
    // Seed 42 is the reference app's own seed: track() must reproduce
    // the batched result bit for bit.
    const apps::TrackResult reference = reference_app.track(*trajs[j]);
    EXPECT_EQ(*estimates, reference.estimates) << "batched job " << j;
    const auto resamples = json_number_field(responses[j].body, "resample_steps");
    ASSERT_TRUE(resamples.has_value());
    EXPECT_EQ(static_cast<std::int64_t>(*resamples), reference.resample_steps);
  }
}

TEST(PlanServer, MixedBatchRepeatedBurstsReuseTheInstances) {
  PlanServer server;
  // Same synthetic job in two different bursts (alone, then surrounded)
  // must produce byte-identical responses: batch composition and
  // instance reuse are invisible to the result.
  const std::string probe = "{\"app\":\"speech\",\"frame_size\":16,\"order\":3,\"seed\":9}";
  std::vector<obs::HttpRequest> alone = job_burst({probe});
  std::vector<obs::HttpResponse> alone_responses;
  server.handle_burst(alone, alone_responses);
  ASSERT_EQ(alone_responses.size(), 1u);
  ASSERT_EQ(alone_responses[0].status, 200);

  std::vector<obs::HttpRequest> crowd = job_burst({
      "{\"app\":\"speech\",\"frame_size\":24,\"order\":4,\"seed\":1}",
      "{\"app\":\"particle\",\"steps\":4,\"seed\":3}",
      probe,
      "{\"app\":\"particle\",\"steps\":7,\"seed\":4}",
      "{\"app\":\"speech\",\"frame_size\":8,\"order\":2,\"seed\":2}",
  });
  std::vector<obs::HttpResponse> crowd_responses;
  server.handle_burst(crowd, crowd_responses);
  ASSERT_EQ(crowd_responses.size(), 5u);
  for (const auto& response : crowd_responses)
    EXPECT_EQ(response.status, 200) << response.body;
  EXPECT_EQ(crowd_responses[2].body, alone_responses[0].body);
  EXPECT_EQ(server.jobs_served(), 6);
}

TEST(PlanServer, RejectsOverDeepTenantQueuesPerTenant) {
  PlanServerOptions options;
  options.admission.max_queue_depth = 2;
  PlanServer server(options);

  const std::string job = "{\"app\":\"speech\",\"frame_size\":8,\"order\":2,\"seed\":1}";
  const std::string other = "{\"app\":\"speech\",\"tenant\":\"vip\",\"frame_size\":8,"
                            "\"order\":2,\"seed\":1}";
  std::vector<obs::HttpRequest> requests = job_burst({job, job, job, job, other});
  std::vector<obs::HttpResponse> responses;
  server.handle_burst(requests, responses);

  ASSERT_EQ(responses.size(), 5u);
  EXPECT_EQ(responses[0].status, 200);
  EXPECT_EQ(responses[1].status, 200);
  EXPECT_EQ(responses[2].status, 429);
  EXPECT_NE(responses[2].body.find("queue-depth"), std::string::npos);
  EXPECT_EQ(responses[3].status, 429);
  // The other tenant's queue is untouched by the default tenant's burst.
  EXPECT_EQ(responses[4].status, 200);
  EXPECT_EQ(server.admission().rejected_queue(), 2);
  EXPECT_EQ(server.jobs_served(), 3);
}

TEST(PlanServer, BadJobsAnswer400WithoutPoisoningTheBatch) {
  PlanServer server;
  std::vector<obs::HttpRequest> requests = job_burst({
      "{\"app\":\"neither\"}",
      "{\"frame_size\":8}",
      "{\"app\":\"speech\",\"frame_size\":100000,\"order\":4,\"seed\":1}",
      "{\"app\":\"particle\",\"steps\":0,\"seed\":1}",
      "{\"app\":\"speech\",\"frame_size\":8,\"order\":2,\"seed\":1}",
  });
  std::vector<obs::HttpResponse> responses;
  server.handle_burst(requests, responses);
  ASSERT_EQ(responses.size(), 5u);
  EXPECT_EQ(responses[0].status, 400);
  EXPECT_EQ(responses[1].status, 400);
  EXPECT_EQ(responses[2].status, 400);
  EXPECT_EQ(responses[3].status, 400);
  EXPECT_EQ(responses[4].status, 200) << "valid job must survive its burst-mates";
}

TEST(PlanServer, PlanPostCachesByContentAndBudgetsMemory) {
  // Budget: both built-ins + the small plan fit; the big plan does not.
  const auto big = speech_plan(2, 256 * 4);
  const auto small = speech_plan(2, 128);
  const std::int64_t builtin_bytes = [&] {
    PlanServer probe;  // defaults
    return probe.admission().reserved_bytes();
  }();
  PlanServerOptions options;
  options.admission.memory_budget_bytes =
      builtin_bytes + core::JobInstance::resident_channel_bytes(big) - 1;
  PlanServer server(options);

  const auto post_plan = [&](const core::ExecutablePlan& plan) {
    std::vector<obs::HttpRequest> requests = {
        {"POST", "/plan", "HTTP/1.1", plan.to_json(), true}};
    std::vector<obs::HttpResponse> responses;
    server.handle_burst(requests, responses);
    return responses.at(0);
  };

  // The server's own speech plan is already cached at startup.
  const obs::HttpResponse own = post_plan(
      core::ExecutablePlan::from_json(
          apps::ErrorGenApp(2, server_speech_params()).system().plan().to_json()));
  EXPECT_EQ(own.status, 200);
  EXPECT_NE(own.body.find("\"cached\": true"), std::string::npos);
  EXPECT_NE(own.body.find(server.speech_plan_key()), std::string::npos);

  const obs::HttpResponse rejected = post_plan(big);
  EXPECT_EQ(rejected.status, 429);
  EXPECT_NE(rejected.body.find("memory-budget"), std::string::npos);
  EXPECT_EQ(server.admission().rejected_memory(), 1);

  const obs::HttpResponse created = post_plan(small);
  EXPECT_EQ(created.status, 201);
  EXPECT_NE(created.body.find("\"cached\": false"), std::string::npos);
  const obs::HttpResponse repeat = post_plan(small);
  EXPECT_EQ(repeat.status, 200);
  EXPECT_NE(repeat.body.find("\"cached\": true"), std::string::npos);
  EXPECT_EQ(server.plan_cache().hits(), 2);  // own plan + the repeat

  // Malformed plan JSON answers 400.
  std::vector<obs::HttpRequest> bad = {{"POST", "/plan", "HTTP/1.1", "{not json", true}};
  std::vector<obs::HttpResponse> bad_responses;
  server.handle_burst(bad, bad_responses);
  EXPECT_EQ(bad_responses.at(0).status, 400);
}

TEST(PlanServer, EvictionReturnsReservationToTheBudget) {
  PlanServerOptions options;
  options.plan_cache_capacity = 2;  // the two built-ins fill the cache
  PlanServer server(options);
  const std::int64_t before = server.admission().reserved_bytes();

  const auto plan = speech_plan(2, 128);
  const std::int64_t plan_bytes = core::JobInstance::resident_channel_bytes(plan);
  std::vector<obs::HttpRequest> requests = {
      {"POST", "/plan", "HTTP/1.1", plan.to_json(), true}};
  std::vector<obs::HttpResponse> responses;
  server.handle_burst(requests, responses);
  ASSERT_EQ(responses.at(0).status, 201);

  EXPECT_EQ(server.plan_cache().evictions(), 1);
  EXPECT_EQ(server.plan_cache().size(), 2u);
  // Net reservation: + new plan - evicted LRU built-in (the speech plan,
  // inserted first at startup).
  const std::int64_t speech_bytes = core::JobInstance::resident_channel_bytes(
      apps::ErrorGenApp(2, server_speech_params()).system().plan());
  EXPECT_EQ(server.admission().reserved_bytes(), before + plan_bytes - speech_bytes);
}

TEST(PlanServer, RefusesToStartBelowBuiltInResidentBytes) {
  PlanServerOptions options;
  options.admission.memory_budget_bytes = 16;
  EXPECT_THROW(PlanServer{options}, std::invalid_argument);
}

// --- request-lifecycle tracing (docs/observability.md) --------------------

/// Extracts the integer following `"key": ` at or after `from` within
/// the same flat span object (spans in /trace are never nested).
std::int64_t span_int(const std::string& json, std::size_t from, const std::string& key) {
  const std::size_t at = json.find("\"" + key + "\": ", from);
  EXPECT_NE(at, std::string::npos) << key;
  if (at == std::string::npos) return -1;
  return std::atoll(json.c_str() + at + key.size() + 4);
}

TEST(PlanServer, TraceSpansTileEndToEndAndTenantsRollUp) {
  PlanServerOptions options;
  options.trace.sample_every = 1;  // keep every span
  PlanServer server(options);
  std::vector<obs::HttpRequest> jobs = job_burst({
      R"({"app":"speech","tenant":"t0","frame_size":12,"order":3,"seed":1})",
      R"({"app":"speech","tenant":"t0","frame_size":12,"order":3,"seed":2})",
      R"({"app":"speech","tenant":"t0","frame_size":12,"order":3,"seed":3})",
      R"({"app":"particle","tenant":"t1","steps":3,"seed":4})",
      R"({"app":"particle","tenant":"t1","steps":3,"seed":5})",
  });
  std::vector<obs::HttpResponse> responses;
  server.handle_burst(jobs, responses);
  for (const obs::HttpResponse& r : responses) EXPECT_EQ(r.status, 200);

  std::vector<obs::HttpRequest> scrapes = {
      {"GET", "/trace", "HTTP/1.1", "", true},
      {"GET", "/tenants", "HTTP/1.1", "", true},
      {"GET", "/trace/flight", "HTTP/1.1", "", true},
  };
  server.handle_burst(scrapes, responses);
  ASSERT_EQ(responses.size(), 3u);

  // /trace: valid JSON holding one flat span per job, each tiling e2e.
  ASSERT_EQ(responses[0].status, 200);
  const std::string& trace = responses[0].body;
  EXPECT_TRUE(obs::detail::json_validate(trace).empty()) << trace;
  EXPECT_NE(trace.find("\"requests_total\": 5"), std::string::npos) << trace;
  EXPECT_NE(trace.find("\"sampled_total\": 5"), std::string::npos);
  std::size_t at = trace.find("\"spans\": [");
  ASSERT_NE(at, std::string::npos);
  int spans_seen = 0;
  const std::size_t spans_end = trace.find("\"outliers\": [");
  while ((at = trace.find("{\"id\": ", at)) != std::string::npos && at < spans_end) {
    const std::int64_t e2e = span_int(trace, at, "e2e_ns");
    std::int64_t sum = 0;
    for (const char* stage : {"admission_ns", "queue_ns", "batch_ns", "exec_ns", "reply_ns"})
      sum += span_int(trace, at, stage);
    EXPECT_EQ(sum, e2e) << "stages must tile the request exactly";
    EXPECT_GT(e2e, 0);
    EXPECT_GE(span_int(trace, at, "batch"), 0) << "every job rode a batch";
    ++spans_seen;
    ++at;
  }
  EXPECT_EQ(spans_seen, 5);
  // The t0 speech jobs drained as one batch of 3.
  EXPECT_NE(trace.find("\"tenant\": \"t0\", \"app\": \"speech\", \"status\": 200, "),
            std::string::npos);
  EXPECT_NE(trace.find("\"batch_size\": 3"), std::string::npos);

  // /tenants: per-tenant rollups for both tenants, queue facts included.
  ASSERT_EQ(responses[1].status, 200);
  const std::string& tenants = responses[1].body;
  EXPECT_TRUE(obs::detail::json_validate(tenants).empty()) << tenants;
  EXPECT_NE(tenants.find("\"t0\""), std::string::npos);
  EXPECT_NE(tenants.find("\"t1\""), std::string::npos);
  EXPECT_NE(tenants.find("\"stages\""), std::string::npos);

  // /trace/flight: the first sampled batch captured a loadable firing
  // log whose batch markers carry the span's batch id.
  ASSERT_EQ(responses[2].status, 200);
  const obs::FlightLog flight = obs::FlightLog::from_json(responses[2].body);
  EXPECT_GT(flight.events.size(), 0u);
  bool batch_begin = false;
  for (const obs::FlightEvent& e : flight.events)
    if (e.kind == obs::FlightEventKind::kBatchBegin && e.seq == server.tracer().flight_batch())
      batch_begin = true;
  EXPECT_TRUE(batch_begin) << "captured log must carry its batch-begin marker";
}

TEST(PlanServer, TracingDisabledStillServesEndpoints) {
  PlanServerOptions options;
  options.trace.enabled = false;
  PlanServer server(options);
  std::vector<obs::HttpRequest> jobs =
      job_burst({R"({"app":"speech","tenant":"t0","frame_size":12,"order":3,"seed":1})"});
  std::vector<obs::HttpResponse> responses;
  server.handle_burst(jobs, responses);
  EXPECT_EQ(responses[0].status, 200);

  std::vector<obs::HttpRequest> scrapes = {
      {"GET", "/trace", "HTTP/1.1", "", true},
      {"GET", "/tenants", "HTTP/1.1", "", true},
      {"GET", "/trace/flight", "HTTP/1.1", "", true},
  };
  server.handle_burst(scrapes, responses);
  EXPECT_EQ(responses[0].status, 200);
  EXPECT_NE(responses[0].body.find("\"enabled\": false"), std::string::npos);
  EXPECT_NE(responses[0].body.find("\"requests_total\": 0"), std::string::npos)
      << "disabled tracing allocates no spans";
  EXPECT_EQ(responses[1].status, 200);
  EXPECT_TRUE(obs::detail::json_validate(responses[1].body).empty());
  EXPECT_EQ(responses[2].status, 404) << "no flight log without tracing";
}

TEST(PlanServer, RejectedJobsCompleteShortSpansWith429) {
  PlanServerOptions options;
  options.admission.max_queue_depth = 2;
  options.trace.sample_every = 1;
  PlanServer server(options);
  std::vector<std::string> bodies;
  for (int i = 0; i < 4; ++i)
    bodies.push_back(R"({"app":"speech","tenant":"t0","frame_size":12,"order":3,"seed":)" +
                     std::to_string(i) + "}");
  std::vector<obs::HttpRequest> jobs = job_burst(bodies);
  std::vector<obs::HttpResponse> responses;
  server.handle_burst(jobs, responses);
  int ok = 0;
  int rejected = 0;
  for (const obs::HttpResponse& r : responses) (r.status == 200 ? ok : rejected)++;
  EXPECT_EQ(ok, 2);
  EXPECT_EQ(rejected, 2);

  std::vector<obs::HttpRequest> scrapes = {{"GET", "/trace", "HTTP/1.1", "", true},
                                           {"GET", "/tenants", "HTTP/1.1", "", true}};
  server.handle_burst(scrapes, responses);
  EXPECT_NE(responses[0].body.find("\"status\": 429"), std::string::npos)
      << "rejects are traced too";
  EXPECT_NE(responses[1].body.find("\"rejects\": 2"), std::string::npos) << responses[1].body;
}

// --- multi-client soak over real sockets (TSan-clean in CI) ---------------

int connect_to(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Sends `wire` and reads `count` Content-Length-framed responses;
/// returns the number of 200s (-1 on transport error).
int pipelined_round_trip(int fd, const std::string& wire, std::size_t count) {
  if (::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL) !=
      static_cast<ssize_t>(wire.size()))
    return -1;
  int ok = 0;
  std::string inbox;
  char buf[16384];
  for (std::size_t seen = 0; seen < count;) {
    const std::size_t head_end = inbox.find("\r\n\r\n");
    if (head_end == std::string::npos) {
      const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
      if (n <= 0) return -1;
      inbox.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    std::size_t content_length = 0;
    std::string head = inbox.substr(0, head_end);
    for (char& c : head) c = static_cast<char>(std::tolower(c));
    const std::size_t lenpos = head.find("content-length:");
    if (lenpos != std::string::npos)
      content_length = static_cast<std::size_t>(
          std::atoll(head.c_str() + lenpos + std::strlen("content-length:")));
    if (inbox.size() < head_end + 4 + content_length) {
      const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
      if (n <= 0) return -1;
      inbox.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (std::atoi(inbox.c_str() + inbox.find(' ') + 1) == 200) ++ok;
    inbox.erase(0, head_end + 4 + content_length);
    ++seen;
  }
  return ok;
}

TEST(PlanServer, MultiClientSoakServesEveryJobAndScrape) {
  PlanServer server;
  server.start();
  ASSERT_TRUE(server.running());
  const int port = server.port();

  constexpr int kClients = 2;
  constexpr int kBursts = 15;
  constexpr int kPipeline = 8;
  std::vector<int> ok_per_client(kClients, -1);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      const int fd = connect_to(port);
      if (fd < 0) return;
      int ok = 0;
      for (int b = 0; b < kBursts; ++b) {
        std::string wire;
        for (int i = 0; i < kPipeline; ++i) {
          const bool particle = (b + i) % 4 == 0;
          const std::string body =
              particle ? "{\"app\":\"particle\",\"tenant\":\"t" + std::to_string(c) +
                             "\",\"steps\":3,\"seed\":" + std::to_string(b * kPipeline + i) + "}"
                       : "{\"app\":\"speech\",\"tenant\":\"t" + std::to_string(c) +
                             "\",\"frame_size\":12,\"order\":3,\"seed\":" +
                             std::to_string(b * kPipeline + i) + "}";
          wire += "POST /job HTTP/1.1\r\nContent-Length: " + std::to_string(body.size()) +
                  "\r\n\r\n" + body;
        }
        const int got = pipelined_round_trip(fd, wire, kPipeline);
        if (got < 0) break;
        ok += got;
      }
      ::close(fd);
      ok_per_client[static_cast<std::size_t>(c)] = ok;
    });
  }
  // A scraper hammers the observation endpoints while jobs run; every
  // response must be a complete 200 (the routes share the event loop, so
  // this pins scrape-during-serve at the HTTP layer).
  std::thread scraper([&] {
    const int fd = connect_to(port);
    if (fd < 0) return;
    for (int i = 0; i < 30; ++i) {
      static const char* const kTargets[] = {"/metrics.json", "/runtime", "/trace", "/tenants"};
      const char* target = kTargets[i % 4];
      const std::string wire = "GET " + std::string(target) + " HTTP/1.1\r\n\r\n";
      if (pipelined_round_trip(fd, wire, 1) != 1) break;
    }
    ::close(fd);
  });
  for (std::thread& t : clients) t.join();
  scraper.join();
  server.stop();

  for (int c = 0; c < kClients; ++c)
    EXPECT_EQ(ok_per_client[static_cast<std::size_t>(c)], kBursts * kPipeline)
        << "client " << c << " lost responses";
  EXPECT_EQ(server.jobs_served(), kClients * kBursts * kPipeline);
  EXPECT_TRUE(obs::detail::json_validate(server.runtime_json()).empty());
}

}  // namespace
}  // namespace spi::serve
