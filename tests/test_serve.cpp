/// Tests of the serving layer (docs/serving.md): the PlanServer's
/// socketless burst contract — routing, per-tenant admission, batch
/// accounting and 400s for malformed jobs, including the headline
/// guarantee that a batched colocated firing is bit-identical to
/// running each job alone, for both built-in models — the request
/// scanner, and a multi-client soak over real sockets (TSan-clean in CI).
#include "serve/plan_server.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <bit>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <optional>
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
      {"POST", "/plan", "HTTP/1.1", "{}", true},  // no upload path: only built-ins run
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
  EXPECT_EQ(responses[6].status, 404);
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
  // A third job of a different length shares the run, in its own segment.
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
    const auto resamples = json_integer_field(responses[j].body, "resample_steps", 0,
                                              std::numeric_limits<std::uint64_t>::max(), 0);
    ASSERT_TRUE(resamples.has_value() && json_has_field(responses[j].body, "resample_steps"));
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

// perfbench's serve.jobs_per_batch divides spi_serve_jobs_total by
// spi_serve_batches_total: one batch per maximal stretch of consecutive
// same-app jobs in request order, whatever their tenants and lengths; a
// malformed job counts in neither.
TEST(PlanServer, BatchAccountingCountsOneBatchPerSameAppStretch) {
  std::vector<std::string> bodies;
  for (const std::string tenant : {"t0", "t1"}) {
    const std::string head = "{\"tenant\":\"" + tenant + "\",";
    bodies.push_back(head + R"("app":"speech","frame_size":16,"order":3,"seed":1})");
    bodies.push_back(head + R"("app":"speech","frame":[0.5,-0.25,1,0.125],"coeffs":[0.5,0.25]})");
    bodies.push_back(head + R"("app":"particle","steps":4,"seed":2})");
    bodies.push_back(head + R"("app":"particle","steps":7,"seed":3})");
  }
  bodies.push_back(R"({"tenant":"t0","app":"particle","steps":0,"seed":1})");

  PlanServer server;
  std::vector<obs::HttpRequest> requests = job_burst(bodies);
  std::vector<obs::HttpResponse> responses;
  server.handle_burst(requests, responses);
  ASSERT_EQ(responses.size(), bodies.size());
  for (std::size_t i = 0; i + 1 < bodies.size(); ++i)
    ASSERT_EQ(responses[i].status, 200) << bodies[i] << " -> " << responses[i].body;
  EXPECT_EQ(responses.back().status, 400);

  // Stretches in request order: t0 speech x2, t0 particle x2 (lengths 4
  // and 7), t1 speech x2, then t1 particle x2 plus the malformed job.
  obs::MetricRegistry& metrics = server.metrics();
  EXPECT_EQ(metrics.counter_value("spi_serve_batches_total", {{"app", "speech"}}), 2);
  EXPECT_EQ(metrics.counter_value("spi_serve_batches_total", {{"app", "particle"}}), 2);
  for (const std::string tenant : {"t0", "t1"})
    for (const std::string app : {"speech", "particle"})
      EXPECT_EQ(metrics.counter_value("spi_serve_jobs_total", {{"app", app}, {"tenant", tenant}}),
                2)
          << app << "/" << tenant;
  EXPECT_EQ(metrics.counter_total("spi_serve_jobs_total"), 8);
  // Every batch observes its size once: two batches of 2 per app.
  const obs::Histogram& speech_sizes =
      metrics.histogram("spi_serve_batch_jobs", {}, {{"app", "speech"}});
  const obs::Histogram& particle_sizes =
      metrics.histogram("spi_serve_batch_jobs", {}, {{"app", "particle"}});
  EXPECT_EQ(speech_sizes.count(), 2);
  EXPECT_EQ(speech_sizes.sum(), 4.0);
  EXPECT_EQ(particle_sizes.count(), 2);
  EXPECT_EQ(particle_sizes.sum(), 4.0);
  EXPECT_EQ(server.jobs_served(), 8);
}

// The arrival-order rule: interleaved particle jobs of two tenants and
// different lengths share one run; a speech job between them cuts the
// burst into three runs; and every reply is byte-identical to the same
// job served alone.
TEST(PlanServer, ArrivalOrderRunsOneBatchPerSameAppStretch) {
  const std::vector<std::string> particles = {
      R"({"app":"particle","tenant":"t0","steps":5,"seed":1})",
      R"({"app":"particle","tenant":"t1","steps":3,"seed":2})",
      R"({"app":"particle","tenant":"t0","steps":7,"seed":3})",
      R"({"app":"particle","tenant":"t1","steps":2,"seed":4})",
  };
  const std::string speech = R"({"app":"speech","tenant":"t1","frame_size":12,"order":3,"seed":5})";

  PlanServer server;
  obs::MetricRegistry& metrics = server.metrics();
  obs::Counter& particle_runs =
      metrics.counter("spi_serve_batches_total", {{"app", "particle"}});
  obs::Counter& speech_runs = metrics.counter("spi_serve_batches_total", {{"app", "speech"}});

  std::vector<obs::HttpRequest> shared = job_burst(particles);
  std::vector<obs::HttpResponse> shared_responses;
  server.handle_burst(shared, shared_responses);
  EXPECT_EQ(particle_runs.value(), 1) << "two tenants, four lengths, one run";

  std::vector<obs::HttpRequest> split =
      job_burst({particles[0], particles[1], speech, particles[2], particles[3]});
  std::vector<obs::HttpResponse> split_responses;
  server.handle_burst(split, split_responses);
  EXPECT_EQ(particle_runs.value(), 3) << "the speech job splits the particle stretch";
  EXPECT_EQ(speech_runs.value(), 1);
  EXPECT_EQ(metrics.histogram("spi_serve_batch_jobs", {}, {{"app", "particle"}}).sum(), 8.0);

  const auto alone = [&server](const std::string& body) {
    std::vector<obs::HttpRequest> one = job_burst({body});
    std::vector<obs::HttpResponse> reply;
    server.handle_burst(one, reply);
    return reply.at(0);
  };
  ASSERT_EQ(shared_responses.size(), particles.size());
  ASSERT_EQ(split_responses.size(), particles.size() + 1);
  for (std::size_t j = 0; j < particles.size(); ++j) {
    const obs::HttpResponse solo = alone(particles[j]);
    ASSERT_EQ(solo.status, 200) << solo.body;
    EXPECT_EQ(shared_responses[j].body, solo.body) << "job " << j;
    EXPECT_EQ(split_responses[j < 2 ? j : j + 1].body, solo.body) << "job " << j;
  }
  EXPECT_EQ(split_responses[2].body, alone(speech).body);
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
      // A present tenant that is not a plain string is never defaulted.
      "{\"app\":\"speech\",\"tenant\":5,\"frame_size\":8,\"order\":2,\"seed\":1}",
      "{\"app\":\"speech\",\"tenant\":\"a\\\"b\",\"frame_size\":8,\"order\":2,\"seed\":1}",
      "{\"app\":\"speech\",\"frame_size\":8,\"order\":2,\"seed\":1}",
  });
  std::vector<obs::HttpResponse> responses;
  server.handle_burst(requests, responses);
  ASSERT_EQ(responses.size(), 7u);
  for (std::size_t i = 0; i < 6; ++i)
    EXPECT_EQ(responses[i].status, 400) << requests[i].body << " -> " << responses[i].body;
  EXPECT_EQ(responses[6].status, 200) << "valid job must survive its burst-mates";
  EXPECT_EQ(server.tenants_json().find("\"tenant\": \"a"), std::string::npos)
      << "a rejected tenant must not get a queue";
}

// Each integral field, present but malformed or out of range, answers
// 400 instead of falling back to its default or reaching an unchecked
// double-to-integer cast (undefined behaviour for -1, 1e300 and 2^64).
TEST(PlanServer, MalformedIntegerFieldsAnswer400) {
  const std::vector<std::string> bad_values = {"-1", "1e300", "1.5", "\"x\"", "18446744073709551616"};
  const std::vector<std::pair<std::string, std::string>> fields = {
      {"{\"app\":\"speech\",\"order\":4,\"seed\":1,\"frame_size\":", "}"},
      {"{\"app\":\"speech\",\"frame_size\":8,\"seed\":1,\"order\":", "}"},
      {"{\"app\":\"speech\",\"frame_size\":8,\"order\":2,\"seed\":", "}"},
      {"{\"app\":\"particle\",\"seed\":1,\"steps\":", "}"},
      {"{\"app\":\"particle\",\"steps\":8,\"seed\":", "}"},
  };
  std::vector<std::string> bodies;
  for (const auto& [head, tail] : fields)
    for (const std::string& value : bad_values) bodies.push_back(head + value + tail);
  bodies.push_back("{\"app\":\"speech\",\"frame\":[1,x],\"coeffs\":[0.5]}");
  bodies.push_back("{\"app\":\"speech\",\"frame\":[1 2],\"coeffs\":[0.5]}");
  bodies.push_back("{\"app\":\"speech\",\"frame\":[0.1,0.2],\"coeffs\":[0.5,+1]}");
  bodies.push_back("{\"app\":\"particle\",\"observations\":[1,2],\"truth\":[0x1p3,1]}");
  const std::size_t rejected = bodies.size();
  // Integral spellings JSON allows still parse, and these jobs are
  // witnesses that the rejects did not poison the batch. A job with
  // explicit input ignores the synthetic-job fields, malformed or not.
  bodies.push_back("{\"app\":\"speech\",\"frame_size\":8.0,\"order\":2e0,\"seed\":1}");
  bodies.push_back("{\"app\":\"particle\",\"steps\":8,\"seed\":18446744073709549568}");
  bodies.push_back("{\"app\":\"speech\",\"frame\":[1],\"seed\":\"x\",\"order\":-1}");
  bodies.push_back("{\"app\":\"particle\",\"observations\":[1,2],\"steps\":1.5}");

  PlanServer server;
  std::vector<obs::HttpRequest> requests = job_burst(bodies);
  std::vector<obs::HttpResponse> responses;
  server.handle_burst(requests, responses);
  ASSERT_EQ(responses.size(), bodies.size());
  for (std::size_t i = 0; i < bodies.size(); ++i)
    EXPECT_EQ(responses[i].status, i < rejected ? 400 : 200)
        << bodies[i] << " -> " << responses[i].body;
}

/// A heap copy of `text` with no terminating NUL, viewed up to `length`:
/// a parse that reads past the view's end reads past the allocation,
/// which AddressSanitizer reports.
struct UnterminatedView {
  std::unique_ptr<char[]> bytes;
  std::string_view view;
  UnterminatedView(std::string_view text, std::size_t length)
      : bytes(new char[text.size()]), view(bytes.get(), length) {
    std::memcpy(bytes.get(), text.data(), text.size());
  }
};

TEST(RequestScanner, NumberCutByTheViewIsNotReadPastItsEnd) {
  // The whole body is {"n":12}; the view ends inside the value. A scan
  // bounded by the view must not see the '2' (an unbounded strtod reads
  // it and returns 12), and a value with no delimiter is not a number.
  const UnterminatedView cut("{\"n\":12}", 6);
  EXPECT_EQ(json_integer_field(cut.view, "n", 0, 100, 7), std::nullopt);
  const UnterminatedView at_end("{\"n\":12", 7);
  EXPECT_EQ(json_integer_field(at_end.view, "n", 0, 100, 7), std::nullopt);
  EXPECT_EQ(json_integer_field("{\"n\":12}", "n", 0, 100, 7), 12u);
}

TEST(RequestScanner, ArrayCutByTheViewIsRejected) {
  const UnterminatedView cut("{\"a\":[1,23]}", 9);  // {"a":[1,2
  EXPECT_EQ(json_array_field(cut.view, "a"), std::nullopt);
  const UnterminatedView open("{\"a\":[1,2", 9);
  EXPECT_EQ(json_array_field(open.view, "a"), std::nullopt);
  EXPECT_EQ(json_array_field("{\"a\":[1, 23 ,\r\n-4.5e1]}", "a"),
            (std::vector<double>{1.0, 23.0, -45.0}));
  EXPECT_EQ(json_array_field("{\"a\":[]}", "a"), std::vector<double>{});
}

TEST(RequestScanner, ArrayElementsAreSeparatedByExactlyOneComma) {
  for (const char* text : {"[,1]", "[1,,2]", "[1 2]", "[1,]", "[,]", "[ , ]"})
    EXPECT_EQ(json_array_field(std::string("{\"a\":") + text + "}", "a"), std::nullopt) << text;
  EXPECT_EQ(json_array_field("{\"a\":[ ]}", "a"), std::vector<double>{});
  EXPECT_EQ(json_array_field("{\"a\":[ 1 ,2\t, 3 ]}", "a"), (std::vector<double>{1, 2, 3}));
}

TEST(RequestScanner, StringFieldRejectsEscapes) {
  EXPECT_EQ(json_string_field(R"({"t":"ab"})", "t"), "ab");
  EXPECT_EQ(json_string_field(R"({"t":""})", "t"), "");
  EXPECT_EQ(json_string_field(R"({"t":"a\"b"})", "t"), std::nullopt);
  EXPECT_EQ(json_string_field(R"({"t":"a\\b"})", "t"), std::nullopt);
  EXPECT_EQ(json_string_field(R"({"t":5})", "t"), std::nullopt);
}

TEST(RequestScanner, RejectsNumbersJsonDoesNotAllow) {
  for (const char* text : {"+1", "0x1p3", "-0x10", "inf", "-inf", "nan", "1e999", "-1e999", ".5",
                           "-", "1x", "\"1\"", "007", "-01", "00", "1.", "1.e5", "-2.E1", "1e",
                           "1e+"}) {
    const std::string body = std::string("{\"n\":") + text + "}";
    EXPECT_EQ(json_integer_field(body, "n", 0, 1000, 7), std::nullopt) << body;
    EXPECT_EQ(json_array_field(std::string("{\"a\":[") + text + "]}", "a"), std::nullopt) << text;
  }
  EXPECT_EQ(json_array_field("{\"a\":[ -0.25e-2 , 0, -0, 0.5, 10.0E0 ]}", "a"),
            (std::vector<double>{-0.0025, 0.0, -0.0, 0.5, 10.0}));
  EXPECT_EQ(json_integer_field("{\"n\":1E+2,\"m\":3}", "n", 0, 1000, 7), 100u);
}

TEST(RequestScanner, IntegerFieldChecksFiniteIntegralAndRange) {
  EXPECT_EQ(json_integer_field("{}", "k", 1, 9, 5), 5u);  // absent: the fallback
  EXPECT_EQ(json_integer_field("{\"k\":9}", "k", 1, 9, 5), 9u);
  EXPECT_EQ(json_integer_field("{\"k\":3e0}", "k", 1, 9, 5), 3u);
  for (const char* text : {"0", "10", "-1", "1.5", "1e300", "-1e300", "null", "\"3\""})
    EXPECT_EQ(json_integer_field(std::string("{\"k\":") + text + "}", "k", 1, 9, 5), std::nullopt)
        << text;
  constexpr auto kMax = std::numeric_limits<std::uint64_t>::max();
  // 2^64 - 2048 is the largest double below 2^64; 2^64 itself is out.
  EXPECT_EQ(json_integer_field("{\"k\":18446744073709549568}", "k", 0, kMax, 0),
            18446744073709549568ull);
  EXPECT_EQ(json_integer_field("{\"k\":18446744073709551616}", "k", 0, kMax, 0), std::nullopt);
}

std::string printf_17g(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string formatted(double v) {
  std::string out;
  append_json_number(out, v);
  return out;
}

// The reply format is a contract: clients (the perfbench byte compare)
// and tools/golden/served_answers.txt compare reply bodies as strings.
TEST(ReplyFormat, MatchesPrintfPercent17gByteForByte) {
  const std::vector<double> edges = {
      0.0, -0.0, 1.0, -1.0, 0.1, -0.1, 1e21, 1e-7, 1e-5, 123456789.0, 1e16, 1e17,
      9007199254740993.0, 12345678901234567890.0, 0.5, 2.5e-300,
      std::numeric_limits<double>::denorm_min(), -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min(), std::numeric_limits<double>::max(),
      -std::numeric_limits<double>::max(), std::numeric_limits<double>::epsilon()};
  for (const double v : edges) EXPECT_EQ(formatted(v), printf_17g(v)) << printf_17g(v);
  for (std::int64_t i = -1000; i <= 1000; ++i)
    EXPECT_EQ(formatted(static_cast<double>(i)), printf_17g(static_cast<double>(i)));

  // Seeded sweep: random bit patterns cover every exponent (non-finite
  // patterns skipped), random decimals the range replies actually carry.
  dsp::Rng rng(2024);
  int mismatches = 0;
  for (int k = 0; k < 20000; ++k) {
    const std::uint64_t bits = rng.engine()();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof v);
    if (!std::isfinite(v)) continue;
    for (const double x : {v, rng.uniform(-4.0, 4.0)})
      if (formatted(x) != printf_17g(x) && ++mismatches <= 5)
        ADD_FAILURE() << formatted(x) << " != " << printf_17g(x);
  }
  EXPECT_EQ(mismatches, 0);
}

/// What std::from_chars makes of the whole of `text`: the reference the
/// request scanner matches bit for bit on every JSON number.
std::optional<double> from_chars_value(const std::string& text) {
  double value = 0.0;
  const auto [next, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || next != text.data() + text.size()) return std::nullopt;
  return value;
}

std::string printf_with(const char* format, double v) {
  char buf[512];  // "%.5f" of 1.7e308 takes 316 bytes
  std::snprintf(buf, sizeof buf, format, v);
  return buf;
}

/// Parses `text` as the one element of an array and as an integer field
/// and checks both against std::from_chars: accepted alike, same bits.
void expect_scans_like_from_chars(const std::string& text) {
  const std::optional<double> want = from_chars_value(text);
  const auto got = json_array_field("{\"a\":[" + text + "]}", "a");
  ASSERT_EQ(got.has_value(), want.has_value()) << text;
  if (!want) return;
  ASSERT_EQ(got->size(), 1u) << text;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got->front()), std::bit_cast<std::uint64_t>(*want))
      << text << " scanned as " << printf_17g(got->front()) << ", from_chars gives "
      << printf_17g(*want);
}

// The one-pass scan takes a fast path for short mantissas and small
// exponents and hands every other number to std::from_chars; either way
// the double is the one from_chars gives.
TEST(RequestScanner, NumbersMatchFromCharsBitForBit) {
  for (const char* text :
       {"0", "-0", "-0.0", "0.0000", "0.000000000000000000000001", "-0.000000000000000000000001",
        "1", "-1", "0.1", "0.5", "1e22", "1e23", "1e-22", "1e-23", "-1e22", "-1e-23",
        "9007199254740992", "9007199254740993", "-9007199254740993", "9007199254740992e22",
        "9007199254740992e-22", "9007199254740993e22", "9007199254740993e-22",
        "9007199254740992e23", "9007199254740992e-23", "1234567890123456789",
        "12345678901234567890", "1234567890123456789e-5", "1234567890123456789e5",
        "18446744073709551617", "0.18446744073709551617", "36893488147419103233e-2",
        "0.1234567890123456789", "0.12345678901234567890", "123456789.0123456789",
        "0.0000000000000000000000000000000000000001234", "100000000000000000000000",
        "1.7976931348623157e308", "2.2250738585072014e-308", "4.9406564584124654e-324",
        "1e-400", "0e999", "0E-999", "1E+2", "2.5e-0", "12.50E+001", "0.30000000000000004"})
    expect_scans_like_from_chars(text);

  // Seeded sweep: the formats clients send, over random bit patterns
  // (every exponent) and random decimals of the range jobs carry.
  dsp::Rng rng(28);
  for (int k = 0; k < 4000; ++k) {
    const std::uint64_t bits = rng.engine()();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof v);
    const double values[] = {v, rng.uniform(-4.0, 4.0),
                             std::ldexp(rng.uniform(0.5, 1.0), static_cast<int>(k % 140) - 70)};
    for (const double x : values) {
      if (!std::isfinite(x)) continue;
      for (const char* format : {"%.5f", "%.17g", "%e", "%.19g", "%.20g"})
        expect_scans_like_from_chars(printf_with(format, x));
    }
  }
}

// Replies: the exact fast path and its boundaries against printf.
TEST(ReplyFormat, FastPathMatchesPrintfAroundEveryPowerOfTen) {
  std::vector<double> centers = {1e-6, 0x1p53, 0x1p52, 1.0, 0.5};
  for (int e = -6; e <= 15; ++e)
    centers.push_back(std::strtod(("1e" + std::to_string(e)).c_str(), nullptr));
  for (const double center : centers) {
    double below = center;
    double above = center;
    for (int ulp = 0; ulp <= 3; ++ulp) {
      for (const double v : {below, above, -below, -above})
        EXPECT_EQ(formatted(v), printf_17g(v)) << printf_17g(v);
      below = std::nextafter(below, 0.0);
      above = std::nextafter(above, 1e300);
    }
  }

  // Exact ties at the 18th digit round half to even: a 15-digit integer
  // plus odd eighths, a 14-digit one plus odd sixteenths.
  dsp::Rng rng(53);
  for (int k = 0; k < 2000; ++k) {
    const double a15 = std::floor(rng.uniform(1e14, 1e15));
    const double a14 = std::floor(rng.uniform(1e13, 1e14));
    for (const double v : {a15 + (2 * (k % 4) + 1) / 8.0, a14 + (2 * (k % 8) + 1) / 16.0})
      EXPECT_EQ(formatted(v), printf_17g(v));
  }
  // Random values across the whole fast range, every binade.
  int mismatches = 0;
  for (int k = 0; k < 40000; ++k) {
    const double v = std::ldexp(rng.uniform(1.0, 2.0), static_cast<int>(k % 73) - 20);
    if (formatted(v) != printf_17g(v) && ++mismatches <= 5)
      ADD_FAILURE() << formatted(v) << " != " << printf_17g(v);
  }
  EXPECT_EQ(mismatches, 0);
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

/// The string value following `"key": "` at or after `from`.
std::string span_string(const std::string& json, std::size_t from, const std::string& key) {
  const std::size_t at = json.find("\"" + key + "\": \"", from);
  EXPECT_NE(at, std::string::npos) << key;
  if (at == std::string::npos) return {};
  const std::size_t begin = at + key.size() + 5;
  return json.substr(begin, json.find('"', begin) - begin);
}

// The drain rule: the admitted jobs run in request order across tenants,
// one batch per same-app stretch, and every reply releases the burst's
// answered in-order prefix as soon as it exists, so the prefix grows by
// one per job.
TEST(PlanServer, BatchesFireInArrivalOrderAndReleaseFinalPrefixes) {
  PlanServerOptions options;
  options.trace.sample_every = 1;
  PlanServer server(options);
  std::vector<obs::HttpRequest> jobs = job_burst({
      R"({"app":"particle","tenant":"t1","steps":4,"seed":1})",
      R"({"app":"speech","tenant":"t0","frame_size":12,"order":3,"seed":2})",
      R"({"app":"particle","tenant":"t0","steps":0,"seed":3})",  // staging 400
      R"({"app":"speech","tenant":"t1","frame_size":12,"order":3,"seed":4})",
      R"({"app":"particle","tenant":"t0","steps":4,"seed":5})",
  });
  jobs.push_back({"GET", "/healthz", "HTTP/1.1", "", true});  // answered at routing
  std::vector<obs::HttpResponse> responses;
  std::vector<std::size_t> released;
  std::vector<std::vector<obs::HttpResponse>> snapshots;
  server.handle_burst(jobs, responses, [&](std::size_t n) {
    released.push_back(n);
    snapshots.emplace_back(responses.begin(), responses.begin() + static_cast<std::ptrdiff_t>(n));
  });
  ASSERT_EQ(responses.size(), jobs.size());
  EXPECT_EQ(responses[2].status, 400);
  for (const std::size_t i : {0, 1, 3, 4, 5}) EXPECT_EQ(responses[i].status, 200) << i;

  // Each job completes the next pending request: t1's particle job
  // (request 0) runs first, then t0's speech job, then the 400 staged
  // alone, t1's speech job, and t0's particle job with the GET behind it.
  EXPECT_EQ(released, (std::vector<std::size_t>{1, 2, 3, 4, 6}));
  for (std::size_t k = 1; k < released.size(); ++k) EXPECT_GT(released[k], released[k - 1]);
  // A released response is final: byte-identical to its value at return.
  for (const auto& prefix : snapshots)
    for (std::size_t i = 0; i < prefix.size(); ++i) {
      EXPECT_EQ(prefix[i].status, responses[i].status) << i;
      EXPECT_EQ(prefix[i].content_type, responses[i].content_type) << i;
      EXPECT_EQ(prefix[i].body, responses[i].body) << i;
    }

  // Batch ids follow the firing order.
  std::vector<obs::HttpRequest> scrape = {{"GET", "/trace", "HTTP/1.1", "", true}};
  server.handle_burst(scrape, responses);
  const std::string& trace = responses[0].body;
  std::map<std::string, std::int64_t> batch_of;
  const std::size_t spans_end = trace.find("\"outliers\": [");
  for (std::size_t at = trace.find("{\"id\": "); at != std::string::npos && at < spans_end;
       at = trace.find("{\"id\": ", at + 1))
    if (span_int(trace, at, "status") == 200)
      batch_of[span_string(trace, at, "tenant") + "/" + span_string(trace, at, "app")] =
          span_int(trace, at, "batch");
  ASSERT_EQ(batch_of.size(), 4u) << trace;
  EXPECT_LT(batch_of["t1/particle"], batch_of["t0/speech"]);
  EXPECT_LT(batch_of["t0/speech"], batch_of["t1/speech"]);
  EXPECT_LT(batch_of["t1/speech"], batch_of["t0/particle"]);
}

// A particle job spans one graph iteration per step, so its reply is
// final and released as soon as its own iterations end, not when its
// batch ends; the jobs of the speech batch after it release one by one
// too, each with its own reply stamp.
TEST(PlanServer, ParticleJobsReleaseAsTheirOwnIterationsEnd) {
  PlanServerOptions options;
  options.trace.sample_every = 1;
  PlanServer server(options);
  std::vector<obs::HttpRequest> jobs = job_burst({
      R"({"app":"particle","tenant":"t0","steps":6,"seed":1})",
      R"({"app":"particle","tenant":"t1","steps":3,"seed":2})",
      R"({"app":"particle","tenant":"t0","steps":9,"seed":3})",
      R"({"app":"speech","tenant":"t0","frame_size":12,"order":3,"seed":4})",
      R"({"app":"speech","tenant":"t1","frame_size":12,"order":3,"seed":5})",
  });
  obs::Counter& particle_batches =
      server.metrics().counter("spi_serve_batches_total", {{"app", "particle"}});
  obs::Counter& speech_batches =
      server.metrics().counter("spi_serve_batches_total", {{"app", "speech"}});
  std::vector<obs::HttpResponse> responses;
  std::vector<std::size_t> released;
  std::vector<std::vector<obs::HttpResponse>> snapshots;
  server.handle_burst(jobs, responses, [&](std::size_t n) {
    released.push_back(n);
    snapshots.emplace_back(responses.begin(), responses.begin() + static_cast<std::ptrdiff_t>(n));
  });
  ASSERT_EQ(responses.size(), jobs.size());
  for (const auto& response : responses) EXPECT_EQ(response.status, 200) << response.body;
  EXPECT_EQ(released, (std::vector<std::size_t>{1, 2, 3, 4, 5}));
  for (const auto& prefix : snapshots)
    for (std::size_t i = 0; i < prefix.size(); ++i) {
      EXPECT_EQ(prefix[i].status, responses[i].status) << i;
      EXPECT_EQ(prefix[i].content_type, responses[i].content_type) << i;
      EXPECT_EQ(prefix[i].body, responses[i].body) << i;
    }
  EXPECT_EQ(particle_batches.value(), 1) << "still one batch";
  EXPECT_EQ(speech_batches.value(), 1);

  // Each span tiles its request. A particle job's exec stage ends with
  // its own job: later jobs in the batch read strictly longer exec. A
  // speech job's exec and reply end after the replies before it.
  std::vector<obs::HttpRequest> scrape = {{"GET", "/trace", "HTTP/1.1", "", true}};
  server.handle_burst(scrape, responses);
  const std::string& trace = responses[0].body;
  std::map<std::string, std::vector<std::int64_t>> exec_ns, e2e_ns;
  const std::size_t spans_end = trace.find("\"outliers\": [");
  for (std::size_t at = trace.find("{\"id\": "); at != std::string::npos && at < spans_end;
       at = trace.find("{\"id\": ", at + 1)) {
    const std::string app = span_string(trace, at, "app");
    std::int64_t sum = 0;
    for (const char* stage : {"admission_ns", "queue_ns", "batch_ns", "exec_ns", "reply_ns"})
      sum += span_int(trace, at, stage);
    EXPECT_EQ(sum, span_int(trace, at, "e2e_ns")) << "stages must tile the request exactly";
    EXPECT_EQ(span_int(trace, at, "batch_size"), app == "particle" ? 3 : 2);
    exec_ns[app].push_back(span_int(trace, at, "exec_ns"));
    e2e_ns[app].push_back(span_int(trace, at, "e2e_ns"));
  }
  ASSERT_EQ(exec_ns["particle"].size(), 3u) << trace;
  EXPECT_LT(exec_ns["particle"][0], exec_ns["particle"][1]);
  EXPECT_LT(exec_ns["particle"][1], exec_ns["particle"][2]);
  ASSERT_EQ(e2e_ns["speech"].size(), 2u) << trace;
  EXPECT_LE(exec_ns["speech"][0], exec_ns["speech"][1]);
  EXPECT_LT(e2e_ns["speech"][0], e2e_ns["speech"][1]);
}

// A speech job is one graph iteration, so its reply is final and
// released as soon as that iteration ends, not when its batch ends: the
// colocated run's message counts reach the registry at each job's end,
// and job k's release sees exactly k + 1 iterations' worth.
TEST(PlanServer, SpeechJobsReleaseAsTheirOwnIterationsEnd) {
  PlanServerOptions options;
  options.trace.sample_every = 1;
  PlanServer server(options);
  const std::vector<double> frame = {0.5, -0.25, 0.125, 1.0, -1.0, 0.75, 0.0, 0.3, -0.6};
  std::vector<obs::HttpRequest> jobs = job_burst({
      R"({"app":"speech","tenant":"t0","frame_size":12,"order":3,"seed":1})",
      R"({"app":"speech","tenant":"t1","frame_size":40,"order":4,"seed":2})",
      "{\"app\":\"speech\",\"tenant\":\"t0\",\"frame\":" + frame_json(frame) + "}",
      R"({"app":"speech","tenant":"t1","frame_size":7,"order":2,"seed":3})",
      R"({"app":"speech","tenant":"t0","frame_size":64,"order":4,"seed":4})",
  });
  obs::MetricRegistry& metrics = server.metrics();
  obs::Counter& speech_batches = metrics.counter("spi_serve_batches_total", {{"app", "speech"}});
  std::vector<obs::HttpResponse> responses;
  std::vector<std::size_t> released;
  std::vector<std::int64_t> messages_at_release;
  std::vector<std::vector<obs::HttpResponse>> snapshots;
  server.handle_burst(jobs, responses, [&](std::size_t n) {
    released.push_back(n);
    messages_at_release.push_back(metrics.counter_total("spi_threaded_messages_total"));
    snapshots.emplace_back(responses.begin(), responses.begin() + static_cast<std::ptrdiff_t>(n));
  });
  ASSERT_EQ(responses.size(), jobs.size());
  for (const auto& response : responses) EXPECT_EQ(response.status, 200) << response.body;
  EXPECT_EQ(speech_batches.value(), 1) << "one batch";
  EXPECT_EQ(released, (std::vector<std::size_t>{1, 2, 3, 4, 5}));
  const std::int64_t per_job = metrics.counter_total("spi_threaded_messages_total") / 5;
  ASSERT_GT(per_job, 0);
  ASSERT_EQ(messages_at_release.size(), 5u);
  for (std::size_t k = 0; k < 5; ++k)
    EXPECT_EQ(messages_at_release[k], static_cast<std::int64_t>(k + 1) * per_job)
        << "job " << k << " released after iteration " << k << " and before the next";
  for (const auto& prefix : snapshots)
    for (std::size_t i = 0; i < prefix.size(); ++i) {
      EXPECT_EQ(prefix[i].status, responses[i].status) << i;
      EXPECT_EQ(prefix[i].content_type, responses[i].content_type) << i;
      EXPECT_EQ(prefix[i].body, responses[i].body) << i;
    }

  // Each span tiles its request, and each job's exec stage ends with
  // its own iteration: later jobs read strictly longer exec.
  std::vector<obs::HttpRequest> scrape = {{"GET", "/trace", "HTTP/1.1", "", true}};
  server.handle_burst(scrape, responses);
  const std::string& trace = responses[0].body;
  std::vector<std::int64_t> exec_ns;
  const std::size_t spans_end = trace.find("\"outliers\": [");
  for (std::size_t at = trace.find("{\"id\": "); at != std::string::npos && at < spans_end;
       at = trace.find("{\"id\": ", at + 1)) {
    std::int64_t sum = 0;
    for (const char* stage : {"admission_ns", "queue_ns", "batch_ns", "exec_ns", "reply_ns"})
      sum += span_int(trace, at, stage);
    EXPECT_EQ(sum, span_int(trace, at, "e2e_ns")) << "stages must tile the request exactly";
    EXPECT_EQ(span_int(trace, at, "batch_size"), 5);
    exec_ns.push_back(span_int(trace, at, "exec_ns"));
  }
  ASSERT_EQ(exec_ns.size(), 5u) << trace;
  for (std::size_t k = 1; k < exec_ns.size(); ++k) EXPECT_LT(exec_ns[k - 1], exec_ns[k]) << k;
}

// If job k of a particle batch fails, the jobs before it keep their
// already-released 200s; job k and the jobs after it answer 500, and the
// model's instance serves the next burst as if nothing had happened.
TEST(PlanServer, FailedParticleJobKeepsEarlierRepliesAndFailsTheRest) {
  const auto& model = server_particle_params().model;
  dsp::Rng traj_rng(5);
  const auto traj = dsp::simulate_crack(model, 5, traj_rng);
  const std::string good = "{\"app\":\"particle\",\"observations\":" +
                           frame_json(traj.observations) + ",\"truth\":" +
                           frame_json(traj.truth) + "}";
  // A truth shorter than the observations fails the job's RMSE only
  // once its iterations have run.
  const std::string bad = "{\"app\":\"particle\",\"observations\":" +
                          frame_json(traj.observations) + ",\"truth\":[1.5]}";
  PlanServer server;
  std::vector<obs::HttpRequest> jobs = job_burst({good, bad, good});
  std::vector<obs::HttpResponse> responses;
  std::vector<std::size_t> released;
  server.handle_burst(jobs, responses, [&](std::size_t n) { released.push_back(n); });
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_EQ(responses[0].status, 200) << responses[0].body;
  EXPECT_EQ(responses[1].status, 500);
  EXPECT_EQ(responses[2].status, 500);
  EXPECT_EQ(released, (std::vector<std::size_t>{1, 3}));
  EXPECT_EQ(server.jobs_served(), 1);

  std::vector<obs::HttpRequest> again = job_burst({good, good});
  std::vector<obs::HttpResponse> again_responses;
  server.handle_burst(again, again_responses);
  ASSERT_EQ(again_responses.size(), 2u);
  EXPECT_EQ(again_responses[0].body, responses[0].body);
  EXPECT_EQ(again_responses[1].body, responses[0].body);
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
