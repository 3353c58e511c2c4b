/// \file test_request_trace.cpp
/// Unit tests for the request-lifecycle tracer (obs/request_trace.hpp):
/// head-sampling rate and per-tenant coverage, ring wrap, the slowest-N outlier reservoir,
/// the tenant-cardinality cap, quantiles over every completed request,
/// flight-bridge pacing and the /trace JSON shape. The companion serve
/// integration tests (test_serve.cpp) exercise the same tracer through
/// PlanServer::handle_burst.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/request_trace.hpp"

namespace spi::obs {
namespace {

/// A span whose five stages tile `e2e` nanoseconds (uneven on purpose so
/// per-stage accounting is distinguishable from e2e accounting).
RequestSpan make_span(std::uint64_t id, std::int64_t e2e, bool sampled, int status = 200) {
  RequestSpan span;
  span.id = id;
  span.status = status;
  span.sampled = sampled;
  span.batch_id = 7;
  span.batch_size = 3;
  span.stage_ns[0] = e2e / 10;
  span.stage_ns[1] = e2e / 5;
  span.stage_ns[2] = e2e / 20;
  span.stage_ns[3] = e2e / 2;
  span.stage_ns[4] = e2e - span.stage_ns[0] - span.stage_ns[1] - span.stage_ns[2] -
                     span.stage_ns[3];
  return span;
}

TEST(RequestSpanTest, StagesTileEndToEnd) {
  const RequestSpan span = make_span(1, 12'345, true);
  std::int64_t sum = 0;
  for (const std::int64_t ns : span.stage_ns) sum += ns;
  EXPECT_EQ(span.e2e_ns(), sum);
  EXPECT_EQ(span.e2e_ns(), 12'345);
}

TEST(RequestTracerTest, HeadSamplingHashesTheSpanIdAtTheConfiguredRate) {
  MetricRegistry registry;
  RequestTracerOptions options;
  options.sample_every = 64;
  RequestTracer tracer(options, registry);
  constexpr int kSpans = 64 * 1024;
  int sampled = 0;
  for (int i = 0; i < kSpans; ++i) {
    const std::uint64_t id = tracer.begin_span();
    const bool keep = tracer.is_sampled(id);
    // A pure function of the id: the hash rule, nothing stateful.
    EXPECT_EQ(keep, RequestTracer::mix_span_id(id) % 64 == 0) << "id " << id;
    sampled += keep ? 1 : 0;
  }
  EXPECT_EQ(tracer.requests_total(), kSpans);
  // 1 in 64 on average: 1024 expected, well inside +-20%.
  EXPECT_GT(sampled, 1024 * 8 / 10);
  EXPECT_LT(sampled, 1024 * 12 / 10);
}

/// The rollup of every tenant of a round robin reports nonzero
/// quantiles. Sampling (id - 1) % 64 kept only the first tenant of any
/// round robin whose period divides 64: the others read p50 = p99 = 0.
TEST(RequestTracerTest, RoundRobinTenantsAllGetNonzeroQuantiles) {
  for (const int tenants : {2, 4, 8}) {
    MetricRegistry registry;
    RequestTracerOptions options;
    options.sample_every = 64;
    RequestTracer tracer(options, registry);
    std::vector<TenantSeries*> series;
    for (int t = 0; t < tenants; ++t)
      series.push_back(tracer.tenant_series("t" + std::to_string(t)));
    for (int i = 0; i < tenants * 64 * 16; ++i) {
      const std::uint64_t id = tracer.begin_span();
      const std::string tenant = "t" + std::to_string(i % tenants);
      tracer.complete(*series[static_cast<std::size_t>(i % tenants)],
                      make_span(id, 10'000, tracer.is_sampled(id)), tenant, "speech");
    }
    for (int t = 0; t < tenants; ++t) {
      const TenantSeries& s = *series[static_cast<std::size_t>(t)];
      EXPECT_GT(s.e2e_seconds->count(), 0) << tenants << " tenants, t" << t;
      EXPECT_GT(s.e2e_seconds->quantile(0.50), 0.0) << tenants << " tenants, t" << t;
      EXPECT_GT(s.e2e_seconds->quantile(0.99), 0.0) << tenants << " tenants, t" << t;
    }
  }
}

TEST(RequestTracerTest, OptionClampsAndDisabledTracer) {
  MetricRegistry registry;
  RequestTracerOptions options;
  options.sample_every = 0;   // clamped to 1
  options.flight_every = -5;  // clamped to 1
  RequestTracer tracer(options, registry);
  EXPECT_EQ(tracer.options().sample_every, 1);
  EXPECT_EQ(tracer.options().flight_every, 1);

  RequestTracerOptions off;
  off.enabled = false;
  RequestTracer disabled(off, registry);
  EXPECT_EQ(disabled.tenant_series("t0"), nullptr);
  EXPECT_FALSE(disabled.is_sampled(disabled.begin_span()));
  EXPECT_FALSE(disabled.want_flight());
}

TEST(RequestTracerTest, RingWrapsKeepingNewestSpansOldestFirst) {
  MetricRegistry registry;
  RequestTracerOptions options;
  options.sample_every = 1;  // every span sampled
  options.ring_capacity = 4;
  options.outlier_capacity = 0;
  RequestTracer tracer(options, registry);
  TenantSeries* series = tracer.tenant_series("t0");
  ASSERT_NE(series, nullptr);
  for (int i = 0; i < 10; ++i)
    tracer.complete(*series, make_span(tracer.begin_span(), 1'000 * (i + 1), true), "t0",
                    "speech");

  EXPECT_EQ(tracer.sampled_total(), 10);
  const std::string json = tracer.trace_json();
  EXPECT_NE(json.find("\"spans_evicted\": 6"), std::string::npos);
  // Held spans are ids 7..10, oldest first.
  const auto id7 = json.find("\"id\": 7");
  const auto id10 = json.find("\"id\": 10");
  EXPECT_NE(id7, std::string::npos);
  EXPECT_NE(id10, std::string::npos);
  EXPECT_LT(id7, id10);
  EXPECT_EQ(json.find("\"id\": 6"), std::string::npos);
}

TEST(RequestTracerTest, OutlierReservoirCapturesSlowestRegardlessOfSampling) {
  MetricRegistry registry;
  RequestTracerOptions options;
  options.sample_every = 1'000'000;  // head sampling keeps (almost) nothing
  options.outlier_capacity = 2;
  RequestTracer tracer(options, registry);
  TenantSeries* series = tracer.tenant_series("t0");
  ASSERT_NE(series, nullptr);
  // e2e: 10us, 90us, 20us, 50us — slowest two are 90us and 50us.
  for (const std::int64_t us : {10, 90, 20, 50}) {
    const std::uint64_t id = tracer.begin_span();
    tracer.complete(*series, make_span(id, us * 1'000, tracer.is_sampled(id)), "t0", "speech");
  }
  EXPECT_EQ(tracer.outlier_min_ns(), 50'000);
  const std::string json = tracer.trace_json();
  // Outliers are rendered slowest first: 90us (id 2) before 50us (id 4).
  const auto outliers = json.find("\"outliers\"");
  ASSERT_NE(outliers, std::string::npos);
  const auto id2 = json.find("\"id\": 2", outliers);
  const auto id4 = json.find("\"id\": 4", outliers);
  ASSERT_NE(id2, std::string::npos);
  ASSERT_NE(id4, std::string::npos);
  EXPECT_LT(id2, id4);
  EXPECT_EQ(json.find("\"id\": 1", outliers), std::string::npos);
  EXPECT_EQ(json.find("\"id\": 3", outliers), std::string::npos);
}

TEST(RequestTracerTest, TenantCardinalityCapSharesOtherSeries) {
  MetricRegistry registry;
  RequestTracerOptions options;
  options.max_tenants = 2;
  RequestTracer tracer(options, registry);
  TenantSeries* a = tracer.tenant_series("a");
  TenantSeries* b = tracer.tenant_series("b");
  TenantSeries* c = tracer.tenant_series("c");
  TenantSeries* d = tracer.tenant_series("d");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  ASSERT_NE(c, nullptr);
  EXPECT_NE(a, b);
  EXPECT_EQ(c, d) << "overflow tenants share one series";
  EXPECT_EQ(c->name, "_other");
  EXPECT_EQ(tracer.tenant_series("a"), a) << "cached handles are stable";
}

// Quantiles and means describe the same requests: every completed span
// feeds the e2e and per-stage histograms, sampled or not, so a tenant
// none of whose spans head-sampled still reads non-zero quantiles.
TEST(RequestTracerTest, UnsampledRequestsFeedTheQuantiles) {
  MetricRegistry registry;
  RequestTracerOptions options;
  options.sample_every = 1'000'000;  // head sampling keeps (almost) nothing
  RequestTracer tracer(options, registry);
  TenantSeries* series = tracer.tenant_series("quiet");
  ASSERT_NE(series, nullptr);
  constexpr std::int64_t kRequests = 40;
  for (std::int64_t i = 0; i < kRequests; ++i) {
    const std::uint64_t id = tracer.begin_span();
    ASSERT_FALSE(tracer.is_sampled(id));
    tracer.complete(*series, make_span(id, 20'000 + 1'000 * i, false), "quiet", "speech");
  }
  EXPECT_EQ(tracer.sampled_total(), 0);
  EXPECT_EQ(registry.histogram("spi_serve_request_seconds", {}, {{"tenant", "quiet"}}).count(),
            kRequests);
  for (std::size_t k = 0; k < kRequestStageCount; ++k)
    EXPECT_EQ(series->stage_seconds[k]->count(), kRequests) << "stage " << k;

  std::string rollup;
  tracer.append_rollup_json(rollup, *series);
  const std::size_t p50 = rollup.find("\"us_p50\": ");
  ASSERT_NE(p50, std::string::npos) << rollup;
  EXPECT_GT(std::atof(rollup.c_str() + p50 + 10), 0.0) << rollup;
}

TEST(RequestTracerTest, FlightPacingFirstSampledBatchAlwaysCaptures) {
  MetricRegistry registry;
  RequestTracerOptions options;
  options.flight_every = 3;
  RequestTracer tracer(options, registry);
  EXPECT_TRUE(tracer.want_flight()) << "first sampled batch always captures";
  EXPECT_FALSE(tracer.want_flight());
  EXPECT_FALSE(tracer.want_flight());
  EXPECT_TRUE(tracer.want_flight());
}

TEST(RequestTracerTest, NotedFlightLogRoundTrips) {
  MetricRegistry registry;
  RequestTracer tracer({}, registry);
  EXPECT_FALSE(tracer.has_flight());

  FlightRecorder recorder(1, 16);
  recorder.record(0, FlightEventKind::kBatchBegin, -1, -1, /*seq=*/42, 0, /*aux=*/3);
  recorder.record(0, FlightEventKind::kFireBegin, 5, -1, 0, 0);
  recorder.record(0, FlightEventKind::kBatchEnd, -1, -1, 42, 0);
  tracer.note_flight(42, recorder.collect());

  ASSERT_TRUE(tracer.has_flight());
  EXPECT_EQ(tracer.flight_batch(), 42);
  const FlightLog log = FlightLog::from_json(tracer.flight_json());
  ASSERT_EQ(log.events.size(), 3u);
  EXPECT_EQ(log.events[0].kind, FlightEventKind::kBatchBegin);
  EXPECT_EQ(log.events[0].seq, 42);
  EXPECT_EQ(log.events[0].aux, 3);
}

TEST(RequestTracerTest, RollupJsonReportsMeansAndStageKeys) {
  MetricRegistry registry;
  RequestTracerOptions options;
  options.sample_every = 1;
  RequestTracer tracer(options, registry);
  TenantSeries* series = tracer.tenant_series("t0");
  tracer.complete(*series, make_span(1, 10'000, true), "t0", "speech");
  tracer.complete(*series, make_span(2, 30'000, true), "t0", "speech");

  std::string out;
  tracer.append_rollup_json(out, *series);
  EXPECT_NE(out.find("\"requests\": 2"), std::string::npos);
  EXPECT_NE(out.find("\"us_mean\": 20.0"), std::string::npos) << out;
  for (const char* stage : {"admission", "queue", "batch", "exec", "reply"})
    EXPECT_NE(out.find(std::string("\"") + stage + "\""), std::string::npos) << stage;
}

/// Aggregate counters are relaxed atomics: a scrape thread reading while
/// the serve thread completes spans must see consistent totals (run
/// under TSan in CI).
TEST(RequestTracerTest, CountersReadableWhileCompleting) {
  MetricRegistry registry;
  RequestTracerOptions options;
  options.sample_every = 8;
  RequestTracer tracer(options, registry);
  TenantSeries* series = tracer.tenant_series("t0");

  std::atomic<bool> done{false};
  std::int64_t last_seen = 0;
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      const std::int64_t requests = series->requests->value();
      EXPECT_GE(requests, last_seen) << "counter went backwards";
      last_seen = requests;
      EXPECT_GE(series->e2e_ns->value(), 0);
    }
  });
  for (int i = 0; i < 2'000; ++i) {
    const std::uint64_t id = tracer.begin_span();
    tracer.complete(*series, make_span(id, 5'000, tracer.is_sampled(id)), "t0", "speech");
  }
  done.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(series->requests->value(), 2'000);
}

}  // namespace
}  // namespace spi::obs
