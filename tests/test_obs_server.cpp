/// Tests of the embedded telemetry server: pure routing unit tests for
/// every endpoint, real HTTP round trips over an ephemeral port, and
/// the concurrent-scrape acceptance test — two client threads hammering
/// /metrics, /metrics.json and /runtime while the speech pipeline runs
/// (TSan-clean by construction: the exporters snapshot under the
/// registry lock, the runtime state is published through atomics).
/// Every scraped response must parse, and the deterministic counters
/// must be bit-identical to an unscraped run.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "apps/speech_app.hpp"
#include "core/job_instance.hpp"
#include "dsp/lpc.hpp"
#include "obs/json_lint.hpp"
#include "obs/obs_server.hpp"

namespace spi::obs {
namespace {

/// Minimal HTTP/1.0 GET: returns {status, body}, status -1 on any
/// socket failure (the server may already be shutting down).
struct HttpResult {
  int status = -1;
  std::string body;
};

HttpResult http_get(int port, const std::string& target) {
  HttpResult result;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return result;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return result;
  }
  const std::string request = "GET " + target + " HTTP/1.0\r\n\r\n";
  if (::send(fd, request.data(), request.size(), 0) != static_cast<ssize_t>(request.size())) {
    ::close(fd);
    return result;
  }
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  const std::size_t space = response.find(' ');
  if (space == std::string::npos) return result;
  result.status = std::atoi(response.c_str() + space + 1);
  const std::size_t sep = response.find("\r\n\r\n");
  if (sep != std::string::npos) result.body = response.substr(sep + 4);
  return result;
}

TEST(ObsServer, RoutesEveryEndpointWithoutSockets) {
  MetricRegistry registry;
  registry.counter("spi_test_total").inc(3);
  int refreshes = 0;
  ObsServer::Options options;
  options.registry = &registry;
  options.refresh = [&] { ++refreshes; };
  options.runtime_json = [] { return std::string("{\"workers\":[]}"); };
  options.health = [] {
    HealthStatus h;
    h.verdict = "ok";
    return h;
  };
  const ObsServer server(std::move(options));

  const HttpResponse index = server.handle("GET", "/");
  EXPECT_EQ(index.status, 200);
  EXPECT_NE(index.body.find("/metrics"), std::string::npos);

  const HttpResponse prom = server.handle("GET", "/metrics");
  EXPECT_EQ(prom.status, 200);
  EXPECT_NE(prom.body.find("spi_test_total 3"), std::string::npos);
  EXPECT_NE(prom.content_type.find("text/plain"), std::string::npos);

  const HttpResponse json = server.handle("GET", "/metrics.json");
  EXPECT_EQ(json.status, 200);
  EXPECT_EQ(json.content_type, "application/json");
  EXPECT_EQ(detail::json_validate(json.body), "") << json.body;

  const HttpResponse runtime = server.handle("GET", "/runtime?x=1");  // query ignored
  EXPECT_EQ(runtime.status, 200);
  EXPECT_EQ(detail::json_validate(runtime.body), "") << runtime.body;

  const HttpResponse health = server.handle("GET", "/healthz");
  EXPECT_EQ(health.status, 200);
  EXPECT_EQ(detail::json_validate(health.body), "") << health.body;
  EXPECT_NE(health.body.find("\"ok\":true"), std::string::npos);

  EXPECT_EQ(server.handle("GET", "/nope").status, 404);
  EXPECT_EQ(server.handle("POST", "/metrics").status, 405);
  EXPECT_EQ(refreshes, 3);  // /metrics, /metrics.json, /runtime
}

TEST(ObsServer, HealthzDegradesGracefullyWithoutHooks) {
  MetricRegistry registry;
  ObsServer::Options options;
  options.registry = &registry;
  const ObsServer server(std::move(options));
  const HttpResponse health = server.handle("GET", "/healthz");
  EXPECT_EQ(health.status, 200);
  EXPECT_NE(health.body.find("no-watchdog"), std::string::npos);
  EXPECT_EQ(server.handle("GET", "/runtime").status, 404);  // no runtime hook
}

TEST(ObsServer, UnhealthyWatchdogVerdictIs503) {
  MetricRegistry registry;
  ObsServer::Options options;
  options.registry = &registry;
  options.health = [] {
    HealthStatus h;
    h.ok = false;
    h.verdict = "stalled: deadlock on 'X'";
    return h;
  };
  const ObsServer server(std::move(options));
  const HttpResponse health = server.handle("GET", "/healthz");
  EXPECT_EQ(health.status, 503);
  EXPECT_EQ(detail::json_validate(health.body), "") << health.body;
}

TEST(ObsServer, ServesRealHttpOnEphemeralPort) {
  MetricRegistry registry;
  registry.counter("spi_http_total").inc(7);
  ObsServer::Options options;
  options.registry = &registry;
  ObsServer server(std::move(options));
  server.start();
  ASSERT_GT(server.port(), 0);

  const HttpResult prom = http_get(server.port(), "/metrics");
  EXPECT_EQ(prom.status, 200);
  EXPECT_NE(prom.body.find("spi_http_total 7"), std::string::npos);

  const HttpResult json = http_get(server.port(), "/metrics.json");
  EXPECT_EQ(json.status, 200);
  EXPECT_EQ(detail::json_validate(json.body), "") << json.body;

  EXPECT_EQ(http_get(server.port(), "/healthz").status, 200);
  EXPECT_EQ(http_get(server.port(), "/missing").status, 404);
  EXPECT_GE(server.requests_served(), 4);
  server.stop();
  EXPECT_FALSE(server.running());
}

// The acceptance test (ISSUE: observability): two scraper threads
// hammer the live endpoints for the whole duration of a threaded
// speech-pipeline run. Every response parses; the deterministic
// counters and the computed errors are bit-identical to a run nobody
// scraped.
TEST(ObsServer, ConcurrentScrapesDuringSpeechRunAreCleanAndNonPerturbing) {
  apps::SpeechParams params;
  params.frame_size = 256;
  const apps::ErrorGenApp app(3, params);
  dsp::Rng rng(8);
  const auto frame = dsp::synthetic_speech(params.frame_size, rng);
  const apps::SpeechCompressor codec(params);
  const auto coeffs = codec.frame_coefficients(frame);
  constexpr std::int64_t kIters = 400;

  core::RunOptions plain;
  plain.iterations = kIters;
  MetricRegistry reference_registry;
  const auto reference =
      app.compute_errors_threaded(frame, coeffs, plain, {}, &reference_registry);

  std::atomic<int> port{-1};
  std::atomic<bool> done{false};
  std::atomic<std::int64_t> scrapes_ok{0};
  std::atomic<std::int64_t> scrape_failures{0};
  auto scraper = [&] {
    while (port.load() < 0 && !done.load()) std::this_thread::yield();
    const char* targets[] = {"/metrics", "/metrics.json", "/runtime", "/healthz"};
    std::size_t i = 0;
    while (!done.load()) {
      const std::string target = targets[i++ % 4];
      const HttpResult r = http_get(port.load(), target);
      if (r.status < 0) continue;  // server winding down mid-connect
      if (r.status != 200) {
        scrape_failures.fetch_add(1);
        continue;
      }
      if (target == "/metrics") {
        if (r.body.rfind("# ", 0) != 0) scrape_failures.fetch_add(1);
      } else if (detail::json_validate(r.body) != "") {
        scrape_failures.fetch_add(1);
      }
      scrapes_ok.fetch_add(1);
    }
  };
  std::thread scraper_a(scraper), scraper_b(scraper);

  core::RunOptions scraped_options;
  scraped_options.iterations = kIters;
  scraped_options.obs_port = 0;
  scraped_options.on_obs_start = [&](int p) { port.store(p); };
  MetricRegistry registry;
  const auto scraped =
      app.compute_errors_threaded(frame, coeffs, scraped_options, {}, &registry);
  done.store(true);
  scraper_a.join();
  scraper_b.join();

  EXPECT_EQ(scrape_failures.load(), 0);
  EXPECT_GT(scrapes_ok.load(), 0);  // the observers really overlapped the run
  EXPECT_EQ(scraped, reference);    // results bit-identical

  // Scraping is read-only: the deterministic counters (messages and
  // payload bytes are fixed by the plan and the iteration count) match
  // the unscraped run exactly.
  EXPECT_EQ(registry.counter_total("spi_threaded_messages_total"),
            reference_registry.counter_total("spi_threaded_messages_total"));
  EXPECT_EQ(registry.counter_total("spi_threaded_payload_bytes_total"),
            reference_registry.counter_total("spi_threaded_payload_bytes_total"));
  EXPECT_GT(registry.counter_total("spi_threaded_messages_total"), 0);
}

}  // namespace
}  // namespace spi::obs
