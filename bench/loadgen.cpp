/// \file loadgen.cpp
/// Load harness for the spi_served plan server (docs/serving.md).
///
/// A single-threaded driver (the server is single-threaded too; on a
/// one-core box the two timeshare, which is the deployment the serving
/// layer targets) that keeps several HTTP/1.1 connections saturated
/// with pipelined bursts of mixed speech/particle jobs:
///
///  * closed loop — every connection always has one burst in flight;
///    the measured rate is the server's capacity. Burst round-trip time
///    (send to the burst's last reply) is the per-request latency.
///  * open(-ish) loop — the same bursts released on a schedule at an
///    offered rate; 429 rejects are counted, not retried. The default
///    "curve" mode runs the closed loop first, then offered rates at
///    fractions of the measured capacity — the throughput/latency curve
///    committed to BENCH_results.json.
///
///   loadgen --port P [--duration-s 3] [--connections 4] [--pipeline 64]
///           [--particle-permille 20] [--json-out curve.json]
///           [--rates 50000,100000] [--no-curve]
///
/// Exits nonzero if any request errored (non-2xx other than 429) or a
/// connection died mid-run.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

namespace {

using Clock = std::chrono::steady_clock;

struct Config {
  std::string host = "127.0.0.1";
  int port = 0;
  int connections = 8;
  int pipeline = 128;  ///< requests per burst
  double duration_s = 3.0;
  int particle_permille = 20;  ///< particle share of the mix, per thousand
  int speech_frame = 32;
  int speech_order = 4;
  int particle_steps = 6;
  int tenants = 2;
  std::string json_out;
  std::vector<double> explicit_rates;  ///< offered req/s steps; empty = auto
  bool curve = true;                   ///< run offered-rate steps after closed loop
};

struct StepResult {
  double offered_rps = 0.0;  ///< 0 = closed loop (unthrottled)
  double achieved_rps = 0.0;
  std::int64_t requests = 0;
  std::map<int, std::int64_t> statuses;
  /// Per-request latency (send of the request's burst -> receive of its
  /// response) — the tail a client of the batched server actually sees.
  double p50_us = 0.0, p90_us = 0.0, p99_us = 0.0, p999_us = 0.0, mean_us = 0.0;
  /// Burst round-trip aggregates (one sample per pipelined burst — the
  /// pre-tracing latency definition, kept for baseline comparability).
  double burst_p50_us = 0.0, burst_p90_us = 0.0, burst_p99_us = 0.0, burst_mean_us = 0.0;
};

int connect_to(const std::string& host, int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

struct Conn {
  int fd = -1;
  std::string inbox;
};

bool send_all(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

/// Consumes complete HTTP responses off the front of `inbox`; appends
/// each status code to `statuses` and its receive timestamp (stamped
/// once per drain — responses parsed from one recv arrived together) to
/// `rx_times`. Returns false on malformed input. When `last_body` is
/// non-null it keeps the last complete response body (endpoint scrapes).
bool drain_responses(std::string& inbox, std::vector<int>& statuses,
                     std::vector<Clock::time_point>& rx_times,
                     std::string* last_body = nullptr) {
  const auto now = Clock::now();
  for (;;) {
    const std::size_t head_end = inbox.find("\r\n\r\n");
    if (head_end == std::string::npos) return true;
    if (inbox.compare(0, 5, "HTTP/") != 0) return false;
    const std::size_t space = inbox.find(' ');
    if (space == std::string::npos || space + 4 > head_end) return false;
    const int status = std::atoi(inbox.c_str() + space + 1);

    std::size_t content_length = 0;
    const char* kHeader = "content-length:";
    for (std::size_t pos = inbox.find("\r\n") + 2; pos < head_end;) {
      const std::size_t eol = inbox.find("\r\n", pos);
      std::string line = inbox.substr(pos, eol - pos);
      std::transform(line.begin(), line.end(), line.begin(),
                     [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
      if (line.compare(0, std::strlen(kHeader), kHeader) == 0)
        content_length = static_cast<std::size_t>(std::atoll(line.c_str() + std::strlen(kHeader)));
      pos = eol + 2;
    }
    const std::size_t total = head_end + 4 + content_length;
    if (inbox.size() < total) return true;  // body still in flight
    statuses.push_back(status);
    rx_times.push_back(now);
    if (last_body) last_body->assign(inbox, head_end + 4, content_length);
    inbox.erase(0, total);
  }
}

/// One blocking GET against the server on a fresh connection; returns
/// the response body or "" on any failure. Used to embed the /tenants
/// rollup in --json-out after the measured steps.
std::string fetch_body(const Config& config, const std::string& target) {
  const int fd = connect_to(config.host, config.port);
  if (fd < 0) return {};
  std::string body;
  std::string inbox;
  std::vector<int> statuses;
  std::vector<Clock::time_point> rx;
  if (send_all(fd, "GET " + target + " HTTP/1.1\r\n\r\n")) {
    while (statuses.empty()) {
      char buf[65536];
      const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
      if (n <= 0) break;
      inbox.append(buf, static_cast<std::size_t>(n));
      if (!drain_responses(inbox, statuses, rx, &body)) break;
    }
  }
  ::close(fd);
  if (statuses.empty() || statuses.front() != 200) return {};
  return body;
}

/// One pipelined burst: `pipeline` POST /job requests with distinct
/// seeds, a particle job every 1000/particle_permille-th slot.
std::string build_burst(const Config& config, std::uint64_t& seed) {
  std::string wire;
  wire.reserve(static_cast<std::size_t>(config.pipeline) * 192);
  char body[192];
  for (int k = 0; k < config.pipeline; ++k) {
    ++seed;
    const bool particle =
        config.particle_permille > 0 &&
        (seed % 1000) < static_cast<std::uint64_t>(config.particle_permille);
    int body_len;
    if (particle) {
      body_len = std::snprintf(body, sizeof body,
                               "{\"app\":\"particle\",\"tenant\":\"t%llu\",\"steps\":%d,"
                               "\"seed\":%llu}",
                               static_cast<unsigned long long>(seed % config.tenants),
                               config.particle_steps, static_cast<unsigned long long>(seed));
    } else {
      body_len = std::snprintf(body, sizeof body,
                               "{\"app\":\"speech\",\"tenant\":\"t%llu\",\"frame_size\":%d,"
                               "\"order\":%d,\"seed\":%llu}",
                               static_cast<unsigned long long>(seed % config.tenants),
                               config.speech_frame, config.speech_order,
                               static_cast<unsigned long long>(seed));
    }
    char head[128];
    const int head_len = std::snprintf(head, sizeof head,
                                       "POST /job HTTP/1.1\r\nContent-Length: %d\r\n\r\n",
                                       body_len);
    wire.append(head, static_cast<std::size_t>(head_len));
    wire.append(body, static_cast<std::size_t>(body_len));
  }
  return wire;
}

double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

/// Runs one measurement step. offered_rps == 0 runs the closed loop.
/// Returns false on a transport error.
bool run_step(const Config& config, std::vector<Conn>& conns, double offered_rps,
              std::uint64_t& seed, StepResult& result) {
  result.offered_rps = offered_rps;
  std::vector<double> burst_us;
  std::vector<double> request_us;
  std::vector<int> statuses;
  std::vector<Clock::time_point> rx_times;
  const auto start = Clock::now();
  const auto deadline = start + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(config.duration_s));
  // Offered-rate pacing: one burst per interval, round-robin over conns.
  const double burst_interval_s =
      offered_rps > 0.0 ? static_cast<double>(config.pipeline) / offered_rps : 0.0;
  auto next_send = start;
  std::size_t which = 0;

  while (Clock::now() < deadline) {
    if (offered_rps > 0.0) {
      while (Clock::now() < next_send) {
      }  // spin: sleep granularity is too coarse at these rates
      next_send += std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(burst_interval_s));
    }
    Conn& conn = conns[which];
    which = (which + 1) % conns.size();

    const std::string wire = build_burst(config, seed);
    const auto t0 = Clock::now();
    if (!send_all(conn.fd, wire)) return false;

    statuses.clear();
    rx_times.clear();
    while (statuses.size() < static_cast<std::size_t>(config.pipeline)) {
      char buf[65536];
      const ssize_t n = ::recv(conn.fd, buf, sizeof buf, 0);
      if (n <= 0) return false;
      conn.inbox.append(buf, static_cast<std::size_t>(n));
      if (!drain_responses(conn.inbox, statuses, rx_times)) return false;
    }
    const double us =
        std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
    burst_us.push_back(us);
    // Per-request latency: the burst's send stamp to each response's
    // receive stamp (requests pipeline, so they share the send).
    for (const Clock::time_point rx : rx_times)
      request_us.push_back(std::chrono::duration<double, std::micro>(rx - t0).count());
    result.requests += config.pipeline;
    for (const int status : statuses) ++result.statuses[status];
  }

  const double elapsed =
      std::chrono::duration<double>(Clock::now() - start).count();
  result.achieved_rps = elapsed > 0.0 ? static_cast<double>(result.requests) / elapsed : 0.0;
  const auto mean = [](const std::vector<double>& v) {
    double sum = 0.0;
    for (const double x : v) sum += x;
    return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
  };
  std::sort(request_us.begin(), request_us.end());
  result.p50_us = percentile(request_us, 0.50);
  result.p90_us = percentile(request_us, 0.90);
  result.p99_us = percentile(request_us, 0.99);
  result.p999_us = percentile(request_us, 0.999);
  result.mean_us = mean(request_us);
  std::sort(burst_us.begin(), burst_us.end());
  result.burst_p50_us = percentile(burst_us, 0.50);
  result.burst_p90_us = percentile(burst_us, 0.90);
  result.burst_p99_us = percentile(burst_us, 0.99);
  result.burst_mean_us = mean(burst_us);
  return true;
}

void print_step(const StepResult& r) {
  std::printf("offered %9.0f req/s -> achieved %9.0f req/s  "
              "req p50 %7.0f us  p99 %7.0f us  p99.9 %7.0f us",
              r.offered_rps, r.achieved_rps, r.p50_us, r.p99_us, r.p999_us);
  for (const auto& [status, count] : r.statuses)
    if (status != 200) std::printf("  [%d x%lld]", status, static_cast<long long>(count));
  std::printf("\n");
}

std::string step_json(const StepResult& r) {
  char buf[768];
  std::string statuses = "{";
  bool first = true;
  for (const auto& [status, count] : r.statuses) {
    if (!first) statuses += ", ";
    first = false;
    statuses += "\"" + std::to_string(status) + "\": " + std::to_string(count);
  }
  statuses += "}";
  std::snprintf(buf, sizeof buf,
                "{\"offered_rps\": %.0f, \"achieved_rps\": %.0f, \"requests\": %lld, "
                "\"http\": %s, \"latency_us\": {\"p50\": %.1f, \"p90\": %.1f, "
                "\"p99\": %.1f, \"p999\": %.1f, \"mean\": %.1f}, "
                "\"burst_us\": {\"p50\": %.1f, \"p90\": %.1f, \"p99\": %.1f, \"mean\": %.1f}}",
                r.offered_rps, r.achieved_rps, static_cast<long long>(r.requests),
                statuses.c_str(), r.p50_us, r.p90_us, r.p99_us, r.p999_us, r.mean_us,
                r.burst_p50_us, r.burst_p90_us, r.burst_p99_us, r.burst_mean_us);
  return buf;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --port P [--host H] [--connections N] [--pipeline N]\n"
               "  [--duration-s S] [--particle-permille N] [--speech-frame N]\n"
               "  [--speech-order N] [--particle-steps N] [--tenants N]\n"
               "  [--rates R1,R2,...] [--no-curve] [--json-out FILE]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Config config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "loadgen: %s requires a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--host") config.host = next();
    else if (arg == "--port") config.port = std::atoi(next());
    else if (arg == "--connections") config.connections = std::atoi(next());
    else if (arg == "--pipeline") config.pipeline = std::atoi(next());
    else if (arg == "--duration-s") config.duration_s = std::atof(next());
    else if (arg == "--particle-permille") config.particle_permille = std::atoi(next());
    else if (arg == "--speech-frame") config.speech_frame = std::atoi(next());
    else if (arg == "--speech-order") config.speech_order = std::atoi(next());
    else if (arg == "--particle-steps") config.particle_steps = std::atoi(next());
    else if (arg == "--tenants") config.tenants = std::max(1, std::atoi(next()));
    else if (arg == "--json-out") config.json_out = next();
    else if (arg == "--no-curve") config.curve = false;
    else if (arg == "--rates") {
      const std::string list = next();
      for (std::size_t pos = 0; pos < list.size();) {
        config.explicit_rates.push_back(std::atof(list.c_str() + pos));
        const std::size_t comma = list.find(',', pos);
        if (comma == std::string::npos) break;
        pos = comma + 1;
      }
    } else {
      std::fprintf(stderr, "loadgen: unknown option '%s'\n", arg.c_str());
      return usage(argv[0]);
    }
  }
  if (config.port <= 0) return usage(argv[0]);
  std::signal(SIGPIPE, SIG_IGN);

  std::vector<Conn> conns(static_cast<std::size_t>(std::max(1, config.connections)));
  for (Conn& conn : conns) {
    conn.fd = connect_to(config.host, config.port);
    if (conn.fd < 0) {
      std::fprintf(stderr, "loadgen: cannot connect to %s:%d\n", config.host.c_str(),
                   config.port);
      return 1;
    }
  }

  std::uint64_t seed = 0;
  std::vector<StepResult> steps;

  // Step 1: closed loop — the measured capacity.
  StepResult closed;
  if (!run_step(config, conns, 0.0, seed, closed)) {
    std::fprintf(stderr, "loadgen: transport error during closed loop\n");
    return 1;
  }
  print_step(closed);
  steps.push_back(closed);

  // Step 2..n: offered-rate curve.
  std::vector<double> rates = config.explicit_rates;
  if (rates.empty() && config.curve)
    for (const double frac : {0.25, 0.5, 0.75, 0.9})
      rates.push_back(frac * closed.achieved_rps);
  for (const double rate : rates) {
    StepResult step;
    if (!run_step(config, conns, rate, seed, step)) {
      std::fprintf(stderr, "loadgen: transport error at offered rate %.0f\n", rate);
      return 1;
    }
    print_step(step);
    steps.push_back(step);
  }

  // Scrape the per-tenant rollup before the server exits so --json-out
  // carries the server-side stage breakdown next to the client-side
  // latency curve (run_benchmarks.sh folds both into BENCH_results.json).
  std::string tenants_body;
  if (!config.json_out.empty()) tenants_body = fetch_body(config, "/tenants");

  for (Conn& conn : conns) ::close(conn.fd);

  std::int64_t errors = 0;
  for (const StepResult& step : steps)
    for (const auto& [status, count] : step.statuses)
      if (status != 200 && status != 429) errors += count;

  std::printf("peak %.0f req/s (%d conns x %d pipelined, %d%% particle)\n",
              closed.achieved_rps, config.connections, config.pipeline,
              config.particle_permille / 10);

  if (!config.json_out.empty()) {
    std::FILE* out = std::fopen(config.json_out.c_str(), "w");
    if (!out) {
      std::fprintf(stderr, "loadgen: cannot write %s\n", config.json_out.c_str());
      return 1;
    }
    std::fprintf(out,
                 "{\n \"benchmark\": \"serve_loadgen\",\n"
                 " \"config\": {\"connections\": %d, \"pipeline\": %d, "
                 "\"particle_permille\": %d, \"speech_frame\": %d, \"speech_order\": %d, "
                 "\"particle_steps\": %d, \"tenants\": %d, \"duration_s\": %.2f},\n"
                 " \"peak_rps\": %.0f,\n \"steps\": [\n",
                 config.connections, config.pipeline, config.particle_permille,
                 config.speech_frame, config.speech_order, config.particle_steps,
                 config.tenants, config.duration_s, closed.achieved_rps);
    for (std::size_t i = 0; i < steps.size(); ++i)
      std::fprintf(out, "  %s%s\n", step_json(steps[i]).c_str(),
                   i + 1 < steps.size() ? "," : "");
    std::fprintf(out, " ],\n \"tenants\": %s\n}\n",
                 tenants_body.empty() ? "null" : tenants_body.c_str());
    std::fclose(out);
  }

  if (errors > 0) {
    std::fprintf(stderr, "loadgen: %lld non-2xx/429 responses\n",
                 static_cast<long long>(errors));
    return 1;
  }
  return 0;
}
