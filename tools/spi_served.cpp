/// \file spi_served.cpp
/// The standalone multi-tenant plan-serving daemon (docs/serving.md).
///
/// Hosts the serve::PlanServer — plan cache, admission control, built-in
/// speech + particle models with batched colocated firing — behind one
/// HTTP/1.1 endpoint. Announces the bound port on stderr as
/// "listening on 127.0.0.1:PORT" (the same convention spi_compile's
/// telemetry server uses, so CI scrapes both with one pattern), then
/// serves until SIGINT/SIGTERM or --max-seconds elapses.
///
///   spi_served --port 0 --memory-budget-mb 64 --watchdog-ms 2000
///
/// Endpoints: POST /plan, POST /job, GET /metrics[.json], GET /runtime,
/// GET /healthz, GET /trace, GET /trace/flight, GET /tenants.
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "serve/plan_server.hpp"

namespace {

std::atomic<bool> g_stop{false};

void handle_signal(int) { g_stop.store(true); }

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [options]\n"
               "  --port N             listen port (default 0 = ephemeral)\n"
               "  --bind ADDR          bind address (default 127.0.0.1)\n"
               "  --memory-budget-mb N admission memory budget (default 64)\n"
               "  --max-queue-depth N  per-tenant queued-job cap (default 4096)\n"
               "  --plan-cache N       plan cache capacity (default 64)\n"
               "  --speech-pes N       speech model PEs (default 2)\n"
               "  --particle-pes N     particle model PEs (default 2)\n"
               "  --watchdog-ms N      per-batch stall watchdog window (default 2000)\n"
               "  --dump-dir DIR       stall report directory (default .)\n"
               "  --max-seconds N      exit after N seconds (default: run until signal)\n"
               "  --no-trace           disable request-lifecycle tracing (/trace, /tenants)\n"
               "  --trace-sample N     head-sample 1 in N requests (default 64)\n"
               "  --trace-ring N       recent sampled-span ring capacity (default 512)\n"
               "  --trace-outliers N   slowest-N outlier reservoir size (default 16)\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  spi::serve::PlanServerOptions options;
  options.watchdog_ms = 2000;
  long long max_seconds = -1;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "spi_served: %s requires a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--port") {
      options.port = std::atoi(next());
    } else if (arg == "--bind") {
      options.bind_address = next();
    } else if (arg == "--memory-budget-mb") {
      options.admission.memory_budget_bytes = std::atoll(next()) << 20;
    } else if (arg == "--max-queue-depth") {
      options.admission.max_queue_depth = std::atoll(next());
    } else if (arg == "--plan-cache") {
      options.plan_cache_capacity = static_cast<std::size_t>(std::atoll(next()));
    } else if (arg == "--speech-pes") {
      options.speech_pes = std::atoi(next());
    } else if (arg == "--particle-pes") {
      options.particle_pes = std::atoi(next());
    } else if (arg == "--watchdog-ms") {
      options.watchdog_ms = std::atoll(next());
    } else if (arg == "--dump-dir") {
      options.flight_dump_dir = next();
    } else if (arg == "--max-seconds") {
      max_seconds = std::atoll(next());
    } else if (arg == "--no-trace") {
      options.trace.enabled = false;
    } else if (arg == "--trace-sample") {
      options.trace.sample_every = std::atoll(next());
    } else if (arg == "--trace-ring") {
      options.trace.ring_capacity = static_cast<std::size_t>(std::atoll(next()));
    } else if (arg == "--trace-outliers") {
      options.trace.outlier_capacity = static_cast<std::size_t>(std::atoll(next()));
    } else if (arg == "--help" || arg == "-h") {
      return usage(argv[0]);
    } else {
      std::fprintf(stderr, "spi_served: unknown option '%s'\n", arg.c_str());
      return usage(argv[0]);
    }
  }

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);

  try {
    spi::serve::PlanServer server(options);
    server.start();
    std::fprintf(stderr, "spi_served: speech plan %s, particle plan %s\n",
                 server.speech_plan_key().c_str(), server.particle_plan_key().c_str());
    std::fprintf(stderr, "spi_served: listening on %s:%d\n", options.bind_address.c_str(),
                 server.port());
    std::fflush(stderr);

    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(
                              max_seconds < 0 ? 0 : max_seconds);
    while (!g_stop.load()) {
      if (max_seconds >= 0 && std::chrono::steady_clock::now() >= deadline) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }

    server.stop();
    std::fprintf(stderr, "spi_served: served %lld jobs, shutting down\n",
                 static_cast<long long>(server.jobs_served()));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "spi_served: %s\n", e.what());
    return 1;
  }
  return 0;
}
