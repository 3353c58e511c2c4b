#include "obs/obs_server.hpp"

#include "obs/text_escape.hpp"

namespace spi::obs {

ObsServer::ObsServer(Options options) : options_(std::move(options)) {}

ObsServer::~ObsServer() { stop(); }

void ObsServer::start() {
  if (http_) return;
  HttpServer::Options http_options;
  http_options.port = options_.port;
  http_options.bind_address = options_.bind_address;
  http_options.metrics = options_.registry;
  http_options.handler = [this](const HttpRequest& request) {
    return handle(request.method, request.target);
  };
  http_ = std::make_unique<HttpServer>(std::move(http_options));
  http_->start();
}

void ObsServer::stop() {
  if (!http_) return;
  http_->stop();
  http_.reset();
}

HttpResponse ObsServer::handle(const std::string& method, const std::string& target) const {
  if (method != "GET") {
    return {405, "application/json", "{\"error\": \"method not allowed\"}\n"};
  }
  // Strip any query string: /healthz?verbose=1 routes as /healthz.
  const std::string path = target.substr(0, target.find('?'));

  if (path == "/") {
    return {200, "text/plain; charset=utf-8",
            "spi observability endpoints:\n"
            "  /metrics       Prometheus text exposition\n"
            "  /metrics.json  JSON metrics export\n"
            "  /healthz       liveness / progress verdict\n"
            "  /runtime       live per-worker and per-channel state\n"};
  }
  if (path == "/metrics") {
    if (options_.registry == nullptr)
      return {404, "application/json", "{\"error\": \"no metric registry attached\"}\n"};
    if (options_.refresh) options_.refresh();
    return {200, "text/plain; version=0.0.4; charset=utf-8", options_.registry->to_prometheus()};
  }
  if (path == "/metrics.json") {
    if (options_.registry == nullptr)
      return {404, "application/json", "{\"error\": \"no metric registry attached\"}\n"};
    if (options_.refresh) options_.refresh();
    return {200, "application/json", options_.registry->to_json()};
  }
  if (path == "/healthz") {
    HealthStatus status;
    if (options_.health) {
      status = options_.health();
    } else {
      status.verdict = "no-watchdog";
    }
    return {status.ok ? 200 : 503, "application/json", status.to_json() + "\n"};
  }
  if (path == "/runtime") {
    if (!options_.runtime_json)
      return {404, "application/json", "{\"error\": \"no runtime attached\"}\n"};
    if (options_.refresh) options_.refresh();
    return {200, "application/json", options_.runtime_json() + "\n"};
  }
  return {404, "application/json",
          "{\"error\": \"unknown endpoint '" + detail::json_escaped(path) + "'\"}\n"};
}

}  // namespace spi::obs
