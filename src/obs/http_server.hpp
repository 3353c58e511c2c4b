/// \file http_server.hpp
/// Dependency-free embedded HTTP server: the socket/poll plumbing shared
/// by the telemetry endpoints (ObsServer) and the serving daemon's
/// ingest path (serve::PlanServer).
///
/// One event-loop thread over plain POSIX sockets, no TLS, no
/// third-party code. Speaks HTTP/1.1 with keep-alive and request
/// pipelining — a client may write many requests back-to-back on one
/// connection; the server parses every complete request out of each read
/// burst, dispatches them (batched, if a BatchHandler is installed),
/// and answers in request order with correct Content-Length framing.
/// A batch handler may release an in-order prefix of its responses
/// while it still runs (release()): that prefix is sent at once, and the
/// end of the call sends only the rest, so an early answer does not
/// wait for the last one of its burst. HTTP/1.0
/// clients keep the old single-request contract: one request, one
/// response, `Connection: close` — existing scrapers and the curl-less
/// CI probes work unchanged.
///
/// Pipelining + batching is what makes a ≥100k req/s ingest rate
/// reachable on one core: the per-request cost collapses to parsing,
/// and the handler is invoked once per burst instead of once per
/// request (docs/serving.md, "Batched firing").
///
/// Binding port 0 (the default) asks the kernel for an ephemeral port;
/// `port()` reports the bound one. The server owns no data: it renders
/// through the installed handler(s), which must stay valid between
/// start() and stop(). Handlers run on the event-loop thread — they must
/// synchronize with any state they share with other threads.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <thread>
#include <vector>

namespace spi::obs {

/// One parsed request, body already assembled from Content-Length.
struct HttpRequest {
  std::string method;   ///< "GET", "POST", ...
  std::string target;   ///< origin-form target, query string included
  std::string version;  ///< "HTTP/1.0" or "HTTP/1.1"
  std::string body;     ///< Content-Length bytes (empty without one)
  bool keep_alive = false;  ///< connection survives after the response
};

/// One rendered HTTP response (routing result, pre-serialization).
struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

class HttpServer {
 public:
  /// Per-request dispatch.
  using Handler = std::function<HttpResponse(const HttpRequest&)>;
  /// Per-burst dispatch: every complete pipelined request parsed from
  /// one read, in arrival order; the handler must leave exactly one
  /// response per request, in the same order. While it runs it may call
  /// release() to send a final prefix early. When installed it takes
  /// precedence over Handler (and is also used for bursts of one).
  using BatchHandler =
      std::function<void(std::span<HttpRequest>, std::vector<HttpResponse>&)>;

  struct Options {
    int port = 0;  ///< 0 = kernel-assigned ephemeral port
    std::string bind_address = "127.0.0.1";
    Handler handler;
    BatchHandler batch_handler;
    /// Connections beyond this are accepted and immediately shed with
    /// 503 + close (the poll set stays bounded).
    std::size_t max_connections = 64;
  };

  explicit HttpServer(Options options);
  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;
  ~HttpServer();

  /// Binds, listens and spawns the event-loop thread. Throws
  /// std::runtime_error when the socket cannot be set up.
  void start();
  /// Stops accepting, closes every connection and joins the loop.
  void stop();

  [[nodiscard]] bool running() const { return listen_fd_ >= 0; }
  /// The bound TCP port (resolves port-0 requests), 0 before start().
  [[nodiscard]] int port() const { return port_; }
  [[nodiscard]] std::int64_t requests_served() const {
    return requests_.load(std::memory_order_relaxed);
  }

  /// Declares responses [0, n) of the handler call in progress final
  /// and sends those not sent yet, in order. Call it from inside a
  /// handler (the event-loop thread); the handler must not change a
  /// released response afterwards. A no-op outside a handler call, for
  /// a count that does not advance the sent prefix, and after a send of
  /// this call failed (the connection then closes when the call
  /// returns). `n` is capped at the responses the handler holds.
  void release(std::size_t n);

 private:
  /// Per-connection parse state: bytes read but not yet consumed.
  struct Connection {
    int fd = -1;
    std::string inbox;
  };

  /// One dispatch of a read burst: the responses already sent and
  /// whether a send failed.
  struct Call {
    Connection* conn = nullptr;
    std::span<const HttpRequest> requests;
    const std::vector<HttpResponse>* responses = nullptr;
    std::size_t sent = 0;  ///< responses [0, sent) have left
    bool failed = false;   ///< a send failed: nothing more leaves
  };

  void serve();
  /// Parses every complete request out of conn.inbox (consuming them),
  /// dispatches, and sends the responses the handler did not release,
  /// in one send. Returns false when the connection must be closed.
  bool process_input(Connection& conn);
  /// Serializes responses [call_.sent, n), plus a 400 when `bad`, and
  /// sends them in one send. Returns false once a send of the call failed.
  bool send_through(std::size_t n, bool bad);

  Options options_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::atomic<std::int64_t> requests_{0};
  Call call_;         ///< the dispatch in progress (event-loop thread only)
  std::string wire_;  ///< reused serialization buffer
};

}  // namespace spi::obs
