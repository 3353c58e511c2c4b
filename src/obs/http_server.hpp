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
/// Between bursts the loop does not go straight back to sleep. After a
/// wake that read request bytes it polls without blocking, yielding its
/// CPU between empty polls, for kSpinWindow while a connection is open;
/// only then does it block again. A burst that arrives inside the window
/// does not pay for waking a sleeping thread, and a burst that arrives
/// later pays what it paid before. Each read is stamped: `wake` is the
/// time from the kernel's receive stamp (SO_TIMESTAMPNS) to the read,
/// and `read`, `parse`, `handler` and `write` cover the rest of the
/// read's turn without overlap (docs/observability.md, "The serve loop").
///
/// Binding port 0 (the default) asks the kernel for an ephemeral port;
/// `port()` reports the bound one. The server owns no data: it renders
/// through the installed handler(s), which must stay valid between
/// start() and stop(). Handlers run on the event-loop thread — they must
/// synchronize with any state they share with other threads.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"

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
    /// Registry for the loop's series (spi_http_*); the server keeps a
    /// private one when this is null.
    MetricRegistry* metrics = nullptr;
  };

  /// How long the loop keeps polling without blocking after a wake that
  /// read request bytes: at most one window of spinning per such wake.
  static constexpr std::chrono::milliseconds kSpinWindow{10};

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
  /// Per-connection parse state: the bytes of an unfinished request,
  /// carried from one read to the next.
  struct Connection {
    int fd = -1;
    std::string inbox;
  };

  /// The loop's instruments, resolved once at construction.
  struct Series {
    Counter* empty_polls = nullptr;
    Counter* blocking_waits = nullptr;
    Histogram* wake = nullptr;     ///< kernel receive stamp -> read start
    Histogram* read = nullptr;     ///< the recvmsg call
    Histogram* parse = nullptr;    ///< framing the read's complete requests
    Histogram* handler = nullptr;  ///< the handler call, less its sends
    Histogram* write = nullptr;    ///< serializing and sending the replies
  };

  /// One dispatch of a read burst: the responses already sent and
  /// whether a send failed.
  struct Call {
    Connection* conn = nullptr;
    std::span<const HttpRequest> requests;
    const std::vector<HttpResponse>* responses = nullptr;
    std::size_t sent = 0;  ///< responses [0, sent) have left
    bool failed = false;   ///< a send failed: nothing more leaves
    std::int64_t write_ns = 0;  ///< time spent in send_through so far
  };

  void serve();
  /// Parses every complete request of data[offset, size), advancing
  /// `offset` past them, dispatches, and sends the responses the handler
  /// did not release, in one send. Returns false when the connection
  /// must be closed.
  bool process_input(Connection& conn, std::string_view data, std::size_t& offset);
  /// Serializes responses [call_.sent, n), plus a 400 when `bad`, and
  /// sends them in one send. Returns false once a send of the call failed.
  bool send_through(std::size_t n, bool bad);

  Options options_;
  std::unique_ptr<MetricRegistry> owned_metrics_;  ///< when options_.metrics is null
  Series series_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::atomic<std::int64_t> requests_{0};
  Call call_;         ///< the dispatch in progress (event-loop thread only)
  std::string wire_;  ///< reused serialization buffer
};

}  // namespace spi::obs
