/// Tests of the reusable embedded HTTP server (obs/http_server.hpp):
/// HTTP/1.1 keep-alive with correct Content-Length framing, ambiguous
/// framing answered 400, request pipelining dispatched as one batch,
/// early release of a batch's in-order reply prefix, POST body
/// assembly, the preserved HTTP/1.0 one-request/close contract, the
/// bounded-poll 503 connection shed, and the loop's bounded spin between
/// bursts with its per-read stage stamps.
#include "obs/http_server.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"

namespace spi::obs {
namespace {

/// Connects to the server on loopback. Reads time out after a few
/// seconds, so a response that never comes fails a test, not hangs it.
int connect_to(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  timeval timeout{};
  timeout.tv_sec = 5;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
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

bool send_all(int fd, const std::string& data) {
  return ::send(fd, data.data(), data.size(), MSG_NOSIGNAL) ==
         static_cast<ssize_t>(data.size());
}

struct ParsedResponse {
  int status = -1;
  std::string headers;  ///< raw header block, lowercased
  std::string body;
};

/// Reads exactly `count` Content-Length-framed responses off `fd`.
/// Returns fewer on EOF/error. Bytes read past the last of them are
/// left in `inbox`.
std::vector<ParsedResponse> read_responses(int fd, std::size_t count, std::string& inbox) {
  std::vector<ParsedResponse> out;
  char buf[8192];
  while (out.size() < count) {
    const std::size_t head_end = inbox.find("\r\n\r\n");
    if (head_end == std::string::npos) {
      const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
      if (n <= 0) return out;
      inbox.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    ParsedResponse response;
    response.headers = inbox.substr(0, head_end);
    for (char& c : response.headers) c = static_cast<char>(std::tolower(c));
    const std::size_t space = inbox.find(' ');
    response.status = std::atoi(inbox.c_str() + space + 1);
    const std::size_t lenpos = response.headers.find("content-length:");
    EXPECT_NE(lenpos, std::string::npos) << "response without Content-Length framing";
    const auto content_length = static_cast<std::size_t>(
        std::atoll(response.headers.c_str() + lenpos + std::strlen("content-length:")));
    while (inbox.size() < head_end + 4 + content_length) {
      const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
      if (n <= 0) return out;
      inbox.append(buf, static_cast<std::size_t>(n));
    }
    response.body = inbox.substr(head_end + 4, content_length);
    inbox.erase(0, head_end + 4 + content_length);
    out.push_back(std::move(response));
  }
  return out;
}

std::vector<ParsedResponse> read_responses(int fd, std::size_t count) {
  std::string inbox;
  return read_responses(fd, count, inbox);
}

/// Reads every response up to EOF, plus the bytes `inbox` already holds.
std::vector<ParsedResponse> read_until_eof(int fd, std::string& inbox) {
  return read_responses(fd, static_cast<std::size_t>(-1), inbox);
}

/// Waits for `future` for a few seconds; false when it never became ready.
bool arrives(const std::future<void>& future) {
  return future.wait_for(std::chrono::seconds(5)) == std::future_status::ready;
}

/// Checks `done` every millisecond for a few seconds; false when it never held.
template <class Predicate>
bool eventually(const Predicate& done) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

/// An echo server: the response body names the method, target and body,
/// so ordering and framing are observable from the client side.
HttpServer::Options echo_options() {
  HttpServer::Options options;
  options.handler = [](const HttpRequest& request) {
    HttpResponse response;
    response.body = request.method + " " + request.target + " [" + request.body + "]";
    return response;
  };
  return options;
}

TEST(HttpServer, KeepAliveServesSequentialRequestsOnOneConnection) {
  HttpServer server(echo_options());
  server.start();
  const int fd = connect_to(server.port());
  ASSERT_GE(fd, 0);

  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(send_all(fd, "GET /ping" + std::to_string(i) + " HTTP/1.1\r\n\r\n"));
    const auto responses = read_responses(fd, 1);
    ASSERT_EQ(responses.size(), 1u) << "connection dropped after request " << i;
    EXPECT_EQ(responses[0].status, 200);
    EXPECT_EQ(responses[0].body, "GET /ping" + std::to_string(i) + " []");
    EXPECT_NE(responses[0].headers.find("connection: keep-alive"), std::string::npos);
  }
  ::close(fd);
  server.stop();
  EXPECT_EQ(server.requests_served(), 3);
}

TEST(HttpServer, PipelinedBurstAnsweredInOrderThroughOneBatchCall) {
  std::atomic<int> batch_calls{0};
  std::atomic<int> batched_requests{0};
  HttpServer::Options options;
  options.batch_handler = [&](std::span<HttpRequest> requests,
                              std::vector<HttpResponse>& responses) {
    ++batch_calls;
    batched_requests += static_cast<int>(requests.size());
    for (const HttpRequest& request : requests) {
      HttpResponse response;
      response.body = "echo " + request.target;
      responses.push_back(std::move(response));
    }
  };
  HttpServer server(std::move(options));
  server.start();
  const int fd = connect_to(server.port());
  ASSERT_GE(fd, 0);

  constexpr int kPipeline = 16;
  std::string wire;
  for (int i = 0; i < kPipeline; ++i)
    wire += "GET /r" + std::to_string(i) + " HTTP/1.1\r\n\r\n";
  ASSERT_TRUE(send_all(fd, wire));

  const auto responses = read_responses(fd, kPipeline);
  ASSERT_EQ(responses.size(), static_cast<std::size_t>(kPipeline));
  for (int i = 0; i < kPipeline; ++i)
    EXPECT_EQ(responses[static_cast<std::size_t>(i)].body, "echo /r" + std::to_string(i));
  ::close(fd);
  server.stop();

  EXPECT_EQ(batched_requests.load(), kPipeline);
  // One send usually arrives as one read burst = one batch call; TCP may
  // split it, but never into one-request batches for all 16.
  EXPECT_LT(batch_calls.load(), kPipeline);
}

TEST(HttpServer, ReleasedPrefixLeavesBeforeTheHandlerReturns) {
  HttpServer* self = nullptr;
  std::promise<void> client_read_first;
  const std::future<void> first_read = client_read_first.get_future();
  std::atomic<bool> left_early{false};
  HttpServer::Options options;
  options.batch_handler = [&](std::span<HttpRequest> requests,
                              std::vector<HttpResponse>& responses) {
    for (const HttpRequest& request : requests) {
      HttpResponse response;
      response.body = "echo " + request.target;
      responses.push_back(std::move(response));
    }
    self->release(1);
    self->release(1);  // no advance: nothing is sent again
    self->release(0);
    if (requests.front().target == "/r0") left_early = arrives(first_read);
    self->release(requests.size() + 7);  // capped at the responses held
  };
  HttpServer server(std::move(options));
  self = &server;
  server.release(1);  // outside any handler call: a no-op
  server.start();
  const int fd = connect_to(server.port());
  ASSERT_GE(fd, 0);

  ASSERT_TRUE(send_all(fd, "GET /r0 HTTP/1.1\r\n\r\nGET /r1 HTTP/1.1\r\n\r\n"
                           "GET /r2 HTTP/1.1\r\nConnection: close\r\n\r\n"));
  std::string inbox;
  const auto first = read_responses(fd, 1, inbox);
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0].body, "echo /r0");
  client_read_first.set_value();

  // The rest, up to the close after /r2: every response exactly once.
  const auto rest = read_until_eof(fd, inbox);
  ASSERT_EQ(rest.size(), 2u);
  EXPECT_EQ(rest[0].body, "echo /r1");
  EXPECT_EQ(rest[1].body, "echo /r2");
  EXPECT_TRUE(inbox.empty()) << "stray bytes after the last response: " << inbox;
  EXPECT_TRUE(left_early.load()) << "response 0 must leave while its handler still runs";
  ::close(fd);
  server.stop();
  server.release(1);  // after stop: a no-op
  EXPECT_EQ(server.requests_served(), 3);
}

TEST(HttpServer, HandlerMiscountReplacesOnlyUnsentResponsesWith500) {
  HttpServer* self = nullptr;
  HttpServer::Options options;
  options.batch_handler = [&](std::span<HttpRequest>, std::vector<HttpResponse>& responses) {
    HttpResponse zero;
    zero.body = "zero";
    responses.push_back(std::move(zero));
    self->release(1);
    responses.emplace_back();  // one response short for three requests
  };
  HttpServer server(std::move(options));
  self = &server;
  server.start();
  const int fd = connect_to(server.port());
  ASSERT_GE(fd, 0);

  ASSERT_TRUE(send_all(fd, "GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n"
                           "GET /c HTTP/1.1\r\nConnection: close\r\n\r\n"));
  std::string inbox;
  const auto responses = read_until_eof(fd, inbox);
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_EQ(responses[0].status, 200);
  EXPECT_EQ(responses[0].body, "zero") << "a response already sent stays sent";
  EXPECT_EQ(responses[1].status, 500);
  EXPECT_EQ(responses[2].status, 500);
  ::close(fd);
  server.stop();
}

TEST(HttpServer, FailedMidCallSendClosesTheConnectionAndSkipsLaterSends) {
  HttpServer* self = nullptr;
  std::promise<void> burst_arrived;
  std::promise<void> client_reset;
  const std::future<void> reset = client_reset.get_future();
  std::atomic<std::int64_t> served_after_release{-1};
  HttpServer::Options options = echo_options();
  options.max_connections = 1;  // a leaked connection would shed the next one
  options.batch_handler = [&](std::span<HttpRequest> requests,
                              std::vector<HttpResponse>& responses) {
    responses.resize(requests.size());
    if (requests.front().target != "/doomed") return;
    burst_arrived.set_value();
    if (!arrives(reset)) return;
    // Loopback delivers the client's RST before close() returns; the
    // pause only keeps the test independent of that.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    self->release(1);  // fails: the peer is gone
    self->release(2);  // skipped
    served_after_release = self->requests_served();
  };
  HttpServer server(std::move(options));
  self = &server;
  server.start();

  const int doomed = connect_to(server.port());
  ASSERT_GE(doomed, 0);
  ASSERT_TRUE(send_all(doomed, "GET /doomed HTTP/1.1\r\n\r\nGET /x HTTP/1.1\r\n\r\n"
                               "GET /y HTTP/1.1\r\n\r\n"));
  ASSERT_TRUE(arrives(burst_arrived.get_future()));
  const linger reset_on_close{1, 0};
  ::setsockopt(doomed, SOL_SOCKET, SO_LINGER, &reset_on_close, sizeof reset_on_close);
  ::close(doomed);
  client_reset.set_value();

  // Served, not shed: the failed connection was closed.
  const int next = connect_to(server.port());
  ASSERT_GE(next, 0);
  ASSERT_TRUE(send_all(next, "GET /next HTTP/1.1\r\n\r\n"));
  const auto responses = read_responses(next, 1);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].status, 200);
  ::close(next);
  server.stop();
  // Only the failed send counted: neither the skipped release nor the
  // end of the call sent anything.
  EXPECT_EQ(served_after_release.load(), 1);
  EXPECT_EQ(server.requests_served(), 2);
}

TEST(HttpServer, PostBodyAssembledFromContentLength) {
  HttpServer server(echo_options());
  server.start();
  const int fd = connect_to(server.port());
  ASSERT_GE(fd, 0);

  const std::string body = "{\"app\":\"speech\",\"seed\":7}";
  const std::string request = "POST /job HTTP/1.1\r\nContent-Length: " +
                              std::to_string(body.size()) + "\r\n\r\n" + body;
  // Split the write mid-body: the server must wait for the full
  // Content-Length before dispatching.
  ASSERT_TRUE(send_all(fd, request.substr(0, request.size() - 5)));
  ASSERT_TRUE(send_all(fd, request.substr(request.size() - 5)));

  const auto responses = read_responses(fd, 1);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].body, "POST /job [" + body + "]");
  ::close(fd);
  server.stop();
}

// RFC 9112 §6.3: differing Content-Length values (or an empty one)
// leave the body's end ambiguous, so they answer 400 and close; a
// repeated identical value frames the body as one would.
TEST(HttpServer, AmbiguousContentLengthAnswers400AndCloses) {
  HttpServer server(echo_options());
  server.start();
  for (const std::string head : {"Content-Length: 3\r\nContent-Length: 4", "Content-Length:",
                                 "Content-Length: \t"}) {
    const int fd = connect_to(server.port());
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(send_all(fd, "POST /job HTTP/1.1\r\n" + head + "\r\n\r\nabcd"));
    const auto responses = read_responses(fd, 1);
    ASSERT_EQ(responses.size(), 1u) << head;
    EXPECT_EQ(responses[0].status, 400) << head << " -> " << responses[0].body;
    char buf[16];
    EXPECT_EQ(::recv(fd, buf, sizeof buf, 0), 0) << head << ": ambiguous framing must close";
    ::close(fd);
  }

  const int fd = connect_to(server.port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(send_all(fd, "POST /job HTTP/1.1\r\nContent-Length: 3\r\ncontent-length: 3"
                           "\r\n\r\nabcGET /after HTTP/1.1\r\n\r\n"));
  const auto responses = read_responses(fd, 2);
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(responses[0].body, "POST /job [abc]");
  EXPECT_EQ(responses[1].body, "GET /after []");
  ::close(fd);
  server.stop();
}

TEST(HttpServer, Http10StaysSingleRequestAndCloses) {
  HttpServer server(echo_options());
  server.start();
  const int fd = connect_to(server.port());
  ASSERT_GE(fd, 0);

  // Even an explicit keep-alive request does not upgrade HTTP/1.0.
  ASSERT_TRUE(send_all(fd, "GET /old HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"));
  const auto responses = read_responses(fd, 1);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].status, 200);
  EXPECT_EQ(responses[0].body, "GET /old []");
  EXPECT_NE(responses[0].headers.find("connection: close"), std::string::npos);

  char buf[16];
  EXPECT_EQ(::recv(fd, buf, sizeof buf, 0), 0) << "HTTP/1.0 connection must close";
  ::close(fd);
  server.stop();
}

TEST(HttpServer, ShedsConnectionsBeyondTheLimitWith503) {
  HttpServer::Options options = echo_options();
  options.max_connections = 1;
  HttpServer server(std::move(options));
  server.start();

  const int first = connect_to(server.port());
  ASSERT_GE(first, 0);
  // A round trip guarantees the poll loop has registered the connection.
  ASSERT_TRUE(send_all(first, "GET /a HTTP/1.1\r\n\r\n"));
  ASSERT_EQ(read_responses(first, 1).size(), 1u);

  const int second = connect_to(server.port());
  ASSERT_GE(second, 0);
  const auto shed = read_responses(second, 1);
  ASSERT_EQ(shed.size(), 1u);
  EXPECT_EQ(shed[0].status, 503);
  char buf[16];
  EXPECT_EQ(::recv(second, buf, sizeof buf, 0), 0) << "shed connection must close";

  // The first connection is unaffected.
  ASSERT_TRUE(send_all(first, "GET /b HTTP/1.1\r\n\r\n"));
  EXPECT_EQ(read_responses(first, 1).size(), 1u);
  ::close(first);
  ::close(second);
  server.stop();
}

/// An echo server whose loop counts its polls into a test-local registry.
struct CountingServer {
  MetricRegistry registry;
  HttpServer server{[this] {
    HttpServer::Options options = echo_options();
    options.metrics = &registry;
    return options;
  }()};

  std::int64_t empty_polls() const { return registry.counter_total("spi_http_empty_polls_total"); }
  std::int64_t blocking_waits() const {
    return registry.counter_total("spi_http_blocking_waits_total");
  }
  Histogram& stage(const char* name) {
    return registry.histogram("spi_http_stage_seconds", {}, {{"stage", name}});
  }
};

TEST(HttpServer, SpinEndsAfterItsWindowAndTheLoopBlocksAgain) {
  CountingServer counting;
  HttpServer& server = counting.server;
  server.start();
  const int fd = connect_to(server.port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(send_all(fd, "GET /a HTTP/1.1\r\n\r\n"));
  ASSERT_EQ(read_responses(fd, 1).size(), 1u);

  // The next blocking poll after the reply comes only once the window
  // has run out.
  const std::int64_t waits = counting.blocking_waits();
  ASSERT_TRUE(eventually([&] { return counting.blocking_waits() > waits; }));
  const std::int64_t spun = counting.empty_polls();
  EXPECT_GT(spun, 0) << "a wake that read a request spins while its connection is open";
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(counting.empty_polls(), spun) << "the spin outlived its window";
  ::close(fd);
  server.stop();
}

TEST(HttpServer, NeverSpinsWithoutAnOpenConnection) {
  CountingServer counting;
  HttpServer& server = counting.server;
  server.start();
  // Before the first request, an idle connection, a closing request.
  std::this_thread::sleep_for(HttpServer::kSpinWindow * 2);
  const int idle = connect_to(server.port());
  ASSERT_GE(idle, 0);
  std::this_thread::sleep_for(HttpServer::kSpinWindow * 2);
  ::close(idle);
  const int fd = connect_to(server.port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(send_all(fd, "GET /a HTTP/1.1\r\nConnection: close\r\n\r\n"));
  std::string inbox;
  ASSERT_EQ(read_until_eof(fd, inbox).size(), 1u);
  ::close(fd);
  std::this_thread::sleep_for(HttpServer::kSpinWindow * 2);
  EXPECT_EQ(counting.empty_polls(), 0);
  EXPECT_GT(counting.blocking_waits(), 0);
  server.stop();
}

TEST(HttpServer, RequestAfterAnIdleIsStampedFromTheKernelsReceiveTime) {
  CountingServer counting;
  HttpServer& server = counting.server;
  server.start();
  const int fd = connect_to(server.port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(send_all(fd, "GET /a HTTP/1.1\r\n\r\n"));
  ASSERT_EQ(read_responses(fd, 1).size(), 1u);

  // Idle until the loop blocks, and a while more.
  const std::int64_t waits = counting.blocking_waits();
  ASSERT_TRUE(eventually([&] { return counting.blocking_waits() > waits; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const std::int64_t wakes = counting.stage("wake").count();
  const double wake_sum = counting.stage("wake").sum();
  ASSERT_TRUE(send_all(fd, "GET /b HTTP/1.1\r\n\r\n"));
  ASSERT_EQ(read_responses(fd, 1).size(), 1u);
  ::close(fd);
  server.stop();

  EXPECT_GT(counting.stage("wake").count(), wakes) << "the read carried no kernel receive stamp";
  EXPECT_GE(counting.stage("wake").sum() - wake_sum, 0.0);
  for (const char* name : {"read", "parse", "handler", "write"})
    EXPECT_GE(counting.stage(name).count(), 2)
        << name << ": one observation per read with a request";
}

TEST(HttpServer, StopReturnsPromptlyWhileTheLoopSpins) {
  CountingServer counting;
  HttpServer& server = counting.server;
  server.start();
  // A client that keeps the loop inside its window until the server
  // closes its connection.
  std::atomic<bool> done{false};
  std::thread client([&] {
    const int fd = connect_to(server.port());
    while (fd >= 0 && !done.load()) {
      if (!send_all(fd, "GET /a HTTP/1.1\r\n\r\n") || read_responses(fd, 1).size() != 1) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (fd >= 0) ::close(fd);
  });
  EXPECT_TRUE(eventually([&] { return counting.empty_polls() > 0; }));
  const auto start = std::chrono::steady_clock::now();
  server.stop();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  done = true;
  client.join();
  EXPECT_LT(elapsed, std::chrono::milliseconds(100));
}

}  // namespace
}  // namespace spi::obs
