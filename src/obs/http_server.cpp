#include "obs/http_server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sched.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstring>
#include <stdexcept>

namespace spi::obs {

namespace {

// Bounds chosen for an embedded control-plane server: a request head
// larger than 8 KiB or a body larger than 8 MiB is a client bug (or an
// attack), not traffic we want to buffer.
constexpr std::size_t kMaxHeadBytes = 8 * 1024;
constexpr std::size_t kMaxBodyBytes = 8 * 1024 * 1024;

// How long a blocking poll sleeps before it re-checks the stop flag.
constexpr int kBlockingPollMs = 200;

const char* reason_phrase(int status) {
  switch (status) {
    case 200: return "OK";
    case 201: return "Created";
    case 202: return "Accepted";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 413: return "Payload Too Large";
    case 429: return "Too Many Requests";
    case 503: return "Service Unavailable";
    default: return "Internal Server Error";
  }
}

bool send_all(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

bool iequals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i])))
      return false;
  return true;
}

std::string_view trimmed(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) s.remove_prefix(1);
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' || s.back() == '\r'))
    s.remove_suffix(1);
  return s;
}

enum class ParseResult { kRequest, kNeedMore, kBad };

/// Parses one request off data[offset, size), advancing `offset` past
/// what it consumed. kNeedMore = the head or the declared body is
/// incomplete.
ParseResult parse_request(std::string_view data, std::size_t& offset, HttpRequest& out) {
  const std::string_view inbox = data.substr(offset);
  const std::size_t head_end = inbox.find("\r\n\r\n");
  if (head_end == std::string::npos)
    return inbox.size() > kMaxHeadBytes ? ParseResult::kBad : ParseResult::kNeedMore;
  if (head_end > kMaxHeadBytes) return ParseResult::kBad;

  const std::string_view head(inbox.data(), head_end);
  const std::size_t line_end = head.find("\r\n");
  const std::string_view request_line = head.substr(0, line_end);
  const std::size_t m_end = request_line.find(' ');
  const std::size_t t_end =
      m_end == std::string_view::npos ? std::string_view::npos : request_line.find(' ', m_end + 1);
  if (t_end == std::string_view::npos) return ParseResult::kBad;
  out.method = std::string(request_line.substr(0, m_end));
  out.target = std::string(request_line.substr(m_end + 1, t_end - m_end - 1));
  out.version = std::string(trimmed(request_line.substr(t_end + 1)));
  if (out.method.empty() || out.target.empty() ||
      (out.version != "HTTP/1.0" && out.version != "HTTP/1.1"))
    return ParseResult::kBad;

  // Headers we act on: Content-Length frames the body, Connection
  // overrides the version's keep-alive default.
  std::size_t content_length = 0;
  bool have_length = false;
  bool have_connection = false;
  std::string_view connection;
  std::size_t pos = line_end == std::string_view::npos ? head.size() : line_end + 2;
  while (pos < head.size()) {
    std::size_t eol = head.find("\r\n", pos);
    if (eol == std::string_view::npos) eol = head.size();
    const std::string_view line = head.substr(pos, eol - pos);
    pos = eol + 2;
    const std::size_t colon = line.find(':');
    if (colon == std::string_view::npos) continue;
    const std::string_view name = trimmed(line.substr(0, colon));
    const std::string_view value = trimmed(line.substr(colon + 1));
    if (iequals(name, "content-length")) {
      // Ambiguous framing is a 400 (RFC 9112 §6.3): an empty value, or a
      // repeated header whose value differs. Identical repeats agree.
      if (value.empty()) return ParseResult::kBad;
      std::size_t length = 0;
      for (const char c : value) {
        if (c < '0' || c > '9') return ParseResult::kBad;
        length = length * 10 + static_cast<std::size_t>(c - '0');
        if (length > kMaxBodyBytes) return ParseResult::kBad;
      }
      if (have_length && length != content_length) return ParseResult::kBad;
      have_length = true;
      content_length = length;
    } else if (iequals(name, "connection")) {
      have_connection = true;
      connection = value;
    } else if (iequals(name, "transfer-encoding")) {
      // Chunked bodies are out of scope for this embedded server.
      return ParseResult::kBad;
    }
  }

  const std::size_t total = head_end + 4 + content_length;
  if (inbox.size() < total) return ParseResult::kNeedMore;
  out.body = std::string(inbox.substr(head_end + 4, content_length));

  // Keep-alive: the HTTP/1.1 default, opt-out via "Connection: close".
  // HTTP/1.0 stays single-request even if the client asks — old clients
  // of the telemetry server read to EOF, and that contract is kept.
  out.keep_alive = out.version == "HTTP/1.1" &&
                   !(have_connection && iequals(connection, "close"));
  offset += total;
  return ParseResult::kRequest;
}

void serialize_response(std::string& out, const HttpRequest& request,
                        const HttpResponse& response) {
  // The response echoes the request's protocol flavor so an HTTP/1.0
  // client never sees a version it may not understand.
  out += request.version;
  out += ' ';
  out += std::to_string(response.status);
  out += ' ';
  out += reason_phrase(response.status);
  out += "\r\nContent-Type: ";
  out += response.content_type;
  out += "\r\nContent-Length: ";
  out += std::to_string(response.body.size());
  out += request.keep_alive ? "\r\nConnection: keep-alive\r\n\r\n"
                            : "\r\nConnection: close\r\n\r\n";
  out += response.body;
}

}  // namespace

HttpServer::HttpServer(Options options) : options_(std::move(options)) {
  MetricRegistry* registry = options_.metrics;
  if (registry == nullptr) {
    owned_metrics_ = std::make_unique<MetricRegistry>();
    registry = owned_metrics_.get();
  }
  series_.empty_polls = &registry->counter("spi_http_empty_polls_total", {},
                                           "serve-loop polls of the spin that found no event");
  series_.blocking_waits = &registry->counter("spi_http_blocking_waits_total", {},
                                              "serve-loop polls that blocked");
  const auto stage = [registry](const char* name, const char* help) {
    return &registry->histogram("spi_http_stage_seconds",
                                Histogram::exponential_bounds(1e-6, 2.0, 21), {{"stage", name}},
                                help);
  };
  series_.wake = stage("wake", "per read: kernel receive stamp to the read's start");
  series_.read = stage("read", "per read: the recvmsg call");
  series_.parse = stage("parse", "per read that completed a request: framing its requests");
  series_.handler = stage("handler", "per read that completed a request: the handler, less sends");
  series_.write = stage("write", "per read that completed a request: serializing and sending");
}

HttpServer::~HttpServer() { stop(); }

void HttpServer::start() {
  if (listen_fd_ >= 0) return;

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("HttpServer: socket() failed");

  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw std::runtime_error("HttpServer: invalid bind address '" + options_.bind_address + "'");
  }
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    const int err = errno;
    ::close(fd);
    throw std::runtime_error("HttpServer: cannot bind " + options_.bind_address + ":" +
                             std::to_string(options_.port) + " (" + std::strerror(err) + ")");
  }
  // Non-blocking listener: the event loop drains the whole accept
  // backlog per poll tick without risking a block on the last accept.
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  if (::listen(fd, 64) != 0) {
    const int err = errno;
    ::close(fd);
    throw std::runtime_error(std::string("HttpServer: listen() failed (") + std::strerror(err) +
                             ")");
  }

  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0)
    port_ = static_cast<int>(ntohs(bound.sin_port));

  listen_fd_ = fd;
  stop_.store(false, std::memory_order_relaxed);
  thread_ = std::thread([this] { serve(); });
}

void HttpServer::stop() {
  if (listen_fd_ < 0) return;
  stop_.store(true, std::memory_order_relaxed);
  // Kick the event loop out of poll() by retiring the listener.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (thread_.joinable()) thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  port_ = 0;
}

bool HttpServer::process_input(Connection& conn, std::string_view data, std::size_t& offset) {
  // Drain every complete pipelined request out of the read and dispatch
  // them as one batch. The burst size is the client's pipeline depth —
  // this is where the per-request cost amortizes.
  const std::int64_t parse_start = monotonic_ns();
  std::vector<HttpRequest> requests;
  bool bad = false;
  for (;;) {
    HttpRequest request;
    const ParseResult result = parse_request(data, offset, request);
    if (result == ParseResult::kNeedMore) break;
    if (result == ParseResult::kBad) {
      bad = true;
      break;
    }
    const bool keep = request.keep_alive;
    requests.push_back(std::move(request));
    if (!keep) break;  // anything pipelined after "close" is ignored
  }

  if (requests.empty() && !bad) return true;  // the request is still arriving

  const std::int64_t handler_start = monotonic_ns();
  series_.parse->observe(static_cast<double>(handler_start - parse_start) * 1e-9);
  std::vector<HttpResponse> responses;
  call_ = {&conn, requests, &responses};
  if (!requests.empty()) {
    responses.reserve(requests.size());
    if (options_.batch_handler) {
      options_.batch_handler({requests.data(), requests.size()}, responses);
      if (responses.size() != requests.size()) {
        // A miscount voids every response that has not left yet.
        responses.resize(requests.size());
        std::fill(responses.begin() + static_cast<std::ptrdiff_t>(call_.sent), responses.end(),
                  HttpResponse{500, "application/json",
                               "{\"error\": \"batch handler miscount\"}\n"});
      }
    } else if (options_.handler) {
      for (const HttpRequest& request : requests) responses.push_back(options_.handler(request));
    } else {
      responses.assign(requests.size(),
                       {503, "application/json", "{\"error\": \"no handler installed\"}\n"});
    }
  }

  // The handler's own time excludes the sends of its releases: those
  // count as write, so the five stages of a read never overlap.
  const std::int64_t handler_ns = monotonic_ns() - handler_start - call_.write_ns;
  const bool sent = send_through(requests.size(), bad);
  series_.handler->observe(static_cast<double>(handler_ns) * 1e-9);
  series_.write->observe(static_cast<double>(call_.write_ns) * 1e-9);
  call_ = {};
  if (!sent || bad) return false;
  return requests.empty() || requests.back().keep_alive;
}

void HttpServer::release(std::size_t n) {
  if (call_.responses == nullptr) return;  // outside a handler call
  n = std::min({n, call_.requests.size(), call_.responses->size()});
  if (n > call_.sent) send_through(n, false);
}

bool HttpServer::send_through(std::size_t n, bool bad) {
  if (call_.failed) return false;
  const std::int64_t start = monotonic_ns();
  wire_.clear();
  for (std::size_t i = call_.sent; i < n; ++i)
    serialize_response(wire_, call_.requests[i], (*call_.responses)[i]);
  if (bad) {
    static const HttpRequest kBadRequest{"GET", "/", "HTTP/1.0", "", false};
    serialize_response(wire_, kBadRequest,
                       {400, "application/json", "{\"error\": \"malformed request\"}\n"});
  }
  // Counted before the reply leaves: a client that has read a full
  // response can rely on requests_served() already covering it.
  requests_.fetch_add(static_cast<std::int64_t>(n - call_.sent) + (bad ? 1 : 0),
                      std::memory_order_relaxed);
  call_.sent = n;
  if (!wire_.empty() && !send_all(call_.conn->fd, wire_)) call_.failed = true;
  call_.write_ns += monotonic_ns() - start;
  return !call_.failed;
}

void HttpServer::serve() {
  std::vector<Connection> connections;
  // pfds[0] watches the listener and pfds[i + 1] connections[i]. The two
  // change together, only when the connection set does.
  std::vector<pollfd> pfds{{listen_fd_, POLLIN, 0}};
  char buf[64 * 1024];
  alignas(cmsghdr) char control[CMSG_SPACE(sizeof(timespec))];
  constexpr std::int64_t kSpinWindowNs =
      std::chrono::duration_cast<std::chrono::nanoseconds>(kSpinWindow).count();
  bool spinning = false;
  std::int64_t spin_until_ns = 0;

  const auto close_connection = [&](std::size_t index) {
    ::close(connections[index].fd);
    connections.erase(connections.begin() + static_cast<std::ptrdiff_t>(index));
    pfds.erase(pfds.begin() + static_cast<std::ptrdiff_t>(index) + 1);
  };

  while (!stop_.load(std::memory_order_relaxed)) {
    if (!spinning) series_.blocking_waits->inc();
    const int ready =
        ::poll(pfds.data(), static_cast<nfds_t>(pfds.size()), spinning ? 0 : kBlockingPollMs);
    if (stop_.load(std::memory_order_relaxed)) break;
    if (ready == 0 && spinning) {
      // The yield lets a thread waiting for this CPU (a client woken by
      // the last reply, a gang worker) run at once instead of at the end
      // of a time slice.
      series_.empty_polls->inc();
      if (monotonic_ns() >= spin_until_ns) {
        spinning = false;
      } else {
        ::sched_yield();
      }
      continue;
    }
    if (ready <= 0) continue;

    if (pfds[0].revents != 0) {
      // Accept the whole backlog: at high connection-churn rates one
      // accept per poll tick would itself become the bottleneck.
      for (;;) {
        const int conn = ::accept(listen_fd_, nullptr, nullptr);
        if (conn < 0) break;
        if (connections.size() >= options_.max_connections) {
          static const HttpRequest kShed{"GET", "/", "HTTP/1.0", "", false};
          std::string wire;
          serialize_response(wire, kShed,
                             {503, "application/json", "{\"error\": \"connection limit reached\"}\n"});
          send_all(conn, wire);
          ::close(conn);
          continue;
        }
        timeval timeout{};
        timeout.tv_sec = 2;
        ::setsockopt(conn, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof timeout);
        const int one = 1;
        ::setsockopt(conn, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
        ::setsockopt(conn, SOL_SOCKET, SO_TIMESTAMPNS, &one, sizeof one);
        connections.push_back({conn, {}});
        pfds.push_back({conn, POLLIN, 0});
      }
    }

    // Walk backwards so closing a connection does not disturb the
    // pfds<->connections correspondence of entries not yet visited.
    // Entries accepted above have no revents yet.
    bool read_requests = false;
    for (std::size_t i = pfds.size(); i-- > 1;) {
      if (pfds[i].revents == 0) continue;
      const std::size_t ci = i - 1;
      Connection& conn = connections[ci];
      iovec iov{buf, sizeof buf};
      msghdr msg{};
      msg.msg_iov = &iov;
      msg.msg_iovlen = 1;
      msg.msg_control = control;
      msg.msg_controllen = sizeof control;
      timespec now{};
      ::clock_gettime(CLOCK_REALTIME, &now);
      const std::int64_t read_start = monotonic_ns();
      const ssize_t n = ::recvmsg(conn.fd, &msg, 0);
      const std::int64_t read_end = monotonic_ns();
      if (n <= 0) {
        if (n < 0 && (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)) continue;
        close_connection(ci);
        continue;
      }
      read_requests = true;
      series_.read->observe(static_cast<double>(read_end - read_start) * 1e-9);
      for (cmsghdr* c = CMSG_FIRSTHDR(&msg); c != nullptr; c = CMSG_NXTHDR(&msg, c)) {
        if (c->cmsg_level != SOL_SOCKET || c->cmsg_type != SCM_TIMESTAMPNS) continue;
        timespec stamp{};
        std::memcpy(&stamp, CMSG_DATA(c), sizeof stamp);
        const std::int64_t wake_ns = (now.tv_sec - stamp.tv_sec) * 1'000'000'000LL +
                                     (now.tv_nsec - stamp.tv_nsec);
        series_.wake->observe(static_cast<double>(std::max<std::int64_t>(wake_ns, 0)) * 1e-9);
      }

      // Parse in place from the receive buffer when nothing is left
      // over from the last read, and compact the leftover once per read.
      std::string_view data(buf, static_cast<std::size_t>(n));
      const bool carried = !conn.inbox.empty();
      if (carried) {
        conn.inbox.append(data);
        data = conn.inbox;
      }
      std::size_t consumed = 0;
      if (!process_input(conn, data, consumed)) {
        close_connection(ci);
        continue;
      }
      if (carried) {
        conn.inbox.erase(0, consumed);
      } else {
        conn.inbox.assign(data.substr(consumed));
      }
    }

    // Spin only after a wake that read request bytes, and only while a
    // connection is open to send more.
    if (read_requests) {
      spinning = true;
      spin_until_ns = monotonic_ns() + kSpinWindowNs;
    }
    if (connections.empty()) spinning = false;
  }

  for (const Connection& conn : connections) ::close(conn.fd);
  connections.clear();
}

}  // namespace spi::obs
