#include "openloop.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <stdexcept>

#include "stats.hpp"

namespace perfbench {

namespace {

constexpr std::int64_t kMs = 1'000'000;
constexpr std::int64_t kBacklogSampleNs = 5 * kMs;

}  // namespace

OpenLoop::OpenLoop(int port, int connections, const std::vector<Request>& pool, Checker check)
    : port_(port),
      conns_(static_cast<std::size_t>(connections)),
      pool_(pool),
      check_(std::move(check)) {
  if (pool_.empty()) throw std::invalid_argument("OpenLoop: empty request pool");
}

OpenLoop::~OpenLoop() {
  for (Connection& c : conns_)
    if (c.fd >= 0) ::close(c.fd);
}

void OpenLoop::connect_all() {
  for (Connection& c : conns_) {
    if (c.fd >= 0) continue;
    c = Connection{};
    c.fd = connect_loopback(port_);
    if (c.fd < 0)
      throw std::runtime_error("OpenLoop: cannot connect to port " + std::to_string(port_));
    ::fcntl(c.fd, F_SETFL, ::fcntl(c.fd, F_GETFL, 0) | O_NONBLOCK);
  }
}

void OpenLoop::close_connection(Connection& c, PhaseResult& r, std::int64_t& outstanding) {
  r.failed += static_cast<std::int64_t>(c.pending.size());
  for (const Pending& p : c.pending)
    if (p.timed) r.latency_us.push_back(kInf);
  outstanding -= static_cast<std::int64_t>(c.pending.size());
  c.pending.clear();
  c.out.clear();
  c.out_pos = 0;
  ::close(c.fd);
  c.fd = -1;
}

bool OpenLoop::flush(Connection& c) {
  while (c.out_pos < c.out.size()) {
    const ssize_t n = ::send(c.fd, c.out.data() + c.out_pos, c.out.size() - c.out_pos,
                             MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      c.out_pos += static_cast<std::size_t>(n);
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
      return true;
    } else {
      return false;
    }
  }
  c.out.clear();
  c.out_pos = 0;
  return true;
}

PhaseResult OpenLoop::run(double rate, int burst, double seconds, double settle_seconds,
                          bool record_bursts) {
  connect_all();
  PhaseResult r;
  r.rate = rate;
  r.seconds = seconds;
  const double interval_ns = static_cast<double>(burst) / rate * 1e9;
  const std::int64_t start = now_ns() + 2 * kMs;
  const std::int64_t timed_from = start + static_cast<std::int64_t>(settle_seconds * 1e9);
  const auto window = static_cast<std::int64_t>(seconds * 1e9);
  const std::int64_t stop = timed_from + window;
  // Generous: an overloaded step must still drain so the next starts clean.
  const std::int64_t drain_deadline = stop + std::max<std::int64_t>(5'000 * kMs, 2 * window);
  std::int64_t issued = 0;
  std::int64_t next_due = start;
  std::int64_t next_sample = timed_from;
  std::int64_t outstanding = 0;
  std::vector<pollfd> pfds(conns_.size());
  std::vector<char> buf(64 * 1024);

  for (;;) {
    std::int64_t now = now_ns();
    while (next_due < stop && next_due <= now) {
      Connection& c = conns_[static_cast<std::size_t>(issued) % conns_.size()];
      const std::int64_t burst_id = next_burst_id_++;
      const std::size_t slot = r.bursts.size();
      const bool timed = next_due >= timed_from;
      if (c.fd >= 0) {
        for (int j = 0; j < burst; ++j) {
          const auto index = static_cast<std::size_t>(next_request_++) % pool_.size();
          const std::string& body = pool_[index].body;
          c.out += "POST /job?b=" + std::to_string(burst_id) +
                   " HTTP/1.1\r\nContent-Length: " + std::to_string(body.size()) + "\r\n\r\n";
          c.out += body;
          c.pending.push_back({next_due, index, slot, timed});
        }
        outstanding += burst;
      } else {
        r.failed += burst;
        if (timed) r.latency_us.insert(r.latency_us.end(), static_cast<std::size_t>(burst), kInf);
      }
      r.attempted += burst;
      r.lateness_us.push_back(static_cast<double>(now - next_due) * 1e-3);
      if (record_bursts) r.bursts.push_back({burst_id, next_due, now, 0, burst, 0});
      ++issued;
      next_due = start + static_cast<std::int64_t>(static_cast<double>(issued) * interval_ns);
    }
    for (Connection& c : conns_)
      if (c.fd >= 0 && !c.out.empty() && !flush(c)) close_connection(c, r, outstanding);

    while (now >= next_sample && next_sample < stop) {
      r.backlog.push_back(static_cast<double>(outstanding));
      next_sample += kBacklogSampleNs;
    }
    if (now >= stop && outstanding == 0) break;
    if (now >= drain_deadline) {
      for (Connection& c : conns_)
        if (c.fd >= 0 && !c.pending.empty()) close_connection(c, r, outstanding);
      break;
    }

    // Busy-poll on the driver's own CPU: waking an idle virtual CPU from
    // a timed sleep costs milliseconds on some hosts, which would show
    // as generator lateness and inflate every latency.
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      const Connection& c = conns_[i];
      pfds[i] = {c.fd, static_cast<short>(POLLIN | (c.out.empty() ? 0 : POLLOUT)), 0};
    }
    if (::poll(pfds.data(), pfds.size(), 0) <= 0) continue;
    now = now_ns();

    for (std::size_t i = 0; i < conns_.size(); ++i) {
      Connection& c = conns_[i];
      if (c.fd < 0 || (pfds[i].revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
      // One read per wake-up: a saturated server streams replies as fast
      // as they are read, and draining to EAGAIN would starve the send
      // schedule.
      const ssize_t n = ::recv(c.fd, buf.data(), buf.size(), MSG_DONTWAIT);
      if (n <= 0) {
        if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR))
          close_connection(c, r, outstanding);
        continue;
      }
      c.reader.append(buf.data(), static_cast<std::size_t>(n));
      int status = 0;
      std::string_view body;
      while (!c.pending.empty() && c.reader.next(status, body)) {
        const Pending p = c.pending.front();
        c.pending.pop_front();
        --outstanding;
        const Outcome outcome = check_(p.index, status, body);
        if (outcome == Outcome::kOk) {
          ++r.ok;
          if (p.timed) r.latency_us.push_back(static_cast<double>(now - p.due_ns) * 1e-3);
        } else {
          if (p.timed) r.latency_us.push_back(kInf);
          if (outcome == Outcome::kRefused) {
            ++r.refused;
          } else if (outcome == Outcome::kWrong) {
            ++r.wrong;
          } else {
            ++r.failed;
          }
        }
        if (record_bursts) {
          ClientBurst& b = r.bursts[p.burst_slot];
          b.last_reply_ns = now;
          ++b.answered;
        }
      }
      if (c.reader.malformed()) close_connection(c, r, outstanding);
    }
  }
  return r;
}

}  // namespace perfbench
