/// \file openloop.hpp
/// The open-loop driver: one thread, non-blocking sockets over a few
/// keep-alive connections. Bursts leave on a fixed schedule whatever is
/// still outstanding, and every request is timed from the moment it was
/// due, so a server stall shows in every request it delays (no
/// coordinated omission). How late the driver itself ran is recorded per
/// burst.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "net.hpp"

namespace perfbench {

/// One POST /job body of a workload's request pool.
struct Request {
  std::string body;
  bool particle = false;
  std::int64_t steps = 0;  ///< particle trajectory length
  int tenant = 0;
};

enum class Outcome { kOk, kRefused, kFailed, kWrong };
/// Judges one response to pool entry `index`.
using Checker = std::function<Outcome(std::size_t index, int status, std::string_view body)>;

/// A client burst as the traced run needs it.
struct ClientBurst {
  std::int64_t id = 0;
  std::int64_t due_ns = 0;
  std::int64_t sent_ns = 0;
  std::int64_t last_reply_ns = 0;
  int requests = 0;
  int answered = 0;
};

struct PhaseResult {
  double rate = 0.0;
  double seconds = 0.0;
  std::int64_t attempted = 0;
  std::int64_t ok = 0;
  std::int64_t refused = 0;  ///< 429
  std::int64_t failed = 0;   ///< other statuses and unanswered requests
  std::int64_t wrong = 0;    ///< 200 with an output that fails its check
  std::vector<double> latency_us;   ///< per timed request; not ok = kInf
  std::vector<double> lateness_us;  ///< per burst: issue time - due time
  std::vector<double> backlog;      ///< outstanding requests every 5 ms of the timed window
  std::vector<ClientBurst> bursts;  ///< filled when recording
};

class OpenLoop {
 public:
  OpenLoop(int port, int connections, const std::vector<Request>& pool, Checker check);
  ~OpenLoop();
  OpenLoop(const OpenLoop&) = delete;
  OpenLoop& operator=(const OpenLoop&) = delete;

  /// Offers `rate` requests/s in bursts of `burst` for `settle_seconds`
  /// plus `seconds`, then drains. Only requests due in the last `seconds`
  /// are timed and only then is the backlog sampled, so the server has
  /// settled into the rate first; every request is counted and checked.
  /// Requests walk the pool in order, continuing across phases.
  PhaseResult run(double rate, int burst, double seconds, double settle_seconds = 0.0,
                  bool record_bursts = false);

 private:
  struct Pending {
    std::int64_t due_ns;
    std::size_t index;
    std::size_t burst_slot;
    bool timed;
  };
  struct Connection {
    int fd = -1;
    std::string out;
    std::size_t out_pos = 0;
    ResponseReader reader;
    std::deque<Pending> pending;
  };

  void connect_all();
  void close_connection(Connection& c, PhaseResult& r, std::int64_t& outstanding);
  bool flush(Connection& c);

  int port_;
  std::vector<Connection> conns_;
  const std::vector<Request>& pool_;
  Checker check_;
  std::int64_t next_request_ = 0;
  std::int64_t next_burst_id_ = 0;
};

}  // namespace perfbench
