/// \file net.hpp
/// Process, socket and text plumbing for the harness: the steady clock,
/// CPU pinning, loopback HTTP (a blocking GET and an incremental reader
/// of pipelined responses), flat-text number scanning, and the child
/// process that runs spi_served.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Nanoseconds on the steady clock (the clock every span uses).
[[nodiscard]] std::int64_t now_ns();

/// CPUs this process may run on, ascending.
[[nodiscard]] std::vector<int> allowed_cpus();
/// Restricts the calling thread (and threads it creates later) to
/// `cpus`; no-op for an empty list.
void pin_thread(const std::vector<int>& cpus);

/// Blocking TCP connect to 127.0.0.1:port with TCP_NODELAY; -1 on failure.
[[nodiscard]] int connect_loopback(int port);

struct HttpReply {
  int status = 0;
  std::string body;
};
/// One HTTP/1.0 GET (the server closes after answering).
[[nodiscard]] std::optional<HttpReply> http_get(int port, const std::string& path,
                                                int timeout_ms = 2000);

/// Splits a byte stream of pipelined HTTP/1.1 responses.
class ResponseReader {
 public:
  void append(const char* data, std::size_t size);
  /// Pops the next complete response; false when none is complete.
  /// `body` stays valid until the next append().
  bool next(int& status, std::string_view& body);
  /// True when the stream holds bytes no header could be parsed from.
  [[nodiscard]] bool malformed() const { return malformed_; }

 private:
  std::string buf_;
  std::size_t pos_ = 0;
  bool malformed_ = false;
};

/// The number following `"key":` (whitespace allowed) at or after `from`.
[[nodiscard]] std::optional<double> find_number(std::string_view text, std::string_view key,
                                                std::size_t from = 0);
/// Sum of every sample of one counter in a Prometheus text exposition.
[[nodiscard]] double prometheus_sum(std::string_view text, std::string_view metric);

/// spi_served as a child process: spawned pinned to `cpus`, ready once
/// /healthz answers 200; SIGTERM and reaped on destruction (and killed
/// if the harness dies first).
class ServerProcess {
 public:
  ServerProcess(const std::string& exe, const std::vector<std::string>& args,
                const std::vector<int>& cpus, const std::string& workdir);
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  [[nodiscard]] int port() const { return port_; }
  /// Seconds from fork to the first 200 on /healthz.
  [[nodiscard]] double ready_seconds() const { return ready_seconds_; }

 private:
  void stop();

  pid_t pid_ = -1;
  int stderr_fd_ = -1;
  int port_ = 0;
  double ready_seconds_ = 0.0;
};

}  // namespace perfbench
