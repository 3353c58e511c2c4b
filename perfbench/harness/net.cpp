#include "net.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <thread>

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::vector<int> allowed_cpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof set, &set) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  return cpus;
}

void pin_thread(const std::vector<int>& cpus) {
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus) CPU_SET(cpu, &set);
  if (::sched_setaffinity(0, sizeof set, &set) != 0)
    throw std::runtime_error(std::string("sched_setaffinity: ") + std::strerror(errno));
}

int connect_loopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

std::optional<HttpReply> http_get(int port, const std::string& path, int timeout_ms) {
  const int fd = connect_loopback(port);
  if (fd < 0) return std::nullopt;
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
  const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
  if (::send(fd, request.data(), request.size(), MSG_NOSIGNAL) !=
      static_cast<ssize_t>(request.size())) {
    ::close(fd);
    return std::nullopt;
  }
  std::string raw;
  char buf[16384];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n > 0) {
      raw.append(buf, static_cast<std::size_t>(n));
    } else if (n == 0) {
      break;
    } else if (errno != EINTR) {
      ::close(fd);
      return std::nullopt;
    }
  }
  ::close(fd);
  const std::size_t space = raw.find(' ');
  const std::size_t head_end = raw.find("\r\n\r\n");
  if (space == std::string::npos || head_end == std::string::npos) return std::nullopt;
  HttpReply reply;
  reply.status = std::atoi(raw.c_str() + space + 1);
  reply.body = raw.substr(head_end + 4);
  return reply;
}

void ResponseReader::append(const char* data, std::size_t size) {
  // Compact only here: views handed out by next() die at the next append.
  if (pos_ == buf_.size()) {
    buf_.clear();
    pos_ = 0;
  } else if (pos_ > (1u << 16)) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  buf_.append(data, size);
}

bool ResponseReader::next(int& status, std::string_view& body) {
  const std::size_t head_end = buf_.find("\r\n\r\n", pos_);
  if (head_end == std::string::npos) return false;
  const std::string_view head(buf_.data() + pos_, head_end - pos_);
  const std::size_t space = head.find(' ');
  const std::size_t length_at = head.find("Content-Length:");
  if (space == std::string_view::npos || length_at == std::string_view::npos) {
    malformed_ = true;
    return false;
  }
  status = std::atoi(head.data() + space + 1);
  const auto length =
      static_cast<std::size_t>(std::strtoull(head.data() + length_at + 15, nullptr, 10));
  const std::size_t body_at = head_end + 4;
  if (buf_.size() < body_at + length) return false;
  body = std::string_view(buf_.data() + body_at, length);
  pos_ = body_at + length;
  return true;
}

std::optional<double> find_number(std::string_view text, std::string_view key, std::size_t from) {
  const std::string needle = "\"" + std::string(key) + "\"";
  std::size_t p = text.find(needle, from);
  if (p == std::string_view::npos) return std::nullopt;
  p += needle.size();
  while (p < text.size() && (text[p] == ' ' || text[p] == ':')) ++p;
  // strtod needs a terminator the view may lack: copy the token.
  std::size_t end = p;
  while (end < text.size() && std::strchr("+-.0123456789eEinfaINFA", text[end]) != nullptr) ++end;
  const std::string token(text.substr(p, end - p));
  char* parsed = nullptr;
  const double value = std::strtod(token.c_str(), &parsed);
  if (parsed == token.c_str()) return std::nullopt;
  return value;
}

double prometheus_sum(std::string_view text, std::string_view metric) {
  double sum = 0.0;
  std::size_t line_start = 0;
  while (line_start < text.size()) {
    std::size_t line_end = text.find('\n', line_start);
    if (line_end == std::string_view::npos) line_end = text.size();
    const std::string_view line = text.substr(line_start, line_end - line_start);
    line_start = line_end + 1;
    if (line.size() <= metric.size() || line.substr(0, metric.size()) != metric) continue;
    const char next = line[metric.size()];
    if (next != '{' && next != ' ') continue;
    sum += std::strtod(std::string(line.substr(line.rfind(' ') + 1)).c_str(), nullptr);
  }
  return sum;
}

ServerProcess::ServerProcess(const std::string& exe, const std::vector<std::string>& args,
                             const std::vector<int>& cpus, const std::string& workdir) {
  std::vector<std::string> argv_storage{exe};
  argv_storage.insert(argv_storage.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& arg : argv_storage) argv.push_back(arg.data());
  argv.push_back(nullptr);
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus) CPU_SET(cpu, &set);

  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_CLOEXEC) != 0) throw std::runtime_error("pipe2 failed");
  const std::int64_t t0 = now_ns();
  pid_ = ::fork();
  if (pid_ < 0) throw std::runtime_error("fork failed");
  if (pid_ == 0) {
    // Child: async-signal-safe calls only until exec.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (!cpus.empty()) ::sched_setaffinity(0, sizeof set, &set);
    ::dup2(pipe_fds[1], STDERR_FILENO);
    if (::chdir(workdir.c_str()) != 0) ::_exit(126);
    ::execv(exe.c_str(), argv.data());
    ::_exit(127);
  }
  ::close(pipe_fds[1]);
  stderr_fd_ = pipe_fds[0];

  // The daemon announces "listening on 127.0.0.1:PORT" on stderr.
  std::string announced;
  const std::int64_t deadline = t0 + 30'000'000'000LL;
  const std::string marker = "listening on 127.0.0.1:";
  while (port_ == 0) {
    if (now_ns() > deadline) {
      stop();
      throw std::runtime_error("spi_served did not announce its port: " + announced);
    }
    pollfd pfd{stderr_fd_, POLLIN, 0};
    if (::poll(&pfd, 1, 100) <= 0) continue;
    char buf[512];
    const ssize_t n = ::read(stderr_fd_, buf, sizeof buf);
    if (n <= 0) {
      stop();
      throw std::runtime_error("spi_served exited before listening: " + announced);
    }
    announced.append(buf, static_cast<std::size_t>(n));
    const std::size_t at = announced.find(marker);
    if (at != std::string::npos && announced.find('\n', at) != std::string::npos)
      port_ = std::atoi(announced.c_str() + at + marker.size());
  }
  for (;;) {
    const auto reply = http_get(port_, "/healthz", 1000);
    if (reply && reply->status == 200) break;
    if (now_ns() > deadline) {
      stop();
      throw std::runtime_error("spi_served never answered /healthz");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  ready_seconds_ = static_cast<double>(now_ns() - t0) * 1e-9;
}

ServerProcess::~ServerProcess() { stop(); }

void ServerProcess::stop() {
  if (pid_ > 0) {
    ::kill(pid_, SIGTERM);
    int status = 0;
    const std::int64_t deadline = now_ns() + 5'000'000'000LL;
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (now_ns() > deadline) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    pid_ = -1;
  }
  if (stderr_fd_ >= 0) {
    ::close(stderr_fd_);
    stderr_fd_ = -1;
  }
}

}  // namespace perfbench
