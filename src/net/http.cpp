#include "ccg/net/http.hpp"

#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "ccg/obs/log.hpp"
#include "ccg/obs/metrics.hpp"

namespace ccg::net {

namespace {

constexpr int kPollTickMs = 100;       // request-timeout cadence
constexpr int kRequestTimeoutMs = 2000;
constexpr std::size_t kMaxRequestBytes = 8192;

obs::Counter& ops_counter(const char* name) {
  return obs::Registry::global().counter(name);
}

/// Reads until the header terminator, a timeout, or the size cap.
/// Returns false when no complete request line arrived.
bool read_request(int fd, std::string& request) {
  char buf[1024];
  int waited_ms = 0;
  while (request.find("\r\n\r\n") == std::string::npos &&
         request.find('\n') == std::string::npos) {
    pollfd pfd{fd, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, kPollTickMs);
    if (rc < 0 && errno != EINTR) return false;
    if (rc <= 0) {
      waited_ms += kPollTickMs;
      if (waited_ms >= kRequestTimeoutMs) return false;
      continue;
    }
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) return false;
    request.append(buf, static_cast<std::size_t>(n));
    if (request.size() > kMaxRequestBytes) return false;
  }
  return true;
}

void write_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return;
    }
    off += static_cast<std::size_t>(n);
  }
}

std::string response(int status, const char* reason,
                     const std::string& content_type,
                     const std::string& body) {
  std::string out = "HTTP/1.1 " + std::to_string(status) + " " + reason +
                    "\r\nContent-Type: " + content_type +
                    "\r\nContent-Length: " + std::to_string(body.size()) +
                    "\r\nConnection: close\r\n\r\n";
  out += body;
  return out;
}

}  // namespace

bool OpsServer::start(std::uint16_t port, OpsHandlers handlers) {
  stop();
  auto listener = Listener::bind_loopback(port);
  if (!listener) return false;
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd_ < 0) return false;
  listener_ = std::move(*listener);
  port_ = listener_.port();
  handlers_ = std::move(handlers);
  shutdown_.store(false, std::memory_order_release);
  ready_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { serve_loop(); });
  obs::log_info("ops endpoint listening",
                {obs::field("port", static_cast<int>(port_))});
  return true;
}

void OpsServer::stop() {
  if (!running_.load(std::memory_order_acquire)) return;
  shutdown_.store(true, std::memory_order_release);
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof(one));
  if (thread_.joinable()) thread_.join();
  listener_.close();
  ::close(wake_fd_);
  wake_fd_ = -1;
  running_.store(false, std::memory_order_release);
}

void OpsServer::serve_loop() {
  // Poll the raw fd: Listener::accept() treats an idle tick as a timeout
  // worth logging and counting, which would make an idle scrape target
  // manufacture ccg.net.timeouts forever. stop() wakes the wait through
  // wake_fd_, so the loop needs no timeout.
  while (!shutdown_.load(std::memory_order_acquire)) {
    pollfd pfds[2] = {{listener_.fd(), POLLIN, 0}, {wake_fd_, POLLIN, 0}};
    const int rc = ::poll(pfds, 2, -1);
    if (rc < 0 && errno != EINTR) break;
    if (rc <= 0 || (pfds[0].revents & POLLIN) == 0) continue;
    const int fd = ::accept4(listener_.fd(), nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) continue;
    handle_connection(fd);
    ::close(fd);
  }
}

void OpsServer::handle_connection(int fd) {
  std::string request;
  if (!read_request(fd, request)) {
    ops_counter("ccg.ops.bad_requests").add();
    return;
  }
  // "GET <path> HTTP/1.1" — method and path are all we route on.
  const std::size_t method_end = request.find(' ');
  std::string method;
  std::string path;
  if (method_end != std::string::npos) {
    method = request.substr(0, method_end);
    const std::size_t path_end = request.find_first_of(" \r\n", method_end + 1);
    if (path_end != std::string::npos) {
      path = request.substr(method_end + 1, path_end - method_end - 1);
    }
  }
  const std::size_t query = path.find('?');
  if (query != std::string::npos) path.resize(query);

  ops_counter("ccg.ops.requests").add();
  if (method != "GET" && method != "HEAD") {
    ops_counter("ccg.ops.bad_requests").add();
    write_all(fd, response(405, "Method Not Allowed", "text/plain",
                           "method not allowed\n"));
    return;
  }

  std::string reply;
  if (path == "/healthz") {
    reply = response(200, "OK", "text/plain", "ok\n");
  } else if (path == "/readyz") {
    reply = ready() ? response(200, "OK", "text/plain", "ready\n")
                    : response(503, "Service Unavailable", "text/plain",
                               "unready\n");
  } else if (path == "/metrics" && handlers_.metrics) {
    reply = response(200, "OK", "text/plain; version=0.0.4; charset=utf-8",
                     handlers_.metrics());
  } else if (path == "/tracez" && handlers_.tracez) {
    reply = response(200, "OK", "text/plain", handlers_.tracez());
  } else {
    ops_counter("ccg.ops.not_found").add();
    reply = response(404, "Not Found", "text/plain", "not found\n");
  }
  if (method == "HEAD") {
    reply.resize(reply.find("\r\n\r\n") + 4);
  }
  write_all(fd, reply);
}

}  // namespace ccg::net
