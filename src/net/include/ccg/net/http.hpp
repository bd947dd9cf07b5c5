// Minimal blocking HTTP/1.1 responder for the live ops endpoint
// (`ccgraph ... --ops-port N`). This is deliberately not a web server:
// loopback only (it reuses Listener::bind_loopback), GET only, one
// request per connection (`Connection: close`), four routes:
//
//   /healthz   200 "ok" while the process is up
//   /readyz    200 "ready" after set_ready(true), 503 "unready" otherwise
//   /metrics   Prometheus text exposition (version 0.0.4) from a handler
//   /tracez    plain-text diagnostics block from a handler
//
// The server runs one background thread that polls the listener fd
// directly (Listener::accept would log + count a ccg.net.timeout on every
// idle poll tick, polluting the very metrics this endpoint serves), so an
// idle ops endpoint leaves the registry untouched except for
// ccg.ops.requests. stop() wakes that poll through an eventfd, so it
// returns as soon as the thread joins.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>

#include "ccg/net/frame.hpp"

namespace ccg::net {

struct OpsHandlers {
  /// Body for /metrics; called per request on the server thread.
  std::function<std::string()> metrics;
  /// Body for /tracez; optional (404 when absent).
  std::function<std::string()> tracez;
};

class OpsServer {
 public:
  OpsServer() = default;
  ~OpsServer() { stop(); }

  OpsServer(const OpsServer&) = delete;
  OpsServer& operator=(const OpsServer&) = delete;

  /// Binds 127.0.0.1:port (0 = ephemeral) and starts serving. Returns
  /// false if the bind fails. The server starts *unready*.
  bool start(std::uint16_t port, OpsHandlers handlers);
  void stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  std::uint16_t port() const { return port_; }

  /// Flips /readyz between 503 ("unready") and 200 ("ready").
  void set_ready(bool ready) {
    ready_.store(ready, std::memory_order_release);
  }
  bool ready() const { return ready_.load(std::memory_order_acquire); }

 private:
  void serve_loop();
  void handle_connection(int fd);

  Listener listener_;
  OpsHandlers handlers_;
  std::thread thread_;
  int wake_fd_ = -1;  // eventfd: stop() writes it to end serve_loop's poll
  std::atomic<bool> running_{false};
  std::atomic<bool> shutdown_{false};
  std::atomic<bool> ready_{false};
  std::uint16_t port_ = 0;
};

}  // namespace ccg::net
