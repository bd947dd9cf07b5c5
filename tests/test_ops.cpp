// OpsServer: the live ops endpoint behind `--ops-port`. Tests talk real
// HTTP over loopback TCP — ephemeral port, raw socket client — covering
// the four routes, the ready flip, HEAD truncation, and rejection paths.
#include "ccg/net/http.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <string>

#include "mutation.hpp"

namespace ccg {
namespace {

/// Sends one raw request and reads to EOF (the server always closes).
std::string http_exchange(std::uint16_t port, const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  std::size_t off = 0;
  while (off < request.size()) {
    const ssize_t n = ::write(fd, request.data() + off, request.size() - off);
    if (n <= 0) break;
    off += static_cast<std::size_t>(n);
  }
  // Half-close: a request with no line end then reads as EOF at once,
  // not as a client still typing.
  ::shutdown(fd, SHUT_WR);
  std::string reply;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) break;
    reply.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return reply;
}

std::string get(std::uint16_t port, const std::string& path) {
  return http_exchange(port, "GET " + path + " HTTP/1.1\r\nHost: x\r\n\r\n");
}

net::OpsHandlers test_handlers() {
  net::OpsHandlers handlers;
  handlers.metrics = [] {
    return std::string("# TYPE t_total counter\nt_total 1\n");
  };
  handlers.tracez = [] { return std::string("trace ring: off\n"); };
  return handlers;
}

TEST(OpsServer, ServesHealthMetricsAndTracez) {
  net::OpsServer server;
  ASSERT_TRUE(server.start(0, test_handlers()));
  ASSERT_NE(server.port(), 0);  // ephemeral port was resolved
  EXPECT_TRUE(server.running());

  const std::string health = get(server.port(), "/healthz");
  EXPECT_NE(health.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(health.find("\r\n\r\nok\n"), std::string::npos);
  EXPECT_NE(health.find("Connection: close"), std::string::npos);
  EXPECT_NE(health.find("Content-Length: 3"), std::string::npos);

  const std::string metrics = get(server.port(), "/metrics");
  EXPECT_NE(
      metrics.find("Content-Type: text/plain; version=0.0.4; charset=utf-8"),
      std::string::npos);
  EXPECT_NE(metrics.find("t_total 1\n"), std::string::npos);

  const std::string tracez = get(server.port(), "/tracez");
  EXPECT_NE(tracez.find("trace ring: off"), std::string::npos);

  server.stop();
  EXPECT_FALSE(server.running());
}

TEST(OpsServer, ReadyzFlipsWithSetReady) {
  net::OpsServer server;
  ASSERT_TRUE(server.start(0, test_handlers()));

  // Starts unready: a scrape before the pipeline is up must say so.
  std::string r = get(server.port(), "/readyz");
  EXPECT_NE(r.find("HTTP/1.1 503"), std::string::npos);
  EXPECT_NE(r.find("unready\n"), std::string::npos);

  server.set_ready(true);
  r = get(server.port(), "/readyz");
  EXPECT_NE(r.find("HTTP/1.1 200"), std::string::npos);
  EXPECT_NE(r.find("ready\n"), std::string::npos);

  server.set_ready(false);
  r = get(server.port(), "/readyz");
  EXPECT_NE(r.find("HTTP/1.1 503"), std::string::npos);
}

TEST(OpsServer, UnknownRouteIs404AndBadMethodIs405) {
  net::OpsServer server;
  ASSERT_TRUE(server.start(0, test_handlers()));

  EXPECT_NE(get(server.port(), "/nope").find("HTTP/1.1 404"),
            std::string::npos);

  const std::string post = http_exchange(
      server.port(), "POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_NE(post.find("HTTP/1.1 405"), std::string::npos);
}

TEST(OpsServer, HeadReturnsHeadersOnly) {
  net::OpsServer server;
  ASSERT_TRUE(server.start(0, test_handlers()));
  const std::string head = http_exchange(
      server.port(), "HEAD /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_NE(head.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(head.find("Content-Length: 3"), std::string::npos);
  // The body is withheld; the headers still advertise its length.
  EXPECT_EQ(head.find("\r\n\r\nok\n"), std::string::npos);
  EXPECT_EQ(head.substr(head.size() - 4), "\r\n\r\n");
}

TEST(OpsServer, QueryStringsAreStripped) {
  net::OpsServer server;
  ASSERT_TRUE(server.start(0, test_handlers()));
  const std::string r = get(server.port(), "/healthz?verbose=1");
  EXPECT_NE(r.find("HTTP/1.1 200 OK"), std::string::npos);
}

TEST(OpsServer, MissingTracezHandlerIs404) {
  net::OpsServer server;
  net::OpsHandlers handlers;
  handlers.metrics = [] { return std::string("x 1\n"); };
  // no tracez handler
  ASSERT_TRUE(server.start(0, std::move(handlers)));
  EXPECT_NE(get(server.port(), "/tracez").find("HTTP/1.1 404"),
            std::string::npos);
}

TEST(OpsServer, RestartRebindsCleanly) {
  net::OpsServer server;
  ASSERT_TRUE(server.start(0, test_handlers()));
  const std::uint16_t first = server.port();
  server.stop();
  ASSERT_TRUE(server.start(first, test_handlers()));  // same port, fresh bind
  EXPECT_EQ(server.port(), first);
  EXPECT_NE(get(server.port(), "/healthz").find("200 OK"), std::string::npos);
  server.stop();
}

// stop() wakes the serve loop rather than waiting for its poll to time
// out, so a stop right after start returns at once.
TEST(OpsServer, StopReturnsPromptly) {
  net::OpsServer server;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(server.start(0, test_handlers()));
    const auto t0 = std::chrono::steady_clock::now();
    server.stop();
    const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
        std::chrono::steady_clock::now() - t0);
    EXPECT_LT(ms.count(), 50) << "stop " << i;
    EXPECT_FALSE(server.running());
  }
}

// Seeded mutations of well-formed request lines: every reply is 200, 400,
// 404 or 405, or the server closes without one, and it still answers
// /healthz afterwards.
TEST(OpsServer, MutatedRequestsGetCleanReplies) {
  net::OpsServer server;
  ASSERT_TRUE(server.start(0, test_handlers()));
  server.set_ready(true);
  const std::string seeds[] = {
      "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n",
      "GET /metrics HTTP/1.1\r\n\r\n",
      "HEAD /readyz HTTP/1.0\r\n\r\n",
      "GET /tracez?verbose=1 HTTP/1.1\r\nHost: x\r\n\r\n"};
  for (std::uint64_t i = 0; i < 1000; ++i) {
    Rng rng(i + 1);
    const std::string request = mutate_bytes(seeds[i % 4], rng);
    const std::string reply = http_exchange(server.port(), request);
    if (reply.empty()) continue;
    const std::string status = reply.substr(0, 13);
    EXPECT_TRUE(status == "HTTP/1.1 200 " || status == "HTTP/1.1 400 " ||
                status == "HTTP/1.1 404 " || status == "HTTP/1.1 405 ")
        << "mutation " << i << ": " << reply.substr(0, 40);
  }
  EXPECT_NE(get(server.port(), "/healthz").find("HTTP/1.1 200 OK"),
            std::string::npos);
  server.stop();
}

}  // namespace
}  // namespace ccg
