#include "ccg/net/frame.hpp"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

namespace ccg::net {
namespace {

std::vector<std::uint8_t> bytes(std::initializer_list<int> xs) {
  std::vector<std::uint8_t> out;
  for (int x : xs) out.push_back(static_cast<std::uint8_t>(x));
  return out;
}

TEST(FrameConn, RoundTripOverSocketpair) {
  auto pair = socket_pair();
  ASSERT_TRUE(pair.has_value());
  const auto sent = bytes({1, 2, 3, 250, 251, 252});
  ASSERT_TRUE(pair->first.send(sent));
  std::vector<std::uint8_t> got;
  EXPECT_EQ(pair->second.recv(got, 1000), RecvStatus::kOk);
  EXPECT_EQ(got, sent);
}

TEST(FrameConn, EmptyAndLargePayloadsSurvive) {
  auto pair = socket_pair();
  ASSERT_TRUE(pair.has_value());
  std::vector<std::uint8_t> big(1 << 20);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<std::uint8_t>(i * 2654435761u);
  }
  // Send from a thread: a 1 MiB frame exceeds the socket buffer, so the
  // sender blocks until the receiver drains.
  std::thread sender([&] {
    ASSERT_TRUE(pair->first.send({}));
    ASSERT_TRUE(pair->first.send(big));
  });
  std::vector<std::uint8_t> got;
  EXPECT_EQ(pair->second.recv(got, 5000), RecvStatus::kOk);
  EXPECT_TRUE(got.empty());
  EXPECT_EQ(pair->second.recv(got, 5000), RecvStatus::kOk);
  EXPECT_EQ(got, big);
  sender.join();
}

TEST(FrameConn, ManyFramesArriveInOrder) {
  auto pair = socket_pair();
  ASSERT_TRUE(pair.has_value());
  for (int i = 0; i < 100; ++i) {
    std::vector<std::uint8_t> payload(static_cast<std::size_t>(i) + 1,
                                      static_cast<std::uint8_t>(i));
    ASSERT_TRUE(pair->first.send(payload));
  }
  for (int i = 0; i < 100; ++i) {
    std::vector<std::uint8_t> got;
    ASSERT_EQ(pair->second.recv(got, 1000), RecvStatus::kOk);
    ASSERT_EQ(got.size(), static_cast<std::size_t>(i) + 1);
    EXPECT_EQ(got[0], static_cast<std::uint8_t>(i));
  }
}

TEST(FrameConn, CleanEofAtFrameBoundary) {
  auto pair = socket_pair();
  ASSERT_TRUE(pair.has_value());
  ASSERT_TRUE(pair->first.send(bytes({9})));
  pair->first.close();
  std::vector<std::uint8_t> got;
  EXPECT_EQ(pair->second.recv(got, 1000), RecvStatus::kOk);
  EXPECT_EQ(pair->second.recv(got, 1000), RecvStatus::kEof);
}

TEST(FrameConn, TornFrameIsAnErrorNotEof) {
  auto pair = socket_pair();
  ASSERT_TRUE(pair.has_value());
  // Raw length prefix promising 100 bytes, then only 3, then close: the
  // reader must report a torn stream, not a clean end.
  const std::uint8_t raw[] = {100, 0, 0, 0, 1, 2, 3};
  ASSERT_EQ(::send(pair->first.fd(), raw, sizeof(raw), 0),
            static_cast<ssize_t>(sizeof(raw)));
  pair->first.close();
  std::vector<std::uint8_t> got;
  EXPECT_EQ(pair->second.recv(got, 1000), RecvStatus::kError);
}

TEST(FrameConn, CrcCorruptionRejected) {
  auto pair = socket_pair();
  ASSERT_TRUE(pair.has_value());
  // A frame is len | payload | crc: flip one payload bit after framing.
  const auto payload = bytes({10, 20, 30, 40});
  ASSERT_TRUE(pair->first.send(payload));
  // Capture the valid frame bytes by reading them raw off the wire...
  std::uint8_t raw[64];
  const ssize_t n = ::recv(pair->second.fd(), raw, sizeof(raw), 0);
  ASSERT_EQ(n, static_cast<ssize_t>(4 + payload.size() + 4));
  raw[5] ^= 0x01;  // payload byte
  // ...and replay the corrupted copy in the other direction.
  ASSERT_EQ(::send(pair->second.fd(), raw, static_cast<std::size_t>(n), 0), n);
  std::vector<std::uint8_t> got;
  EXPECT_EQ(pair->first.recv(got, 1000), RecvStatus::kError);
}

TEST(FrameConn, OversizedLengthPrefixRejected) {
  auto pair = socket_pair();
  ASSERT_TRUE(pair.has_value());
  // 0xFFFFFFFF length: must be treated as corruption, not an allocation.
  const std::uint8_t raw[] = {0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0};
  ASSERT_EQ(::send(pair->first.fd(), raw, sizeof(raw), 0),
            static_cast<ssize_t>(sizeof(raw)));
  std::vector<std::uint8_t> got;
  EXPECT_EQ(pair->second.recv(got, 1000), RecvStatus::kError);
}

TEST(FrameConn, RecvTimesOutWhenPeerSilent) {
  auto pair = socket_pair();
  ASSERT_TRUE(pair.has_value());
  std::vector<std::uint8_t> got;
  EXPECT_EQ(pair->second.recv(got, 50), RecvStatus::kTimeout);
  // The connection survives a timeout: a late frame still arrives.
  ASSERT_TRUE(pair->first.send(bytes({1})));
  EXPECT_EQ(pair->second.recv(got, 1000), RecvStatus::kOk);
}

TEST(FrameConn, SendOnClosedPeerFails) {
  auto pair = socket_pair();
  ASSERT_TRUE(pair.has_value());
  pair->second.close();
  // The first send may land in the kernel buffer; repeated sends must
  // surface the broken pipe (and must not raise SIGPIPE).
  bool failed = false;
  for (int i = 0; i < 64 && !failed; ++i) {
    failed = !pair->first.send(std::vector<std::uint8_t>(1024, 7));
  }
  EXPECT_TRUE(failed);
}

TEST(Listener, LoopbackConnectAndAccept) {
  auto listener = Listener::bind_loopback();
  ASSERT_TRUE(listener.has_value());
  ASSERT_NE(listener->port(), 0);

  auto client = connect_loopback(listener->port());
  ASSERT_TRUE(client.has_value());
  auto server = listener->accept(1000);
  ASSERT_TRUE(server.has_value());

  ASSERT_TRUE(client->send(bytes({42})));
  std::vector<std::uint8_t> got;
  EXPECT_EQ(server->recv(got, 1000), RecvStatus::kOk);
  EXPECT_EQ(got, bytes({42}));
}

TEST(Listener, AcceptTimesOutWithoutClient) {
  auto listener = Listener::bind_loopback();
  ASSERT_TRUE(listener.has_value());
  EXPECT_FALSE(listener->accept(50).has_value());
}

TEST(Listener, ConnectFailsAtOnceWithNothingListening) {
  std::uint16_t port = 0;
  {
    auto probe = Listener::bind_loopback();
    ASSERT_TRUE(probe.has_value());
    port = probe->port();
  }
  // One attempt, no backoff: callers listen before anything connects.
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(connect_loopback(port).has_value());
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(100));
}

}  // namespace
}  // namespace ccg::net
