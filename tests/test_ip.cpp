#include "ccg/common/ip.hpp"

#include <gtest/gtest.h>

#include <unordered_set>

#include "ccg/common/expect.hpp"
#include "ccg/common/rng.hpp"

namespace ccg {
namespace {

TEST(IpAddr, ParsesDottedQuad) {
  const auto ip = IpAddr::parse("10.1.2.3");
  ASSERT_TRUE(ip.has_value());
  EXPECT_EQ(ip->octet(0), 10);
  EXPECT_EQ(ip->octet(1), 1);
  EXPECT_EQ(ip->octet(2), 2);
  EXPECT_EQ(ip->octet(3), 3);
  EXPECT_EQ(ip->to_string(), "10.1.2.3");
}

TEST(IpAddr, ParsesBoundaryValues) {
  EXPECT_EQ(IpAddr::parse("0.0.0.0")->bits(), 0u);
  EXPECT_EQ(IpAddr::parse("255.255.255.255")->bits(), 0xFFFFFFFFu);
}

struct BadIpCase {
  const char* label;
  const char* text;
};
// Prints the label, not the raw bytes: without this GoogleTest prints the
// pointer value, and gtest_discover_tests puts that printed value into the
// ctest name, so names changed with every run under ASLR.
void PrintTo(const BadIpCase& c, std::ostream* os) { *os << c.label; }

class IpParseRejects : public ::testing::TestWithParam<BadIpCase> {};

TEST_P(IpParseRejects, Rejects) {
  EXPECT_FALSE(IpAddr::parse(GetParam().text).has_value()) << GetParam().text;
}

INSTANTIATE_TEST_SUITE_P(
    Malformed, IpParseRejects,
    ::testing::Values(BadIpCase{"empty", ""}, BadIpCase{"three_octets", "1.2.3"},
                      BadIpCase{"five_octets", "1.2.3.4.5"},
                      BadIpCase{"octet_over_255", "256.0.0.1"},
                      BadIpCase{"empty_octet", "1..2.3"},
                      BadIpCase{"letters", "a.b.c.d"},
                      BadIpCase{"trailing_space", "1.2.3.4 "},
                      BadIpCase{"leading_space", " 1.2.3.4"},
                      BadIpCase{"negative_octet", "1.2.3.-4"},
                      BadIpCase{"long_octet", "01.2.3.4567"},
                      BadIpCase{"commas", "1,2,3,4"}));

TEST(IpAddr, RoundTripsRandomAddresses) {
  Rng rng(42);
  for (int i = 0; i < 2000; ++i) {
    const IpAddr ip(static_cast<std::uint32_t>(rng.next()));
    const auto parsed = IpAddr::parse(ip.to_string());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, ip);
  }
}

TEST(IpAddr, OrderingFollowsNumericValue) {
  EXPECT_LT(*IpAddr::parse("10.0.0.1"), *IpAddr::parse("10.0.0.2"));
  EXPECT_LT(*IpAddr::parse("9.255.255.255"), *IpAddr::parse("10.0.0.0"));
}

TEST(IpAddr, DetectsPrivateSpace) {
  EXPECT_TRUE(IpAddr::parse("10.200.3.4")->is_private());
  EXPECT_TRUE(IpAddr::parse("172.16.0.1")->is_private());
  EXPECT_TRUE(IpAddr::parse("172.31.255.255")->is_private());
  EXPECT_TRUE(IpAddr::parse("192.168.1.1")->is_private());
  EXPECT_FALSE(IpAddr::parse("172.32.0.1")->is_private());
  EXPECT_FALSE(IpAddr::parse("11.0.0.1")->is_private());
  EXPECT_FALSE(IpAddr::parse("8.8.8.8")->is_private());
}

TEST(IpAddr, HashSpreadsSequentialAddresses) {
  // Role instances get sequential IPs; the hash must not cluster them.
  std::unordered_set<std::size_t> buckets;
  const std::hash<IpAddr> h;
  for (std::uint32_t i = 0; i < 1000; ++i) {
    buckets.insert(h(IpAddr(0x0A000000u + i)) % 1024);
  }
  EXPECT_GT(buckets.size(), 500u);
}

TEST(IpPrefix, ParsesAndCanonicalizes) {
  const auto p = IpPrefix::parse("10.1.2.3/16");
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->base().to_string(), "10.1.0.0");  // host bits zeroed
  EXPECT_EQ(p->length(), 16);
  EXPECT_EQ(p->size(), 65536u);
  EXPECT_EQ(p->to_string(), "10.1.0.0/16");
}

TEST(IpPrefix, RejectsMalformed) {
  EXPECT_FALSE(IpPrefix::parse("10.0.0.0").has_value());
  EXPECT_FALSE(IpPrefix::parse("10.0.0.0/33").has_value());
  EXPECT_FALSE(IpPrefix::parse("10.0.0.0/-1").has_value());
  EXPECT_FALSE(IpPrefix::parse("10.0.0.0/8x").has_value());
  EXPECT_FALSE(IpPrefix::parse("300.0.0.0/8").has_value());
}

TEST(IpPrefix, ContainsAddresses) {
  const auto p = *IpPrefix::parse("10.2.0.0/16");
  EXPECT_TRUE(p.contains(*IpAddr::parse("10.2.0.0")));
  EXPECT_TRUE(p.contains(*IpAddr::parse("10.2.255.255")));
  EXPECT_FALSE(p.contains(*IpAddr::parse("10.3.0.0")));
  EXPECT_FALSE(p.contains(*IpAddr::parse("11.2.0.0")));
}

TEST(IpPrefix, ContainsSubPrefixes) {
  const auto p16 = *IpPrefix::parse("10.2.0.0/16");
  EXPECT_TRUE(p16.contains(*IpPrefix::parse("10.2.4.0/24")));
  EXPECT_TRUE(p16.contains(p16));
  EXPECT_FALSE(p16.contains(*IpPrefix::parse("10.0.0.0/8")));
  EXPECT_FALSE(p16.contains(*IpPrefix::parse("10.3.0.0/24")));
}

TEST(IpPrefix, AtEnumeratesAddresses) {
  const auto p = *IpPrefix::parse("10.2.3.0/30");
  EXPECT_EQ(p.at(0).to_string(), "10.2.3.0");
  EXPECT_EQ(p.at(3).to_string(), "10.2.3.3");
  EXPECT_THROW(p.at(4), ContractViolation);
}

TEST(IpPrefix, SlashZeroCoversEverything) {
  const auto p = *IpPrefix::parse("0.0.0.0/0");
  EXPECT_TRUE(p.contains(*IpAddr::parse("255.1.2.3")));
  EXPECT_EQ(p.size(), std::uint64_t{1} << 32);
}

TEST(AggregateCidrs, EmptyAndSingle) {
  EXPECT_TRUE(aggregate_cidrs({}).empty());
  const auto one = aggregate_cidrs({*IpAddr::parse("10.0.0.5")});
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0].to_string(), "10.0.0.5/32");
}

TEST(AggregateCidrs, AlignedRunBecomesOneBlock) {
  std::vector<IpAddr> run;
  for (std::uint32_t i = 0; i < 8; ++i) run.push_back(IpAddr(0x0A000000u + i));
  const auto blocks = aggregate_cidrs(run);
  ASSERT_EQ(blocks.size(), 1u);
  EXPECT_EQ(blocks[0].to_string(), "10.0.0.0/29");
}

TEST(AggregateCidrs, MisalignedRunSplitsMinimally) {
  // 10.0.0.1 .. 10.0.0.8: /32 + /31? -> greedy aligned split.
  std::vector<IpAddr> run;
  for (std::uint32_t i = 1; i <= 8; ++i) run.push_back(IpAddr(0x0A000000u + i));
  const auto blocks = aggregate_cidrs(run);
  // 1/32, 2/31, 4/30, 8/32 = 4 blocks.
  ASSERT_EQ(blocks.size(), 4u);
  EXPECT_EQ(blocks[0].to_string(), "10.0.0.1/32");
  EXPECT_EQ(blocks[1].to_string(), "10.0.0.2/31");
  EXPECT_EQ(blocks[2].to_string(), "10.0.0.4/30");
  EXPECT_EQ(blocks[3].to_string(), "10.0.0.8/32");
}

TEST(AggregateCidrs, CoversExactlyTheInputSet) {
  Rng rng(51);
  // Random sparse set with runs and holes; duplicates thrown in.
  std::vector<IpAddr> ips;
  std::uint32_t cursor = 0x0A000000;
  for (int i = 0; i < 300; ++i) {
    cursor += 1 + static_cast<std::uint32_t>(rng.chance(0.3) ? rng.uniform(5) : 0);
    ips.push_back(IpAddr(cursor));
    if (rng.chance(0.1)) ips.push_back(IpAddr(cursor));  // duplicate
  }
  const auto blocks = aggregate_cidrs(ips);

  std::unordered_set<IpAddr> in_set(ips.begin(), ips.end());
  // Every input address is covered...
  for (const IpAddr ip : in_set) {
    bool covered = false;
    for (const auto& b : blocks) covered |= b.contains(ip);
    EXPECT_TRUE(covered) << ip.to_string();
  }
  // ...and nothing else is: total block capacity equals distinct inputs.
  std::uint64_t capacity = 0;
  for (const auto& b : blocks) capacity += b.size();
  EXPECT_EQ(capacity, in_set.size());
}

TEST(AggregateCidrs, ContiguousRoleAllocationCompressesHard) {
  // The shape segments actually have: 40 sequential IPs.
  std::vector<IpAddr> ips;
  for (std::uint32_t i = 0; i < 40; ++i) ips.push_back(IpAddr(0x0A000100u + i));
  const auto blocks = aggregate_cidrs(ips);
  EXPECT_LE(blocks.size(), 3u);  // 32 + 8 (aligned at 0x100)
}

TEST(IpPort, FormatsAndCompares) {
  const IpPort a{*IpAddr::parse("10.0.0.1"), 443};
  const IpPort b{*IpAddr::parse("10.0.0.1"), 8080};
  EXPECT_EQ(a.to_string(), "10.0.0.1:443");
  EXPECT_LT(a, b);
  EXPECT_NE(std::hash<IpPort>{}(a), std::hash<IpPort>{}(b));
}

}  // namespace
}  // namespace ccg
