// Structured logging: field formatting, logfmt rendering, trace stamping,
// the bounded LogRing (wraparound, concurrent writers), level counters and
// stderr-threshold parsing.
#include "ccg/obs/log.hpp"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "ccg/obs/metrics.hpp"
#include "ccg/obs/trace.hpp"

namespace ccg {
namespace {

/// Logging is always on; tests share the global ring, so each starts from a
/// clean one.
class ObsLogTest : public ::testing::Test {
 protected:
  void SetUp() override { obs::LogRing::global().clear(); }
};

TEST(ObsLogLevel, NamesAndParsing) {
  EXPECT_STREQ(obs::level_name(obs::LogLevel::kDebug), "debug");
  EXPECT_STREQ(obs::level_name(obs::LogLevel::kError), "error");
  EXPECT_EQ(obs::parse_level("debug"), obs::LogLevel::kDebug);
  EXPECT_EQ(obs::parse_level("info"), obs::LogLevel::kInfo);
  EXPECT_EQ(obs::parse_level("warn"), obs::LogLevel::kWarn);
  EXPECT_EQ(obs::parse_level("error"), obs::LogLevel::kError);
  // No fallback: anything else is for the caller to reject.
  for (const char* bad : {"warning", "verbose", "WARN", "", "info "}) {
    EXPECT_FALSE(obs::parse_level(bad).has_value()) << bad;
  }
}

TEST(ObsLogField, ValueFormatting) {
  EXPECT_EQ(obs::field("k", "v").value, "v");
  EXPECT_EQ(obs::field("k", std::int64_t{-7}).value, "-7");
  EXPECT_EQ(obs::field("k", std::uint64_t{18446744073709551615ull}).value,
            "18446744073709551615");
  EXPECT_EQ(obs::field("k", true).value, "true");
  EXPECT_EQ(obs::field("k", false).value, "false");
}

TEST_F(ObsLogTest, RecordsCarryLevelMessageAndFields) {
  obs::LogRing::global().clear();
  obs::log_info("window closed", {obs::field("nodes", 12),
                                  obs::field("label", "h1")});
  const auto records = obs::LogRing::global().records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].level, obs::LogLevel::kInfo);
  EXPECT_EQ(records[0].message, "window closed");
  ASSERT_EQ(records[0].fields.size(), 2u);
  EXPECT_EQ(records[0].fields[0].key, "nodes");
  EXPECT_EQ(records[0].fields[0].value, "12");
  EXPECT_NE(records[0].thread_hash, 0u);
}

TEST_F(ObsLogTest, RecordsAreStampedWithTheAmbientTrace) {
  obs::LogRing::global().clear();
  obs::log_warn("outside any trace");
  {
    obs::TraceScope trace({0xABCD, 7});
    obs::log_warn("inside");
  }
  const auto records = obs::LogRing::global().records();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].trace_id, 0u);
  EXPECT_EQ(records[1].trace_id, 0xABCDu);
}

TEST_F(ObsLogTest, RenderIsLogfmtWithQuotingOnlyWhereNeeded) {
  obs::LogRecord record;
  record.level = obs::LogLevel::kWarn;
  record.ts_ns = 1234500000;  // 1.2345 s
  record.trace_id = 0xBEEF;
  record.message = "store append rejected";
  record.fields = {obs::field("window", "hour 3"), obs::field("count", 9)};
  EXPECT_EQ(record.render(),
            "level=warn ts=1.234500 trace=0xbeef msg=\"store append rejected\" "
            "window=\"hour 3\" count=9");

  obs::LogRecord bare;
  bare.level = obs::LogLevel::kInfo;
  bare.message = "ok";
  EXPECT_EQ(bare.render(), "level=info ts=0.000000 msg=ok");
}

/// Hostile values must never corrupt the one-record-per-line logfmt
/// framing: newlines, quotes, backslashes and `=` all arrive quoted and
/// escaped, byte-for-byte as pinned here.
TEST_F(ObsLogTest, RenderEscapesControlAndMetaCharacters) {
  obs::LogRecord record;
  record.level = obs::LogLevel::kError;
  record.message = "line one\nline two";
  record.fields = {obs::field("eq", "a=b"),
                   obs::field("quote", "say \"hi\""),
                   obs::field("slash", "C:\\temp"),
                   obs::field("crlf", "a\r\nb"),
                   obs::field("tab", "a\tb")};
  EXPECT_EQ(record.render(),
            "level=error ts=0.000000 msg=\"line one\\nline two\" "
            "eq=\"a=b\" quote=\"say \\\"hi\\\"\" slash=\"C:\\\\temp\" "
            "crlf=\"a\\r\\nb\" tab=\"a\\tb\"");
}

TEST_F(ObsLogTest, RenderedRecordsNeverSpanLines) {
  obs::LogRecord record;
  record.message = "evil\nvalue";  // no spaces: quoting must still trigger
  record.fields = {obs::field("k", "v1\nv2")};
  EXPECT_EQ(record.render().find('\n'), std::string::npos);
}

TEST_F(ObsLogTest, UnsafeKeyCharactersAreNeutralized) {
  obs::LogRecord record;
  record.message = "ok";
  record.fields = {obs::field("bad key=\n", "v")};
  EXPECT_EQ(record.render(), "level=info ts=0.000000 msg=ok bad_key__=v");
}

TEST_F(ObsLogTest, RingWrapsKeepingNewestOldestFirst) {
  constexpr std::size_t kCapacity = obs::LogRing::kCapacity;
  for (std::size_t i = 0; i < kCapacity + 6; ++i) {
    obs::log_debug("m" + std::to_string(i));
  }
  const auto records = obs::LogRing::global().records();
  ASSERT_EQ(records.size(), kCapacity);
  EXPECT_EQ(obs::LogRing::global().dropped(), 6u);
  EXPECT_EQ(records.front().message, "m6");
  EXPECT_EQ(records.back().message, "m" + std::to_string(kCapacity + 5));
}

TEST_F(ObsLogTest, ConcurrentWritersRetainExactlyCapacity) {
  constexpr int kThreads = 4, kPerThread = 300;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kPerThread; ++i) obs::log_debug("spam");
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(obs::LogRing::global().records().size(), obs::LogRing::kCapacity);
  EXPECT_EQ(obs::LogRing::global().dropped(),
            static_cast<std::size_t>(kThreads * kPerThread) -
                obs::LogRing::kCapacity);
}

TEST_F(ObsLogTest, EveryEmitBumpsItsLevelCounter) {
  obs::Counter& warns = obs::Registry::global().counter("ccg.log.warn");
  const std::uint64_t before = warns.value();
  obs::log_warn("counted");
  obs::log_warn("counted again");
  EXPECT_EQ(warns.value(), before + 2);
}

TEST(ObsLogStderr, ThresholdIsAdjustable) {
  const obs::LogLevel original = obs::stderr_level();
  obs::set_stderr_level(obs::LogLevel::kError);
  EXPECT_EQ(obs::stderr_level(), obs::LogLevel::kError);
  obs::set_stderr_level(original);
  EXPECT_EQ(obs::stderr_level(), original);
}

// --- stderr mirror rate limiting ---------------------------------------------
// admit() is deterministic in the supplied timestamp, so these drive a
// virtual clock instead of sleeping.

constexpr std::uint64_t kSecond = 1'000'000'000ull;

TEST(ObsLogRateLimit, BurstThenRefill) {
  // 2/s with burst 4: the first four records at t=0 pass, the fifth drops.
  obs::StderrRateLimiter limiter(2.0, 4.0);
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(limiter.admit(obs::LogLevel::kWarn, 0).mirror) << i;
  }
  EXPECT_FALSE(limiter.admit(obs::LogLevel::kWarn, 0).mirror);
  EXPECT_EQ(limiter.suppressed(), 1u);

  // Half a second accrues one token at 2/s.
  EXPECT_TRUE(limiter.admit(obs::LogLevel::kWarn, kSecond / 2).mirror);
  EXPECT_FALSE(limiter.admit(obs::LogLevel::kWarn, kSecond / 2).mirror);
}

TEST(ObsLogRateLimit, RecoveryReportsTheDrySpell) {
  obs::StderrRateLimiter limiter(1.0, 1.0);
  EXPECT_TRUE(limiter.admit(obs::LogLevel::kError, 0).mirror);
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(limiter.admit(obs::LogLevel::kError, 0).mirror);
  }
  // The first record admitted after the dry spell carries the count, so
  // the terminal learns how much it missed; the counter does not reset
  // the lifetime total.
  const auto decision = limiter.admit(obs::LogLevel::kError, 2 * kSecond);
  EXPECT_TRUE(decision.mirror);
  EXPECT_EQ(decision.recovered, 5u);
  EXPECT_EQ(limiter.suppressed(), 5u);
  EXPECT_EQ(limiter.admit(obs::LogLevel::kError, 4 * kSecond).recovered, 0u);
}

TEST(ObsLogRateLimit, LevelsHaveIndependentBuckets) {
  // A debug flood must not starve errors: each level owns a bucket.
  obs::StderrRateLimiter limiter(1.0, 2.0);
  EXPECT_TRUE(limiter.admit(obs::LogLevel::kDebug, 0).mirror);
  EXPECT_TRUE(limiter.admit(obs::LogLevel::kDebug, 0).mirror);
  EXPECT_FALSE(limiter.admit(obs::LogLevel::kDebug, 0).mirror);
  EXPECT_TRUE(limiter.admit(obs::LogLevel::kError, 0).mirror);
  EXPECT_TRUE(limiter.admit(obs::LogLevel::kWarn, 0).mirror);
  EXPECT_EQ(limiter.suppressed(), 1u);
}

TEST(ObsLogRateLimit, BackwardsTimestampsRefillNothing) {
  obs::StderrRateLimiter limiter(1.0, 1.0);
  EXPECT_TRUE(limiter.admit(obs::LogLevel::kInfo, 5 * kSecond).mirror);
  // now < last: no refill, the bucket stays dry.
  EXPECT_FALSE(limiter.admit(obs::LogLevel::kInfo, 1 * kSecond).mirror);
  EXPECT_FALSE(limiter.admit(obs::LogLevel::kInfo, 5 * kSecond).mirror);
  EXPECT_TRUE(limiter.admit(obs::LogLevel::kInfo, 7 * kSecond).mirror);
}

TEST(ObsLogRateLimit, TokensCapAtBurst) {
  obs::StderrRateLimiter limiter(10.0, 3.0);
  // A long quiet period must not bank more than `burst` tokens.
  EXPECT_TRUE(limiter.admit(obs::LogLevel::kWarn, 0).mirror);
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(limiter.admit(obs::LogLevel::kWarn, 100 * kSecond).mirror) << i;
  }
  EXPECT_FALSE(limiter.admit(obs::LogLevel::kWarn, 100 * kSecond).mirror);
}

}  // namespace
}  // namespace ccg
