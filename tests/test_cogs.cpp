// The §3.2 COGS model: surcharge per monitored VM against the paper's
// 0.02 $/hr/VM price point, and how many analytics machines a stream needs.
#include "ccg/analytics/cogs.hpp"

#include <gtest/gtest.h>

#include <string>

namespace ccg {
namespace {

TEST(CogsReport, ComputesSurcharge) {
  TelemetryLedger ledger;
  ledger.records = 60'000;
  ledger.intervals = 60;  // 1000 records/min
  const auto report = cogs_report(ledger, 1000, 50'000.0);
  EXPECT_EQ(report.monitored_vms, 1000u);
  EXPECT_NEAR(report.records_per_minute, 1000.0, 1e-9);
  // 1000/min = 16.7/s << 50k/s: one machine is plenty.
  EXPECT_LE(report.analytics_vms_needed, 1.0);
  EXPECT_TRUE(report.within_target);
  EXPECT_GT(report.total_dollars_per_vm_hour, 0.0);
  EXPECT_NE(report.summary().find("PASS"), std::string::npos);
}

TEST(CogsReport, FlagsUnderprovisionedAnalytics) {
  TelemetryLedger ledger;
  ledger.records = 2'300'000ull * 60;  // KQuery-scale: 2.3M/min for an hour
  ledger.intervals = 60;
  // A slow analytics machine: 1k records/s -> needs ~38 machines.
  const auto report = cogs_report(ledger, 10, 1000.0);
  EXPECT_GT(report.analytics_vms_needed, 30.0);
  EXPECT_FALSE(report.within_target);
}

}  // namespace
}  // namespace ccg
