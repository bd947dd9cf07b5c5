#include "ccg/common/csv.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace ccg {
namespace {

TEST(CsvWriter, WritesPlainFields) {
  std::ostringstream out;
  CsvWriter w(out);
  w.field("a").field(std::uint64_t{42}).field(-3.5);
  w.end_row();
  EXPECT_EQ(out.str(), "a,42,-3.5\n");
  EXPECT_EQ(w.rows_written(), 1u);
}

TEST(CsvWriter, QuotesSpecialCharacters) {
  std::ostringstream out;
  CsvWriter w(out);
  w.field("has,comma").field("has\"quote").field("has\nnewline");
  w.end_row();
  EXPECT_EQ(out.str(), "\"has,comma\",\"has\"\"quote\",\"has\nnewline\"\n");
}

TEST(CsvWriter, MultipleRows) {
  std::ostringstream out;
  CsvWriter w(out);
  w.field("x").field("y");
  w.end_row();
  w.field(std::int64_t{-1}).field(std::int64_t{2});
  w.end_row();
  EXPECT_EQ(out.str(), "x,y\n-1,2\n");
  EXPECT_EQ(w.rows_written(), 2u);
}

TEST(ParseCsvLine, SplitsPlainFields) {
  const auto fields = parse_csv_line("a,b,c");
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[2], "c");
}

TEST(ParseCsvLine, HandlesQuotedFields) {
  const auto fields = parse_csv_line("\"has,comma\",\"has\"\"quote\",plain");
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[0], "has,comma");
  EXPECT_EQ(fields[1], "has\"quote");
  EXPECT_EQ(fields[2], "plain");
}

TEST(ParseCsvLine, EmptyFieldsPreserved) {
  const auto fields = parse_csv_line(",,");
  ASSERT_EQ(fields.size(), 3u);
  for (const auto& f : fields) EXPECT_TRUE(f.empty());
}

TEST(ParseCsvLine, StripsCarriageReturn) {
  const auto fields = parse_csv_line("a,b\r");
  ASSERT_EQ(fields.size(), 2u);
  EXPECT_EQ(fields[1], "b");
}

TEST(ParseCsvLine, KeepsCarriageReturnInsideAField) {
  const auto fields = parse_csv_line("1\r2,b\r");
  ASSERT_EQ(fields.size(), 2u);
  EXPECT_EQ(fields[0], "1\r2");
  EXPECT_EQ(fields[1], "b");
}

TEST(CsvRoundTrip, WriterOutputParsesBack) {
  std::ostringstream out;
  CsvWriter w(out);
  const std::vector<std::string> original{"plain", "with,comma", "with\"quote", ""};
  for (const auto& f : original) w.field(f);
  w.end_row();
  std::string line = out.str();
  line.pop_back();  // newline
  EXPECT_EQ(parse_csv_line(line), original);
}

}  // namespace
}  // namespace ccg
