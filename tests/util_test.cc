// Unit tests for src/util: Status, Result, Rng, CsvWriter, timers, logging,
// string utils.

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>

#include <gtest/gtest.h>

#include "util/csv_writer.h"
#include "util/logging.h"
#include "util/result.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace adr {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad L");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad L");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad L");
}

TEST(StatusTest, AllFactoriesProduceMatchingCodes) {
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::Unimplemented("x").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::ResourceExhausted("x").code(),
            StatusCode::kResourceExhausted);
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound("a") == Status::Internal("a"));
}

TEST(StatusTest, StreamsToOstream) {
  std::ostringstream os;
  os << Status::Internal("boom");
  EXPECT_EQ(os.str(), "Internal: boom");
}

Status FailingHelper() { return Status::NotFound("gone"); }

Status UsesReturnNotOk() {
  ADR_RETURN_NOT_OK(FailingHelper());
  return Status::Internal("unreachable");
}

TEST(StatusTest, ReturnNotOkPropagates) {
  EXPECT_EQ(UsesReturnNotOk().code(), StatusCode::kNotFound);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::InvalidArgument("nope"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

Result<int> Doubled(Result<int> in) {
  if (!in.ok()) return in.status();
  return *in * 2;
}

TEST(ResultTest, ComposesThroughFunctions) {
  EXPECT_EQ(*Doubled(21), 42);
  EXPECT_FALSE(Doubled(Status::Internal("x")).ok());
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(7));
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).ValueOrDie();
  EXPECT_EQ(*v, 7);
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextBoundedWithinBound) {
  Rng rng(7);
  for (uint64_t bound : {1ULL, 2ULL, 3ULL, 17ULL, 1000ULL}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.NextBounded(bound), bound);
    }
  }
}

TEST(RngTest, NextBoundedCoversRange) {
  Rng rng(11);
  std::set<uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.NextBounded(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, GaussianMomentsRoughlyStandard) {
  Rng rng(13);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sum_sq += g * g;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.05);
  EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(RngTest, GaussianWithParams) {
  Rng rng(17);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.NextGaussian(5.0f, 0.1f);
  EXPECT_NEAR(sum / n, 5.0, 0.01);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(3);
  std::vector<int> v(50);
  for (int i = 0; i < 50; ++i) v[static_cast<size_t>(i)] = i;
  std::vector<int> original = v;
  rng.Shuffle(&v);
  std::multiset<int> a(v.begin(), v.end()), b(original.begin(),
                                              original.end());
  EXPECT_EQ(a, b);
  EXPECT_NE(v, original);  // astronomically unlikely to be identity
}

TEST(RngTest, SplitProducesIndependentStream) {
  Rng parent(21);
  Rng child = parent.Split();
  EXPECT_NE(parent.NextU64(), child.NextU64());
}

TEST(CsvEscapeTest, PlainFieldUntouched) {
  EXPECT_EQ(CsvEscape("hello"), "hello");
}

TEST(CsvEscapeTest, CommaTriggersQuoting) {
  EXPECT_EQ(CsvEscape("a,b"), "\"a,b\"");
}

TEST(CsvEscapeTest, QuotesDoubled) {
  EXPECT_EQ(CsvEscape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(CsvEscapeTest, NewlineQuoted) {
  EXPECT_EQ(CsvEscape("a\nb"), "\"a\nb\"");
}

TEST(CsvWriterTest, WritesHeaderAndRows) {
  const std::string path = testing::TempDir() + "/csv_writer_test.csv";
  CsvWriter writer;
  ASSERT_TRUE(CsvWriter::Open(path, {"x", "y"}, &writer).ok());
  ASSERT_TRUE(writer.WriteRow(std::vector<std::string>{"1", "2"}).ok());
  ASSERT_TRUE(writer.WriteRow(std::vector<double>{0.5, 1.25}).ok());
  writer.Close();

  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "x,y");
  std::getline(in, line);
  EXPECT_EQ(line, "1,2");
  std::getline(in, line);
  EXPECT_EQ(line, "0.5,1.25");
  std::remove(path.c_str());
}

TEST(CsvWriterTest, RejectsArityMismatch) {
  const std::string path = testing::TempDir() + "/csv_arity_test.csv";
  CsvWriter writer;
  ASSERT_TRUE(CsvWriter::Open(path, {"a", "b"}, &writer).ok());
  EXPECT_EQ(writer.WriteRow(std::vector<std::string>{"only-one"}).code(),
            StatusCode::kInvalidArgument);
  writer.Close();
  std::remove(path.c_str());
}

TEST(CsvWriterTest, RejectsEmptyHeader) {
  CsvWriter writer;
  EXPECT_EQ(CsvWriter::Open("/tmp/x.csv", {}, &writer).code(),
            StatusCode::kInvalidArgument);
}

TEST(CsvWriterTest, RejectsUnopenedWrites) {
  CsvWriter writer;
  EXPECT_EQ(writer.WriteRow(std::vector<std::string>{"a"}).code(),
            StatusCode::kFailedPrecondition);
}

TEST(CsvWriterTest, ReportsUnwritablePath) {
  CsvWriter writer;
  EXPECT_EQ(
      CsvWriter::Open("/nonexistent-dir/file.csv", {"a"}, &writer).code(),
      StatusCode::kNotFound);
}

TEST(StringUtilTest, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ","), "a,b,c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"solo"}, "-"), "solo");
}

TEST(StringUtilTest, Split) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
}

TEST(StringUtilTest, SplitJoinRoundTrip) {
  const std::string text = "x,y,z,w";
  EXPECT_EQ(Join(Split(text, ','), ","), text);
}

TEST(StringUtilTest, FormatDouble) {
  EXPECT_EQ(FormatDouble(0.5, 3), "0.500");
  EXPECT_EQ(FormatDouble(-1.25, 2), "-1.25");
}

TEST(StringUtilTest, FormatPercent) {
  EXPECT_EQ(FormatPercent(0.69), "69.0%");
  EXPECT_EQ(FormatPercent(0.12345, 2), "12.35%");
}

TEST(StringUtilTest, FormatBytes) {
  EXPECT_EQ(FormatBytes(512), "512.0 B");
  EXPECT_EQ(FormatBytes(1536), "1.5 KiB");
  EXPECT_EQ(FormatBytes(3 * 1024 * 1024), "3.0 MiB");
}

TEST(TimerTest, MeasuresElapsedTime) {
  Timer timer;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GE(timer.ElapsedSeconds(), 0.0);
  EXPECT_GE(timer.ElapsedMillis(), timer.ElapsedSeconds());
}

TEST(CumulativeTimerTest, AccumulatesIntervals) {
  CumulativeTimer timer;
  timer.Start();
  timer.Stop();
  const double first = timer.TotalSeconds();
  timer.Start();
  timer.Stop();
  EXPECT_GE(timer.TotalSeconds(), first);
  timer.Clear();
  EXPECT_EQ(timer.TotalSeconds(), 0.0);
}

TEST(LoggingTest, LevelFilterRoundTrip) {
  const LogLevel original = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  ADR_LOG(Info) << "should be suppressed";
  SetLogLevel(original);
}

}  // namespace
}  // namespace adr
