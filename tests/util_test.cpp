// Unit tests for flexio::util: status, strings, rng, cacheline.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <thread>
#include <vector>

#include "util/backoff.h"
#include "util/cacheline.h"
#include "util/common.h"
#include "util/log.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/strings.h"

namespace flexio {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.is_ok());
  EXPECT_EQ(s.code(), ErrorCode::kOk);
  EXPECT_EQ(s.to_string(), "ok");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = make_error(ErrorCode::kTimeout, "fetch exceeded 5s");
  EXPECT_FALSE(s.is_ok());
  EXPECT_EQ(s.code(), ErrorCode::kTimeout);
  EXPECT_EQ(s.to_string(), "timeout: fetch exceeded 5s");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(ErrorCode::kUnimplemented); ++c) {
    EXPECT_NE(error_code_name(static_cast<ErrorCode>(c)), "unknown");
  }
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v(42);
  ASSERT_TRUE(v.is_ok());
  EXPECT_EQ(v.value(), 42);
  EXPECT_TRUE(v.status().is_ok());
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v(make_error(ErrorCode::kNotFound, "no such stream"));
  EXPECT_FALSE(v.is_ok());
  EXPECT_EQ(v.status().code(), ErrorCode::kNotFound);
  EXPECT_EQ(v.value_or(-1), -1);
}

TEST(StatusOrTest, MoveOnlyValue) {
  StatusOr<std::unique_ptr<int>> v(std::make_unique<int>(7));
  ASSERT_TRUE(v.is_ok());
  std::unique_ptr<int> p = std::move(v).value();
  EXPECT_EQ(*p, 7);
}

TEST(CommonTest, AlignUp) {
  EXPECT_EQ(align_up(0, 8), 0u);
  EXPECT_EQ(align_up(1, 8), 8u);
  EXPECT_EQ(align_up(8, 8), 8u);
  EXPECT_EQ(align_up(9, 8), 16u);
  EXPECT_EQ(align_up(63, 64), 64u);
}

TEST(CommonTest, IsPow2) {
  EXPECT_FALSE(is_pow2(0));
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(64));
  EXPECT_FALSE(is_pow2(65));
}

TEST(CachelineTest, PaddedSeparatesValues) {
  Padded<std::uint32_t> a[2];
  const auto* pa = reinterpret_cast<const char*>(&a[0]);
  const auto* pb = reinterpret_cast<const char*>(&a[1]);
  EXPECT_GE(static_cast<std::size_t>(pb - pa), kCacheLineSize);
}

TEST(StringsTest, Trim) {
  EXPECT_EQ(trim("  abc  "), "abc");
  EXPECT_EQ(trim("abc"), "abc");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("\t\na b\r\n"), "a b");
}

TEST(StringsTest, Split) {
  auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
  EXPECT_EQ(split("", ',').size(), 1u);
}

TEST(StringsTest, ParseSizeSuffixes) {
  std::size_t v = 0;
  EXPECT_TRUE(parse_size("64", &v));
  EXPECT_EQ(v, 64u);
  EXPECT_TRUE(parse_size("4K", &v));
  EXPECT_EQ(v, 4096u);
  EXPECT_TRUE(parse_size("2m", &v));
  EXPECT_EQ(v, 2u << 20);
  EXPECT_TRUE(parse_size("1G", &v));
  EXPECT_EQ(v, 1u << 30);
  EXPECT_FALSE(parse_size("", &v));
  EXPECT_FALSE(parse_size("abc", &v));
  EXPECT_FALSE(parse_size("-4K", &v));
}

TEST(StringsTest, ParseIntRejectsGarbage) {
  long long v = 0;
  EXPECT_TRUE(parse_int(" 42 ", &v));
  EXPECT_EQ(v, 42);
  EXPECT_TRUE(parse_int("-7", &v));
  EXPECT_EQ(v, -7);
  EXPECT_FALSE(parse_int("42x", &v));
  EXPECT_FALSE(parse_int("", &v));
}

TEST(StringsTest, ParseDouble) {
  double v = 0;
  EXPECT_TRUE(parse_double("3.5", &v));
  EXPECT_DOUBLE_EQ(v, 3.5);
  EXPECT_TRUE(parse_double("1e3", &v));
  EXPECT_DOUBLE_EQ(v, 1000.0);
  EXPECT_FALSE(parse_double("1.2.3", &v));
}

TEST(StringsTest, StrFormat) {
  EXPECT_EQ(str_format("x=%d y=%s", 3, "ok"), "x=3 y=ok");
  EXPECT_EQ(str_format("%s", ""), "");
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123), c(124);
  EXPECT_EQ(a.next_u64(), b.next_u64());
  EXPECT_NE(a.next_u64(), c.next_u64());
}

TEST(RngTest, DoublesInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, NextBelowRespectsBound) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
}

TEST(RngTest, GaussianRoughlyStandard) {
  Rng rng(42);
  constexpr int kSamples = 20000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < kSamples; ++i) {
    const double x = rng.next_gaussian();
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / kSamples;
  const double variance = (sum_sq - kSamples * mean * mean) / (kSamples - 1);
  EXPECT_NEAR(mean, 0.0, 0.03);
  EXPECT_NEAR(std::sqrt(variance), 1.0, 0.03);
}

TEST(LogTest, LevelGateWorks) {
  const LogLevel prev = log_level();
  set_log_level(LogLevel::kOff);
  EXPECT_FALSE(detail::log_enabled(LogLevel::kError));
  set_log_level(LogLevel::kDebug);
  EXPECT_TRUE(detail::log_enabled(LogLevel::kDebug));
  EXPECT_FALSE(detail::log_enabled(LogLevel::kTrace));
  set_log_level(prev);
}

// ----------------------------------------------------------- backoff ----

// Recorder for the process-wide sleep hook (plain function pointer, so the
// capture buffer is file-static).
std::vector<std::chrono::nanoseconds>& recorded_sleeps() {
  static std::vector<std::chrono::nanoseconds> v;
  return v;
}
void record_sleep(std::chrono::nanoseconds d) { recorded_sleeps().push_back(d); }

TEST(BackoffTest, DelaysGrowGeometricallyAndCap) {
  util::BackoffPolicy policy;
  policy.initial = std::chrono::milliseconds(1);
  policy.max = std::chrono::milliseconds(8);
  policy.multiplier = 2.0;
  util::Backoff backoff(policy);
  using std::chrono::milliseconds;
  EXPECT_EQ(backoff.next_delay(), milliseconds(1));
  EXPECT_EQ(backoff.next_delay(), milliseconds(2));
  EXPECT_EQ(backoff.next_delay(), milliseconds(4));
  EXPECT_EQ(backoff.next_delay(), milliseconds(8));
  EXPECT_EQ(backoff.next_delay(), milliseconds(8));  // capped
  EXPECT_EQ(backoff.attempts(), 5);
  backoff.reset();
  EXPECT_EQ(backoff.attempts(), 0);
  EXPECT_EQ(backoff.next_delay(), milliseconds(1));
}

TEST(BackoffTest, SleepHookCapturesExactSequenceWithoutWaiting) {
  // A retry loop under the fake-sleep hook runs instantly and leaves the
  // exact delay schedule behind -- this is how the StreamReader's file-mode
  // open retry is pinned without wall-clock waits.
  recorded_sleeps().clear();
  util::Backoff::set_sleep_for_testing(&record_sleep);
  util::BackoffPolicy policy;
  policy.initial = std::chrono::milliseconds(2);
  policy.max = std::chrono::milliseconds(16);
  util::Backoff backoff(policy);
  for (int attempt = 0; attempt < 5; ++attempt) backoff.sleep();
  util::Backoff::set_sleep_for_testing(nullptr);
  using std::chrono::milliseconds;
  const std::vector<std::chrono::nanoseconds> want = {
      milliseconds(2), milliseconds(4), milliseconds(8), milliseconds(16),
      milliseconds(16)};
  EXPECT_EQ(recorded_sleeps(), want);
  recorded_sleeps().clear();
}

}  // namespace
}  // namespace flexio
