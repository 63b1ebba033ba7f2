// Unit tests for src/util: time formatting, status/result, strings, token
// bucket, and the flat containers of the request path.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/util/flat_map.h"
#include "src/util/inline_vector.h"
#include "src/util/status.h"
#include "src/util/strings.h"
#include "src/util/time.h"
#include "src/util/token_bucket.h"

namespace sns {
namespace {

// ---------- time -------------------------------------------------------------

TEST(TimeTest, UnitConversions) {
  EXPECT_EQ(Seconds(1.0), 1000 * Milliseconds(1.0));
  EXPECT_EQ(Milliseconds(1.0), 1000 * Microseconds(1));
  EXPECT_EQ(Minutes(2), 120 * kSecond);
  EXPECT_EQ(Hours(1), 3600 * kSecond);
  EXPECT_DOUBLE_EQ(ToSeconds(Seconds(2.5)), 2.5);
  EXPECT_DOUBLE_EQ(ToMilliseconds(Microseconds(1500)), 1.5);
}

TEST(TimeTest, FormatTime) {
  EXPECT_EQ(FormatTime(0), "0:00:00.000");
  EXPECT_EQ(FormatTime(Seconds(61) + Milliseconds(7.0)), "0:01:01.007");
  EXPECT_EQ(FormatTime(Hours(2) + Minutes(3) + Seconds(4)), "2:03:04.000");
}

TEST(TimeTest, FormatDurationPicksUnits) {
  EXPECT_EQ(FormatDuration(Nanoseconds(12)), "12ns");
  EXPECT_EQ(FormatDuration(Microseconds(2) + Nanoseconds(500)), "2.5us");
  EXPECT_EQ(FormatDuration(Milliseconds(17.0)), "17.0ms");
  EXPECT_EQ(FormatDuration(Seconds(2.5)), "2.50s");
  EXPECT_EQ(FormatDuration(Minutes(90)), "1.50h");
}

// ---------- status / result ---------------------------------------------------

TEST(StatusTest, OkByDefault) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status status = TimeoutError("manager beacon lost");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kTimeout);
  EXPECT_EQ(status.ToString(), "TIMEOUT: manager beacon lost");
}

TEST(StatusTest, AllConstructorsProduceDistinctCodes) {
  EXPECT_EQ(NotFoundError("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(UnavailableError("x").code(), StatusCode::kUnavailable);
  EXPECT_EQ(InvalidArgumentError("x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ResourceExhaustedError("x").code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(FailedPreconditionError("x").code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(CorruptionError("x").code(), StatusCode::kCorruption);
  EXPECT_EQ(InternalError("x").code(), StatusCode::kInternal);
}

TEST(ResultTest, HoldsValue) {
  Result<int> result = 42;
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 42);
  EXPECT_TRUE(result.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> result = NotFoundError("nope");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(result.value_or(-1), -1);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> result = std::string("payload");
  std::string taken = std::move(result).value();
  EXPECT_EQ(taken, "payload");
}

// ---------- strings -----------------------------------------------------------

TEST(StringsTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%.2f", 3.14159), "3.14");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

TEST(StringsTest, StrFormatPastTheStackBuffer) {
  std::string long_text(1000, 'x');
  std::string out = StrFormat("<%s|%d>", long_text.c_str(), 7);
  EXPECT_EQ(out, "<" + long_text + "|7>");
  EXPECT_EQ(StrFormat("%s", std::string(255, 'y').c_str()).size(), 255u);  // Exactly fits.
  EXPECT_EQ(StrFormat("%s", std::string(256, 'y').c_str()).size(), 256u);  // One past.
  EXPECT_EQ(StrFormat("%s", ""), "");
}

TEST(StringsTest, JoinAndSplit) {
  EXPECT_EQ(StrJoin({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(StrJoin({}, ","), "");
  std::vector<std::string> parts = StrSplit("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(StrSplit("", ',').size(), 1u);
}

TEST(StringsTest, HumanBytes) {
  EXPECT_EQ(HumanBytes(999), "999 B");
  EXPECT_EQ(HumanBytes(12300), "12.3 KB");
  EXPECT_EQ(HumanBytes(4000000), "4.0 MB");
  EXPECT_EQ(HumanBytes(6000000000LL), "6.00 GB");
}

TEST(StringsTest, AffixesAndCase) {
  EXPECT_TRUE(StartsWith("http://x", "http://"));
  EXPECT_FALSE(StartsWith("x", "http://"));
  EXPECT_TRUE(EndsWith("photo.jpg", ".jpg"));
  EXPECT_FALSE(EndsWith(".jpg", "photo.jpg"));
  EXPECT_EQ(AsciiLower("MiXeD123"), "mixed123");
}

TEST(StringsTest, Fnv1aIsStableAndSpreads) {
  EXPECT_EQ(Fnv1a("abc"), Fnv1a("abc"));
  EXPECT_NE(Fnv1a("abc"), Fnv1a("abd"));
  EXPECT_NE(Fnv1a(""), Fnv1a("a"));
}

// ---------- token bucket ---------------------------------------------------------

// ---------- flat containers --------------------------------------------------

TEST(InlineVectorTest, StaysInlineUpToCapacityThenSpills) {
  InlineVector<int64_t, 3> v;
  EXPECT_TRUE(v.empty());
  for (int64_t i = 0; i < 3; ++i) v.push_back(i);
  const int64_t* inline_data = v.data();
  EXPECT_EQ(v.size(), 3u);
  v.push_back(3);  // Spills: the elements move to the heap, in order.
  v.push_back(4);
  EXPECT_NE(v.data(), inline_data);
  EXPECT_EQ(std::vector<int64_t>(v.begin(), v.end()), (std::vector<int64_t>{0, 1, 2, 3, 4}));
  InlineVector<int64_t, 3> copy = v;
  EXPECT_EQ(copy, v);
  copy.clear();
  EXPECT_TRUE(copy.empty());
  copy.push_back(9);
  EXPECT_EQ(copy.front(), 9);
  EXPECT_NE(copy, v);
  EXPECT_EQ(copy, (InlineVector<int64_t, 3>{9}));
}

TEST(FlatMapTest, ChurnRecyclesPositionsAndKeepsValuesInPlace) {
  // Request ids inserted and erased in turn, never more than 8 live at once.
  FlatMap<uint64_t, std::unique_ptr<int>> map;
  for (uint64_t id = 1; id <= 8; ++id) map.Set(id, std::make_unique<int>(static_cast<int>(id)));
  std::unique_ptr<int>* slot_of_8 = map.Find(8);
  std::unique_ptr<int>* slot_of_1 = map.Find(1);
  map.Erase(1);
  map.Set(9, std::make_unique<int>(9));
  // Erasing another key moves no value, and the erased position is reused.
  EXPECT_EQ(map.Find(8), slot_of_8);
  EXPECT_EQ(map.Find(9), slot_of_1);
  for (uint64_t id = 10; id <= 100000; ++id) {
    ASSERT_TRUE(map.Erase(id - 8));
    map.Set(id, std::make_unique<int>(static_cast<int>(id)));
    ASSERT_EQ(map.size(), 8u);
  }
  for (uint64_t id = 100000 - 7; id <= 100000; ++id) {
    ASSERT_NE(map.Find(id), nullptr) << id;
    EXPECT_EQ(**map.Find(id), static_cast<int>(id));
  }
  EXPECT_EQ(map.Find(100000 - 8), nullptr);
  EXPECT_FALSE(map.Erase(12345));
  EXPECT_EQ(map.EraseIf([](uint64_t id, const std::unique_ptr<int>&) { return id % 2 == 0; }), 4u);
  EXPECT_EQ(map.size(), 4u);
}

TEST(TokenBucketTest, StartsFull) {
  TokenBucket bucket(10.0, 5.0);
  EXPECT_TRUE(bucket.TryTake(0, 5.0));
  EXPECT_FALSE(bucket.TryTake(0, 0.5));
}

TEST(TokenBucketTest, RefillsAtRate) {
  TokenBucket bucket(10.0, 5.0);
  ASSERT_TRUE(bucket.TryTake(0, 5.0));
  // After 0.3 s, 3 tokens accrued.
  EXPECT_TRUE(bucket.TryTake(Milliseconds(300), 3.0));
  EXPECT_FALSE(bucket.TryTake(Milliseconds(300), 0.5));
}

TEST(TokenBucketTest, CapsAtBurst) {
  TokenBucket bucket(10.0, 5.0);
  bucket.TryTake(0, 5.0);
  EXPECT_NEAR(bucket.available(Seconds(100)), 5.0, 1e-9);
}

TEST(TokenBucketTest, NextAvailablePredictsRefillTime) {
  TokenBucket bucket(10.0, 5.0);
  bucket.TryTake(0, 5.0);
  SimTime when = bucket.NextAvailable(0, 2.0);
  EXPECT_NEAR(ToSeconds(when), 0.2, 1e-6);
  EXPECT_TRUE(bucket.TryTake(when, 2.0));
}

TEST(TokenBucketTest, ZeroRateNeverRefills) {
  TokenBucket bucket(0.0, 1.0);
  bucket.TryTake(0, 1.0);
  EXPECT_EQ(bucket.NextAvailable(0, 1.0), kTimeNever);
}

}  // namespace
}  // namespace sns
