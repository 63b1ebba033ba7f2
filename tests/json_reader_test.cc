// Tests for the strict JSON reader the artifact tools share
// (tools/json_reader.h): a table of documents it must accept or reject, and
// the values it hands back.

#include "tools/json_reader.h"

#include <gtest/gtest.h>

#include <map>
#include <string>

namespace sns {
namespace {

// Validates `text` as one JSON value followed by nothing but whitespace.
bool Accepts(const std::string& text) {
  JsonReader reader(text);
  return reader.Skip() && reader.AtEnd();
}

TEST(JsonReaderTest, AcceptsValidDocuments) {
  const char* const kValid[] = {
      "0", "-0", "7", "-12", "3.25", "-0.5", "1e5", "1E5", "1e+5", "2.5e-3",
      "1.7976931348623157e308", "1e-400",  // Underflow to zero is finite.
      "true", "false", "null", "\"\"", "\"plain\"",
      "\"\\\" \\\\ \\/ \\b \\f \\n \\r \\t\"", "\"\\u00e9\\uABCD\"",
      "{}", "[]", "{ }", "[ ]", " \t\r\n{\"a\" : 1 , \"b\":[1, 2 ,3]} \n",
      "{\"a\":{\"b\":{\"c\":[[],[{}],{\"d\":null}]}}}", "[{\"k\":\"v\"},true,-1.5e2]",
  };
  for (const char* text : kValid) {
    EXPECT_TRUE(Accepts(text)) << text;
  }
}

TEST(JsonReaderTest, RejectsMalformedDocuments) {
  const char* const kInvalid[] = {
      // The number grammar, and the non-finite spellings printf emits.
      "-", "1.", ".5", "1e", "1e+", "+1", "0x10", "--1", "1.e3",
      "NaN", "nan", "-nan", "Infinity", "-Infinity", "inf", "-inf", "1e999",
      "-1e400",
      // Escapes: bad, truncated, and non-hex \u.
      "\"\\x\"", "\"\\\"", "\"abc\\", "\"\\u12\"", "\"\\u12g4\"", "\"\\uZZZZ\"",
      // Literals.
      "tru", "nul", "True", "falsey",
      // Unterminated values.
      "", "   ", "\"abc", "{", "[", "{\"a\"", "{\"a\":", "{\"a\":1", "[1,2",
      "{\"a\":1,", "[1,",
      // Structure.
      "{,}", "[,]", "{\"a\":1,}", "[1,]", "{\"a\" 1}", "{a:1}", "{1:2}",
      "[1 2]", "{\"a\":1 \"b\":2}",
      // Trailing content.
      "{} {}", "1 2", "{}x", "[]]", "null,",
  };
  for (const char* text : kInvalid) {
    EXPECT_FALSE(Accepts(text)) << text;
  }
}

TEST(JsonReaderTest, ReadsTypedValuesAndSkipsTheRest) {
  JsonReader reader(
      "{\"name\":\"a\\tb\\u0041\",\"n\":-2.5e2,\"on\":true,\"off\":false,"
      "\"skip\":{\"x\":[1,{\"y\":\"}\"}]},\"empty\":{}}");
  std::map<std::string, int> seen;
  std::string name;
  double n = 0;
  bool on = false;
  bool off = true;
  bool ok = reader.Object([&](const std::string& key) {
    ++seen[key];
    if (key == "name") return reader.String(&name);
    if (key == "n") return reader.Number(&n);
    if (key == "on") return reader.Bool(&on);
    if (key == "off") return reader.Bool(&off);
    if (key == "empty") {
      return reader.Object([](const std::string&) { return false; });
    }
    return reader.Skip();
  });
  ASSERT_TRUE(ok) << reader.error();
  EXPECT_TRUE(reader.AtEnd());
  EXPECT_EQ(name, "a\tb?");  // \u escapes read as '?'.
  EXPECT_EQ(n, -250.0);
  EXPECT_TRUE(on);
  EXPECT_FALSE(off);
  EXPECT_EQ(seen, (std::map<std::string, int>{
                      {"name", 1}, {"n", 1}, {"on", 1}, {"off", 1}, {"skip", 1}, {"empty", 1}}));
}

TEST(JsonReaderTest, TypedReadsRejectOtherTypes) {
  std::string s;
  double d = 0;
  bool b = false;
  EXPECT_FALSE(JsonReader("1").String(&s));
  EXPECT_FALSE(JsonReader("\"1\"").Number(&d));
  EXPECT_FALSE(JsonReader("null").Number(&d));
  EXPECT_FALSE(JsonReader("1").Bool(&b));
  EXPECT_FALSE(JsonReader("[]").Object([](const std::string&) { return true; }));
  JsonReader reader("NaN");
  EXPECT_FALSE(reader.Number(&d));
  EXPECT_FALSE(reader.error().empty());
}

TEST(JsonReaderTest, MemberCallbackFailureStopsTheRead) {
  JsonReader reader("{\"a\":1,\"b\":2}");
  int calls = 0;
  EXPECT_FALSE(reader.Object([&](const std::string&) {
    ++calls;
    return reader.Fail("stop");
  }));
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(reader.error(), "stop");
}

TEST(JsonReaderTest, ReadFileReadsWholeFileAndReportsMissingOnes) {
  std::string path = testing::TempDir() + "/json_reader_test.json";
  std::string body(200000, ' ');
  body.replace(0, 2, "[]");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fwrite(body.data(), 1, body.size(), f);
  ASSERT_EQ(std::fclose(f), 0);
  std::string text;
  ASSERT_TRUE(ReadFile(path.c_str(), &text));
  EXPECT_EQ(text, body);
  std::string missing;
  EXPECT_FALSE(ReadFile((path + ".absent").c_str(), &missing));
}

}  // namespace
}  // namespace sns
