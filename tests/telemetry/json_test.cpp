#include "telemetry/json.hpp"

#include <gtest/gtest.h>

namespace eslurm::telemetry {
namespace {

TEST(JsonParser, Scalars) {
  EXPECT_TRUE(parse_json("null")->is_null());
  EXPECT_TRUE(parse_json("true")->as_bool());
  EXPECT_FALSE(parse_json("false")->as_bool());
  EXPECT_DOUBLE_EQ(parse_json("42")->as_number(), 42.0);
  EXPECT_DOUBLE_EQ(parse_json("-2.5e3")->as_number(), -2500.0);
  EXPECT_EQ(parse_json("\"hi\"")->as_string(), "hi");
}

TEST(JsonParser, NestedContainers) {
  const auto doc = parse_json(R"({"a": [1, 2, {"b": null}], "c": {"d": true}})");
  ASSERT_TRUE(doc.has_value());
  const JsonValue* a = doc->find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->items().size(), 3u);
  EXPECT_DOUBLE_EQ(a->items()[1].as_number(), 2.0);
  EXPECT_TRUE(a->items()[2].find("b")->is_null());
  EXPECT_TRUE(doc->find("c")->find("d")->as_bool());
  EXPECT_EQ(doc->find("missing"), nullptr);
}

TEST(JsonParser, MembersPreserveDocumentOrder) {
  const auto doc = parse_json(R"({"z": 1, "a": 2, "m": 3})");
  ASSERT_TRUE(doc.has_value());
  ASSERT_EQ(doc->members().size(), 3u);
  EXPECT_EQ(doc->members()[0].first, "z");
  EXPECT_EQ(doc->members()[1].first, "a");
  EXPECT_EQ(doc->members()[2].first, "m");
}

TEST(JsonParser, StringEscapes) {
  const auto doc = parse_json(R"("line\nquote\" back\\ uA snow☃")");
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->as_string(), "line\nquote\" back\\ uA snow\xE2\x98\x83");
}

TEST(JsonParser, RejectsMalformedInput) {
  std::string error;
  EXPECT_FALSE(parse_json("", &error).has_value());
  EXPECT_FALSE(parse_json("{", &error).has_value());
  EXPECT_FALSE(parse_json("[1, 2,]", &error).has_value());
  EXPECT_FALSE(parse_json("{\"a\" 1}", &error).has_value());
  EXPECT_FALSE(parse_json("nul", &error).has_value());
  EXPECT_FALSE(parse_json("'single'", &error).has_value());
  EXPECT_FALSE(error.empty());
}

TEST(JsonParser, RejectsTrailingGarbage) {
  std::string error;
  EXPECT_FALSE(parse_json("{} extra", &error).has_value());
  EXPECT_NE(error.find("offset"), std::string::npos);
  // Trailing whitespace alone is fine.
  EXPECT_TRUE(parse_json("  {}  \n").has_value());
}

TEST(JsonEscape, EscapesControlAndSpecialCharacters) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(json_escape("\n\t"), "\\n\\t");
  EXPECT_EQ(json_escape(std::string_view("\x01", 1)), "\\u0001");
}

TEST(JsonEscape, RoundTripsThroughParser) {
  const std::string nasty = "he said \"no\"\n\ttab\\slash";
  std::string quoted = "\"";
  quoted += json_escape(nasty);
  quoted += '"';
  const auto doc = parse_json(quoted);
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->as_string(), nasty);
}

}  // namespace
}  // namespace eslurm::telemetry
