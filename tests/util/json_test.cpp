#include "util/json.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

namespace pblpar::util {
namespace {

std::string one_value(const std::string& text) {
  Json json;
  json.value(text);
  return json.str();
}

TEST(JsonTest, EscapesQuoteBackslashAndControlBytes) {
  EXPECT_EQ(one_value("say \"hi\""), R"("say \"hi\"")");
  EXPECT_EQ(one_value("C:\\tmp"), R"("C:\\tmp")");
  EXPECT_EQ(one_value("a\nb\tc"), R"("a\u000ab\u0009c")");
  EXPECT_EQ(one_value(std::string("\x01\x1f", 2)), R"("\u0001\u001f")");
  EXPECT_EQ(one_value(std::string(1, '\0')), R"("\u0000")");
  // 0x20 and up, including UTF-8 bytes, pass through.
  EXPECT_EQ(one_value(" ~\xc3\xa9"), "\" ~\xc3\xa9\"");
}

TEST(JsonTest, KeysAreEscapedToo) {
  Json json;
  json.begin_object().field("a\"b", 1).end_object();
  EXPECT_EQ(json.str(), R"({"a\"b":1})");
}

TEST(JsonTest, NonFiniteDoublesAreNull) {
  Json json;
  json.begin_array()
      .value(std::numeric_limits<double>::quiet_NaN())
      .value(std::numeric_limits<double>::infinity())
      .value(-std::numeric_limits<double>::infinity())
      .end_array();
  EXPECT_EQ(json.str(), "[null,null,null]");
}

TEST(JsonTest, DoublesReadBackBitIdentical) {
  const std::vector<double> values = {
      0.1,
      1.0 / 3.0,
      6.4163e-05,
      -2.5e-300,
      1e300,
      123456789.125,
      std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::min(),
      -0.0};
  for (const double v : values) {
    Json json;
    json.value(v);
    const double back = std::strtod(json.str().c_str(), nullptr);
    EXPECT_EQ(std::memcmp(&back, &v, sizeof(v)), 0) << json.str();
  }
}

TEST(JsonTest, NumberSpellings) {
  Json json;
  json.begin_array()
      .value(8.0)
      .value(0.5)
      .value(1e21)
      .value(std::int64_t{-42})
      .value(std::numeric_limits<std::uint64_t>::max())
      .value(true)
      .value(false)
      .end_array();
  // An integral double keeps a ".0" so it still reads as a double.
  EXPECT_EQ(json.str(),
            "[8.0,0.5,1e+21,-42,18446744073709551615,true,false]");
}

TEST(JsonTest, CommasInNestedAndEmptyContainers) {
  Json json;
  json.begin_object()
      .key("empty_array")
      .begin_array()
      .end_array()
      .key("empty_object")
      .begin_object()
      .end_object()
      .key("rows")
      .begin_array();
  for (int i = 0; i < 3; ++i) {
    json.begin_object().field("i", i).key("inner").array(
        std::vector<int>(static_cast<std::size_t>(i), 7));
    json.end_object();
  }
  json.end_array().field("last", "x").end_object();
  EXPECT_EQ(json.str(),
            R"({"empty_array":[],"empty_object":{},"rows":[)"
            R"({"i":0,"inner":[]},{"i":1,"inner":[7]},)"
            R"({"i":2,"inner":[7,7]}],"last":"x"})");
}

TEST(JsonTest, IndentedStyleNestsTwoSpacesPerLevel) {
  Json json(Json::Style::indented);
  json.begin_object()
      .field("a", 1)
      .key("b")
      .begin_array()
      .value("x")
      .begin_object()
      .end_object()
      .end_array()
      .key("c")
      .begin_array()
      .end_array()
      .end_object();
  EXPECT_EQ(json.str(),
            "{\n"
            "  \"a\": 1,\n"
            "  \"b\": [\n"
            "    \"x\",\n"
            "    {}\n"
            "  ],\n"
            "  \"c\": []\n"
            "}");
}

}  // namespace
}  // namespace pblpar::util
