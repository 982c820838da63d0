#include <cmath>
#include <cstdlib>
#include <iterator>
#include <limits>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "util/json_writer.hpp"

namespace {

using diners::util::json_quoted;
using diners::util::JsonWriter;

TEST(JsonQuoted, EscapesControlAndStructuralCharacters) {
  EXPECT_EQ(json_quoted("plain"), "\"plain\"");
  EXPECT_EQ(json_quoted("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(json_quoted("back\\slash"), "\"back\\\\slash\"");
  EXPECT_EQ(json_quoted("line\nbreak"), "\"line\\nbreak\"");
  EXPECT_EQ(json_quoted("tab\there"), "\"tab\\there\"");
  EXPECT_EQ(json_quoted(std::string("nul\0byte", 8)), "\"nul\\u0000byte\"");
  EXPECT_EQ(json_quoted("\x01"), "\"\\u0001\"");
}

TEST(JsonWriter, WritesNestedStructure) {
  std::ostringstream out;
  JsonWriter w(out);
  w.begin_object()
      .field("name", "ring")
      .field("n", 8)
      .field("ok", true)
      .key("stats")
      .begin_object()
      .field("mean", 2.5)
      .end_object()
      .key("list")
      .begin_array()
      .value(1)
      .value(2)
      .end_array()
      .end_object();
  w.finish();
  const std::string expected =
      "{\n"
      "  \"name\": \"ring\",\n"
      "  \"n\": 8,\n"
      "  \"ok\": true,\n"
      "  \"stats\": {\n"
      "    \"mean\": 2.5\n"
      "  },\n"
      "  \"list\": [\n"
      "    1,\n"
      "    2\n"
      "  ]\n"
      "}\n";
  EXPECT_EQ(out.str(), expected);
}

TEST(JsonWriter, FinishClosesOpenContainers) {
  std::ostringstream out;
  JsonWriter w(out);
  w.begin_object().key("a").begin_array().value(1);
  w.finish();
  w.finish();  // idempotent: no second close or newline
  EXPECT_EQ(out.str(), "{\n  \"a\": [\n    1\n  ]\n}\n");
}

TEST(JsonWriter, EmitsNullForNonFiniteDoubles) {
  std::ostringstream out;
  JsonWriter w(out);
  w.begin_array()
      .value(std::numeric_limits<double>::infinity())
      .value(std::nan(""))
      .end_array();
  w.finish();
  EXPECT_EQ(out.str(), "[\n  null,\n  null\n]\n");
}

TEST(JsonWriter, NumbersRoundTripExactly) {
  const double inputs[] = {0.1, 1e300, -42.0, 123.456};
  std::ostringstream out;
  JsonWriter w(out, /*indent=*/0);
  w.begin_array();
  for (const double d : inputs) w.value(d);
  w.end_array();
  w.finish();
  // Shortest round-trip spellings, integers without a fraction.
  const std::string text = out.str();
  EXPECT_EQ(text, "[0.1,1e+300,-42,123.456]\n");
  // Each token reads back as exactly the double that was written.
  std::istringstream tokens(text.substr(1, text.size() - 3));
  std::string token;
  std::size_t i = 0;
  while (std::getline(tokens, token, ',')) {
    ASSERT_LT(i, std::size(inputs));
    EXPECT_EQ(std::strtod(token.c_str(), nullptr), inputs[i]) << token;
    ++i;
  }
  EXPECT_EQ(i, std::size(inputs));
}

TEST(JsonRoundTrip, WriterOutputParsesBackEqual) {
  std::ostringstream out;
  JsonWriter w(out);
  w.begin_object()
      .field("label", "quote\" and \\ and\nnewline")
      .field("value", 123.456)
      .key("params")
      .begin_object()
      .field("topology", "ring")
      .end_object()
      .end_object();
  w.finish();
  const std::string expected =
      "{\n"
      "  \"label\": \"quote\\\" and \\\\ and\\nnewline\",\n"
      "  \"value\": 123.456,\n"
      "  \"params\": {\n"
      "    \"topology\": \"ring\"\n"
      "  }\n"
      "}\n";
  EXPECT_EQ(out.str(), expected);
}

}  // namespace
