// Tests for the JSON writer and the analysis JSON export.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "harness/scenario.hpp"
#include "sdchecker/export.hpp"
#include "workloads/tpch.hpp"

namespace sdc {
namespace {

TEST(JsonWriter, ObjectsArraysAndCommas) {
  json::Writer w;
  w.begin_object();
  w.field("a", std::int64_t{1});
  w.field("b", "two");
  w.key("c").begin_array().value(std::int64_t{3}).value(std::int64_t{4}).end_array();
  w.key("d").begin_object().field("e", true).end_object();
  w.key("f").null();
  w.end_object();
  EXPECT_EQ(w.str(),
            R"({"a":1,"b":"two","c":[3,4],"d":{"e":true},"f":null})");
}

TEST(JsonWriter, OptionalValues) {
  json::Writer w;
  w.begin_object();
  w.field("present", std::optional<std::int64_t>{42});
  w.field("absent", std::optional<std::int64_t>{});
  w.end_object();
  EXPECT_EQ(w.str(), R"({"present":42,"absent":null})");
}

TEST(JsonWriter, EscapesControlCharacters) {
  EXPECT_EQ(json::escape("a\"b\\c\nd\te"), "a\\\"b\\\\c\\nd\\te");
  EXPECT_EQ(json::escape(std::string_view("\x01", 1)), "\\u0001");
}

// --- byte identity with the formatting the writer used to delegate to --

/// The escape rule as the writer applied it through snprintf.
std::string reference_escape(std::string_view text) {
  std::string out;
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

TEST(JsonWriter, IntegersMatchToString) {
  const std::vector<std::int64_t> values = {
      0,
      1,
      -1,
      9,
      -10,
      1499100000000,
      -1499100000000,
      std::numeric_limits<std::int32_t>::min(),
      std::numeric_limits<std::int64_t>::max(),
      std::numeric_limits<std::int64_t>::min()};
  for (const std::int64_t v : values) {
    json::Writer w;
    w.value(v);
    EXPECT_EQ(w.str(), std::to_string(v));
    json::Writer keyed;
    keyed.begin_object().field("n", v).end_object();
    EXPECT_EQ(keyed.str(), "{\"n\":" + std::to_string(v) + "}");
  }
}

TEST(JsonWriter, EveryAsciiByteEscapesAsBefore) {
  std::string all;
  for (int c = 0; c <= 0x7f; ++c) {
    const std::string one(1, static_cast<char>(c));
    all += one;
    EXPECT_EQ(json::escape(one), reference_escape(one)) << "byte " << c;
    json::Writer w;
    w.begin_object().field(one, one).end_object();
    const std::string quoted = "\"" + reference_escape(one) + "\"";
    EXPECT_EQ(w.str(), "{" + quoted + ":" + quoted + "}") << "byte " << c;
  }
  EXPECT_EQ(json::escape(all), reference_escape(all));
  json::Writer w;
  w.value(all);
  EXPECT_EQ(w.str(), "\"" + reference_escape(all) + "\"");
}

TEST(JsonWriter, MultiByteUtf8PassesThrough) {
  const std::string text = "d\u00e9lai \u8c03\u5ea6 \U0001f680 \"q\"";
  EXPECT_EQ(json::escape(text), reference_escape(text));
  json::Writer w;
  w.begin_object().field(text, text).end_object();
  const std::string quoted = "\"" + reference_escape(text) + "\"";
  EXPECT_EQ(w.str(), "{" + quoted + ":" + quoted + "}");
}

TEST(JsonWriter, DoubleFormatting) {
  json::Writer w;
  w.begin_array();
  w.value(1.5);
  w.value(std::nan(""));
  w.end_array();
  EXPECT_EQ(w.str(), "[1.5,null]");
}

TEST(JsonWriter, NestedArraysOfObjects) {
  json::Writer w;
  w.begin_array();
  for (int i = 0; i < 2; ++i) {
    w.begin_object().field("i", static_cast<std::int64_t>(i)).end_object();
  }
  w.end_array();
  EXPECT_EQ(w.str(), R"([{"i":0},{"i":1}])");
}

TEST(AnalysisJson, StructureAndContent) {
  harness::ScenarioConfig scenario;
  scenario.seed = 501;
  harness::SparkSubmissionPlan plan;
  plan.at = seconds(1);
  plan.app = workloads::make_tpch_query(1, 1024, 2);
  scenario.spark_jobs.push_back(std::move(plan));
  const auto analysis =
      checker::SdChecker().analyze(harness::run_scenario(scenario).logs);
  const std::string text = checker::analysis_json(analysis);

  EXPECT_EQ(text.front(), '{');
  EXPECT_EQ(text.back(), '}');
  EXPECT_NE(text.find("\"summary\":{"), std::string::npos);
  EXPECT_NE(text.find("\"aggregate\":{"), std::string::npos);
  EXPECT_NE(text.find("\"apps\":["), std::string::npos);
  EXPECT_NE(text.find("\"app\":\"application_1499100000000_0001\""),
            std::string::npos);
  EXPECT_NE(text.find("\"total_ms\":"), std::string::npos);
  EXPECT_NE(text.find("\"is_am\":true"), std::string::npos);
  EXPECT_NE(text.find("\"anomalies\":[]"), std::string::npos);
  // Balanced braces/brackets (rough structural sanity).
  std::int64_t depth = 0;
  for (const char c : text) {
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST(AnalysisJson, EmptyAnalysis) {
  checker::AnalysisResult empty;
  const std::string text = checker::analysis_json(empty);
  EXPECT_NE(text.find("\"apps\":[]"), std::string::npos);
  EXPECT_NE(text.find("\"applications\":0"), std::string::npos);
}

}  // namespace
}  // namespace sdc
