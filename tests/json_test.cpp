// Tests for the JSON writer and the analysis JSON export.
#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/rng.hpp"
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

/// `text` in double quotes, built by appending: GCC 12 at -O3 reports a
/// false -Wrestrict inside char_traits.h for `"\"" + temporary + "\""`.
std::string quote(const std::string& text) {
  std::string out = "\"";
  out += text;
  out += '"';
  return out;
}

TEST(JsonWriter, EveryAsciiByteEscapesAsBefore) {
  std::string all;
  for (int c = 0; c <= 0x7f; ++c) {
    const std::string one(1, static_cast<char>(c));
    all += one;
    EXPECT_EQ(json::escape(one), reference_escape(one)) << "byte " << c;
    json::Writer w;
    w.begin_object().field(one, one).end_object();
    const std::string quoted = quote(reference_escape(one));
    EXPECT_EQ(w.str(), "{" + quoted + ":" + quoted + "}") << "byte " << c;
  }
  EXPECT_EQ(json::escape(all), reference_escape(all));
  json::Writer w;
  w.value(all);
  EXPECT_EQ(w.str(), quote(reference_escape(all)));
}

TEST(JsonWriter, MultiByteUtf8PassesThrough) {
  const std::string text = "d\u00e9lai \u8c03\u5ea6 \U0001f680 \"q\"";
  EXPECT_EQ(json::escape(text), reference_escape(text));
  json::Writer w;
  w.begin_object().field(text, text).end_object();
  const std::string quoted = quote(reference_escape(text));
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

/// The double as printf's `%.6g` renders it.
std::string printf_g6(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  return buf;
}

std::string written(double value) {
  json::Writer w;
  w.value(value);
  return w.str();
}

TEST(JsonWriter, DoublesMatchPrintfG6) {
  // Edges of the fixed/exponent switch and of rounding, and halfway
  // cases at the sixth digit that must round to even, as printf does:
  // 0.001953125 (2^-9) -> 0.00195312, 0.005859375 -> 0.00585938,
  // 1234565 -> 1.23456e+06, 123456.5 -> 123456.
  const std::vector<double> values = {
      0.0,         -0.0,        1e-5,        -1e-5,     9.999995e-5,
      1e-4,        0.0001,      999999.5,    -999999.5, 999999.4,
      999999.0,    1e6,         1e16,        5e-324,    DBL_MAX,
      -DBL_MAX,    DBL_MIN,     0.5,         1.5,       2.5,
      0.001953125, 0.005859375, 1234565.0,   1234575.0, 1000005.0,
      123456.5,    123457.5,    0.125,       1.0 / 3.0, 11.097,
      0.0824898,   12.0483,     -0.25,       1e-300,    1e300};
  for (const double v : values) {
    EXPECT_EQ(written(v), printf_g6(v)) << "value " << printf_g6(v);
  }

  // Seeded sweep: random bit patterns (every finite double is fair
  // game) and millisecond delays in seconds, as the analysis writes.
  Rng rng(20170703);
  for (int i = 0; i < 100000; ++i) {
    const auto bits = static_cast<std::uint64_t>(rng.uniform_int(
        std::numeric_limits<std::int64_t>::min(),
        std::numeric_limits<std::int64_t>::max()));
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    if (!std::isfinite(v)) continue;
    ASSERT_EQ(written(v), printf_g6(v)) << "bits " << bits;
    const double seconds =
        static_cast<double>(rng.uniform_int(-100'000'000, 100'000'000)) /
        1000.0;
    ASSERT_EQ(written(seconds), printf_g6(seconds)) << seconds;
  }
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

TEST(AnalysisJson, HandBuiltAnalysisRendersExactly) {
  checker::AnalysisResult result;
  result.lines_total = 40;
  result.lines_unparsed = 2;
  result.events_total = 30;
  result.events_unattributed = 1;

  // An app with no containers, one delay skewed negative.
  const ApplicationId whole{1'499'100'000'000, 1};
  checker::Delays& first = result.delays[whole];
  first.app = whole;
  first.total = 1500;
  first.am = -250;
  first.cf = 700;
  first.cl = 900;
  first.cl_minus_cf = 200;
  first.driver = 300;
  first.executor = 400;
  first.in_app = 700;
  first.out_app = 800;
  first.alloc = 50;

  // An app with every delay absent, and an AM and a worker container.
  const ApplicationId bare{1'499'100'000'000, 12};
  checker::Delays& second = result.delays[bare];
  second.app = bare;
  checker::ContainerDelays& am = second.containers.emplace_back();
  am.id = ContainerId{bare, 1, 1};
  am.is_am = true;
  am.acquisition = 10;
  checker::ContainerDelays& worker = second.containers.emplace_back();
  worker.id = ContainerId{bare, 1, 2};
  worker.acquisition = 20;
  worker.localization = 30;
  worker.queuing = 40;
  worker.launching = 50;
  worker.executor_idle = 60;

  // A third app, so the aggregate interpolates between two samples.
  const ApplicationId third{1'499'100'000'000, 3};
  checker::Delays& last = result.delays[third];
  last.app = third;
  last.total = 2101;
  last.am = 333;

  for (const auto& [app, delays] : result.delays) {
    result.aggregate.add(delays);
  }

  logging::Diagnostic diagnostic;
  diagnostic.kind = logging::DiagnosticKind::kBinaryGarbage;
  diagnostic.stream = "rm.log";
  diagnostic.line_no = 7;
  diagnostic.count = 2;
  diagnostic.detail = "say \"hi\" \\ bell\x07.";
  result.diagnostics.push_back(diagnostic);
  result.diag_counts.bump(diagnostic.kind, diagnostic.count);

  checker::Anomaly anomaly;
  anomaly.type = checker::AnomalyType::kNegativeInterval;
  anomaly.app = whole;
  anomaly.entity = "app";
  anomaly.detail = "am = -250 ms";
  result.anomalies.push_back(anomaly);

  // An absent delay is null, the AM row reads "is_am":true, the
  // aggregate skips the absent values and keeps the negative one, and
  // the detail's quote, backslash and control byte are escaped.
  EXPECT_EQ(checker::analysis_json(result),
      R"({"summary":{"lines_total":40,"lines_unparsed":2,"events_total":30,)"
      R"("events_unattributed":1,"applications":3,"anomalies":1,)"
      R"("diagnostics":2},"diagnostics":{"counts":{"unreadable-file":0,)"
      R"("binary-garbage":2,"truncated-line":0,"rotation-gap":0,)"
      R"("timestamp-regression":0,"unparsable-burst":0,"unbound-stream":0},)"
      R"("records":[{"kind":"binary-garbage","stream":"rm.log","line":7,)"
      R"("count":2,"detail":"say \"hi\" \\ bell\u0007."}]},"aggregate":{)"
      R"("total":{"n":2,"median_s":1.8005,"p95_s":2.07095,"mean_s":1.8005,)"
      R"("stddev_s":0.424971},"am":{"n":2,"median_s":0.0415,)"
      R"("p95_s":0.30385,"mean_s":0.0415,"stddev_s":0.412243},"cf":{"n":1,)"
      R"("median_s":0.7,"p95_s":0.7,"mean_s":0.7,"stddev_s":0},"cl":{"n":1,)"
      R"("median_s":0.9,"p95_s":0.9,"mean_s":0.9,"stddev_s":0},"cl-cf":{)"
      R"("n":1,"median_s":0.2,"p95_s":0.2,"mean_s":0.2,"stddev_s":0},)"
      R"("driver":{"n":1,"median_s":0.3,"p95_s":0.3,"mean_s":0.3,)"
      R"("stddev_s":0},"executor":{"n":1,"median_s":0.4,"p95_s":0.4,)"
      R"("mean_s":0.4,"stddev_s":0},"in-app":{"n":1,"median_s":0.7,)"
      R"("p95_s":0.7,"mean_s":0.7,"stddev_s":0},"out-app":{"n":1,)"
      R"("median_s":0.8,"p95_s":0.8,"mean_s":0.8,"stddev_s":0},"alloc":{)"
      R"("n":1,"median_s":0.05,"p95_s":0.05,"mean_s":0.05,"stddev_s":0},)"
      R"("acquisition":{"n":1,"median_s":0.02,"p95_s":0.02,"mean_s":0.02,)"
      R"("stddev_s":0},"localization":{"n":1,"median_s":0.03,"p95_s":0.03,)"
      R"("mean_s":0.03,"stddev_s":0},"queuing":{"n":1,"median_s":0.04,)"
      R"("p95_s":0.04,"mean_s":0.04,"stddev_s":0},"launching":{"n":1,)"
      R"("median_s":0.05,"p95_s":0.05,"mean_s":0.05,"stddev_s":0},)"
      R"("exec-idle":{"n":1,"median_s":0.06,"p95_s":0.06,"mean_s":0.06,)"
      R"("stddev_s":0}},"apps":[{"app":"application_1499100000000_0001",)"
      R"("total_ms":1500,"am_ms":-250,"cf_ms":700,"cl_ms":900,)"
      R"("driver_ms":300,"executor_ms":400,"in_app_ms":700,)"
      R"("out_app_ms":800,"alloc_ms":50,"containers":[]},{)"
      R"("app":"application_1499100000000_0003","total_ms":2101,)"
      R"("am_ms":333,"cf_ms":null,"cl_ms":null,"driver_ms":null,)"
      R"("executor_ms":null,"in_app_ms":null,"out_app_ms":null,)"
      R"("alloc_ms":null,"containers":[]},{)"
      R"("app":"application_1499100000000_0012","total_ms":null,)"
      R"("am_ms":null,"cf_ms":null,"cl_ms":null,"driver_ms":null,)"
      R"("executor_ms":null,"in_app_ms":null,"out_app_ms":null,)"
      R"("alloc_ms":null,"containers":[{)"
      R"("container":"container_1499100000000_0012_01_000001","is_am":true,)"
      R"("acquisition_ms":10,"localization_ms":null,"queuing_ms":null,)"
      R"("launching_ms":null,"executor_idle_ms":null},{)"
      R"("container":"container_1499100000000_0012_01_000002",)"
      R"("is_am":false,"acquisition_ms":20,"localization_ms":30,)"
      R"("queuing_ms":40,"launching_ms":50,"executor_idle_ms":60}]}],)"
      R"("anomalies":[{"type":"negative-interval",)"
      R"("app":"application_1499100000000_0001","entity":"app",)"
      R"("detail":"am = -250 ms"}]})");
}

TEST(AnalysisJson, EmptyAnalysis) {
  checker::AnalysisResult empty;
  const std::string text = checker::analysis_json(empty);
  EXPECT_NE(text.find("\"apps\":[]"), std::string::npos);
  EXPECT_NE(text.find("\"applications\":0"), std::string::npos);
}

}  // namespace
}  // namespace sdc
