// Json round-trip/parser tests and RunReport schema tests, including a
// report generated from a real (tiny) distributed CA run and validated the
// same way CI validates benchmark reports.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "obs/json.hpp"
#include "obs/run_report.hpp"
#include "stencil/dist_stencil.hpp"
#include "stencil/problem.hpp"

namespace repro::obs {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(Json, ScalarRoundTrip) {
  Json doc = Json::object();
  doc["int"] = Json(std::int64_t{1} << 53);
  doc["neg"] = Json(-42);
  doc["pi"] = Json(3.25);
  doc["flag"] = Json(true);
  doc["nothing"] = Json(nullptr);
  doc["text"] = Json("hello \"quoted\" \\ \n\t\x01 world");

  Json parsed;
  std::string error;
  ASSERT_TRUE(Json::parse(doc.dump(), &parsed, &error)) << error;
  EXPECT_EQ(parsed.find("int")->as_int(), std::int64_t{1} << 53);
  EXPECT_EQ(parsed.find("neg")->as_int(), -42);
  EXPECT_DOUBLE_EQ(parsed.find("pi")->as_number(), 3.25);
  EXPECT_TRUE(parsed.find("flag")->as_bool());
  EXPECT_TRUE(parsed.find("nothing")->is_null());
  EXPECT_EQ(parsed.find("text")->as_string(),
            "hello \"quoted\" \\ \n\t\x01 world");
}

TEST(Json, NestedStructuresAndOrder) {
  Json doc = Json::object();
  doc["z"] = Json(1);
  doc["a"] = Json(2);
  Json arr = Json::array();
  arr.push_back(Json(1));
  Json inner = Json::object();
  inner["k"] = Json("v");
  arr.push_back(std::move(inner));
  doc["list"] = std::move(arr);

  // Insertion order is preserved (diffable reports).
  const std::string text = doc.dump();
  EXPECT_LT(text.find("\"z\""), text.find("\"a\""));

  Json parsed;
  std::string error;
  ASSERT_TRUE(Json::parse(doc.dump(2), &parsed, &error)) << error;
  ASSERT_NE(parsed.find("list"), nullptr);
  ASSERT_EQ(parsed.find("list")->size(), 2u);
  EXPECT_EQ(parsed.find("list")->as_array()[1].find("k")->as_string(), "v");
}

TEST(Json, UnicodeEscapes) {
  Json parsed;
  std::string error;
  ASSERT_TRUE(Json::parse(R"("\u0041\u00e9\u4e2d\ud83d\ude00")", &parsed,
                          &error))
      << error;
  EXPECT_EQ(parsed.as_string(), "A\xC3\xA9\xE4\xB8\xAD\xF0\x9F\x98\x80");
}

TEST(Json, NonFiniteSerializesAsNull) {
  Json doc = Json::object();
  doc["inf"] = Json(1.0 / 0.0);
  doc["nan"] = Json(0.0 / 0.0);
  const std::string text = doc.dump();
  EXPECT_NE(text.find("\"inf\":null"), std::string::npos);
  EXPECT_NE(text.find("\"nan\":null"), std::string::npos);
}

TEST(Json, ParseErrors) {
  const char* bad[] = {
      "",           "{",        "[1,]",         "{\"a\":}",
      "tru",        "01",       "1.2.3",        "\"unterminated",
      "\"\\q\"",    "{\"a\" 1}", "[1] trailing", "\"\\ud83d\"",  // lone surrogate
  };
  for (const char* text : bad) {
    Json out;
    std::string error;
    EXPECT_FALSE(Json::parse(text, &out, &error)) << "accepted: " << text;
    EXPECT_FALSE(error.empty()) << text;
  }
}

TEST(Json, DeepNestingRejected) {
  std::string deep(100, '[');
  deep += std::string(100, ']');
  Json out;
  std::string error;
  EXPECT_FALSE(Json::parse(deep, &out, &error));
}

RunReport tiny_report() {
  RunReport report("unit_test_bench");
  report.set_param("machine", Json("nacl"));
  report.set_param("N", Json(24));
  Json row = Json::object();
  row["nodes"] = Json(4);
  row["gflops"] = Json(1.5);
  report.add_result(std::move(row));
  report.set_derived("best_gflops", Json(1.5));
  return report;
}

Json spec_descriptor(bool with_radius = true) {
  Json descriptor = Json::object();
  descriptor["name"] = Json("star9");
  descriptor["rank"] = Json(2);
  if (with_radius) descriptor["radius"] = Json(2);
  descriptor["points"] = Json(9);
  return descriptor;
}

TEST(RunReportTest, ValidatesAgainstSchema) {
  const std::string text = tiny_report().to_string();
  std::string error;
  EXPECT_TRUE(validate_run_report(text, &error)) << error;

  // A stencil_spec block needs name, rank, radius and points; extra keys
  // (such as the "stages" older reports carry) are accepted.
  RunReport spec_report = tiny_report();
  spec_report.add_stencil_spec(spec_descriptor());
  Json older = spec_descriptor();
  older["stages"] = Json(2);
  spec_report.add_stencil_spec(std::move(older));
  EXPECT_TRUE(validate_run_report(spec_report.to_string(), &error)) << error;
}

TEST(RunReportTest, ValidatorRejectsBadDocuments) {
  std::string error;
  // Not JSON at all.
  EXPECT_FALSE(validate_run_report("nope", &error));
  // Wrong schema tag.
  EXPECT_FALSE(validate_run_report(
      R"({"schema":"other/v9","name":"x","params":{},"results":[],)"
      R"("metrics":{"counters":[],"gauges":[],"histograms":[]},"derived":{}})",
      &error));
  // Missing metrics section.
  EXPECT_FALSE(validate_run_report(
      R"({"schema":"repro.run_report/v1","name":"x","params":{},)"
      R"("results":[],"derived":{}})",
      &error));
  // Non-scalar result row.
  EXPECT_FALSE(validate_run_report(
      R"({"schema":"repro.run_report/v1","name":"x","params":{},)"
      R"("results":[{"nested":{}}],)"
      R"("metrics":{"counters":[],"gauges":[],"histograms":[]},"derived":{}})",
      &error));
  // A stencil_spec descriptor without its radius.
  RunReport no_radius = tiny_report();
  no_radius.add_stencil_spec(spec_descriptor(/*with_radius=*/false));
  EXPECT_FALSE(validate_run_report(no_radius.to_string(), &error));
  EXPECT_NE(error.find("radius"), std::string::npos);
  // Non-finite number arrives as null after serialization -> rejected.
  RunReport bad = tiny_report();
  bad.set_derived("oops", Json(1.0 / 0.0));
  EXPECT_FALSE(validate_run_report(bad.to_string(), &error));
  EXPECT_NE(error.find("oops"), std::string::npos);
}

TEST(RunReportTest, CapturesRealRunMetrics) {
  stencil::Problem problem = stencil::random_problem(24, 24, 6);
  stencil::DistConfig config;
  config.decomp = {4, 4, 2, 2};
  config.steps = 3;
  config.metrics = std::make_shared<MetricsRegistry>();
  const stencil::DistResult result = run_distributed(problem, config);

  RunReport report("obs_report_test");
  report.set_param("N", Json(24));
  report.set_param("steps", Json(3));
  Json row = Json::object();
  row["messages"] = Json(result.stats.messages);
  row["bytes"] = Json(result.stats.bytes);
  report.add_result(std::move(row));
  report.add_metrics(*config.metrics);

  const std::string text = report.to_string();
  std::string error;
  ASSERT_TRUE(validate_run_report(text, &error)) << error;

  if constexpr (kEnabled) {
    // The registry's view must agree with the channel's own accounting.
    const MetricsSnapshot snap = config.metrics->snapshot();
    EXPECT_EQ(snap.counter_total("net_messages_total"),
              static_cast<double>(result.stats.messages));
    EXPECT_EQ(snap.counter_total("net_bytes_total"),
              static_cast<double>(result.stats.bytes));
    EXPECT_GT(snap.counter_total("rt_tasks_executed_total"), 0.0);
    EXPECT_GT(snap.counter_total("stencil_supersteps_total"), 0.0);

    // And the serialized report must carry those counters.
    Json parsed;
    ASSERT_TRUE(Json::parse(text, &parsed, &error)) << error;
    const Json* counters = parsed.find("metrics")->find("counters");
    ASSERT_NE(counters, nullptr);
    EXPECT_GT(counters->size(), 0u);
  }
}

TEST(RunReportTest, WriteToFileAndValidate) {
  const std::string path = ::testing::TempDir() + "obs_report_test.json";
  tiny_report().write(path);
  std::string error;
  EXPECT_TRUE(validate_run_report(slurp(path), &error)) << error;
  std::remove(path.c_str());

  EXPECT_THROW(tiny_report().write("/nonexistent-dir/nope/report.json"),
               std::runtime_error);
}

}  // namespace
}  // namespace repro::obs
