// Exposition renderers and the CI grammar validators: everything the
// renderers emit must pass the validators, and the validators must reject
// malformed documents (otherwise the CI check is vacuous).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/export.h"
#include "obs/metrics.h"

namespace nwlb::obs {
namespace {

Registry& populated(Registry& reg) {
  reg.counter("nwlb_events_total", {}, "Things that happened").inc(3);
  reg.counter("nwlb_events_total", {{"kind", "odd"}}, "Things that happened").inc();
  reg.gauge("nwlb_level", {}, "Current level").set(-2.5);
  reg.histogram("nwlb_latency_seconds", {0.1, 1.0}, {}, "Latency").observe(0.05);
  reg.histogram("nwlb_latency_seconds", {0.1, 1.0}, {}, "Latency").observe(5.0);
  reg.trace().push("test", "event", 1.0, "detail with \"quotes\"\nand newline");
  return reg;
}

TEST(ObsExport, PrometheusTextPassesOwnValidator) {
  Registry reg;
  const std::string text = prometheus_text(populated(reg).snapshot());
  EXPECT_TRUE(validate_prometheus_text(text).empty())
      << text << "\nfirst error: " << validate_prometheus_text(text).front();
  // Histogram expansion: cumulative buckets, +Inf, _sum, _count.
  EXPECT_NE(text.find("nwlb_latency_seconds_bucket{le=\"+Inf\"} 2"), std::string::npos);
  EXPECT_NE(text.find("nwlb_latency_seconds_count 2"), std::string::npos);
  EXPECT_NE(text.find("# TYPE nwlb_events_total counter"), std::string::npos);
  EXPECT_NE(text.find("nwlb_events_total{kind=\"odd\"} 1"), std::string::npos);
}

TEST(ObsExport, PrometheusLabelValuesAreEscaped) {
  Registry reg;
  reg.counter("nwlb_esc_total", {{"path", "a\\b\"c\nd"}}).inc();
  const std::string text = prometheus_text(reg.snapshot());
  EXPECT_NE(text.find(R"(path="a\\b\"c\nd")"), std::string::npos);
  EXPECT_TRUE(validate_prometheus_text(text).empty());
}

TEST(ObsExport, PrometheusValidatorRejectsMalformedLines) {
  EXPECT_FALSE(validate_prometheus_text("1bad_name 3\n").empty());
  EXPECT_FALSE(validate_prometheus_text("metric_no_value\n").empty());
  EXPECT_FALSE(validate_prometheus_text("m{unclosed=\"v\" 3\n").empty());
  EXPECT_FALSE(validate_prometheus_text("m not-a-number\n").empty());
  EXPECT_FALSE(validate_prometheus_text("# TYPE m flotilla\n").empty());
  EXPECT_TRUE(validate_prometheus_text("# a comment\n\nm 3\nm2{a=\"b\"} 1 1234\n").empty());
}

TEST(ObsExport, JsonExpositionIsValidJson) {
  Registry reg;
  const std::string json = to_json(populated(reg));
  const std::vector<std::string> errors = validate_json(json);
  EXPECT_TRUE(errors.empty()) << json << "\nfirst error: " << errors.front();
  // The control characters in the trace detail must arrive escaped.
  EXPECT_EQ(json.find('\n'), std::string::npos);
  EXPECT_NE(json.find("\\n"), std::string::npos);
  EXPECT_NE(json.find("\"trace\":["), std::string::npos);
}

TEST(ObsExport, JsonValidatorRejectsMalformedDocuments) {
  EXPECT_FALSE(validate_json("{").empty());
  EXPECT_FALSE(validate_json("{\"a\":01}").empty());
  EXPECT_FALSE(validate_json("{\"a\":1,}").empty());
  EXPECT_FALSE(validate_json("{\"a\":\"\x01\"}").empty());  // Raw control char.
  EXPECT_FALSE(validate_json("[1] trailing").empty());
  EXPECT_TRUE(validate_json("{\"a\":[1,2.5e-3,\"\\u00e9\",true,null]}").empty());
}

// json.load and jq keep only a repeated key's last value, so a ledger row
// with two columns of one name would silently lose the first.
TEST(ObsExport, JsonValidatorRejectsRepeatedKeys) {
  const std::vector<std::string> errors =
      validate_json("[{\"Topology\":\"NTT\",\"Iters\":18810,\"Iters\":5701}]");
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors.front().find("repeated object key \"Iters\""), std::string::npos)
      << errors.front();
  // The same key in two objects, or nested under another key, is fine.
  EXPECT_TRUE(validate_json("[{\"a\":1},{\"a\":2}]").empty());
  EXPECT_TRUE(validate_json("{\"a\":{\"a\":1},\"b\":{\"a\":2}}").empty());
}

TEST(ObsExport, EqualValuesRenderByteIdentically) {
  Registry a, b;
  populated(a);
  populated(b);
  EXPECT_EQ(prometheus_text(a.snapshot()), prometheus_text(b.snapshot()));
  EXPECT_EQ(to_json(a), to_json(b));
}

}  // namespace
}  // namespace nwlb::obs
