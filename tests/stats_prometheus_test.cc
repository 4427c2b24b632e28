// Tests of the Prometheus text rendering of Db::Stats — independent of the
// HTTP server that serves it (see server_test.cc for the /metrics endpoint).

#include <cctype>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "restore/stats_prometheus.h"

namespace restore {
namespace {

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    lines.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return lines;
}

size_t CountOccurrences(const std::string& text, const std::string& needle) {
  size_t count = 0;
  for (size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + 1)) {
    ++count;
  }
  return count;
}

bool IsMetricNameChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == ':';
}

/// Structural validation of one exposition-format document: every line is a
/// `# HELP`/`# TYPE` comment or a `name{labels} value` sample, every sample
/// belongs to an announced family, and each family is announced once.
void ValidatePrometheusText(const std::string& text) {
  ASSERT_FALSE(text.empty());
  ASSERT_EQ(text.back(), '\n') << "exposition must end with a newline";
  std::vector<std::string> announced;
  for (const std::string& line : SplitLines(text)) {
    ASSERT_FALSE(line.empty());
    if (line.rfind("# HELP ", 0) == 0) {
      const std::string name =
          line.substr(7, line.find(' ', 7) - 7);
      for (const std::string& seen : announced) {
        ASSERT_NE(seen, name) << "family announced twice: " << name;
      }
      announced.push_back(name);
      continue;
    }
    if (line.rfind("# TYPE ", 0) == 0) {
      const size_t space = line.find(' ', 7);
      ASSERT_NE(space, std::string::npos);
      const std::string name = line.substr(7, space - 7);
      ASSERT_FALSE(announced.empty());
      ASSERT_EQ(announced.back(), name)
          << "# TYPE must follow its family's # HELP";
      const std::string type = line.substr(space + 1);
      ASSERT_TRUE(type == "counter" || type == "gauge") << line;
      continue;
    }
    ASSERT_NE(line[0], '#') << "unknown comment line: " << line;
    // Sample line: name[{labels}] value
    size_t pos = 0;
    while (pos < line.size() && IsMetricNameChar(line[pos])) ++pos;
    ASSERT_GT(pos, 0u) << line;
    const std::string name = line.substr(0, pos);
    bool found = false;
    for (const std::string& seen : announced) found |= (seen == name);
    ASSERT_TRUE(found) << "sample of unannounced family: " << line;
    if (pos < line.size() && line[pos] == '{') {
      const size_t close = line.find('}', pos);
      ASSERT_NE(close, std::string::npos) << line;
      pos = close + 1;
    }
    ASSERT_LT(pos, line.size()) << line;
    ASSERT_EQ(line[pos], ' ') << line;
    const std::string value = line.substr(pos + 1);
    ASSERT_FALSE(value.empty()) << line;
    char* end = nullptr;
    std::strtod(value.c_str(), &end);
    ASSERT_EQ(*end, '\0') << "unparseable sample value: " << line;
  }
}

TEST(PrometheusLabelTest, EscapesBackslashQuoteNewline) {
  EXPECT_EQ(PrometheusLabel("tenant", "housing"), "tenant=\"housing\"");
  EXPECT_EQ(PrometheusLabel("x", "a\\b"), "x=\"a\\\\b\"");
  EXPECT_EQ(PrometheusLabel("x", "a\"b"), "x=\"a\\\"b\"");
  EXPECT_EQ(PrometheusLabel("x", "a\nb"), "x=\"a\\nb\"");
}

TEST(PrometheusLabelTest, JoinHandlesEmptySides) {
  EXPECT_EQ(JoinPrometheusLabels("", ""), "");
  EXPECT_EQ(JoinPrometheusLabels("a=\"1\"", ""), "a=\"1\"");
  EXPECT_EQ(JoinPrometheusLabels("", "b=\"2\""), "b=\"2\"");
  EXPECT_EQ(JoinPrometheusLabels("a=\"1\"", "b=\"2\""), "a=\"1\",b=\"2\"");
}

TEST(PrometheusRendererTest, SingleHeaderPerFamilyAcrossLabelSets) {
  PrometheusRenderer out;
  out.Counter("requests_total", "Requests.", PrometheusLabel("tenant", "a"),
              3);
  out.Counter("requests_total", "Requests.", PrometheusLabel("tenant", "b"),
              4);
  out.Gauge("inflight", "In-flight.", "", 2);
  const std::string text = out.Render();
  ValidatePrometheusText(text);
  EXPECT_EQ(CountOccurrences(text, "# HELP requests_total"), 1u);
  EXPECT_EQ(CountOccurrences(text, "# TYPE requests_total counter"), 1u);
  EXPECT_NE(text.find("requests_total{tenant=\"a\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find("requests_total{tenant=\"b\"} 4\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE inflight gauge"), std::string::npos);
  EXPECT_NE(text.find("\ninflight 2\n"), std::string::npos);
}

TEST(PrometheusRendererTest, ValueRendering) {
  PrometheusRenderer out;
  out.Counter("c", "h", "", 5);
  out.Counter("d", "h", "", 0.25);
  const std::string text = out.Render();
  EXPECT_NE(text.find("\nc 5\n"), std::string::npos)
      << "integral values must render without a fraction";
  EXPECT_NE(text.find("\nd 0.25\n"), std::string::npos);
}

TEST(StatsToPrometheusTest, RendersEveryDbCounter) {
  Db::Stats stats;
  stats.queries_ok = 7;
  stats.queries_cancelled = 2;
  stats.queries_deadline_exceeded = 1;
  stats.queries_failed = 3;
  stats.totals.parse_seconds = 0.5;
  stats.totals.tuples_completed = 1234;
  stats.totals.models_consulted = 9;
  stats.totals.cache_hits = 4;
  stats.totals.cache_misses = 5;
  stats.totals.arenas_leased = 6;

  const std::string text = StatsToPrometheus(stats);
  ValidatePrometheusText(text);
  EXPECT_NE(text.find("restore_queries_total{outcome=\"ok\"} 7\n"),
            std::string::npos);
  EXPECT_NE(text.find("restore_queries_total{outcome=\"cancelled\"} 2\n"),
            std::string::npos);
  EXPECT_NE(
      text.find("restore_queries_total{outcome=\"deadline_exceeded\"} 1\n"),
      std::string::npos);
  EXPECT_NE(text.find("restore_queries_total{outcome=\"failed\"} 3\n"),
            std::string::npos);
  EXPECT_NE(
      text.find("restore_query_stage_seconds_total{stage=\"parse\"} 0.5\n"),
      std::string::npos);
  EXPECT_NE(text.find("restore_tuples_completed_total 1234\n"),
            std::string::npos);
  EXPECT_NE(text.find("restore_models_consulted_total 9\n"),
            std::string::npos);
  EXPECT_NE(text.find("restore_cache_hits_total 4\n"), std::string::npos);
  EXPECT_NE(text.find("restore_cache_misses_total 5\n"), std::string::npos);
  EXPECT_NE(text.find("restore_arenas_leased_total 6\n"), std::string::npos);
}

TEST(StatsToPrometheusTest, TenantLabelPrefixesEverySample) {
  Db::Stats stats;
  stats.queries_ok = 1;
  const std::string text =
      StatsToPrometheus(stats, PrometheusLabel("tenant", "h1"));
  ValidatePrometheusText(text);
  for (const std::string& line : SplitLines(text)) {
    if (line.empty() || line[0] == '#') continue;
    EXPECT_NE(line.find("tenant=\"h1\""), std::string::npos) << line;
  }
  EXPECT_NE(
      text.find("restore_queries_total{tenant=\"h1\",outcome=\"ok\"} 1\n"),
      std::string::npos);
}

}  // namespace
}  // namespace restore
