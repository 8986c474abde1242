// Report renderers: classic text, machine-readable JSON, and SARIF 2.1.0.
#include <string>

#include "analyze/analyze.h"
#include "util/table.h"

namespace nwlb::analyze {

namespace {

using nwlb::util::json_escape;

std::string quoted(const std::string& text) {
  std::string out = "\"";
  out += json_escape(text);
  out += '"';
  return out;
}

}  // namespace

std::string render_text(const Result& result) {
  std::string out;
  for (const Finding& f : result.findings) {
    out += f.file;
    out += ':';
    out += std::to_string(f.line);
    out += ": ";
    out += f.rule;
    out += ": ";
    out += f.message;
    out += '\n';
  }
  out += "nwlb_analyze: " + std::to_string(result.files_scanned) + " file(s), " +
         std::to_string(result.findings.size()) + " finding(s), " +
         std::to_string(result.suppressed) + " suppressed\n";
  return out;
}

std::string render_json(const Result& result) {
  std::string out = "{\n";
  out += "  \"tool\": \"nwlb_analyze\",\n";
  out += "  \"files_scanned\": " + std::to_string(result.files_scanned) + ",\n";
  out += "  \"suppressed\": " + std::to_string(result.suppressed) + ",\n";
  out += "  \"rules\": [\n";
  for (std::size_t i = 0; i < result.rules.size(); ++i) {
    const RuleInfo& rule = result.rules[i];
    out += "    {\"name\": " + quoted(rule.name) +
           ", \"description\": " + quoted(rule.description) +
           ", \"enabled\": " + (rule.enabled ? "true" : "false") +
           ", \"findings\": " + std::to_string(rule.findings) + "}";
    out += i + 1 < result.rules.size() ? ",\n" : "\n";
  }
  out += "  ],\n";
  out += "  \"findings\": [\n";
  for (std::size_t i = 0; i < result.findings.size(); ++i) {
    const Finding& f = result.findings[i];
    out += "    {\"file\": " + quoted(f.file) +
           ", \"line\": " + std::to_string(f.line) +
           ", \"rule\": " + quoted(f.rule) +
           ", \"message\": " + quoted(f.message) + "}";
    out += i + 1 < result.findings.size() ? ",\n" : "\n";
  }
  out += "  ]\n";
  out += "}\n";
  return out;
}

std::string render_sarif(const Result& result) {
  std::string out = "{\n";
  out +=
      "  \"$schema\": "
      "\"https://json.schemastore.org/sarif-2.1.0.json\",\n";
  out += "  \"version\": \"2.1.0\",\n";
  out += "  \"runs\": [\n";
  out += "    {\n";
  out += "      \"tool\": {\n";
  out += "        \"driver\": {\n";
  out += "          \"name\": \"nwlb_analyze\",\n";
  out += "          \"informationUri\": "
         "\"https://example.invalid/nwlb/tools/nwlb_analyze\",\n";
  out += "          \"rules\": [\n";
  for (std::size_t i = 0; i < result.rules.size(); ++i) {
    const RuleInfo& rule = result.rules[i];
    out += "            {\"id\": " + quoted(rule.name) +
           ", \"shortDescription\": {\"text\": " + quoted(rule.description) +
           "}}";
    out += i + 1 < result.rules.size() ? ",\n" : "\n";
  }
  out += "          ]\n";
  out += "        }\n";
  out += "      },\n";
  out += "      \"results\": [\n";
  for (std::size_t i = 0; i < result.findings.size(); ++i) {
    const Finding& f = result.findings[i];
    // ruleIndex points into the driver.rules array above.
    std::size_t rule_index = 0;
    for (std::size_t r = 0; r < result.rules.size(); ++r)
      if (result.rules[r].name == f.rule) {
        rule_index = r;
        break;
      }
    out += "        {\"ruleId\": " + quoted(f.rule) +
           ", \"ruleIndex\": " + std::to_string(rule_index) +
           ", \"level\": \"error\", \"message\": {\"text\": " +
           quoted(f.message) +
           "}, \"locations\": [{\"physicalLocation\": {\"artifactLocation\": "
           "{\"uri\": " +
           quoted(repo_relative(f.file)) +
           "}, \"region\": {\"startLine\": " + std::to_string(f.line) +
           "}}}]}";
    out += i + 1 < result.findings.size() ? ",\n" : "\n";
  }
  out += "      ]\n";
  out += "    }\n";
  out += "  ]\n";
  out += "}\n";
  return out;
}

}  // namespace nwlb::analyze
