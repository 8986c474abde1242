// nwlb_analyze framework: fixture corpora exercise every rule class in
// both directions (a violation that must be flagged, a near-miss that
// must not), plus suppression, rule selection, and report schemas.
//
// Fixture sources are built from string literals; the analyzer strips
// literal contents before matching, so this file does not trip the rules
// it is testing when the analyzer scans the test tree.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analyze/analyze.h"

namespace nwlb::analyze {
namespace {

// Built by concatenation so no raw line of *this* file is itself a
// standalone hot-path marker (which would mark the test hot-path).
std::string hot_path_marker() { return std::string("// nwlb-lint: ") + "hot-path\n"; }

Result run_rule(const std::string& rule, const Corpus& corpus) {
  Analyzer analyzer;
  EXPECT_TRUE(analyzer.enable_only({rule}));
  return analyzer.run(corpus);
}

std::vector<std::string> rule_names(const Result& result) {
  std::vector<std::string> names;
  for (const Finding& f : result.findings) names.push_back(f.rule);
  return names;
}

// ---- shared text utilities ----

TEST(AnalyzeSource, StripRemovesCommentsAndLiteralContents) {
  const auto lines = strip_comments_and_strings(
      "int a; // trailing new\n"
      "const char* s = \"new delete throw\";\n"
      "/* block\n"
      "   comment */ int b;\n"
      "auto r = R\"(rand() inside raw)\";\n"
      "int big = 1'000'000;\n");
  ASSERT_EQ(lines.size(), 7u);
  EXPECT_EQ(lines[0], "int a; ");
  EXPECT_EQ(lines[1], "const char* s = ;");
  EXPECT_EQ(lines[2], "");
  EXPECT_EQ(lines[3], " int b;");
  EXPECT_EQ(lines[4], "auto r = ;");
  EXPECT_EQ(lines[5], "int big = 1'000'000;");
}

TEST(AnalyzeSource, HasTokenMatchesWholeIdentifiersOnly) {
  EXPECT_TRUE(has_token("x = new Foo;", "new"));
  EXPECT_FALSE(has_token("renew(); newly();", "new"));
  std::size_t at = 0;
  EXPECT_TRUE(has_token("a.renew(); new Foo;", "new", &at));
  EXPECT_EQ(at, 11u);
}

TEST(AnalyzeSource, RepoRelativeTrimsToKnownRoot) {
  EXPECT_EQ(repo_relative("/home/me/repo/src/shim/shim.h"), "src/shim/shim.h");
  EXPECT_EQ(repo_relative("../tests/sim_test.cpp"), "tests/sim_test.cpp");
  EXPECT_EQ(repo_relative("unrelated/path.h"), "unrelated/path.h");
}

TEST(AnalyzeSource, ModuleAndRankFollowTheLayeringDag) {
  EXPECT_EQ(module_of("src/util/rng.h"), "util");
  EXPECT_EQ(module_of("tools/nwlbctl.cpp"), "tools");
  EXPECT_LT(layer_rank("util"), layer_rank("obs"));
  EXPECT_EQ(layer_rank("topo"), layer_rank("lp"));
  EXPECT_LT(layer_rank("obs"), layer_rank("nids"));
  EXPECT_LT(layer_rank("nids"), layer_rank("shim"));
  EXPECT_LT(layer_rank("shim"), layer_rank("core"));
  EXPECT_LT(layer_rank("core"), layer_rank("sim"));
  EXPECT_LT(layer_rank("sim"), layer_rank("online"));
  EXPECT_LT(layer_rank("online"), layer_rank("tests"));
  // No src/ module sits above online: a `dist` module would rank with the
  // top, so online may not include it.
  EXPECT_EQ(layer_rank("dist"), layer_rank("tests"));
}

TEST(AnalyzeSource, LineAllowsAcceptsBothSpellingsAndLists) {
  EXPECT_TRUE(line_allows("  // nwlb-analyze: allow(naked-new)", "naked-new"));
  EXPECT_TRUE(line_allows("  // nwlb-lint: allow(no-rand, naked-new)", "naked-new"));
  EXPECT_FALSE(line_allows("  // nwlb-analyze: allow(no-rand)", "naked-new"));
  EXPECT_FALSE(line_allows("plain code", "naked-new"));
}

// ---- ported token rules ----

TEST(AnalyzeRules, PragmaOnceFlagsHeadersOnly) {
  Corpus corpus;
  corpus.add("src/util/bad.h", "struct X {};\n");
  corpus.add("src/util/good.h", "#pragma once\nstruct Y {};\n");
  corpus.add("src/util/free.cpp", "int f() { return 0; }\n");
  const Result result = run_rule("pragma-once", corpus);
  ASSERT_EQ(result.findings.size(), 1u);
  EXPECT_EQ(result.findings[0].file, "src/util/bad.h");
}

TEST(AnalyzeRules, NoRandFlagsRandButNotIdentifiersContainingIt) {
  Corpus corpus;
  corpus.add("src/util/bad.cpp", "int x = rand();\nsrand(7);\n");
  corpus.add("src/util/good.cpp", "int random_index = rng.next();\n");
  const Result result = run_rule("no-rand", corpus);
  EXPECT_EQ(result.findings.size(), 2u);
}

TEST(AnalyzeRules, NakedNewFlagsNewAndDeleteButNotDeletedFunctions) {
  Corpus corpus;
  corpus.add("src/util/bad.cpp", "auto* p = new int;\ndelete p;\n");
  corpus.add("src/util/good.cpp", "X(const X&) = delete;\n");
  const Result result = run_rule("naked-new", corpus);
  EXPECT_EQ(result.findings.size(), 2u);
}

TEST(AnalyzeRules, UsingNamespaceOnlyMattersInHeaders) {
  Corpus corpus;
  corpus.add("src/util/bad.h", "#pragma once\nusing namespace std;\n");
  corpus.add("src/util/fine.cpp", "using namespace std;\n");
  const Result result = run_rule("using-namespace", corpus);
  ASSERT_EQ(result.findings.size(), 1u);
  EXPECT_EQ(result.findings[0].file, "src/util/bad.h");
  EXPECT_EQ(result.findings[0].line, 2u);
}

TEST(AnalyzeRules, ReinterpretCastIsQuarantined) {
  Corpus corpus;
  corpus.add("src/shim/bad.cpp",
             "auto* h = reinterpret_cast<Header*>(bytes);\n");
  const Result result = run_rule("reinterpret-cast", corpus);
  EXPECT_EQ(result.findings.size(), 1u);
}

TEST(AnalyzeRules, HotPathMapAndThrowOnlyApplyToMarkedFiles) {
  Corpus corpus;
  corpus.add("src/shim/hot.cpp", hot_path_marker() +
                                     "std::unordered_map<int, int> m;\n"
                                     "if (bad) throw std::runtime_error(w);\n");
  corpus.add("src/shim/cold.cpp",
             "std::unordered_map<int, int> m;\n"
             "if (bad) throw std::runtime_error(w);\n");
  EXPECT_EQ(run_rule("hot-path-map", corpus).findings.size(), 1u);
  EXPECT_EQ(run_rule("no-throw-hot-path", corpus).findings.size(), 1u);
}

// ---- include graph ----

TEST(AnalyzeRules, IncludeLayeringFlagsUpwardAndPeerEdges) {
  Corpus corpus;
  corpus.add("src/util/up.h", "#pragma once\n#include \"sim/fix.h\"\n");
  corpus.add("src/sim/fix.h", "#pragma once\n");
  corpus.add("src/topo/peer.h", "#pragma once\n#include \"lp/fix.h\"\n");
  corpus.add("src/lp/fix.h", "#pragma once\n");
  corpus.add("src/sim/down.h", "#pragma once\n#include \"util/up.h\"\n");
  corpus.add("src/lp/intra.h", "#pragma once\n#include \"lp/fix.h\"\n");
  corpus.add("tests/top.cpp", "#include \"sim/fix.h\"\n");
  const Result result = run_rule("include-layering", corpus);
  ASSERT_EQ(result.findings.size(), 2u);
  EXPECT_EQ(result.findings[0].file, "src/topo/peer.h");
  EXPECT_EQ(result.findings[1].file, "src/util/up.h");
}

TEST(AnalyzeRules, IncludeCycleReportedOncePerComponent) {
  Corpus corpus;
  corpus.add("src/core/a.h", "#pragma once\n#include \"core/b.h\"\n");
  corpus.add("src/core/b.h", "#pragma once\n#include \"core/c.h\"\n");
  corpus.add("src/core/c.h", "#pragma once\n#include \"core/a.h\"\n");
  corpus.add("src/core/leaf.h", "#pragma once\n#include \"core/a.h\"\n");
  const Result result = run_rule("include-cycle", corpus);
  ASSERT_EQ(result.findings.size(), 1u);
  EXPECT_EQ(result.findings[0].file, "src/core/a.h");
  EXPECT_NE(result.findings[0].message.find("src/core/a.h"), std::string::npos);
  EXPECT_NE(result.findings[0].message.find("src/core/c.h"), std::string::npos);
}

TEST(AnalyzeRules, AcyclicGraphIsClean) {
  Corpus corpus;
  corpus.add("src/core/a.h", "#pragma once\n#include \"util/b.h\"\n");
  corpus.add("src/util/b.h", "#pragma once\n");
  EXPECT_TRUE(run_rule("include-cycle", corpus).findings.empty());
}

// ---- atomics audit ----

TEST(AnalyzeRules, AtomicOrderRequiresExplicitOrder) {
  Corpus corpus;
  corpus.add("src/obs/bad.cpp",
             "std::atomic<int> a;\n"
             "int x = a.load();\n"
             "a.store(1);\n"
             "a.fetch_add(2);\n");
  corpus.add("src/obs/good.cpp",
             "std::atomic<int> a;\n"
             "int x = a.load(std::memory_order_relaxed);\n"
             "a.fetch_add(2, std::memory_order_relaxed);\n");
  const Result result = run_rule("atomic-order", corpus);
  EXPECT_EQ(result.findings.size(), 3u);
  for (const Finding& f : result.findings) EXPECT_EQ(f.file, "src/obs/bad.cpp");
}

TEST(AnalyzeRules, CompareExchangeNeedsBothOrdersAcrossLines) {
  Corpus corpus;
  corpus.add("src/obs/bad.cpp",
             "std::atomic<int> a;\n"
             "a.compare_exchange_weak(expected, desired,\n"
             "                        std::memory_order_relaxed);\n");
  corpus.add("src/obs/good.cpp",
             "std::atomic<int> a;\n"
             "a.compare_exchange_weak(expected, desired,\n"
             "                        std::memory_order_relaxed,\n"
             "                        std::memory_order_relaxed);\n");
  const Result result = run_rule("atomic-order", corpus);
  ASSERT_EQ(result.findings.size(), 1u);
  EXPECT_EQ(result.findings[0].file, "src/obs/bad.cpp");
}

TEST(AnalyzeRules, StrongOrdersNeedAJustification) {
  Corpus corpus;
  corpus.add("src/obs/bad.cpp",
             "std::atomic<bool> ready;\n"
             "ready.store(true, std::memory_order_release);\n");
  corpus.add("src/obs/good.cpp",
             "std::atomic<bool> ready;\n"
             "// nwlb-analyze: order(publishes the filled buffer to readers)\n"
             "ready.store(true, std::memory_order_release);\n");
  const Result result = run_rule("atomic-order", corpus);
  ASSERT_EQ(result.findings.size(), 1u);
  EXPECT_EQ(result.findings[0].file, "src/obs/bad.cpp");
  EXPECT_NE(result.findings[0].message.find("order("), std::string::npos);
}

// ---- hot-path purity ----

TEST(AnalyzeRules, HotPathPurityFlagsAllFourCategories) {
  Corpus corpus;
  corpus.add("src/shim/hot.cpp", hot_path_marker() +
                                     "auto p = std::make_unique<int>(1);\n"
                                     "std::lock_guard<std::mutex> g(mu);\n"
                                     "virtual void decode();\n"
                                     "std::cout << x;\n");
  const Result result = run_rule("hot-path-purity", corpus);
  // lock_guard + mutex count separately on the same line.
  EXPECT_EQ(result.findings.size(), 5u);
}

TEST(AnalyzeRules, HotPathPuritySkipsUnmarkedFilesPreprocessorAndRoles) {
  Corpus corpus;
  corpus.add("src/shim/cold.cpp", "auto p = std::make_unique<int>(1);\n");
  corpus.add("src/shim/hot.cpp", hot_path_marker() +
                                     "#include <mutex>\n"
                                     "const util::RoleGuard guard(reconcile_);\n"
                                     "role.assert_held();\n");
  EXPECT_TRUE(run_rule("hot-path-purity", corpus).findings.empty());
}

// ---- hot-path generator includes ----

TEST(AnalyzeRules, HotPathGeneratorsFlagsScenarioHeadersInMarkedFiles) {
  Corpus corpus;
  corpus.add("src/shim/hot.cpp", hot_path_marker() +
                                     "#include \"traffic/selfsimilar.h\"\n"
                                     "#include \"traffic/variability.h\"\n"
                                     "#include \"traffic/matrix.h\"\n");
  const Result result = run_rule("hot-path-generators", corpus);
  // Both generator headers flagged; the plain matrix header is fine —
  // the data plane is allowed to *consume* traffic, not synthesize it.
  ASSERT_EQ(result.findings.size(), 2u);
  EXPECT_NE(result.findings[0].message.find("selfsimilar"), std::string::npos);
  EXPECT_NE(result.findings[1].message.find("variability"), std::string::npos);
}

TEST(AnalyzeRules, HotPathGeneratorsSkipsColdFilesAndSystemIncludes) {
  Corpus corpus;
  // Unmarked files may include the generators freely (bench, control loop).
  corpus.add("bench/cold.cpp", "#include \"traffic/selfsimilar.h\"\n");
  // A <> include of the same spelling is not a project header.
  corpus.add("src/shim/hot.cpp",
             hot_path_marker() + "#include <traffic/selfsimilar.h>\n");
  EXPECT_TRUE(run_rule("hot-path-generators", corpus).findings.empty());
}

// ---- suppression, selection ----

TEST(AnalyzeFramework, AllowAnnotationsSuppressOnOwnLineAndLineAbove) {
  Corpus corpus;
  corpus.add("src/util/a.cpp",
             "int x = rand();  // nwlb-analyze: allow(no-rand)\n"
             "// nwlb-lint: allow(no-rand)\n"
             "int y = rand();\n"
             "int z = rand();\n");
  const Result result = run_rule("no-rand", corpus);
  ASSERT_EQ(result.findings.size(), 1u);
  EXPECT_EQ(result.findings[0].line, 4u);
  EXPECT_EQ(result.suppressed, 2u);
}

TEST(AnalyzeFramework, DisableAndEnableOnlySelectRules) {
  Corpus corpus;
  corpus.add("src/util/a.cpp", "int x = rand();\nauto* p = new int;\n");

  Analyzer all;
  EXPECT_EQ(all.run(corpus).findings.size(), 2u);

  Analyzer no_rand_off;
  EXPECT_TRUE(no_rand_off.disable("no-rand"));
  EXPECT_FALSE(no_rand_off.disable("no-such-rule"));
  const Result result = no_rand_off.run(corpus);
  ASSERT_EQ(result.findings.size(), 1u);
  EXPECT_EQ(result.findings[0].rule, "naked-new");

  Analyzer only;
  EXPECT_FALSE(only.enable_only({"no-rand", "no-such-rule"}));
  EXPECT_TRUE(only.enable_only({"no-rand"}));
  EXPECT_EQ(rule_names(only.run(corpus)), std::vector<std::string>{"no-rand"});
}

TEST(AnalyzeFramework, DefaultRuleSetIsComplete) {
  const Analyzer analyzer;
  const Result empty = analyzer.run(Corpus{});
  std::vector<std::string> names;
  for (const RuleInfo& rule : empty.rules) names.push_back(rule.name);
  const std::vector<std::string> expected = {
      "pragma-once",       "no-rand",          "naked-new",
      "using-namespace",   "reinterpret-cast", "hot-path-map",
      "no-throw-hot-path", "include-layering", "include-cycle",
      "atomic-order",      "hot-path-purity",  "hot-path-generators"};
  EXPECT_EQ(names, expected);
}

// ---- reports ----

Result one_finding_result() {
  Corpus corpus;
  corpus.add("src/util/a.cpp", "int x = rand();\n");
  Analyzer analyzer;
  return analyzer.run(corpus);
}

TEST(AnalyzeReports, TextReportHasFindingLineAndSummary) {
  const std::string text = render_text(one_finding_result());
  EXPECT_NE(text.find("src/util/a.cpp:1: no-rand:"), std::string::npos);
  EXPECT_NE(text.find("1 file(s), 1 finding(s), 0 suppressed"),
            std::string::npos);
}

TEST(AnalyzeReports, JsonReportCarriesRulesAndFindings) {
  const std::string json = render_json(one_finding_result());
  EXPECT_NE(json.find("\"tool\": \"nwlb_analyze\""), std::string::npos);
  EXPECT_NE(json.find("\"files_scanned\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"no-rand\""), std::string::npos);
  EXPECT_NE(json.find("\"file\": \"src/util/a.cpp\""), std::string::npos);
  EXPECT_NE(json.find("\"line\": 1"), std::string::npos);
  // Every rule appears in the rule table even without findings.
  EXPECT_NE(json.find("\"name\": \"include-cycle\""), std::string::npos);
}

TEST(AnalyzeReports, SarifReportMatchesTheSchemaShape) {
  const std::string sarif = render_sarif(one_finding_result());
  EXPECT_NE(sarif.find("sarif-2.1.0.json"), std::string::npos);
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"name\": \"nwlb_analyze\""), std::string::npos);
  EXPECT_NE(sarif.find("\"ruleId\": \"no-rand\""), std::string::npos);
  EXPECT_NE(sarif.find("\"ruleIndex\": 1"), std::string::npos);
  EXPECT_NE(sarif.find("\"level\": \"error\""), std::string::npos);
  EXPECT_NE(sarif.find("\"uri\": \"src/util/a.cpp\""), std::string::npos);
  EXPECT_NE(sarif.find("\"startLine\": 1"), std::string::npos);
}

TEST(AnalyzeReports, JsonStringsAreEscaped) {
  Corpus corpus;
  corpus.add("src/util/quote\"path.cpp", "int x = rand();\n");
  Analyzer analyzer;
  const std::string json = render_json(analyzer.run(corpus));
  EXPECT_NE(json.find("quote\\\"path.cpp"), std::string::npos);
}

}  // namespace
}  // namespace nwlb::analyze
