// nwlb_analyze — multi-pass static analysis framework (DESIGN.md §11).
//
// Successor to (and superset of) nwlb_lint: rules are data-driven objects
// with per-rule enable/disable, findings flow through one Sink with
// uniform suppression handling, and the result renders as the classic
// `file:line: rule: message` text, a JSON report, or SARIF 2.1.0 for CI
// artifact upload.
//
// Passes:
//   * per-file token rules   — the ported nwlb_lint rule set plus the
//                              atomics audit and the hot-path purity pass
//   * whole-corpus rules     — the include-graph pass (layering DAG and
//                              cycle detection), which needs every file's
//                              edges before it can judge any of them
//
// Suppression: a finding on a line whose raw text (same line or the line
// directly above) carries `// nwlb-analyze: allow(<rule>)` — or the
// legacy `// nwlb-lint: allow(<rule>)` spelling, which years of existing
// annotations use — is counted but not reported.  Comments and string
// literals are stripped before any rule sees the code, so prose never
// trips a rule.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace nwlb::analyze {

/// One reported violation, in `file:line: rule: message` coordinates
/// (line is 1-based in reports, stored 1-based here).
struct Finding {
  std::string file;
  std::size_t line = 0;
  std::string rule;
  std::string message;
};

/// One `#include` directive (0-based line index into the file).
struct IncludeDirective {
  std::size_t line_index = 0;
  std::string target;   // Text between the delimiters.
  bool quoted = false;  // "..." (project) vs <...> (system).
};

/// A parsed source file: raw lines for suppression lookups, stripped
/// lines (no comments, no string/char literal contents) for rules.
struct SourceFile {
  std::string path;       // As handed to the analyzer (what findings print).
  std::string repo_path;  // Normalized repo-relative form ("src/shim/shim.h").
  std::vector<std::string> raw;
  std::vector<std::string> code;
  std::vector<IncludeDirective> includes;
  bool is_header = false;
  bool hot_path = false;  // Carries the `// nwlb-lint: hot-path` marker.
};

/// The full set of files under analysis.
struct Corpus {
  std::vector<SourceFile> files;

  /// Parses `text` as the contents of `path` and appends it.
  void add(std::string path, const std::string& text);

  /// Lookup by normalized repo path; nullptr when absent.
  const SourceFile* by_repo_path(const std::string& repo_path) const;
};

/// Walks directories (or single files) and loads every .h/.hpp/.cpp/.cc
/// into `corpus`, sorted by path.  Returns false (with `error` set) on a
/// missing path.
bool load_corpus(const std::vector<std::string>& roots, Corpus& corpus,
                 std::string& error);

// ---- text utilities shared by rules (exposed for tests) ----

/// Removes comments and string/char literal contents, preserving line
/// structure so findings keep their line numbers.
std::vector<std::string> strip_comments_and_strings(const std::string& text);

/// True when `token` appears in `line` as a whole identifier.
bool has_token(const std::string& line, std::string_view token,
               std::size_t* at = nullptr);

/// Normalizes a path to its repo-relative form by trimming everything up
/// to the last `src/tools/tests/bench/examples` component; returns the
/// input unchanged when none is present.
std::string repo_relative(const std::string& path);

/// The layering module a repo path belongs to: the subdirectory under
/// src/ ("util", "shim", ...) or the top-level directory ("tools",
/// "tests", "bench", "examples").  Empty when unclassifiable.
std::string module_of(const std::string& repo_path);

/// Rank in the layering DAG; includes must point strictly downward.
/// util=0 < topo/lp/obs=10 < nids/traffic=20 < shim=25 < core=30 <
/// sim=40 < online=50 < everything on top=100.
int layer_rank(const std::string& module);

/// True when the raw line carries an allow annotation naming `rule`
/// (either the `nwlb-analyze:` or the legacy `nwlb-lint:` spelling).
bool line_allows(const std::string& raw_line, std::string_view rule);

// ---- the framework ----

/// Collects findings; applies suppression (same line or line above).
class Sink {
 public:
  void report(const SourceFile& file, std::size_t line_index,
              std::string_view rule, std::string message);

  std::vector<Finding>& findings() { return findings_; }
  const std::vector<Finding>& findings() const { return findings_; }
  std::size_t suppressed() const { return suppressed_; }

 private:
  std::vector<Finding> findings_;
  std::size_t suppressed_ = 0;
};

/// One analysis rule.  Most rules are per-file; whole-program passes
/// (the include graph) use check_corpus instead.
class Rule {
 public:
  virtual ~Rule() = default;
  virtual std::string_view name() const = 0;
  virtual std::string_view description() const = 0;
  virtual void check_file(const SourceFile& file, Sink& sink) const;
  virtual void check_corpus(const Corpus& corpus, Sink& sink) const;
};

/// Per-rule accounting carried into the reports.
struct RuleInfo {
  std::string name;
  std::string description;
  bool enabled = true;
  std::size_t findings = 0;
};

struct Result {
  std::vector<Finding> findings;  // Sorted by (file, line, rule).
  std::vector<RuleInfo> rules;
  std::size_t files_scanned = 0;
  std::size_t suppressed = 0;
};

/// Runs a rule set over a corpus with per-rule enable/disable.
class Analyzer {
 public:
  /// The full default rule set.
  Analyzer();
  explicit Analyzer(std::vector<std::unique_ptr<Rule>> rules);

  /// Disables one rule by name; false when the name is unknown.
  bool disable(std::string_view name);
  /// Keeps only the named rules enabled; false when any name is unknown.
  bool enable_only(const std::vector<std::string>& names);

  Result run(const Corpus& corpus) const;

 private:
  struct Slot {
    std::unique_ptr<Rule> rule;
    bool enabled = true;
  };
  std::vector<Slot> slots_;
};

/// The built-in rule set: the seven ported nwlb_lint rules plus
/// include-layering, include-cycle, atomic-order, hot-path-purity, and
/// hot-path-generators.
std::vector<std::unique_ptr<Rule>> default_rules();

// ---- report renderers (report.cpp) ----

/// Classic lint output: one `file:line: rule: message` per finding plus
/// the trailing summary line.
std::string render_text(const Result& result);

/// Machine-readable JSON report (schema documented in DESIGN.md §11).
std::string render_json(const Result& result);

/// SARIF 2.1.0, suitable for CI artifact upload / code-scanning ingest.
std::string render_sarif(const Result& result);

}  // namespace nwlb::analyze
