// The nwlb_lint heritage rules, ported into the framework as data-driven
// rule objects.  Semantics are unchanged — every allow annotation written
// against nwlb_lint keeps working — only the plumbing moved.
#include <cctype>

#include "analyze/analyze.h"
#include "analyze/rules.h"

namespace nwlb::analyze {

namespace {

char last_code_char(const std::string& line, std::size_t before) {
  for (std::size_t i = before; i > 0; --i) {
    const char c = line[i - 1];
    if (std::isspace(static_cast<unsigned char>(c)) == 0) return c;
  }
  return '\0';
}

class PragmaOnceRule : public Rule {
 public:
  std::string_view name() const override { return "pragma-once"; }
  std::string_view description() const override {
    return "every header starts its life with #pragma once";
  }
  void check_file(const SourceFile& file, Sink& sink) const override {
    if (!file.is_header) return;
    for (const std::string& line : file.code)
      if (line.find("#pragma") != std::string::npos &&
          line.find("once") != std::string::npos)
        return;
    sink.report(file, 0, name(), "header lacks #pragma once");
  }
};

class NoRandRule : public Rule {
 public:
  std::string_view name() const override { return "no-rand"; }
  std::string_view description() const override {
    return "rand()/srand() are banned; util/rng.h is the deterministic, "
           "seedable source of randomness";
  }
  void check_file(const SourceFile& file, Sink& sink) const override {
    for (std::size_t i = 0; i < file.code.size(); ++i)
      if (has_token(file.code[i], "rand") || has_token(file.code[i], "srand"))
        sink.report(file, i, name(), "rand()/srand() is banned; use util/rng.h");
  }
};

class NakedNewRule : public Rule {
 public:
  std::string_view name() const override { return "naked-new"; }
  std::string_view description() const override {
    return "no naked new/delete; use containers or smart pointers";
  }
  void check_file(const SourceFile& file, Sink& sink) const override {
    for (std::size_t i = 0; i < file.code.size(); ++i) {
      const std::string& line = file.code[i];
      std::size_t pos = 0;
      if (has_token(line, "new", &pos))
        sink.report(file, i, name(), "naked new; use a container or smart pointer");
      if (has_token(line, "delete", &pos) && last_code_char(line, pos) != '=')
        sink.report(file, i, name(), "naked delete; use a container or smart pointer");
    }
  }
};

class UsingNamespaceRule : public Rule {
 public:
  std::string_view name() const override { return "using-namespace"; }
  std::string_view description() const override {
    return "no `using namespace` at header scope";
  }
  void check_file(const SourceFile& file, Sink& sink) const override {
    if (!file.is_header) return;
    for (std::size_t i = 0; i < file.code.size(); ++i) {
      const std::string& line = file.code[i];
      if (has_token(line, "using") && has_token(line, "namespace") &&
          line.find("using") < line.find("namespace"))
        sink.report(file, i, name(), "no `using namespace` in headers");
    }
  }
};

class ReinterpretCastRule : public Rule {
 public:
  std::string_view name() const override { return "reinterpret-cast"; }
  std::string_view description() const override {
    return "reinterpret_cast is quarantined: casting packed wire bytes to "
           "structs is unaligned UB; every use needs a reviewed allow "
           "annotation";
  }
  void check_file(const SourceFile& file, Sink& sink) const override {
    for (std::size_t i = 0; i < file.code.size(); ++i)
      if (has_token(file.code[i], "reinterpret_cast"))
        sink.report(file, i, name(),
                    "reinterpret_cast of wire bytes is unaligned UB; memcpy "
                    "instead, or annotate with `// nwlb-analyze: "
                    "allow(reinterpret-cast)` after review");
  }
};

class HotPathMapRule : public Rule {
 public:
  std::string_view name() const override { return "hot-path-map"; }
  std::string_view description() const override {
    return "files marked `// nwlb-lint: hot-path` are per-packet code: no "
           "std::unordered_map there; compile to flat arrays instead";
  }
  void check_file(const SourceFile& file, Sink& sink) const override {
    if (!file.hot_path) return;
    for (std::size_t i = 0; i < file.code.size(); ++i)
      if (has_token(file.code[i], "unordered_map"))
        sink.report(file, i, name(),
                    "std::unordered_map in a `nwlb-lint: hot-path` file; use a "
                    "flat compiled table (see shim/flat_table.h)");
  }
};

class NoThrowHotPathRule : public Rule {
 public:
  std::string_view name() const override { return "no-throw-hot-path"; }
  std::string_view description() const override {
    return "no `throw` in hot-path files: per-packet code must not unwind";
  }
  void check_file(const SourceFile& file, Sink& sink) const override {
    if (!file.hot_path) return;
    for (std::size_t i = 0; i < file.code.size(); ++i)
      if (has_token(file.code[i], "throw"))
        sink.report(file, i, name(),
                    "`throw` in a `nwlb-lint: hot-path` file; per-packet code "
                    "must not unwind — return std::optional / count the error "
                    "(try_decapsulate pattern), or annotate cold-path setup with "
                    "`// nwlb-analyze: allow(no-throw-hot-path)`");
  }
};

}  // namespace

namespace detail {

void append_token_rules(std::vector<std::unique_ptr<Rule>>& rules) {
  rules.push_back(std::make_unique<PragmaOnceRule>());
  rules.push_back(std::make_unique<NoRandRule>());
  rules.push_back(std::make_unique<NakedNewRule>());
  rules.push_back(std::make_unique<UsingNamespaceRule>());
  rules.push_back(std::make_unique<ReinterpretCastRule>());
  rules.push_back(std::make_unique<HotPathMapRule>());
  rules.push_back(std::make_unique<NoThrowHotPathRule>());
}

}  // namespace detail

}  // namespace nwlb::analyze
