// Corpus loading, source stripping, and the analyzer driver core.
#include "analyze/analyze.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace nwlb::analyze {

namespace fs = std::filesystem;

namespace {

bool identifier_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// Splits raw text into lines without any transformation.
std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines(1);
  for (const char c : text) {
    if (c == '\n')
      lines.emplace_back();
    else
      lines.back() += c;
  }
  return lines;
}

/// Parses one `#include` directive from a stripped code line.  Note the
/// stripped form of `#include "x"` is `#include ` (literal contents are
/// removed), so quoted targets are recovered from the raw line.
bool parse_include(const std::string& raw_line, IncludeDirective& out) {
  std::size_t i = 0;
  while (i < raw_line.size() &&
         std::isspace(static_cast<unsigned char>(raw_line[i])) != 0)
    ++i;
  if (i >= raw_line.size() || raw_line[i] != '#') return false;
  ++i;
  while (i < raw_line.size() &&
         std::isspace(static_cast<unsigned char>(raw_line[i])) != 0)
    ++i;
  if (raw_line.compare(i, 7, "include") != 0) return false;
  i += 7;
  while (i < raw_line.size() &&
         std::isspace(static_cast<unsigned char>(raw_line[i])) != 0)
    ++i;
  if (i >= raw_line.size()) return false;
  const char open = raw_line[i];
  const char close = open == '"' ? '"' : (open == '<' ? '>' : '\0');
  if (close == '\0') return false;
  const std::size_t end = raw_line.find(close, i + 1);
  if (end == std::string::npos) return false;
  out.target = raw_line.substr(i + 1, end - i - 1);
  out.quoted = open == '"';
  return true;
}

}  // namespace

std::vector<std::string> strip_comments_and_strings(const std::string& text) {
  enum class State { kCode, kLineComment, kBlockComment, kString, kChar, kRawString };
  std::vector<std::string> lines(1);
  State state = State::kCode;
  std::string raw_terminator;  // )delim" that ends the active raw string.
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    const char next = i + 1 < text.size() ? text[i + 1] : '\0';
    if (c == '\n') {
      if (state == State::kLineComment) state = State::kCode;
      lines.emplace_back();
      continue;
    }
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          ++i;
        } else if (c == 'R' && next == '"' &&
                   (lines.back().empty() || !identifier_char(lines.back().back()))) {
          // Raw string: R"delim( ... )delim".
          std::size_t open = i + 2;
          std::string delim;
          while (open < text.size() && text[open] != '(') delim += text[open++];
          raw_terminator = ")" + delim + "\"";
          state = State::kRawString;
          i = open;  // Skip past the opening parenthesis.
        } else if (c == '"') {
          state = State::kString;
        } else if (c == '\'' && !(!lines.back().empty() &&
                                  std::isdigit(static_cast<unsigned char>(
                                      lines.back().back())))) {
          // Apostrophes inside numeric literals (1'000'000) are separators.
          state = State::kChar;
        } else {
          lines.back() += c;
        }
        break;
      case State::kLineComment:
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          state = State::kCode;
          ++i;
        }
        break;
      case State::kString:
        if (c == '\\')
          ++i;
        else if (c == '"')
          state = State::kCode;
        break;
      case State::kChar:
        if (c == '\\')
          ++i;
        else if (c == '\'')
          state = State::kCode;
        break;
      case State::kRawString:
        if (text.compare(i, raw_terminator.size(), raw_terminator) == 0) {
          i += raw_terminator.size() - 1;
          state = State::kCode;
        }
        break;
    }
  }
  return lines;
}

bool has_token(const std::string& line, std::string_view token, std::size_t* at) {
  for (std::size_t pos = line.find(token); pos != std::string::npos;
       pos = line.find(token, pos + 1)) {
    const bool left_ok = pos == 0 || !identifier_char(line[pos - 1]);
    const std::size_t end = pos + token.size();
    const bool right_ok = end >= line.size() || !identifier_char(line[end]);
    if (left_ok && right_ok) {
      if (at != nullptr) *at = pos;
      return true;
    }
  }
  return false;
}

std::string repo_relative(const std::string& path) {
  static const char* kRoots[] = {"src", "tools", "tests", "bench", "examples"};
  std::string normalized = path;
  std::replace(normalized.begin(), normalized.end(), '\\', '/');
  std::size_t best = std::string::npos;
  for (const char* root : kRoots) {
    const std::string needle = std::string(root) + "/";
    // Last occurrence that begins a path component.
    for (std::size_t pos = normalized.rfind(needle); pos != std::string::npos;
         pos = pos == 0 ? std::string::npos : normalized.rfind(needle, pos - 1)) {
      if (pos == 0 || normalized[pos - 1] == '/') {
        if (best == std::string::npos || pos > best) best = pos;
        break;
      }
      if (pos == 0) break;
    }
  }
  return best == std::string::npos ? normalized : normalized.substr(best);
}

std::string module_of(const std::string& repo_path) {
  const std::size_t slash = repo_path.find('/');
  if (slash == std::string::npos) return {};
  const std::string head = repo_path.substr(0, slash);
  if (head != "src") return head;  // tools / tests / bench / examples.
  const std::size_t next = repo_path.find('/', slash + 1);
  if (next == std::string::npos) return {};
  return repo_path.substr(slash + 1, next - slash - 1);
}

int layer_rank(const std::string& module) {
  if (module == "util") return 0;
  if (module == "topo" || module == "lp" || module == "obs") return 10;
  if (module == "nids" || module == "traffic") return 20;
  if (module == "shim") return 25;
  if (module == "core") return 30;
  if (module == "sim") return 40;
  if (module == "online") return 50;
  return 100;  // tools / tests / bench / examples / unknown: on top.
}

bool line_allows(const std::string& raw_line, std::string_view rule) {
  for (const char* marker : {"nwlb-analyze: allow(", "nwlb-lint: allow("}) {
    const std::size_t mark = raw_line.find(marker);
    if (mark == std::string::npos) continue;
    const std::size_t open = raw_line.find('(', mark);
    const std::size_t close = raw_line.find(')', open);
    if (close == std::string::npos) continue;
    std::string list = raw_line.substr(open + 1, close - open - 1);
    std::istringstream parts(list);
    std::string item;
    while (std::getline(parts, item, ',')) {
      item.erase(std::remove_if(item.begin(), item.end(),
                                [](unsigned char c) { return std::isspace(c) != 0; }),
                 item.end());
      if (item == rule) return true;
    }
  }
  return false;
}

void Corpus::add(std::string path, const std::string& text) {
  SourceFile file;
  file.path = std::move(path);
  file.repo_path = repo_relative(file.path);
  file.raw = split_lines(text);
  file.code = strip_comments_and_strings(text);
  const std::string ext = fs::path(file.path).extension().string();
  file.is_header = ext == ".h" || ext == ".hpp";
  // The hot-path marker is a standalone comment line, so prose that merely
  // *mentions* the marker (this analyzer's own sources, say) does not turn
  // a file into hot-path code.
  for (const std::string& line : file.raw) {
    std::string trimmed = line;
    trimmed.erase(0, trimmed.find_first_not_of(" \t"));
    const std::size_t end = trimmed.find_last_not_of(" \t\r");
    trimmed.erase(end == std::string::npos ? 0 : end + 1);
    if (trimmed == "// nwlb-lint: hot-path" ||
        trimmed == "// nwlb-analyze: hot-path") {
      file.hot_path = true;
      break;
    }
  }
  for (std::size_t i = 0; i < file.raw.size(); ++i) {
    IncludeDirective inc;
    if (parse_include(file.raw[i], inc)) {
      inc.line_index = i;
      file.includes.push_back(std::move(inc));
    }
  }
  files.push_back(std::move(file));
}

const SourceFile* Corpus::by_repo_path(const std::string& repo_path) const {
  for (const SourceFile& file : files)
    if (file.repo_path == repo_path) return &file;
  return nullptr;
}

bool load_corpus(const std::vector<std::string>& roots, Corpus& corpus,
                 std::string& error) {
  for (const std::string& root : roots) {
    const fs::path base(root);
    if (!fs::exists(base)) {
      error = "no such path: " + root;
      return false;
    }
    std::vector<fs::path> targets;
    if (fs::is_directory(base)) {
      for (const auto& entry : fs::recursive_directory_iterator(base))
        if (entry.is_regular_file()) targets.push_back(entry.path());
    } else {
      targets.push_back(base);
    }
    std::sort(targets.begin(), targets.end());
    for (const fs::path& p : targets) {
      const std::string ext = p.extension().string();
      if (ext != ".h" && ext != ".hpp" && ext != ".cpp" && ext != ".cc") continue;
      std::ifstream in(p);
      std::stringstream buffer;
      buffer << in.rdbuf();
      corpus.add(p.string(), buffer.str());
    }
  }
  return true;
}

void Sink::report(const SourceFile& file, std::size_t line_index,
                  std::string_view rule, std::string message) {
  // An allow annotation suppresses findings on its own line and on the
  // line directly below it (so it can sit in a comment above the code).
  if ((line_index < file.raw.size() && line_allows(file.raw[line_index], rule)) ||
      (line_index > 0 && line_index - 1 < file.raw.size() &&
       line_allows(file.raw[line_index - 1], rule))) {
    ++suppressed_;
    return;
  }
  findings_.push_back(
      Finding{file.path, line_index + 1, std::string(rule), std::move(message)});
}

void Rule::check_file(const SourceFile&, Sink&) const {}
void Rule::check_corpus(const Corpus&, Sink&) const {}

Analyzer::Analyzer() : Analyzer(default_rules()) {}

Analyzer::Analyzer(std::vector<std::unique_ptr<Rule>> rules) {
  slots_.reserve(rules.size());
  for (auto& rule : rules) slots_.push_back(Slot{std::move(rule), true});
}

bool Analyzer::disable(std::string_view name) {
  for (Slot& slot : slots_) {
    if (slot.rule->name() == name) {
      slot.enabled = false;
      return true;
    }
  }
  return false;
}

bool Analyzer::enable_only(const std::vector<std::string>& names) {
  for (const std::string& name : names) {
    const bool known =
        std::any_of(slots_.begin(), slots_.end(),
                    [&](const Slot& s) { return s.rule->name() == name; });
    if (!known) return false;
  }
  for (Slot& slot : slots_)
    slot.enabled = std::find(names.begin(), names.end(),
                             std::string(slot.rule->name())) != names.end();
  return true;
}

Result Analyzer::run(const Corpus& corpus) const {
  Result result;
  result.files_scanned = corpus.files.size();
  for (const Slot& slot : slots_) {
    RuleInfo info;
    info.name = std::string(slot.rule->name());
    info.description = std::string(slot.rule->description());
    info.enabled = slot.enabled;
    if (slot.enabled) {
      Sink sink;
      for (const SourceFile& file : corpus.files) slot.rule->check_file(file, sink);
      slot.rule->check_corpus(corpus, sink);
      info.findings = sink.findings().size();
      result.suppressed += sink.suppressed();
      for (Finding& f : sink.findings()) result.findings.push_back(std::move(f));
    }
    result.rules.push_back(std::move(info));
  }
  std::sort(result.findings.begin(), result.findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              if (a.rule != b.rule) return a.rule < b.rule;
              return a.message < b.message;
            });
  return result;
}

}  // namespace nwlb::analyze
