// Atomics audit: every atomic access names its memory_order explicitly.
//
// `x.load()` compiles to seq_cst — the strongest, most expensive order —
// by *default*, which means an unannotated access is indistinguishable
// from a deliberate seq_cst one.  The shim hot path lives on relaxed
// counters; a silent seq_cst there is a performance bug, and a silent
// relaxed where acquire/release is needed is a correctness bug.  So the
// rule is: say what you mean.
//
//   * load/store/exchange/fetch_*/test_and_set name one memory_order;
//     compare_exchange_{weak,strong} name both (success and failure).
//   * Any order stronger than relaxed additionally carries a
//     `// nwlb-analyze: order(<why>)` justification on the call's lines
//     or the line above — stronger orders are where the reasoning lives,
//     and the reasoning belongs next to the code.
//
// Calls are paren-matched across lines, so formatting does not matter.
#include <array>
#include <string>
#include <utility>

#include "analyze/analyze.h"
#include "analyze/rules.h"

namespace nwlb::analyze {

namespace {

struct AtomicCall {
  std::string_view method;
  bool member_syntax;    // Requires a preceding `.` or `->`.
  std::size_t orders;    // memory_order arguments the call must name.
};

// `load`/`store`/`exchange` are common identifiers, so those require the
// member-access syntax (`x.load(`, `p->store(`); the fetch_*/CAS names
// are distinctive enough to match as bare tokens (which also catches the
// std::atomic_fetch_add free-function spellings).
constexpr std::array<AtomicCall, 11> kCalls = {{
    {"load", true, 1},
    {"store", true, 1},
    {"exchange", true, 1},
    {"fetch_add", false, 1},
    {"fetch_sub", false, 1},
    {"fetch_or", false, 1},
    {"fetch_and", false, 1},
    {"fetch_xor", false, 1},
    {"test_and_set", false, 1},
    {"compare_exchange_weak", false, 2},
    {"compare_exchange_strong", false, 2},
}};

bool identifier_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_';
}

/// True when code[line][pos] is preceded by `.` or `->` (skipping spaces).
bool member_access_before(const std::string& line, std::size_t pos) {
  std::size_t i = pos;
  while (i > 0 && line[i - 1] == ' ') --i;
  if (i == 0) return false;
  if (line[i - 1] == '.') return true;
  return i >= 2 && line[i - 2] == '-' && line[i - 1] == '>';
}

/// Collects the argument text of a call whose opening paren is at
/// code[start_line][open].  Returns false when the parens never close.
bool collect_arguments(const SourceFile& file, std::size_t start_line,
                       std::size_t open, std::string& arguments,
                       std::size_t& end_line) {
  int depth = 0;
  for (std::size_t li = start_line; li < file.code.size(); ++li) {
    const std::string& line = file.code[li];
    for (std::size_t ci = li == start_line ? open : 0; ci < line.size(); ++ci) {
      const char c = line[ci];
      if (c == '(') {
        ++depth;
        if (depth == 1) continue;  // The call's own paren is not argument text.
      } else if (c == ')') {
        --depth;
        if (depth == 0) {
          end_line = li;
          return true;
        }
      }
      arguments += c;
    }
    arguments += ' ';
  }
  return false;
}

std::size_t count_orders(const std::string& arguments) {
  std::size_t count = 0;
  for (std::size_t pos = arguments.find("memory_order");
       pos != std::string::npos; pos = arguments.find("memory_order", pos + 1)) {
    if (pos > 0 && identifier_char(arguments[pos - 1])) continue;
    ++count;
  }
  return count;
}

/// True when any named order is stronger than relaxed.
bool has_non_relaxed_order(const std::string& arguments) {
  for (std::size_t pos = arguments.find("memory_order");
       pos != std::string::npos; pos = arguments.find("memory_order", pos + 1)) {
    if (pos > 0 && identifier_char(arguments[pos - 1])) continue;
    const std::size_t after = pos + std::string_view("memory_order").size();
    if (arguments.compare(after, 8, "_relaxed") == 0) continue;
    if (arguments.compare(after, 9, "::relaxed") == 0) continue;
    return true;
  }
  return false;
}

bool line_justifies_order(const std::string& raw_line) {
  return raw_line.find("nwlb-analyze: order(") != std::string::npos;
}

class AtomicOrderRule : public Rule {
 public:
  std::string_view name() const override { return "atomic-order"; }
  std::string_view description() const override {
    return "atomic accesses name their memory_order explicitly; orders "
           "stronger than relaxed carry a `// nwlb-analyze: order(<why>)` "
           "justification";
  }
  void check_file(const SourceFile& file, Sink& sink) const override {
    // Cheap gate: files with no atomics in sight need no paren matching.
    bool mentions_atomic = false;
    for (const std::string& line : file.code)
      if (line.find("atomic") != std::string::npos) {
        mentions_atomic = true;
        break;
      }
    if (!mentions_atomic) return;

    for (std::size_t li = 0; li < file.code.size(); ++li) {
      const std::string& line = file.code[li];
      for (const AtomicCall& call : kCalls) {
        for (std::size_t pos = line.find(call.method); pos != std::string::npos;
             pos = line.find(call.method, pos + 1)) {
          if (pos > 0 && identifier_char(line[pos - 1])) continue;
          const std::size_t after = pos + call.method.size();
          if (after >= line.size() || identifier_char(line[after])) continue;
          if (line[after] != '(') continue;
          if (call.member_syntax && !member_access_before(line, pos)) continue;

          std::string arguments;
          std::size_t end_line = li;
          if (!collect_arguments(file, li, after, arguments, end_line)) continue;
          const std::size_t named = count_orders(arguments);
          if (named < call.orders) {
            std::string message = "`";
            message.append(call.method)
                .append("` names ")
                .append(std::to_string(named))
                .append(" of ")
                .append(std::to_string(call.orders))
                .append(" required memory_order argument(s); the seq_cst "
                        "default hides both cost and intent — say what "
                        "you mean (std::memory_order_relaxed for plain "
                        "counters)");
            sink.report(file, li, name(), std::move(message));
            continue;
          }
          if (has_non_relaxed_order(arguments)) {
            bool justified = li > 0 && line_justifies_order(file.raw[li - 1]);
            for (std::size_t ji = li; !justified && ji <= end_line &&
                                      ji < file.raw.size();
                 ++ji)
              justified = line_justifies_order(file.raw[ji]);
            if (!justified) {
              std::string message = "`";
              message.append(call.method)
                  .append("` uses a memory order stronger than relaxed "
                          "without a `// nwlb-analyze: order(<why>)` "
                          "justification — document the happens-before "
                          "edge this order creates");
              sink.report(file, li, name(), std::move(message));
            }
          }
        }
      }
    }
  }
};

}  // namespace

namespace detail {

void append_atomics_rules(std::vector<std::unique_ptr<Rule>>& rules) {
  rules.push_back(std::make_unique<AtomicOrderRule>());
}

}  // namespace detail

}  // namespace nwlb::analyze
