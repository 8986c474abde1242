// Hot-path purity: per-packet code must not allocate, lock, dispatch
// virtually, or do I/O.
//
// Files marked `// nwlb-lint: hot-path` hold the code that runs once per
// replayed frame — the shim decapsulation path, the flat-table lookups,
// the per-shard replay loop, the metric increments.  At the frame rates
// the CoNEXT'12 evaluation replays, a single malloc or mutex acquisition
// per packet dominates the work being measured.  The heritage rules
// already ban unordered_map and throw there; this pass extends the
// discipline to four token categories:
//
//   alloc    make_unique make_shared malloc calloc realloc aligned_alloc
//            posix_memalign
//   lock     mutex Mutex MutexLock lock_guard unique_lock scoped_lock
//            condition_variable CondVar
//   virtual  virtual
//   io       cout cerr clog cin printf fprintf sprintf snprintf puts
//            fputs fgets fopen fread fwrite ifstream ofstream fstream
//            getline
//
// util::ThreadRole / RoleGuard are deliberately NOT banned: the role
// capability is a compile-time fiction with empty acquire/release, which
// is exactly the point — it is the lock you are allowed to "take" on the
// hot path.  Cold-path setup living in a hot-path file (constructors,
// reconfiguration) is annotated `// nwlb-analyze: allow(hot-path-purity)`
// so the reviewed exemptions are greppable.
#include <array>
#include <string>
#include <utility>

#include "analyze/analyze.h"
#include "analyze/rules.h"

namespace nwlb::analyze {

namespace {

struct BannedToken {
  std::string_view token;
  std::string_view category;
};

constexpr std::array<BannedToken, 34> kBanned = {{
    {"make_unique", "alloc"},
    {"make_shared", "alloc"},
    {"malloc", "alloc"},
    {"calloc", "alloc"},
    {"realloc", "alloc"},
    // One-time aligned buffers belong in setup code with a reviewed
    // allow — never per frame.
    {"aligned_alloc", "alloc"},
    {"posix_memalign", "alloc"},
    {"mutex", "lock"},
    {"Mutex", "lock"},
    {"MutexLock", "lock"},
    {"lock_guard", "lock"},
    {"unique_lock", "lock"},
    {"scoped_lock", "lock"},
    {"condition_variable", "lock"},
    {"CondVar", "lock"},
    {"virtual", "virtual"},
    {"cout", "io"},
    {"cerr", "io"},
    {"clog", "io"},
    {"cin", "io"},
    {"printf", "io"},
    {"fprintf", "io"},
    // String formatting is hidden I/O-grade work: locale-aware, branchy,
    // and never constant-time — format off the frame path.
    {"sprintf", "io"},
    {"snprintf", "io"},
    {"puts", "io"},
    {"fputs", "io"},
    {"fgets", "io"},
    {"fopen", "io"},
    {"fread", "io"},
    {"fwrite", "io"},
    {"ifstream", "io"},
    {"ofstream", "io"},
    {"fstream", "io"},
    {"getline", "io"},
}};

std::string_view category_consequence(std::string_view category) {
  if (category == "alloc") return "a per-packet allocation";
  if (category == "lock") return "a per-packet lock acquisition";
  if (category == "virtual") return "an indirect call the compiler cannot inline";
  return "blocking I/O on the packet path";
}

class HotPathPurityRule : public Rule {
 public:
  std::string_view name() const override { return "hot-path-purity"; }
  std::string_view description() const override {
    return "hot-path files must not allocate, lock, dispatch virtually, or "
           "do I/O; cold-path setup in those files carries a reviewed "
           "allow annotation";
  }
  void check_file(const SourceFile& file, Sink& sink) const override {
    if (!file.hot_path) return;
    for (std::size_t i = 0; i < file.code.size(); ++i) {
      const std::string& line = file.code[i];
      // Preprocessor lines (#include <mutex> and friends) are the file's
      // interface to cold-path helpers, not hot-path code.
      std::size_t first = 0;
      while (first < line.size() && (line[first] == ' ' || line[first] == '\t'))
        ++first;
      if (first < line.size() && line[first] == '#') continue;
      for (const BannedToken& banned : kBanned) {
        if (!has_token(line, banned.token)) continue;
        std::string message = "`";
        message.append(banned.token)
            .append("` (")
            .append(banned.category)
            .append(") in a `nwlb-lint: hot-path` file: ")
            .append(category_consequence(banned.category))
            .append(" dominates per-frame work — hoist it off the packet "
                    "path, or annotate reviewed cold-path setup with "
                    "`// nwlb-analyze: allow(hot-path-purity)`");
        sink.report(file, i, name(), std::move(message));
      }
    }
  }
};

// Scenario-generator headers banned from the decide path.  The purity
// rule above deliberately skips preprocessor lines, so it would never see
// an #include — but pulling traffic synthesis (fGn embedding, FFTs,
// lognormal sampling, per-window matrix materialization) into a per-frame
// translation unit is exactly the layering mistake the DESIGN.md §15 split
// exists to prevent: generators feed the *control plane* a window at a
// time; the data plane only ever sees the compiled tables.
constexpr std::array<std::string_view, 2> kGeneratorHeaders = {
    "traffic/selfsimilar.h",
    "traffic/variability.h",
};

class HotPathGeneratorIncludeRule : public Rule {
 public:
  std::string_view name() const override { return "hot-path-generators"; }
  std::string_view description() const override {
    return "hot-path files must not include the traffic scenario "
           "generators (traffic/selfsimilar.h, traffic/variability.h) — "
           "synthesis is control-plane work, fed to the data plane as "
           "compiled tables";
  }
  void check_file(const SourceFile& file, Sink& sink) const override {
    if (!file.hot_path) return;
    for (const IncludeDirective& include : file.includes) {
      if (!include.quoted) continue;
      for (std::string_view header : kGeneratorHeaders) {
        if (include.target != header) continue;
        sink.report(file, include.line_index, name(),
                    "`#include \"" + std::string(header) +
                        "\"` in a `nwlb-lint: hot-path` file: traffic "
                        "synthesis belongs to the control plane — pass the "
                        "generated window's compiled tables in instead of "
                        "generating on the decide path");
      }
    }
  }
};

}  // namespace

namespace detail {

void append_hot_path_rules(std::vector<std::unique_ptr<Rule>>& rules) {
  rules.push_back(std::make_unique<HotPathPurityRule>());
  rules.push_back(std::make_unique<HotPathGeneratorIncludeRule>());
}

}  // namespace detail

}  // namespace nwlb::analyze
