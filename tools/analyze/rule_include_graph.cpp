// Include-graph pass: layering DAG enforcement and cycle detection.
//
// The repo's dependency discipline (DESIGN.md §11):
//
//   util  →  topo / lp / obs  →  nids / traffic  →  shim  →  core  →  sim
//         →  online,   with tools / tests / bench / examples on top.
//
// An `#include` must point strictly *down* that order (or stay inside its
// own module).  Peers in the same band — topo/lp/obs, nids/traffic — may
// not include each other: a dependency between them is an architecture
// decision, made by moving one of them down a band, not by an include
// that quietly couples solver and topology code.  Any include cycle is an
// error regardless of layers.
//
// Both rules are whole-corpus passes: edges are resolved against the
// loaded file set (quoted includes only — angle includes are system
// headers), and unresolved targets are ignored, so the pass needs no
// include-path configuration.
#include <algorithm>
#include <map>
#include <string>

#include "analyze/analyze.h"
#include "analyze/rules.h"

namespace nwlb::analyze {

namespace {

std::string dirname_of(const std::string& repo_path) {
  const std::size_t slash = repo_path.rfind('/');
  return slash == std::string::npos ? std::string() : repo_path.substr(0, slash);
}

/// Resolves a quoted include target to a corpus file index, or npos.
/// Candidates: relative to src/ (the repo's include root), relative to
/// the including file's directory, and relative to each scanned top-level
/// tree (tools/ adds its own include dir for the analyzer itself).
std::size_t resolve_include(const Corpus& corpus,
                            const std::map<std::string, std::size_t>& by_path,
                            const SourceFile& from, const std::string& target) {
  (void)corpus;
  std::vector<std::string> candidates;
  candidates.push_back("src/" + target);
  const std::string dir = dirname_of(from.repo_path);
  if (!dir.empty()) candidates.push_back(dir + "/" + target);
  candidates.push_back("tools/" + target);
  candidates.push_back(target);
  for (const std::string& candidate : candidates) {
    const auto it = by_path.find(candidate);
    if (it != by_path.end()) return it->second;
  }
  return static_cast<std::size_t>(-1);
}

std::map<std::string, std::size_t> index_by_repo_path(const Corpus& corpus) {
  std::map<std::string, std::size_t> by_path;
  for (std::size_t i = 0; i < corpus.files.size(); ++i)
    by_path.emplace(corpus.files[i].repo_path, i);
  return by_path;
}

class IncludeLayeringRule : public Rule {
 public:
  std::string_view name() const override { return "include-layering"; }
  std::string_view description() const override {
    return "includes must follow the layering DAG: util -> topo/lp/obs -> "
           "nids/traffic -> shim -> core -> sim -> online, with "
           "tools/tests/bench/examples on top";
  }
  void check_corpus(const Corpus& corpus, Sink& sink) const override {
    const auto by_path = index_by_repo_path(corpus);
    for (const SourceFile& file : corpus.files) {
      const std::string from_module = module_of(file.repo_path);
      const int from_rank = layer_rank(from_module);
      for (const IncludeDirective& inc : file.includes) {
        if (!inc.quoted) continue;
        const std::size_t target =
            resolve_include(corpus, by_path, file, inc.target);
        if (target == static_cast<std::size_t>(-1)) continue;
        const std::string to_module = module_of(corpus.files[target].repo_path);
        if (to_module == from_module) continue;
        const int to_rank = layer_rank(to_module);
        if (to_rank > from_rank) {
          sink.report(file, inc.line_index, name(),
                      "`" + from_module + "` must not include `" + inc.target +
                          "`: `" + to_module +
                          "` sits above it in the layering DAG (util -> "
                          "topo/lp/obs -> nids/traffic -> shim -> core -> sim "
                          "-> online)");
        } else if (to_rank == from_rank && from_rank < 100) {
          sink.report(file, inc.line_index, name(),
                      "`" + from_module + "` must not include `" + inc.target +
                          "`: `" + to_module +
                          "` is a same-band peer; couple them by moving one "
                          "down a band, not with a peer include");
        }
      }
    }
  }
};

class IncludeCycleRule : public Rule {
 public:
  std::string_view name() const override { return "include-cycle"; }
  std::string_view description() const override {
    return "the file-level include graph must stay acyclic";
  }
  void check_corpus(const Corpus& corpus, Sink& sink) const override {
    const auto by_path = index_by_repo_path(corpus);
    const std::size_t n = corpus.files.size();
    std::vector<std::vector<std::size_t>> edges(n);
    for (std::size_t i = 0; i < n; ++i) {
      for (const IncludeDirective& inc : corpus.files[i].includes) {
        if (!inc.quoted) continue;
        const std::size_t target =
            resolve_include(corpus, by_path, corpus.files[i], inc.target);
        if (target != static_cast<std::size_t>(-1) && target != i)
          edges[i].push_back(target);
      }
    }

    // Tarjan SCC, iterative.  Every SCC with more than one member is an
    // include cycle; it is reported once, anchored at its
    // lexicographically-smallest member's offending include line.
    std::vector<int> index(n, -1), low(n, 0);
    std::vector<char> on_stack(n, 0);
    std::vector<std::size_t> stack;
    int next_index = 0;
    std::vector<std::vector<std::size_t>> components;

    struct Frame {
      std::size_t node;
      std::size_t edge = 0;
    };
    for (std::size_t root = 0; root < n; ++root) {
      if (index[root] != -1) continue;
      std::vector<Frame> frames{Frame{root}};
      index[root] = low[root] = next_index++;
      stack.push_back(root);
      on_stack[root] = 1;
      while (!frames.empty()) {
        Frame& frame = frames.back();
        const std::size_t u = frame.node;
        if (frame.edge < edges[u].size()) {
          const std::size_t v = edges[u][frame.edge++];
          if (index[v] == -1) {
            index[v] = low[v] = next_index++;
            stack.push_back(v);
            on_stack[v] = 1;
            frames.push_back(Frame{v});
          } else if (on_stack[v] != 0) {
            low[u] = std::min(low[u], index[v]);
          }
        } else {
          if (low[u] == index[u]) {
            std::vector<std::size_t> component;
            for (;;) {
              const std::size_t w = stack.back();
              stack.pop_back();
              on_stack[w] = 0;
              component.push_back(w);
              if (w == u) break;
            }
            if (component.size() > 1) components.push_back(std::move(component));
          }
          frames.pop_back();
          if (!frames.empty()) {
            Frame& parent = frames.back();
            low[parent.node] = std::min(low[parent.node], low[u]);
          }
        }
      }
    }

    for (std::vector<std::size_t>& component : components) {
      std::sort(component.begin(), component.end(),
                [&](std::size_t a, std::size_t b) {
                  return corpus.files[a].repo_path < corpus.files[b].repo_path;
                });
      const std::size_t anchor = component.front();
      // The include line that stays inside the component.
      std::size_t line_index = 0;
      for (const IncludeDirective& inc : corpus.files[anchor].includes) {
        if (!inc.quoted) continue;
        const std::size_t target =
            resolve_include(corpus, by_path, corpus.files[anchor], inc.target);
        if (std::find(component.begin(), component.end(), target) !=
            component.end()) {
          line_index = inc.line_index;
          break;
        }
      }
      std::string members;
      for (const std::size_t node : component) {
        if (!members.empty()) members += " -> ";
        members += corpus.files[node].repo_path;
      }
      sink.report(corpus.files[anchor], line_index, name(),
                  "include cycle: " + members);
    }
  }
};

}  // namespace

namespace detail {

void append_include_graph_rules(std::vector<std::unique_ptr<Rule>>& rules) {
  rules.push_back(std::make_unique<IncludeLayeringRule>());
  rules.push_back(std::make_unique<IncludeCycleRule>());
}

}  // namespace detail

}  // namespace nwlb::analyze
