#include "support/signature_baseline.h"

#include <queue>
#include <stdexcept>

namespace nwlb::nids {

BaselineSignatureEngine::BaselineSignatureEngine(std::vector<std::string> patterns)
    : patterns_(std::move(patterns)) {
  for (const auto& p : patterns_)
    if (p.empty()) throw std::invalid_argument("BaselineSignatureEngine: empty pattern");

  // Trie construction.
  nodes_.emplace_back();
  nodes_[0].next.fill(-1);
  for (int id = 0; id < static_cast<int>(patterns_.size()); ++id) {
    int state = 0;
    for (unsigned char ch : patterns_[static_cast<std::size_t>(id)]) {
      int& slot = nodes_[static_cast<std::size_t>(state)].next[ch];
      if (slot < 0) {
        slot = static_cast<int>(nodes_.size());
        nodes_.emplace_back();
        nodes_.back().next.fill(-1);
      }
      state = nodes_[static_cast<std::size_t>(state)].next[ch];
    }
    nodes_[static_cast<std::size_t>(state)].output.push_back(id);
  }

  // BFS failure links; convert the goto function to a total function so
  // scanning is a single table lookup per byte.
  std::queue<int> queue;
  for (int ch = 0; ch < 256; ++ch) {
    int& slot = nodes_[0].next[static_cast<std::size_t>(ch)];
    if (slot < 0) {
      slot = 0;
    } else {
      nodes_[static_cast<std::size_t>(slot)].fail = 0;
      queue.push(slot);
    }
  }
  while (!queue.empty()) {
    const int state = queue.front();
    queue.pop();
    const int fail = nodes_[static_cast<std::size_t>(state)].fail;
    // Inherit outputs along the failure chain.
    const auto& fail_out = nodes_[static_cast<std::size_t>(fail)].output;
    auto& out = nodes_[static_cast<std::size_t>(state)].output;
    out.insert(out.end(), fail_out.begin(), fail_out.end());
    for (int ch = 0; ch < 256; ++ch) {
      int& slot = nodes_[static_cast<std::size_t>(state)].next[static_cast<std::size_t>(ch)];
      const int fail_next = nodes_[static_cast<std::size_t>(fail)].next[static_cast<std::size_t>(ch)];
      if (slot < 0) {
        slot = fail_next;
      } else {
        nodes_[static_cast<std::size_t>(slot)].fail = fail_next;
        queue.push(slot);
      }
    }
  }
}

int BaselineSignatureEngine::step(int state, unsigned char byte) const {
  return nodes_[static_cast<std::size_t>(state)].next[byte];
}

std::vector<SignatureMatch> BaselineSignatureEngine::scan(std::string_view payload) const {
  std::vector<SignatureMatch> matches;
  int state = 0;
  for (std::size_t i = 0; i < payload.size(); ++i) {
    state = step(state, static_cast<unsigned char>(payload[i]));
    for (int id : nodes_[static_cast<std::size_t>(state)].output)
      matches.push_back(SignatureMatch{id, i + 1});
  }
  return matches;
}

std::size_t BaselineSignatureEngine::count_matches(std::string_view payload) const {
  std::size_t count = 0;
  int state = 0;
  for (char c : payload) {
    state = step(state, static_cast<unsigned char>(c));
    count += nodes_[static_cast<std::size_t>(state)].output.size();
  }
  return count;
}

}  // namespace nwlb::nids
