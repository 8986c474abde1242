// Reference Aho–Corasick engine (node-per-state layout).
//
// This is the original SignatureEngine implementation, preserved verbatim
// as the semantic oracle for the flat-table engine in nids/signature.h: the
// parity property tests replay randomized pattern/payload corpora through
// both and require identical scan() match sequences and count_matches()
// totals, and the data-plane bench reports the per-byte cost of each so
// the flat engine's speedup is measured against this one.  It lives in the
// nwlb_test_support target, which only those two link; no shipped library
// builds it.
//
// Layout recap (and why it is slow): each state is a heap node holding a
// dense 1 KiB next[256] array plus a std::vector of output ids — so every
// scanned byte costs a node indirection into ~1 KiB-strided memory and a
// vector size read from yet another cache line.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "nids/signature.h"  // SignatureMatch.

namespace nwlb::nids {

class BaselineSignatureEngine {
 public:
  /// Builds the Aho–Corasick automaton over the given patterns.  Patterns
  /// must be non-empty; ids are their indices in this vector.
  explicit BaselineSignatureEngine(std::vector<std::string> patterns);

  /// Scans a payload; returns every match (all patterns, all positions).
  std::vector<SignatureMatch> scan(std::string_view payload) const;

  /// Scans and only counts matches (cheaper than materializing them).
  std::size_t count_matches(std::string_view payload) const;

  int num_patterns() const { return static_cast<int>(patterns_.size()); }
  const std::string& pattern(int id) const { return patterns_.at(static_cast<std::size_t>(id)); }
  std::size_t num_states() const { return nodes_.size(); }

 private:
  int step(int state, unsigned char byte) const;

  struct Node {
    std::array<int, 256> next;  // Dense goto function (byte-indexed).
    int fail = 0;
    std::vector<int> output;    // Pattern ids ending at this node.
  };

  std::vector<std::string> patterns_;
  std::vector<Node> nodes_;
};

}  // namespace nwlb::nids
