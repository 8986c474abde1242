// nwlb-lint: hot-path
//
// Multi-pattern payload signature engine (Aho–Corasick), flat-table layout.
//
// This is the Signature analysis of the paper's running example: a
// per-session, self-contained detection that can run at any node observing
// the session.  Per-byte signature work dominates the whole replay (the
// CostModel weights it that way on purpose), so the automaton is compiled
// for raw scan throughput:
//
//   - One cache-aligned transition table with stride exactly 256 and
//     *premultiplied* entries: the stored value for (state, byte) is
//     next_state << 8, i.e. the next row's base offset.  The per-byte
//     inner loop is therefore `base = table[base + byte]` — one load, one
//     add, no multiply, no node indirection.
//   - States renumbered in BFS order, so the root row and the depth-1
//     states (where almost all time is spent on benign traffic) occupy the
//     first contiguous rows of the table — a dense, L1/L2-resident fast
//     region regardless of how large the full automaton is.
//   - Outputs flattened to offset ranges: a tiny per-state match-count
//     array (out_count_, 4 bytes/state, L1-resident for real rule sets)
//     drives count_matches with no per-byte vector-size dereference, and
//     an out_begin_/out_ids_ range pair reproduces scan()'s exact match
//     order.
//
// The semantic oracle is BaselineSignatureEngine (the original node-based
// implementation, kept as test support in tests/support/); property tests
// require bit-identical scan and count_matches behavior.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace nwlb::nids {

struct SignatureMatch {
  int pattern_id = -1;
  std::size_t end_offset = 0;  // Offset one past the match's last byte.
};

class SignatureEngine {
 public:
  /// Builds the Aho–Corasick automaton over the given patterns.  Patterns
  /// must be non-empty; ids are their indices in this vector.
  explicit SignatureEngine(std::vector<std::string> patterns);

  /// Scans a payload; returns every match (all patterns, all positions).
  std::vector<SignatureMatch> scan(std::string_view payload) const;

  /// Scans and only counts matches (cheaper than materializing them).
  /// Thread-safe: the compiled automaton is immutable, so one engine can
  /// be shared by any number of concurrent scanners (work accounting is
  /// the caller's job — one unit per byte examined; NidsNode does this).
  std::size_t count_matches(std::string_view payload) const {
    const std::uint32_t* const table = table_storage_.data() + table_offset_;
    const std::uint32_t* const out_count = out_count_.data();
    std::size_t count = 0;
    std::uint32_t base = 0;
    for (const char c : payload) {
      base = table[base + static_cast<unsigned char>(c)];
      count += out_count[base >> 8];
    }
    return count;
  }

  /// Counts matches across a batch of payloads (out_counts[i] receives the
  /// count for payloads[i]).  Semantically identical to calling
  /// count_matches per payload, but processes four payloads in lock-step so
  /// their four independent transition-load chains overlap: the single-
  /// payload loop is latency-bound (every byte's table load depends on the
  /// previous one), and interleaving is the only way to convert that
  /// latency into throughput.  Replay scans in groups of four: each full
  /// group of a session direction's packets goes through this kernel, the
  /// last one to three through count_matches, and every node the packet
  /// reaches gets the count (NidsNode::process(packet, matches));
  /// bench/data_plane gates this form against the node-walk baseline.
  void count_matches_batch(const std::string_view* payloads, std::size_t* out_counts,
                           std::size_t n) const {
    const std::uint32_t* const table = table_storage_.data() + table_offset_;
    const std::uint32_t* const out_count = out_count_.data();
    const std::size_t full = n - n % 4;
    std::size_t i = 0;
    for (; i < full; i += 4) {
      const std::string_view p0 = payloads[i], p1 = payloads[i + 1];
      const std::string_view p2 = payloads[i + 2], p3 = payloads[i + 3];
      std::uint32_t b0 = 0, b1 = 0, b2 = 0, b3 = 0;
      std::size_t c0 = 0, c1 = 0, c2 = 0, c3 = 0;
      const std::size_t common = std::min(std::min(p0.size(), p1.size()),
                                          std::min(p2.size(), p3.size()));
      for (std::size_t k = 0; k < common; ++k) {
        b0 = table[b0 + static_cast<unsigned char>(p0[k])];
        b1 = table[b1 + static_cast<unsigned char>(p1[k])];
        b2 = table[b2 + static_cast<unsigned char>(p2[k])];
        b3 = table[b3 + static_cast<unsigned char>(p3[k])];
        c0 += out_count[b0 >> 8];
        c1 += out_count[b1 >> 8];
        c2 += out_count[b2 >> 8];
        c3 += out_count[b3 >> 8];
      }
      // Uneven tails finish on the single-payload path, resuming from the
      // lock-step state.
      out_counts[i] = c0 + count_tail(table, out_count, p0, common, b0);
      out_counts[i + 1] = c1 + count_tail(table, out_count, p1, common, b1);
      out_counts[i + 2] = c2 + count_tail(table, out_count, p2, common, b2);
      out_counts[i + 3] = c3 + count_tail(table, out_count, p3, common, b3);
    }
    for (; i < n; ++i) out_counts[i] = count_matches(payloads[i]);
  }

  int num_patterns() const { return static_cast<int>(patterns_.size()); }
  const std::string& pattern(int id) const { return patterns_.at(static_cast<std::size_t>(id)); }
  std::size_t num_states() const { return out_count_.size(); }

  /// A default rule corpus of malicious-payload strings for the examples
  /// and the trace-driven emulation.
  static std::vector<std::string> default_rules();

 private:
  static std::size_t count_tail(const std::uint32_t* table, const std::uint32_t* out_count,
                                std::string_view payload, std::size_t from,
                                std::uint32_t base) {
    std::size_t count = 0;
    for (std::size_t k = from; k < payload.size(); ++k) {
      base = table[base + static_cast<unsigned char>(payload[k])];
      count += out_count[base >> 8];
    }
    return count;
  }

  std::vector<std::string> patterns_;
  // Transition table, stride 256, entries premultiplied by 256.  The live
  // table starts at table_storage_.data() + table_offset_, a 64-byte-aligned
  // address so every row starts on a cache-line boundary (the offset — not a
  // raw pointer — keeps the engine trivially copyable/movable).
  std::vector<std::uint32_t> table_storage_;
  std::size_t table_offset_ = 0;
  std::vector<std::uint32_t> out_count_;  // Matches ending at each state.
  std::vector<std::uint32_t> out_begin_;  // Range start into out_ids_ per state (+1 sentinel).
  std::vector<std::int32_t> out_ids_;     // Concatenated pattern ids, baseline order.
};

}  // namespace nwlb::nids
