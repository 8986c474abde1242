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
#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
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
  /// count_matches per payload, but scans several payloads in lock-step so
  /// their independent transition-load chains overlap: the single-payload
  /// loop is latency-bound (every byte's table load depends on the previous
  /// one), and interleaving is the only way to convert that latency into
  /// throughput.  Full groups of four go four lanes wide, a remainder of two
  /// or three goes two or three lanes wide, and a lone payload takes the
  /// single-stream loop.  Replay streams a session's packets, forward then
  /// reverse, through four payload slots and hands this kernel each group:
  /// four packets, or the one to three the session ends with; every node a
  /// packet reaches gets its count (NidsNode::process(packet, matches)).
  /// bench/data_plane gates the four-lane form against the node-walk
  /// baseline.
  void count_matches_batch(const std::string_view* payloads, std::size_t* out_counts,
                           std::size_t n) const {
    std::size_t i = 0;
    for (; n - i >= 4; i += 4) count_lanes<4>(payloads + i, out_counts + i);
    switch (n - i) {
      case 3: count_lanes<3>(payloads + i, out_counts + i); break;
      case 2: count_lanes<2>(payloads + i, out_counts + i); break;
      case 1: out_counts[i] = count_matches(payloads[i]); break;
      default: break;
    }
  }

  int num_patterns() const { return static_cast<int>(patterns_.size()); }
  const std::string& pattern(int id) const { return patterns_.at(static_cast<std::size_t>(id)); }
  std::size_t num_states() const { return out_count_.size(); }

  /// A default rule corpus of malicious-payload strings for the examples
  /// and the trace-driven emulation.
  static std::vector<std::string> default_rules();

 private:
  /// Scans `Lanes` payloads in lock-step up to the shortest one's length,
  /// one table load per lane per byte; each longer payload then finishes on
  /// the single-stream loop from its lane's state.
  template <std::size_t Lanes>
  void count_lanes(const std::string_view* payloads, std::size_t* out_counts) const {
    const std::uint32_t* const table = table_storage_.data() + table_offset_;
    const std::uint32_t* const out_count = out_count_.data();
    std::array<const char*, Lanes> bytes{};
    std::array<std::uint32_t, Lanes> base{};
    std::array<std::size_t, Lanes> count{};
    std::size_t common = payloads[0].size();
    for (std::size_t lane = 0; lane < Lanes; ++lane) {
      bytes[lane] = payloads[lane].data();
      common = std::min(common, payloads[lane].size());
    }
    // The fold expands one statement per lane, so every lane's state stays
    // in a register and the loads of different lanes issue back to back.
    const auto step = [&]<std::size_t... L>(std::size_t k, std::index_sequence<L...>) {
      ((base[L] = table[base[L] + static_cast<unsigned char>(bytes[L][k])]), ...);
      ((count[L] += out_count[base[L] >> 8]), ...);
    };
    for (std::size_t k = 0; k < common; ++k) step(k, std::make_index_sequence<Lanes>{});
    for (std::size_t lane = 0; lane < Lanes; ++lane)
      out_counts[lane] =
          count[lane] + count_tail(table, out_count, payloads[lane], common, base[lane]);
  }

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
