// Shim configuration: per-class hash-range tables (§7.1).
//
// The controller converts the LP's fractional decisions (p_{c,j},
// o_{c,j,j'}) into non-overlapping hash ranges over [0, 2^32); each NIDS
// node's shim looks up a packet's (class, hash) and performs the resulting
// action — analyze locally, replicate to a mirror node, or ignore.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "nids/packet.h"

namespace nwlb::shim {

/// Total hash space: ranges live in [0, kHashSpace), end exclusive.
inline constexpr std::uint64_t kHashSpace = 1ULL << 32;

struct Action {
  enum class Kind : unsigned char { kProcess, kReplicate, kIgnore };
  Kind kind = Kind::kIgnore;
  int mirror = -1;  // Target node id when kind == kReplicate.

  static Action process() { return {Kind::kProcess, -1}; }
  static Action replicate(int mirror_node) { return {Kind::kReplicate, mirror_node}; }
  static Action ignore() { return {Kind::kIgnore, -1}; }

  friend bool operator==(const Action&, const Action&) = default;
};

struct HashRange {
  std::uint64_t begin = 0;  // Inclusive.
  std::uint64_t end = 0;    // Exclusive.
  Action action;

  bool contains(std::uint32_t h) const { return h >= begin && h < end; }
  double fraction() const {
    return static_cast<double>(end - begin) / static_cast<double>(kHashSpace);
  }

  friend bool operator==(const HashRange&, const HashRange&) = default;
};

/// Ordered, non-overlapping ranges for one traffic class at one node.
/// Gaps are implicit kIgnore.
class RangeTable {
 public:
  /// Appends a range; ranges must be added in ascending, non-overlapping
  /// order (the ConfigMapper produces them that way).
  void add(HashRange range);

  Action lookup(std::uint32_t hash) const;

  /// Fraction of hash space mapped to each action kind (diagnostics and
  /// LP-vs-config validation).
  double fraction_of(Action::Kind kind) const;
  double fraction_replicated_to(int mirror) const;

  const std::vector<HashRange>& ranges() const { return ranges_; }
  bool empty() const { return ranges_.empty(); }

  friend bool operator==(const RangeTable&, const RangeTable&) = default;

 private:
  std::vector<HashRange> ranges_;
};

/// One node's full shim configuration: a RangeTable per traffic class and
/// direction.  Under symmetric routing both directions carry the same
/// table; under split routing (§5) a node may be responsible for different
/// hash ranges of the two directions — the mapper anchors both directions'
/// ranges at hash 0 so their covered session sets overlap maximally
/// (bidirectional consistency, §7.2).
class ShimConfig {
 public:
  void set_table(int class_id, nids::Direction direction, RangeTable table);

  /// Installs the same table for both directions (symmetric routing).
  void set_table(int class_id, RangeTable table);

  const RangeTable* table(int class_id, nids::Direction direction) const;

  Action lookup(int class_id, nids::Direction direction, std::uint32_t hash) const;

  std::size_t num_tables() const { return tables_.size(); }

  /// Visits every installed table as f(class_id, direction, table);
  /// iteration order is unspecified.  Used by the validators.
  template <typename F>
  void for_each_table(F&& f) const {
    for (const auto& [key, table] : tables_) {
      const int class_id = key / 2;
      const auto direction =
          key % 2 == 1 ? nids::Direction::kReverse : nids::Direction::kForward;
      f(class_id, direction, table);
    }
  }

  /// Structural equality: same (class, direction) keys mapping to equal
  /// range tables.  Backs rollout diffing (RolloutEngine skips a bundle
  /// whose configs all equal the installed ones).
  friend bool operator==(const ShimConfig& a, const ShimConfig& b) {
    return a.tables_ == b.tables_;
  }

 private:
  static int key(int class_id, nids::Direction d) {
    return class_id * 2 + (d == nids::Direction::kReverse ? 1 : 0);
  }
  std::unordered_map<int, RangeTable> tables_;
};

}  // namespace nwlb::shim
