// nwlb-lint: hot-path
//
// Compiled, immutable flat lookup tables for the shim's per-packet path.
//
// ShimConfig is the mutable, validated representation the controller
// installs (a hash map of RangeTables).  FlatConfig compiles it into the
// structure the data plane actually reads per packet:
//
//   * one dense slot per (class_id, direction), indexed arithmetically —
//     no hashing of class ids, no pointer chasing;
//   * per slot, a packed run of hash-space *segments* (gap-filled, so the
//     whole [0, 2^32) space is covered and every lookup lands in exactly
//     one segment) stored as parallel boundary/action arrays shared across
//     all slots;
//   * a precomputed top-bits bucket index over the 2^32 hash space that
//     narrows the binary search to a handful of segments, keeping the
//     search branch-light and cache-resident.
//
// This mirrors how traffic-splitting rules are compiled to flat TCAM-style
// tables in hardware load balancers: build cost is paid once when a Shim
// is constructed, the per-packet path is a bounds check, one bucket load,
// and a short binary search over a few contiguous words.
#pragma once

#include <cstdint>
#include <vector>

#include "nids/packet.h"
#include "shim/config.h"

namespace nwlb::shim {

/// Immutable flat compilation of one ShimConfig.  Cheap to copy/move;
/// lookups are const and touch no mutable state, so one instance can serve
/// any number of threads.
class FlatConfig {
 public:
  /// Compiles `config`; the result is independent of the ShimConfig's
  /// (unspecified) internal iteration order.
  explicit FlatConfig(const ShimConfig& config);

  /// Action for (class, direction, hash); unknown class ids (including
  /// negative ones) resolve to kIgnore, exactly like ShimConfig::lookup.
  Action lookup(int class_id, nids::Direction direction, std::uint32_t hash) const {
    const std::uint64_t slot_key = slot_index(class_id, direction);
    if (slot_key >= slots_.size()) return Action::ignore();
    const Slot& slot = slots_[static_cast<std::size_t>(slot_key)];
    if (slot.seg_count == 0) return Action::ignore();
    return decode(actions_[slot.seg_begin + find_segment(slot, hash)]);
  }

  bool empty() const { return slots_.empty(); }
  std::size_t num_slots() const { return slots_.size(); }
  std::size_t num_segments() const { return bounds_.size(); }

  /// Bytes of the packed arrays (diagnostics: TCAM-style footprint).
  std::size_t table_bytes() const {
    return bounds_.size() * sizeof(std::uint32_t) + actions_.size() * sizeof(std::int32_t) +
           buckets_.size() * sizeof(std::uint32_t) + slots_.size() * sizeof(Slot);
  }

 private:
  struct Slot {
    std::uint32_t seg_begin = 0;    // First segment in bounds_/actions_.
    std::uint32_t seg_count = 0;    // 0 => no table installed (all-ignore).
    std::uint32_t bucket_begin = 0; // First bucket in buckets_.
    std::uint32_t bucket_shift = 0; // Hash >> shift selects the bucket.
  };

  static std::uint64_t slot_index(int class_id, nids::Direction direction) {
    // A negative class id wraps to a huge value and fails the bounds check.
    return static_cast<std::uint64_t>(static_cast<std::uint32_t>(class_id)) * 2 +
           (direction == nids::Direction::kReverse ? 1 : 0);
  }

  static std::int32_t encode(const Action& action) {
    return static_cast<std::int32_t>((action.mirror + 1) << 2) |
           static_cast<std::int32_t>(action.kind);
  }
  static Action decode(std::int32_t packed) {
    Action action;
    action.kind = static_cast<Action::Kind>(packed & 3);
    action.mirror = (packed >> 2) - 1;
    return action;
  }

  /// Index (within the slot) of the segment containing `hash`: the largest
  /// i with bounds_[seg_begin + i] <= hash.  The bucket index brackets the
  /// answer, so the loop runs only a few iterations and compiles to
  /// conditional moves.
  std::uint32_t find_segment(const Slot& slot, std::uint32_t hash) const {
    const std::size_t bucket = slot.bucket_begin + (hash >> slot.bucket_shift);
    std::uint32_t lo = buckets_[bucket];
    std::uint32_t hi = buckets_[bucket + 1];
    const std::uint32_t* bounds = bounds_.data() + slot.seg_begin;
    while (lo < hi) {
      const std::uint32_t mid = lo + (hi - lo + 1) / 2;
      const bool le = bounds[mid] <= hash;
      lo = le ? mid : lo;
      hi = le ? hi : mid - 1;
    }
    return lo;
  }

  std::vector<Slot> slots_;            // Dense (class_id * 2 + direction).
  std::vector<std::uint32_t> bounds_;  // Segment begin boundaries, packed.
  std::vector<std::int32_t> actions_;  // Packed {kind, mirror} per segment.
  std::vector<std::uint32_t> buckets_; // Per-slot top-bits segment index.
};

}  // namespace nwlb::shim
