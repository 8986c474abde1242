// nwlb-lint: hot-path
#include "shim/flat_table.h"

#include <algorithm>
#include <bit>
#include <utility>

namespace nwlb::shim {

namespace {

/// At most 2^kMaxBucketBits buckets per slot; beyond that the index stops
/// paying for its footprint (the binary-search window is already tiny).
constexpr std::uint32_t kMaxBucketBits = 10;

}  // namespace

FlatConfig::FlatConfig(const ShimConfig& config) {
  // ShimConfig iteration order is unspecified (it is a hash map); collect
  // and sort so the compiled layout is deterministic.
  std::vector<std::pair<std::uint64_t, const RangeTable*>> installed;
  config.for_each_table([&](int class_id, nids::Direction direction, const RangeTable& t) {
    installed.emplace_back(slot_index(class_id, direction), &t);
  });
  std::sort(installed.begin(), installed.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  if (installed.empty()) return;

  slots_.resize(static_cast<std::size_t>(installed.back().first) + 1);
  for (const auto& [slot_key, table] : installed) {
    Slot& slot = slots_[static_cast<std::size_t>(slot_key)];
    slot.seg_begin = static_cast<std::uint32_t>(bounds_.size());

    // Gap-fill the ranges into contiguous segments covering [0, 2^32), so
    // every hash lands in exactly one segment and lookups never branch on
    // "in a gap"; adjacent segments with identical actions are merged.
    const std::int32_t ignore = encode(Action::ignore());
    std::uint64_t cursor = 0;
    auto push = [&](std::uint64_t begin, std::int32_t packed) {
      if (!bounds_.empty() && bounds_.size() > slot.seg_begin && actions_.back() == packed)
        return;  // Merge with the previous identical-action segment.
      bounds_.push_back(static_cast<std::uint32_t>(begin));
      actions_.push_back(packed);
    };
    for (const HashRange& range : table->ranges()) {
      if (range.begin > cursor) push(cursor, ignore);
      push(range.begin, encode(range.action));
      cursor = range.end;
    }
    if (cursor < kHashSpace) push(cursor, ignore);
    if (bounds_.size() == slot.seg_begin) push(0, ignore);  // Empty table.
    slot.seg_count = static_cast<std::uint32_t>(bounds_.size()) - slot.seg_begin;

    // Top-bits bucket index: ~1 segment per bucket, capped.  buckets[i]
    // is the segment containing the first hash of bucket i; the sentinel
    // entry makes [buckets[i], buckets[i+1]] a valid search window for
    // every hash in bucket i.
    const std::uint32_t bits =
        std::min(kMaxBucketBits,
                 std::max<std::uint32_t>(1, static_cast<std::uint32_t>(
                                                std::bit_width(slot.seg_count))));
    slot.bucket_shift = 32 - bits;
    slot.bucket_begin = static_cast<std::uint32_t>(buckets_.size());
    const std::uint32_t num_buckets = 1u << bits;
    std::uint32_t segment = 0;
    for (std::uint32_t b = 0; b < num_buckets; ++b) {
      const std::uint64_t first_hash = static_cast<std::uint64_t>(b) << slot.bucket_shift;
      while (segment + 1 < slot.seg_count &&
             bounds_[slot.seg_begin + segment + 1] <= first_hash)
        ++segment;
      buckets_.push_back(segment);
    }
    buckets_.push_back(slot.seg_count - 1);  // Sentinel: last segment.
  }
}

}  // namespace nwlb::shim
