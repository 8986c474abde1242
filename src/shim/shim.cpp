// nwlb-lint: hot-path
#include "shim/shim.h"

namespace nwlb::shim {

namespace {

/// Per-verdict tally; a two-way branch on an enum the predictor has
/// already resolved for the lookup itself.
inline void count_action(ShimStats& stats, Action::Kind kind) {
  if (kind == Action::Kind::kProcess)
    ++stats.decided_process;
  else if (kind == Action::Kind::kReplicate)
    ++stats.decided_replicate;
  else
    ++stats.decided_ignore;
}

}  // namespace

Decision Shim::decide(int class_id, const nids::FiveTuple& tuple,
                      nids::Direction direction, ShimStats& stats) const {
  ++stats.packets_seen;
  const std::uint32_t h = hash_tuple(tuple, hash_seed_);
  const Action action = flat_.lookup(class_id, direction, h);
  count_action(stats, action.kind);
  return Decision{action, h};
}

Decision Shim::decide_by_source(int class_id, std::uint32_t src_ip, ShimStats& stats) const {
  ++stats.packets_seen;
  const std::uint32_t h = hash_source(src_ip, hash_seed_);
  const Action action = flat_.lookup(class_id, nids::Direction::kForward, h);
  count_action(stats, action.kind);
  return Decision{action, h};
}

Action Shim::decide_hashed_repeat(int class_id, nids::Direction direction, std::uint32_t hash,
                                  std::uint64_t count, ShimStats& stats) const {
  const Action action = flat_.lookup(class_id, direction, hash);
  stats.packets_seen += count;
  if (action.kind == Action::Kind::kProcess)
    stats.decided_process += count;
  else if (action.kind == Action::Kind::kReplicate)
    stats.decided_replicate += count;
  else
    stats.decided_ignore += count;
  return action;
}

}  // namespace nwlb::shim
