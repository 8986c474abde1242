// nwlb-lint: hot-path
#include "shim/shim.h"

namespace nwlb::shim {

Decision Shim::decide(int class_id, const nids::FiveTuple& tuple,
                      nids::Direction direction, ShimStats& stats) const {
  const std::uint32_t h = hash_tuple(tuple);
  return Decision{decide_hashed_repeat(class_id, direction, h, 1, stats), h};
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
