// nwlb-lint: hot-path
#include "nids/node.h"

namespace nwlb::nids {

NidsNode::NidsNode(std::string name, std::vector<std::string> rules, CostModel cost)
    : name_(std::move(name)),
      // Construction, not a packet: the automaton compiles once per node.
      // nwlb-analyze: allow(hot-path-purity)
      signatures_(std::make_shared<const SignatureEngine>(
          rules.empty() ? SignatureEngine::default_rules() : std::move(rules))),
      cost_(cost) {}

NidsNode::NidsNode(std::string name, std::shared_ptr<const SignatureEngine> engine,
                   CostModel cost)
    : name_(std::move(name)), signatures_(std::move(engine)), cost_(cost) {}

std::size_t NidsNode::process(const PacketView& packet, std::size_t matches) {
  // Scan detection counts initiator -> responder contacts; reverse-direction
  // packets are attributed to the session's initiator.
  const FiveTuple initiator_view =
      packet.direction == Direction::kForward ? packet.tuple : packet.tuple.reversed();
  scan_.observe(initiator_view.src_ip, initiator_view.dst_ip);
  sessions_.observe(packet.session_id, packet.direction);
  work_ += cost_.per_packet + cost_.per_signature_byte * static_cast<double>(packet.payload.size()) +
           cost_.per_scan_update + cost_.per_session_update;
  ++packets_;
  return matches;
}

void NidsNode::reserve(std::size_t expected_sessions) {
  sessions_.reserve(expected_sessions);
  // Heuristic: scans dominate distinct pairs; sources are a subset.
  scan_.reserve(expected_sessions, expected_sessions);
}

void NidsNode::reset_work_units() {
  work_ = 0.0;
  packets_ = 0;
}

}  // namespace nwlb::nids
