// Deterministic fault injection for the replay emulation.
//
// A FailureSchedule is a list of timed events — node crashes, mirror
// blackholes, link outages — with begin/end timestamps expressed in
// *global session indices* (the position of a session in the replayed
// stream, cumulative across replay() calls).  Timestamps in session space
// rather than wall-clock keep every run exactly reproducible and make the
// schedule shard-invariant: whether a session is replayed serially or by
// worker 7 of 16, its global index — and therefore the set of active
// failures it observes — is identical, so parallel replay stays
// byte-identical to serial under any schedule.
//
// Partial-severity events (severity < 1) drop only a fraction of the
// affected frames.  Each drop decision is a *stateless* hash draw keyed on
// (seed, event id, session id, frame tag): no shared RNG stream exists to
// make the outcome depend on replay order.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "util/rng.h"

namespace nwlb::sim {

enum class FailureKind {
  kNodeCrash,        // Processing node down: no shim decisions, no NIDS work.
  kMirrorBlackhole,  // Mirror silently eats arriving tunnel frames.
  kLinkDown,         // Directed link drops tunnel frames crossing it.
  kControllerCrash,  // Control-plane replica down: no consensus, no epochs.
  kPartition,        // Control-plane bus split: target = replica bitmask of
                     // one side; messages crossing the cut are lost.
};

const char* to_string(FailureKind kind);

struct FailureEvent {
  FailureKind kind = FailureKind::kNodeCrash;
  int target = -1;  // Processing-node id (crash/blackhole) or link id (link).
  std::uint64_t begin = 0;  // First affected global session index, inclusive.
  std::uint64_t end = kNever;  // Recovery index, exclusive; kNever = permanent.
  double severity = 1.0;  // Fraction of affected frames dropped in [0, 1].
  int id = -1;            // Assigned by FailureSchedule::add; RNG stream tag.

  static constexpr std::uint64_t kNever = std::numeric_limits<std::uint64_t>::max();

  bool active_at(std::uint64_t session_index) const {
    return session_index >= begin && session_index < end;
  }
};

/// One event in the schedule's text form, without a newline:
/// `crash 3 1600 4000`, `blackhole 11 2400 - 0.5`.
std::string to_string(const FailureEvent& event);

class FailureSchedule {
 public:
  /// Validates and appends an event; returns its assigned id.
  int add(FailureEvent event);

  bool empty() const { return events_.empty(); }
  const std::vector<FailureEvent>& events() const { return events_; }

  /// True when any crash event covers `node` at `session_index`.
  bool node_crashed(int node, std::uint64_t session_index) const;

  /// The first active blackhole event for `mirror`, or nullptr.
  const FailureEvent* blackhole_at(int mirror, std::uint64_t session_index) const;

  /// The first active link-down event for `link`, or nullptr.
  const FailureEvent* link_down_at(int link, std::uint64_t session_index) const;

  /// Processing nodes covered by a crash OR blackhole event at the index —
  /// the set a keepalive-driven controller would report failed.  Control-
  /// plane events (controller_crash / partition) never appear here: they
  /// concern replicas, not data-plane nodes.
  std::vector<int> failed_nodes_at(std::uint64_t session_index) const;

  /// True when a controller_crash event covers `replica` at the index.
  bool controller_crashed(int replica, std::uint64_t session_index) const;

  /// Bitmask of the active partition at the index (bit r = replica r sits
  /// in group A; everyone else in group B), or 0 when the control-plane
  /// bus is whole.  Overlapping partition events resolve to the earliest-
  /// added active one.
  std::uint32_t partition_mask_at(std::uint64_t session_index) const;

  /// True when any event at all is active at the index.
  bool any_active_at(std::uint64_t session_index) const;

  /// Throws std::invalid_argument, naming the event and the valid range,
  /// when a crash or blackhole target is not a processing node in
  /// [0, processing_nodes) or a linkdown target is not a directed link in
  /// [0, directed_links).  Control-plane events name replicas and are not
  /// checked here.  ReplaySimulator's constructor calls it.
  void check_targets(int processing_nodes, int directed_links) const;

  /// Stateless drop decision for one frame under `event`: a hash draw over
  /// (seed, event.id, session_id, frame_tag) compared against severity.
  /// Pure function of its inputs, so the verdict cannot depend on replay
  /// order or sharding.
  static bool drops_frame(const FailureEvent& event, std::uint64_t seed,
                          std::uint64_t session_id, std::uint64_t frame_tag) {
    if (event.severity >= 1.0) return true;
    if (event.severity <= 0.0) return false;
    std::uint64_t s = nwlb::util::derive_seed(
        nwlb::util::derive_seed(seed, 0xFA17ULL + static_cast<std::uint64_t>(event.id)),
        session_id ^ (frame_tag * 0x9e3779b97f4a7c15ULL));
    const double u =
        static_cast<double>(nwlb::util::splitmix64(s) >> 11) * 0x1.0p-53;
    return u < event.severity;
  }

  /// Parses the text form used by `nwlbctl --failures` and schedule files.
  /// One event per line (or ';'-separated):
  ///   crash <node> <begin> <end|-> [severity]
  ///   blackhole <mirror> <begin> <end|-> [severity]
  ///   linkdown <link> <begin> <end|-> [severity]
  ///   controller_crash <replica> <begin> <end|->
  ///   partition <mask> <begin> <end|->
  /// '#' starts a comment.  Events must be listed in non-decreasing
  /// `begin` order, and an exact duplicate (same kind, target, begin, end)
  /// is rejected — both are almost always schedule-authoring mistakes.
  /// Throws std::invalid_argument on bad input.
  static FailureSchedule parse(const std::string& spec);

  std::string to_string() const;

 private:
  std::vector<FailureEvent> events_;
};

}  // namespace nwlb::sim
