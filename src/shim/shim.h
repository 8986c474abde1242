// The shim layer itself (§7.2).
//
// One Shim instance runs in front of each NIDS node.  Per packet it hashes
// the canonical 5-tuple, looks up the assigned range for the packet's
// class, and either hands the packet to the local NIDS, forwards it over a
// persistent tunnel to a mirror node, or drops it (another node is
// responsible).  The implementation mirrors the paper's 255-line Click
// element; tunnels are modeled as byte counters the simulator drains.
//
// Data-plane fast path: the constructor compiles the ShimConfig into a flat
// lookup structure (see flat_table.h) that never changes afterwards; a new
// configuration is a new Shim.  Both decide calls are const and count into
// a caller-owned ShimStats, so one shim serves any number of worker threads
// concurrently.
#pragma once

#include <cstdint>

#include "nids/packet.h"
#include "shim/config.h"
#include "shim/flat_table.h"
#include "shim/hash.h"
#include "shim/stats.h"

namespace nwlb::shim {

/// Outcome of a shim decision for one packet.
struct Decision {
  Action action;
  std::uint32_t hash = 0;
};

class Shim {
 public:
  /// Compiles `config` into the flat decide tables.  An empty config
  /// decides ignore for every packet.
  Shim(int node_id, const ShimConfig& config) : node_id_(node_id), flat_(config) {}

  int node_id() const { return node_id_; }

  /// Session-granularity decision (signature-style analyses).  The hash is
  /// over the canonical tuple, so both directions of a session map to the
  /// same hash; the direction selects which responsibility table applies.
  /// Thread-safe: counters go into the caller-owned `stats`.
  Decision decide(int class_id, const nids::FiveTuple& tuple, nids::Direction direction,
                  ShimStats& stats) const;

  /// Run-length decision over a precomputed canonical-tuple hash: every
  /// packet of a session direction shares one hash, so the replay probes
  /// the flat table once and accounts `count` packets arithmetically.
  /// Exactly equivalent (stats and verdict) to `count` decide() calls on a
  /// tuple with this hash.
  Action decide_hashed_repeat(int class_id, nids::Direction direction, std::uint32_t hash,
                              std::uint64_t count, ShimStats& stats) const;

 private:
  int node_id_;
  FlatConfig flat_;
};

}  // namespace nwlb::shim
