// The shim layer itself (§7.2).
//
// One Shim instance runs in front of each NIDS node.  Per packet it hashes
// the canonical 5-tuple, looks up the assigned range for the packet's
// class, and either hands the packet to the local NIDS, forwards it over a
// persistent tunnel to a mirror node, or drops it (another node is
// responsible).  The implementation mirrors the paper's 255-line Click
// element; tunnels are modeled as byte counters the simulator drains.
//
// Data-plane fast path: install() compiles the ShimConfig into a flat
// lookup structure (see flat_table.h), and both decide calls are const and
// count into a caller-owned ShimStats, so one shim serves any number of
// worker threads concurrently.
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
  explicit Shim(int node_id) : node_id_(node_id) {}

  int node_id() const { return node_id_; }

  /// Installs a config, compiling the flat fast-path tables.  When the
  /// incoming config is structurally identical to the installed one, only
  /// the generation tag is adopted — the flat tables are not recompiled
  /// (the rollout engine re-pushes unchanged configs every control
  /// interval; recompiling them would be pure waste).
  void install(ShimConfig config, std::uint64_t generation = 0) {
    if (installed_ && config == config_) {
      generation_ = generation;
      return;
    }
    config_ = std::move(config);
    flat_ = FlatConfig(config_);
    generation_ = generation;
    installed_ = true;
    ++compiles_;
  }
  const ShimConfig& config() const { return config_; }
  const FlatConfig& flat() const { return flat_; }

  /// Generation tag of the installed config (0 until the first install).
  std::uint64_t generation() const { return generation_; }
  /// Flat-table compilations performed (regression guard: an identical
  /// re-install must not bump this).
  int compiles() const { return compiles_; }

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
  ShimConfig config_;
  FlatConfig flat_;
  std::uint64_t generation_ = 0;
  bool installed_ = false;
  int compiles_ = 0;
};

}  // namespace nwlb::shim
