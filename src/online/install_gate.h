// The single fenced path from the control loop to the data plane
// (DESIGN.md §13).
//
// Every ConfigBundle a leader emits must pass through InstallGate::admit,
// which asserts the safety invariants the consensus layer is supposed to
// guarantee before handing the bundle to RolloutEngine (the one component
// allowed to touch the data plane's install machinery):
//
//   * the caller holds a majority-committed lease covering the current tick;
//   * terms never move backwards, and within one term only one replica
//     ever installs (no split-brain double-install);
//   * generations are strictly monotonic (no regression, no duplicate).
//
// The checks are NWLB_CHECKs, not best-effort filters: a violation is a
// consensus bug and the fault-injection suite runs every crash/partition
// schedule through them.
#pragma once

#include <cstdint>
#include <utility>

#include "online/rollout.h"

namespace nwlb::online {

class InstallGate {
 public:
  InstallGate(shim::ConfigBundle initial, RolloutOptions options)
      : rollout_(std::move(initial), options) {}

  /// Fenced install: asserts lease validity, term/leader fencing, and
  /// generation monotonicity, then applies via the rollout engine.
  RolloutReport admit(sim::ReplaySimulator& sim, int leader, std::uint64_t term,
                      bool lease_valid, std::uint64_t tick,
                      const shim::ConfigBundle& bundle);

  /// The last admitted generation (the boot bundle's before any admit):
  /// the rollout engine adopts every applied bundle's tag, installed or
  /// skipped as identical.
  std::uint64_t last_generation() const { return rollout_.current().generation; }
  const RolloutEngine& rollout() const { return rollout_; }

 private:
  RolloutEngine rollout_;
  std::uint64_t last_term_ = 0;
  int last_leader_ = -1;
};

}  // namespace nwlb::online
