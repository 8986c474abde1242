// Hitless versioned config rollout (DESIGN.md §10).
//
// The rollout engine carries the control loop's bundles into a live data
// plane.  A Shim is compiled once from its config and never changes, so a
// bundle reaches replay only as a new generation that ReplaySimulator
// compiles from it.  Per control interval the engine:
//
//   1. diffs the controller's fresh ConfigBundle against the last one it
//      installed and computes the churn report — the fraction of the hash
//      space [0, 2^32) whose action changed, overall and per PoP;
//   2. skips the install entirely when nothing changed (the generation
//      tag still advances controller-side, but the data plane keeps its
//      compiled tables — zero disruption, zero recompiles);
//   3. otherwise installs make-before-break: the new generation activates
//      `drain_sessions` sessions in the future, so sessions arriving
//      during the drain window keep the outgoing generation and exactly
//      one generation processes each session.
#pragma once

#include <cstdint>

#include "shim/bundle.h"
#include "sim/replay.h"

namespace nwlb::online {

struct RolloutOptions {
  /// Make-before-break drain window, in sessions: the freshly installed
  /// generation activates this far past the current session cursor.
  /// 0 = activate for the very next session (still hitless — sessions are
  /// atomic — but with no coexistence window).
  std::uint64_t drain_sessions = 0;
};

/// What one apply() did.
struct RolloutReport {
  std::uint64_t generation = 0;      // The offered bundle's generation.
  bool installed = false;            // False when skipped as identical.
  std::uint64_t activate_at = 0;     // Global session index (when installed).
  shim::ChurnReport churn;           // vs the previously installed bundle.
};

class RolloutEngine {
 public:
  /// `initial` is the bundle the data plane booted with (the baseline the
  /// first apply() diffs against).
  explicit RolloutEngine(shim::ConfigBundle initial, RolloutOptions options = {});

  /// Diffs `next` against the current bundle and installs it into `sim`
  /// make-before-break (see file comment).  Returns what happened.
  RolloutReport apply(sim::ReplaySimulator& sim, const shim::ConfigBundle& next);

  /// The bundle the data plane currently runs (last installed).
  const shim::ConfigBundle& current() const { return current_; }
  const RolloutOptions& options() const { return options_; }
  std::uint64_t installs() const { return installs_; }
  std::uint64_t skipped() const { return skipped_; }

 private:
  shim::ConfigBundle current_;
  RolloutOptions options_;
  std::uint64_t installs_ = 0;
  std::uint64_t skipped_ = 0;
};

}  // namespace nwlb::online
