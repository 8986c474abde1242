#include "online/rollout.h"

#include <utility>

namespace nwlb::online {

RolloutEngine::RolloutEngine(shim::ConfigBundle initial, RolloutOptions options)
    : current_(std::move(initial)), options_(options) {}

RolloutReport RolloutEngine::apply(sim::ReplaySimulator& sim,
                                   const shim::ConfigBundle& next) {
  RolloutReport report;
  report.generation = next.generation;
  report.churn = shim::churn_between(current_, next);
  if (next.configs == current_.configs) {
    // Same tables, new tag: the data plane keeps its compiled state.  The
    // current generation record adopts the tag so the next diff is still
    // against what is actually installed.
    current_.generation = next.generation;
    ++skipped_;
    return report;
  }
  report.activate_at = sim.next_session_index() + options_.drain_sessions;
  sim.install_bundle(next, report.activate_at);
  current_ = next;
  report.installed = true;
  ++installs_;
  return report;
}

}  // namespace nwlb::online
