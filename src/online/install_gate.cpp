#include "online/install_gate.h"

#include "util/check.h"

namespace nwlb::online {

RolloutReport InstallGate::admit(sim::ReplaySimulator& sim, int leader,
                                 std::uint64_t term, bool lease_valid,
                                 std::uint64_t tick,
                                 const shim::ConfigBundle& bundle) {
  NWLB_CHECK(lease_valid, "InstallGate: replica ", leader,
             " tried to install at tick ", tick,
             " without a committed lease");
  NWLB_CHECK_GE(term, last_term_, "InstallGate: term moved backwards (replica ",
                leader, ")");
  if (term == last_term_ && last_leader_ >= 0) {
    // One term, one leader: a second installer in the same term is the
    // split-brain the lease protocol must make impossible.
    NWLB_CHECK_EQ(leader, last_leader_, "InstallGate: two installers in term ",
                  term);
  }
  NWLB_CHECK_GT(bundle.generation, last_generation(),
                "InstallGate: generation regression (replica ", leader,
                " offered ", bundle.generation, " after ", last_generation(),
                ")");
  RolloutReport report = rollout_.apply(sim, bundle);
  last_term_ = term;
  last_leader_ = leader;
  return report;
}

}  // namespace nwlb::online
