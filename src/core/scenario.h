// Scenario assembly: from (topology, traffic matrix) to the ProblemInputs
// and solved Assignments of every NIDS architecture the paper compares.
//
// Capacity provisioning follows §8.2: simulate the Ingress-only deployment,
// take the maximum per-node requirement, give every PoP that capacity — so
// Ingress-only has max compute load exactly 1 by construction, and all
// other architectures' load costs read as fractions of it.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/assignment.h"
#include "core/problem.h"
#include "topo/topology.h"
#include "traffic/matrix.h"

namespace nwlb::core {

/// The architectures of Figs. 13-15.
enum class Architecture {
  kIngress,          // Today's deployment: everything at the ingress.
  kPathNoReplicate,  // On-path distribution only [29].
  kPathReplicate,    // On-path + replication to a datacenter (§4).
  kPathAugmented,    // On-path, with the DC's capacity spread over all PoPs.
  kLocalOffload1,    // On-path + replication to 1-hop neighbours.
  kLocalOffload2,    // On-path + replication to 1- and 2-hop neighbours.
  kDcPlusOneHop,     // Datacenter and 1-hop neighbours both as mirrors.
};

const char* to_string(Architecture a);

/// Datacenter placement strategies (§8.2).
enum class DcPlacement {
  kMostOriginating,  // PoP from which the most traffic originates.
  kMostObserved,     // PoP observing the most traffic incl. transit (the
                     // paper's winner; default everywhere).
  kMostPaths,        // PoP on the most end-to-end shortest paths.
  kMedoid,           // PoP with smallest mean distance to all others.
};

const char* to_string(DcPlacement p);

struct ScenarioConfig {
  double max_link_load = 0.4;
  double dc_factor = 10.0;        // DC capacity, x single-NIDS capacity.
  DcPlacement placement = DcPlacement::kMostObserved;
  double bytes_per_session = traffic::kDefaultSessionBytes;
};

/// Everything derived from one (topology, traffic matrix) pair.  Heavy
/// state (all-pairs routing) is computed once; per-architecture
/// ProblemInputs are assembled on demand.
class Scenario {
 public:
  Scenario(const topo::Topology& topology, const traffic::TrafficMatrix& tm,
           ScenarioConfig config = {});

  const topo::Routing& routing() const { return *routing_; }
  const std::vector<traffic::TrafficClass>& classes() const { return classes_; }
  const ScenarioConfig& config() const { return config_; }

  /// Per-PoP capacity (the Ingress-provisioned maximum requirement).
  double base_capacity() const { return base_capacity_; }
  topo::NodeId datacenter_pop() const { return dc_pop_; }

  /// Assembles the ProblemInput for an architecture.  The returned object
  /// references this Scenario's routing (keep the Scenario alive).
  ProblemInput problem(Architecture arch) const;

  /// Solves the architecture (Ingress is constructed directly; the others
  /// run the replication LP).
  Assignment solve(Architecture arch, const lp::Options& lp_options = {}) const;

  /// Rebuilds classes/background from a new traffic matrix, keeping the
  /// topology, routing, capacities and DC placement fixed (the Fig. 15
  /// variability study re-optimizes per matrix this way).
  void set_traffic(const traffic::TrafficMatrix& tm);

  /// Raw (unnormalized) per-PoP load of the Ingress-only deployment.
  static std::vector<double> ingress_pop_loads(const topo::Routing& routing,
                                               const std::vector<traffic::TrafficClass>& classes,
                                               const nids::Footprint& footprint);

  /// Picks the DC PoP under a placement strategy.
  static topo::NodeId place_datacenter(const topo::Routing& routing,
                                       const traffic::TrafficMatrix& tm,
                                       DcPlacement placement);

 private:
  const topo::Topology* topology_;
  ScenarioConfig config_;
  std::unique_ptr<topo::Routing> routing_;
  std::vector<traffic::TrafficClass> classes_;
  nids::Footprint footprint_;
  double base_capacity_ = 1.0;
  topo::NodeId dc_pop_ = 0;
  std::vector<double> link_capacity_;
  std::vector<double> background_bytes_;
};

/// Direct construction of the Ingress-only assignment (no LP involved).
Assignment ingress_assignment(const ProblemInput& input);

}  // namespace nwlb::core
