// Problem description shared by the optimization formulations.
//
// Processing nodes are the topology's PoPs (ids 0..n-1) plus, optionally,
// one datacenter cluster (id n) attached at a PoP: the DC is off-path for
// every class and is only reachable by explicit replication, exactly the
// Fig. 3 setup.  Mirror sets M_j list the candidate offload targets of each
// PoP (§4).
#pragma once

#include <stdexcept>
#include <vector>

#include "nids/resources.h"
#include "topo/routing.h"
#include "traffic/classes.h"

namespace nwlb::core {

/// Where and how big the datacenter cluster is.
struct Datacenter {
  topo::NodeId attach_pop = -1;  // PoP whose links reach the cluster.
  double capacity_factor = 10.0; // alpha x the single-NIDS capacity.
};

struct ProblemInput {
  const topo::Routing* routing = nullptr;
  std::vector<traffic::TrafficClass> classes;

  /// Per-session footprint (F_c^r); `class_scale`, when non-empty, holds a
  /// per-class multiplier on top (size == classes.size()).
  nids::Footprint footprint;
  std::vector<double> class_scale;

  /// Capacities for all processing nodes: n PoPs, plus the DC appended
  /// when `datacenter.attach_pop >= 0`.
  nids::NodeCapacities capacities{1, 1.0};
  Datacenter datacenter;  // attach_pop < 0 => no datacenter.

  /// Mirror sets M_j per PoP (processing-node ids; may include the DC id).
  std::vector<std::vector<int>> mirror_sets;

  /// Directed-link capacities and background byte loads (same indexing as
  /// Graph link ids); used by the MaxLinkLoad constraint (Eq. 4-5).
  std::vector<double> link_capacity;
  std::vector<double> background_bytes;
  double max_link_load = 0.4;

  /// Capacity (bytes) of the access link connecting the attach PoP to the
  /// datacenter cluster.  All replicated traffic into the DC — including
  /// traffic from the attach PoP itself — crosses it and is subject to the
  /// same MaxLinkLoad cap.  0 disables the constraint (uncapped access).
  double dc_access_capacity = 0.0;

  /// Failure mask over processing nodes (empty = everything up).  A down
  /// node takes no processing or offload assignment: every formulation
  /// pins each column whose node or source PoP is down to zero rather
  /// than removing it, so the model shape — and therefore warm-start
  /// basis compatibility — is identical across failure transitions.  Only
  /// the replication LP has coverage slack; the aggregation and joint LPs
  /// turn infeasible when a class keeps no surviving column.
  std::vector<char> node_down;

  bool is_down(int id) const {
    return static_cast<std::size_t>(id) < node_down.size() &&
           node_down[static_cast<std::size_t>(id)] != 0;
  }
  bool any_down() const {
    for (const char d : node_down)
      if (d != 0) return true;
    return false;
  }

  int num_pops() const { return routing->graph().num_nodes(); }
  bool has_datacenter() const { return datacenter.attach_pop >= 0; }
  int num_processing_nodes() const { return num_pops() + (has_datacenter() ? 1 : 0); }
  int datacenter_id() const { return num_pops(); }

  /// The PoP whose network links carry traffic replicated to processing
  /// node `id` (the node itself, or the DC's attachment PoP).
  topo::NodeId attach_pop_of(int id) const {
    if (id < num_pops()) return id;
    if (has_datacenter() && id == datacenter_id()) return datacenter.attach_pop;
    throw std::out_of_range("ProblemInput: bad processing node id");
  }

  double footprint_of(int class_index, nids::Resource r) const {
    const double scale =
        class_scale.empty() ? 1.0 : class_scale.at(static_cast<std::size_t>(class_index));
    return footprint.on(r) * scale;
  }

  /// Throws std::invalid_argument when the pieces are inconsistent.
  void validate() const;
};

}  // namespace nwlb::core
