#include "core/scenario.h"

#include <algorithm>
#include <stdexcept>

#include "core/replication_lp.h"

namespace nwlb::core {

namespace {

constexpr double kLinkHeadroom = 3.0;      // LinkCap = headroom x busiest link.
constexpr double kDcAccessHeadroom = 3.0;  // DC uplink capacity, x a normal link.

}  // namespace

const char* to_string(Architecture a) {
  switch (a) {
    case Architecture::kIngress: return "Ingress";
    case Architecture::kPathNoReplicate: return "Path,NoReplicate";
    case Architecture::kPathReplicate: return "Path,Replicate";
    case Architecture::kPathAugmented: return "Path,Augmented";
    case Architecture::kLocalOffload1: return "One-hop";
    case Architecture::kLocalOffload2: return "Two-hop";
    case Architecture::kDcPlusOneHop: return "DC+One-hop";
  }
  return "unknown";
}

const char* to_string(DcPlacement p) {
  switch (p) {
    case DcPlacement::kMostOriginating: return "most-originating";
    case DcPlacement::kMostObserved: return "most-observed";
    case DcPlacement::kMostPaths: return "most-paths";
    case DcPlacement::kMedoid: return "medoid";
  }
  return "unknown";
}

Scenario::Scenario(const topo::Topology& topology, const traffic::TrafficMatrix& tm,
                   ScenarioConfig config)
    : topology_(&topology),
      config_(config),
      routing_(std::make_unique<topo::Routing>(topology.graph)) {
  footprint_.set(nids::Resource::kCpu, 1.0);
  footprint_.set(nids::Resource::kMemory, 0.0);
  classes_ = traffic::build_classes(*routing_, tm, config_.bytes_per_session);
  const auto loads = ingress_pop_loads(*routing_, classes_, footprint_);
  base_capacity_ = loads.empty() ? 1.0 : *std::max_element(loads.begin(), loads.end());
  if (base_capacity_ <= 0.0) base_capacity_ = 1.0;
  dc_pop_ = place_datacenter(*routing_, tm, config_.placement);
  background_bytes_ = traffic::link_traffic(*routing_, tm, config_.bytes_per_session);
  link_capacity_ = traffic::provision_link_capacities(background_bytes_, kLinkHeadroom);
}

void Scenario::set_traffic(const traffic::TrafficMatrix& tm) {
  classes_ = traffic::build_classes(*routing_, tm, config_.bytes_per_session);
  background_bytes_ = traffic::link_traffic(*routing_, tm, config_.bytes_per_session);
  // Capacities (node and link) deliberately stay at their original
  // provisioning: that is the point of the robustness study.
}

std::vector<double> Scenario::ingress_pop_loads(
    const topo::Routing& routing, const std::vector<traffic::TrafficClass>& classes,
    const nids::Footprint& footprint) {
  std::vector<double> loads(static_cast<std::size_t>(routing.graph().num_nodes()), 0.0);
  for (const auto& cls : classes)
    loads[static_cast<std::size_t>(cls.ingress)] +=
        footprint.on(nids::Resource::kCpu) * cls.sessions;
  return loads;
}

topo::NodeId Scenario::place_datacenter(const topo::Routing& routing,
                                        const traffic::TrafficMatrix& tm,
                                        DcPlacement placement) {
  const int n = routing.graph().num_nodes();
  switch (placement) {
    case DcPlacement::kMostOriginating: {
      topo::NodeId best = 0;
      double best_volume = -1.0;
      for (topo::NodeId i = 0; i < n; ++i) {
        double volume = 0.0;
        for (topo::NodeId j = 0; j < n; ++j)
          if (i != j) volume += tm.volume(i, j);
        if (volume > best_volume) {
          best_volume = volume;
          best = i;
        }
      }
      return best;
    }
    case DcPlacement::kMostObserved: {
      std::vector<double> observed(static_cast<std::size_t>(n), 0.0);
      for (topo::NodeId i = 0; i < n; ++i) {
        for (topo::NodeId j = 0; j < n; ++j) {
          if (i == j) continue;
          const double volume = tm.volume(i, j);
          if (volume <= 0.0) continue;
          for (topo::NodeId node : routing.path(i, j))
            observed[static_cast<std::size_t>(node)] += volume;
        }
      }
      return static_cast<topo::NodeId>(
          std::max_element(observed.begin(), observed.end()) - observed.begin());
    }
    case DcPlacement::kMostPaths:
      return topo::max_betweenness_node(routing);
    case DcPlacement::kMedoid:
      return topo::medoid_node(routing);
  }
  throw std::logic_error("place_datacenter: bad strategy");
}

ProblemInput Scenario::problem(Architecture arch) const {
  const int n = routing_->graph().num_nodes();
  ProblemInput in;
  in.routing = routing_.get();
  in.classes = classes_;
  in.footprint = footprint_;
  in.link_capacity = link_capacity_;
  in.background_bytes = background_bytes_;
  in.max_link_load = config_.max_link_load;

  const bool with_dc =
      arch == Architecture::kPathReplicate || arch == Architecture::kDcPlusOneHop;
  if (with_dc) {
    in.datacenter.attach_pop = dc_pop_;
    in.datacenter.capacity_factor = config_.dc_factor;
    in.capacities = nids::NodeCapacities(n + 1, base_capacity_);
    in.capacities.scale_node(n, config_.dc_factor);
    if (!link_capacity_.empty())
      in.dc_access_capacity = kDcAccessHeadroom * link_capacity_.front();
  } else {
    in.capacities = nids::NodeCapacities(n, base_capacity_);
    if (arch == Architecture::kPathAugmented) {
      // The DC's aggregate capacity spread evenly over all |N| PoPs.
      const double factor = 1.0 + config_.dc_factor / static_cast<double>(n);
      for (int j = 0; j < n; ++j)
        in.capacities.set(j, nids::Resource::kCpu,
                          base_capacity_ * factor);
    }
  }

  in.mirror_sets.assign(static_cast<std::size_t>(n), {});
  const int hop_radius = arch == Architecture::kLocalOffload1   ? 1
                         : arch == Architecture::kLocalOffload2 ? 2
                         : arch == Architecture::kDcPlusOneHop  ? 1
                                                                : 0;
  for (int j = 0; j < n; ++j) {
    auto& mirrors = in.mirror_sets[static_cast<std::size_t>(j)];
    if (with_dc) mirrors.push_back(in.datacenter_id());
    if (hop_radius > 0)
      for (topo::NodeId nb : routing_->graph().neighborhood(j, hop_radius))
        mirrors.push_back(nb);
  }
  return in;
}

Assignment ingress_assignment(const ProblemInput& input) {
  Assignment a;
  a.process.assign(input.classes.size(), {});
  a.offloads.assign(input.classes.size(), {});
  for (std::size_t c = 0; c < input.classes.size(); ++c)
    a.process[c].push_back(ProcessShare{input.classes[c].ingress, 1.0});
  refresh_metrics(input, a);
  a.lp.status = lp::Status::kOptimal;  // Trivially "solved".
  return a;
}

Assignment Scenario::solve(Architecture arch, const lp::Options& lp_options) const {
  const ProblemInput in = problem(arch);
  if (arch == Architecture::kIngress) return ingress_assignment(in);
  const ReplicationLp formulation(in);
  return formulation.solve(lp_options);
}

}  // namespace nwlb::core
