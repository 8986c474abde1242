#include "core/problem.h"

namespace nwlb::core {

void ProblemInput::validate() const {
  if (routing == nullptr) throw std::invalid_argument("ProblemInput: null routing");
  const int n = num_pops();
  if (capacities.num_nodes() != num_processing_nodes())
    throw std::invalid_argument("ProblemInput: capacity table size mismatch");
  if (!mirror_sets.empty() && static_cast<int>(mirror_sets.size()) != n)
    throw std::invalid_argument("ProblemInput: mirror_sets must cover every PoP");
  for (const auto& mirrors : mirror_sets)
    for (int m : mirrors)
      if (m < 0 || m >= num_processing_nodes() )
        throw std::invalid_argument("ProblemInput: mirror id out of range");
  if (has_datacenter() &&
      (datacenter.attach_pop >= n || datacenter.capacity_factor <= 0.0))
    throw std::invalid_argument("ProblemInput: malformed datacenter spec");
  const auto links = static_cast<std::size_t>(routing->graph().num_directed_links());
  if (link_capacity.size() != links || background_bytes.size() != links)
    throw std::invalid_argument("ProblemInput: link vectors must cover all directed links");
  if (max_link_load < 0.0 || max_link_load > 1.0)
    throw std::invalid_argument("ProblemInput: max_link_load out of [0,1]");
  if (dc_access_capacity < 0.0)
    throw std::invalid_argument("ProblemInput: negative dc_access_capacity");
  if (!class_scale.empty() && class_scale.size() != classes.size())
    throw std::invalid_argument("ProblemInput: class_scale size mismatch");
  if (!node_down.empty() &&
      static_cast<int>(node_down.size()) > num_processing_nodes())
    throw std::invalid_argument("ProblemInput: node_down mask larger than node set");
  const int num_graph_nodes = routing->graph().num_nodes();
  for (const auto& c : classes) {
    if (c.fwd_path.empty() || c.rev_path.empty())
      throw std::invalid_argument("ProblemInput: class with empty path");
    for (const topo::Path* path : {&c.fwd_path, &c.rev_path})
      for (topo::NodeId node : *path)
        if (node < 0 || node >= num_graph_nodes)
          throw std::invalid_argument("ProblemInput: class path leaves the graph");
    if (c.sessions < 0.0 || c.bytes_per_session <= 0.0)
      throw std::invalid_argument("ProblemInput: malformed class volume");
  }
}

}  // namespace nwlb::core
