// Pins every formulation's LP bit for bit.
//
// Each case hashes a model's name-free content with 64-bit FNV-1a: per
// column its lower bound, upper bound and cost; per row its sense, its rhs
// and its entries after lp::Model::normalize().  What the solver sees is
// exactly that content, so a change that moves a value here moves pivots,
// plans and goldens downstream.  Internet2 and Geant are hand-coded with
// real city populations and a gravity matrix: no seeded synthesis and no
// libm call feeds the pinned values.
#include <bit>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/aggregation_lp.h"
#include "core/joint_lp.h"
#include "core/replication_lp.h"
#include "core/scenario.h"
#include "core/split_lp.h"
#include "topo/topology.h"
#include "traffic/matrix.h"

namespace nwlb::core {
namespace {

class Fnv1a {
 public:
  void add_word(std::uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (word >> (8 * i)) & 0xffU;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void add_bits(double value) { add_word(std::bit_cast<std::uint64_t>(value)); }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

std::uint64_t fingerprint(lp::Model model) {
  model.normalize();
  Fnv1a h;
  h.add_word(static_cast<std::uint64_t>(model.num_variables()));
  for (int j = 0; j < model.num_variables(); ++j) {
    const lp::VarId v{j};
    h.add_bits(model.lower(v));
    h.add_bits(model.upper(v));
    h.add_bits(model.cost(v));
  }
  h.add_word(static_cast<std::uint64_t>(model.num_rows()));
  for (int r = 0; r < model.num_rows(); ++r) {
    const lp::RowId row{r};
    h.add_word(static_cast<std::uint64_t>(model.sense(row)));
    h.add_bits(model.rhs(row));
    const auto& entries = model.row_entries(row);
    h.add_word(entries.size());
    for (const lp::Entry& e : entries) {
      h.add_word(static_cast<std::uint64_t>(e.var));
      h.add_bits(e.coef);
    }
  }
  return h.value();
}

/// Reverse routes that detour through PoP (ingress + egress) mod n, when
/// that PoP is neither end: a deterministic asymmetry for the split LP.
void detour_reverse_paths(const topo::Routing& routing, ProblemInput& input) {
  const int n = input.num_pops();
  for (traffic::TrafficClass& cls : input.classes) {
    const topo::NodeId via = (cls.ingress + cls.egress) % n;
    if (via == cls.ingress || via == cls.egress) continue;
    topo::Path rev = routing.path(cls.egress, via);
    const topo::Path back = routing.path(via, cls.ingress);
    rev.insert(rev.end(), back.begin() + 1, back.end());
    cls.rev_path = std::move(rev);
  }
}

/// Every pinned model of one topology, by name.
std::map<std::string, std::uint64_t> fingerprints(const topo::Topology& topology) {
  const traffic::TrafficMatrix tm = traffic::gravity_matrix(
      topology.graph, traffic::paper_total_sessions(topology.graph.num_nodes()));
  const Scenario scenario(topology, tm);
  std::map<std::string, std::uint64_t> out;

  for (const Architecture arch :
       {Architecture::kIngress, Architecture::kPathNoReplicate, Architecture::kPathReplicate,
        Architecture::kPathAugmented, Architecture::kLocalOffload1,
        Architecture::kLocalOffload2, Architecture::kDcPlusOneHop}) {
    const ProblemInput input = scenario.problem(arch);
    out[std::string("replication/") + to_string(arch)] =
        fingerprint(ReplicationLp(input).model());
  }
  {
    ProblemInput input = scenario.problem(Architecture::kDcPlusOneHop);
    input.node_down.assign(static_cast<std::size_t>(input.num_processing_nodes()), 0);
    input.node_down[3] = 1;
    input.node_down[static_cast<std::size_t>(input.datacenter_id())] = 1;
    out["replication/failure_mask"] = fingerprint(ReplicationLp(input).model());
  }
  {
    ProblemInput input = scenario.problem(Architecture::kDcPlusOneHop);
    input.max_link_load = 0.1;
    ReplicationOptions options;
    options.link_cost = LinkCostModel::kPiecewise;
    out["replication/piecewise"] = fingerprint(ReplicationLp(input, options).model());
  }

  const ProblemInput symmetric = scenario.problem(Architecture::kPathReplicate);
  out["split/symmetric"] = fingerprint(SplitTrafficLp(symmetric).model());
  ProblemInput asymmetric = symmetric;
  detour_reverse_paths(scenario.routing(), asymmetric);
  for (const auto& [mode, name] :
       {std::pair{SplitMode::kIngressOnly, "ingress"}, std::pair{SplitMode::kOnPathOnly, "path"},
        std::pair{SplitMode::kWithDatacenter, "dc"}}) {
    for (const bool max_class_miss : {false, true}) {
      SplitOptions options;
      options.mode = mode;
      options.max_class_miss = max_class_miss;
      out[std::string("split/") + name + (max_class_miss ? "/max_class_miss" : "")] =
          fingerprint(SplitTrafficLp(asymmetric, options).model());
    }
  }

  const ProblemInput no_dc = scenario.problem(Architecture::kPathNoReplicate);
  out["joint/dc"] = fingerprint(JointLp(symmetric).model());
  out["joint/no_dc"] = fingerprint(JointLp(no_dc).model());
  out["aggregation/ingress"] = fingerprint(AggregationLp(no_dc).model());
  AggregationOptions fixed;
  fixed.fixed_aggregation_point = 2;
  out["aggregation/fixed"] = fingerprint(AggregationLp(no_dc, fixed).model());
  return out;
}

void expect_pinned(const topo::Topology& topology,
                   const std::map<std::string, std::uint64_t>& pinned) {
  const auto actual = fingerprints(topology);
  ASSERT_EQ(actual.size(), pinned.size());
  for (const auto& [name, value] : actual) {
    const auto it = pinned.find(name);
    ASSERT_NE(it, pinned.end()) << name;
    char hex[32];
    std::snprintf(hex, sizeof hex, "0x%016llx", static_cast<unsigned long long>(value));
    EXPECT_EQ(value, it->second) << topology.name << " " << name << " is now " << hex;
  }
}

// A change meant to move a model re-pins the value its failure prints.
TEST(FormulationFingerprint, Internet2) {
  expect_pinned(topo::make_internet2(), {
      {"aggregation/fixed", 0x4733dcf1613f7746ULL},
      {"aggregation/ingress", 0xc4f525596b53c542ULL},
      {"joint/dc", 0xbf6c80645648f7f1ULL},
      {"joint/no_dc", 0xca827e97a121cc8dULL},
      {"replication/DC+One-hop", 0x9f48663f14898bdbULL},
      {"replication/Ingress", 0x409b3356d2a51fc9ULL},
      {"replication/One-hop", 0x359a4c10fe9484bbULL},
      {"replication/Path,Augmented", 0x9d88f46e6d3a4c99ULL},
      {"replication/Path,NoReplicate", 0x409b3356d2a51fc9ULL},
      {"replication/Path,Replicate", 0xd142e73c511eeb46ULL},
      {"replication/Two-hop", 0x053f652f1a509258ULL},
      {"replication/failure_mask", 0xb56e609e8cb6f53bULL},
      {"replication/piecewise", 0xc303c91c038e4975ULL},
      {"split/dc", 0x0e393bb00e26d438ULL},
      {"split/dc/max_class_miss", 0x4997b05004764593ULL},
      {"split/ingress", 0xdf92875ee41d274dULL},
      {"split/ingress/max_class_miss", 0xe8d9f84c60e2efbdULL},
      {"split/path", 0xd51b87d3531acbc9ULL},
      {"split/path/max_class_miss", 0x2990851548da6b35ULL},
      {"split/symmetric", 0xa2e219321305c3ffULL},
  });
}

TEST(FormulationFingerprint, Geant) {
  expect_pinned(topo::make_geant(), {
      {"aggregation/fixed", 0xcdd0c282accfc821ULL},
      {"aggregation/ingress", 0x303903517e0cfc25ULL},
      {"joint/dc", 0xa260408d11ee6002ULL},
      {"joint/no_dc", 0x6df998012710e4a3ULL},
      {"replication/DC+One-hop", 0xfca8cc638b4b51e7ULL},
      {"replication/Ingress", 0xc5bbb92a4f844584ULL},
      {"replication/One-hop", 0x62d364c7b0cee707ULL},
      {"replication/Path,Augmented", 0x6ac6de7ab3e9b51cULL},
      {"replication/Path,NoReplicate", 0xc5bbb92a4f844584ULL},
      {"replication/Path,Replicate", 0x2b5d86313104e0aeULL},
      {"replication/Two-hop", 0x97ee59db01cae708ULL},
      {"replication/failure_mask", 0x11dcade96a4f1ca7ULL},
      {"replication/piecewise", 0x564e05727171b89eULL},
      {"split/dc", 0xa6262d25dc1b5028ULL},
      {"split/dc/max_class_miss", 0xd0964576f44c2a5bULL},
      {"split/ingress", 0xde0c0540e9b8acbaULL},
      {"split/ingress/max_class_miss", 0x0c45eb2b0023c915ULL},
      {"split/path", 0xec34367438cb4b29ULL},
      {"split/path/max_class_miss", 0x5fdfe621923efb26ULL},
      {"split/symmetric", 0x9925f935b206de29ULL},
  });
}

}  // namespace
}  // namespace nwlb::core
