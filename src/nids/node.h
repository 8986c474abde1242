// A NIDS node instance: the off-the-shelf analysis stack (signature engine,
// scan detector, stateful session tracker) that the shim layer feeds.  One
// instance runs per PoP in the replay emulation; its accumulated work units
// are the per-node "CPU instructions" of Fig. 10.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "nids/packet.h"
#include "nids/scan.h"
#include "nids/session.h"
#include "nids/signature.h"

namespace nwlb::nids {

/// Work-unit weights of the different analyses; chosen so signature
/// matching (per byte) dominates, as measured for Snort/Bro-class systems.
struct CostModel {
  double per_packet = 20.0;          // Capture + decode.
  double per_signature_byte = 1.0;   // Aho-Corasick transition.
  double per_scan_update = 15.0;     // Hash-set insertion.
  double per_session_update = 10.0;  // Session table touch.
};

class NidsNode {
 public:
  /// `rules` defaults to the built-in corpus when empty.
  explicit NidsNode(std::string name, std::vector<std::string> rules = {},
                    CostModel cost = {});

  /// Shares an already-compiled signature engine instead of building one —
  /// the parallel replay creates one NidsNode per (worker, node) and the
  /// automaton is immutable, so all of them reference a single instance.
  NidsNode(std::string name, std::shared_ptr<const SignatureEngine> engine,
           CostModel cost = {});

  /// Full analysis of one packet (signature + scan + session tracking).
  /// Returns the number of signature matches in the payload.
  std::size_t process(const PacketView& packet) {
    return process(packet, signatures_->count_matches(packet.payload));
  }
  std::size_t process(const Packet& packet) { return process(PacketView(packet)); }

  /// The same analysis for a packet whose payload was already scanned by
  /// this node's engine: `matches` is its count_matches() result (replay
  /// scans a session's packets in groups of up to four and hands each
  /// node its packet's count).  Runs the scan detector and session tracker
  /// and charges the same work as process(packet); returns `matches`.
  std::size_t process(const PacketView& packet, std::size_t matches);

  /// Pre-sizes the detector state for the expected epoch volume so the
  /// per-packet path never rehashes (replay shards call this once per
  /// window).
  void reserve(std::size_t expected_sessions);

  const std::string& name() const { return name_; }

  /// Total work units consumed so far under the cost model.
  double work_units() const { return work_; }
  void reset_work_units();

  const ScanDetector& scan_detector() const { return scan_; }
  ScanDetector& scan_detector() { return scan_; }
  const SessionTracker& session_tracker() const { return sessions_; }
  const SignatureEngine& signature_engine() const { return *signatures_; }

  std::uint64_t packets_processed() const { return packets_; }

 private:
  std::string name_;
  // The automaton is large (dense transitions); shared_ptr lets many nodes
  // share one compiled rule set, as NIDS cluster deployments do.
  std::shared_ptr<const SignatureEngine> signatures_;
  ScanDetector scan_;
  SessionTracker sessions_;
  CostModel cost_;
  double work_ = 0.0;
  std::uint64_t packets_ = 0;
};

}  // namespace nwlb::nids
