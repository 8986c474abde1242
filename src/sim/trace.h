// Synthetic full-payload trace generation.
//
// Replaces the paper's Emulab setup (Scapy generator seeded with M57
// payload traces + BitTwist supernode injection): sessions are sampled
// across traffic classes proportionally to |T_c|, each with a 5-tuple
// drawn from its ingress/egress PoP prefixes, bidirectional packet counts,
// heavy-tailed payload sizes, occasional embedded malicious signatures,
// and a configurable population of scanning sources.  Fully deterministic
// in the seed.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "nids/packet.h"
#include "traffic/classes.h"
#include "util/rng.h"

namespace nwlb::sim {

struct SessionSpec {
  std::uint64_t id = 0;
  int class_index = -1;
  nids::FiveTuple tuple;       // Forward direction (initiator -> responder).
  int fwd_packets = 1;
  int rev_packets = 1;
  int payload_bytes = 256;     // Per packet.
  bool malicious = false;      // Payload will embed a signature.
  bool scanner = false;        // Part of a scan burst.
};

struct TraceConfig {
  double malicious_fraction = 0.02;  // Sessions embedding a signature.
  int scanners = 4;                  // Scanning sources injected per trace.
  int scan_fanout = 40;              // Distinct destinations per scanner.
  int min_payload = 64;
  int max_payload = 1400;            // At most nids::kMaxPayloadBytes.
  int max_packets_per_direction = 12;
};

class TraceGenerator {
 public:
  TraceGenerator(const std::vector<traffic::TrafficClass>& classes, TraceConfig config,
                 std::uint64_t seed);

  /// Samples `count` normal sessions (class-weighted) plus the configured
  /// scan bursts; scanner sessions are single-packet probes.
  std::vector<SessionSpec> generate(int count);

  /// Like generate(), but samples classes from `class_weights` instead of
  /// the construction-time |T_c| weights — how a bursty scenario (e.g. a
  /// SelfSimilarTraffic window) skews one interval's class mix while
  /// session ids and RNG state stay continuous across intervals.  Size
  /// must match the class list; weights must be non-negative with a
  /// positive sum.
  std::vector<SessionSpec> generate_weighted(int count,
                                             std::span<const double> class_weights);

  /// Size of the filler pool every payload is copied from.
  static constexpr std::size_t kFillerPoolBytes = 4096;

  /// Materializes the `index`-th packet of a session in one direction.
  /// The payload is filler over 'a'..'q', copied from one pool of
  /// kFillerPoolBytes bytes drawn at compile time: it starts at a pool
  /// offset drawn from (session id, index, direction) and wraps around the
  /// pool for longer payloads.  A malicious session's first forward packet
  /// carries one corpus signature in its middle.  Payload content therefore
  /// depends only on (session id, index, direction), never on the
  /// generator's seed or state.
  nids::Packet make_packet(const SessionSpec& session, int index,
                           nids::Direction direction) const;

  /// Same packet as make_packet(), materialized into caller-owned payload
  /// storage: the returned view's payload aliases `payload_buf`, which must
  /// hold at least session.payload_bytes bytes and stay alive while the
  /// view is used.  The replay builds every packet this way, into a shard's
  /// four reusable payload slots; make_packet() delegates here, so the
  /// bytes are identical by construction.  The filler costs one draw and
  /// one memcpy per kFillerPoolBytes of payload.
  nids::PacketView packet_into(const SessionSpec& session, int index,
                               nids::Direction direction,
                               std::span<char> payload_buf) const;

  /// The IPv4 address space of a PoP: 10.<pop>.x.y.
  static std::uint32_t pop_prefix(int pop);

  /// Which PoP an address belongs to (inverse of pop_prefix).
  static int pop_of_address(std::uint32_t ip);

  const std::vector<std::string>& signature_corpus() const { return signatures_; }

 private:
  nids::FiveTuple sample_tuple(const traffic::TrafficClass& cls);

  const std::vector<traffic::TrafficClass>* classes_;
  TraceConfig config_;
  nwlb::util::Rng rng_;
  std::vector<double> weights_;
  std::vector<std::string> signatures_;
  std::uint64_t next_id_ = 1;
};

}  // namespace nwlb::sim
