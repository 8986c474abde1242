// Persistent replication tunnels (§7.2).
//
// The shim keeps one tunnel per mirror node and encapsulates replicated
// packets with a small framing header (magic, version, endpoints, sequence
// number, payload length).  The receiving side decapsulates into the exact
// packet the local NIDS would have captured on the wire, and tracks
// sequence gaps so operators can see replication loss.
//
// Two API shapes share one wire format and one accounting path:
//   * owning (encapsulate -> vector, decapsulate -> Packet) for tests and
//     tools;
//   * view-based (encapsulate_into a caller-provided buffer,
//     try_decapsulate_view -> PacketView into the frame) for the replay,
//     which stamps every frame into one reusable per-shard buffer and
//     never allocates per frame.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "nids/packet.h"
#include "util/flat_hash.h"

namespace nwlb::shim {

struct TunnelHeader {
  static constexpr std::uint32_t kMagic = 0x4e57544eu;  // "NWTN"
  static constexpr std::uint16_t kVersion = 1;

  std::uint32_t src_node = 0;
  std::uint32_t dst_node = 0;
  std::uint64_t sequence = 0;
  std::uint32_t payload_bytes = 0;

  static constexpr std::size_t kWireSize = 4 + 2 + 2 + 4 + 4 + 8 + 4;
};

/// Sender side of a tunnel: stamps sequence numbers and counts traffic.
class TunnelSender {
 public:
  TunnelSender(int local_node, int remote_node);

  /// Inner encapsulation (5-tuple + direction + session id) on top of the
  /// tunnel header.
  static constexpr std::size_t kInnerSize = 4 + 4 + 2 + 2 + 1 + 1 + 8;

  /// Total frame size for a payload of `payload_bytes`.
  static constexpr std::size_t wire_size(std::size_t payload_bytes) {
    return TunnelHeader::kWireSize + kInnerSize + payload_bytes;
  }

  /// Frames one packet: header + 5-tuple + direction + session id + payload.
  std::vector<std::byte> encapsulate(const nids::Packet& packet);

  /// Frames one packet into caller-provided storage (the replay's reusable
  /// frame buffer) and returns the frame size.  `out` must hold at least
  /// wire_size(packet.payload.size()) bytes.  Identical wire bytes and
  /// sequence/byte accounting to encapsulate().
  std::size_t encapsulate_into(const nids::PacketView& packet, std::span<std::byte> out);

  std::uint64_t packets_sent() const { return next_sequence_; }
  std::uint64_t bytes_sent() const { return bytes_; }
  int remote_node() const { return remote_; }

 private:
  int local_;
  int remote_;
  std::uint64_t next_sequence_ = 0;
  std::uint64_t bytes_ = 0;
};

/// Receiver side: decapsulates frames and tracks sequence gaps.
class TunnelReceiver {
 public:
  explicit TunnelReceiver(int local_node) : local_(local_node) {}

  /// Decapsulates one frame.  Throws std::invalid_argument on a malformed
  /// frame (bad magic/version/length or a frame not addressed to us).
  /// Convenience API for tests and tools; the replay hot path uses
  /// try_decapsulate instead.
  nids::Packet decapsulate(std::span<const std::byte> frame);

  /// Non-throwing variant for per-frame paths: a malformed frame returns
  /// std::nullopt and bumps frames_malformed() instead of unwinding.
  std::optional<nids::Packet> try_decapsulate(std::span<const std::byte> frame);

  /// Allocation-free variant: the returned view's payload aliases `frame`,
  /// which must stay alive (and unmodified) while the view is used.  Same accounting as try_decapsulate.
  std::optional<nids::PacketView> try_decapsulate_view(std::span<const std::byte> frame);

  std::uint64_t packets_received() const { return received_; }
  /// Frames the sequence numbers say we should have seen but did not.
  std::uint64_t packets_lost() const { return lost_; }
  /// Frames rejected for bad framing (magic/version/addressing/length).
  std::uint64_t frames_malformed() const { return malformed_; }

  /// End-of-epoch sequence sync: the sender reports how many frames it has
  /// stamped toward this node, so trailing losses (drops after the last
  /// frame that arrived) become detectable too.  Models the periodic
  /// keepalive a persistent tunnel carries; it also makes loss accounting
  /// independent of where a measurement epoch is cut, which the sharded
  /// parallel replay relies on for deterministic merges.
  void reconcile(std::uint32_t src_node, std::uint64_t frames_sent);

 private:
  /// Shared parse + sequence tracking; on failure leaves the accounting
  /// untouched and describes the defect in *error.  The view's payload
  /// aliases `frame`.
  std::optional<nids::PacketView> parse(std::span<const std::byte> frame, std::string* error);

  int local_;
  std::uint64_t received_ = 0;
  std::uint64_t lost_ = 0;
  std::uint64_t malformed_ = 0;
  // Highest-seen sequence per sending node (+1).  Flat open-addressing
  // table: this is touched once per received frame.
  util::U64FlatMap<std::uint64_t> expected_next_;
};

}  // namespace nwlb::shim
