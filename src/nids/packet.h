// Packet and session primitives shared by the shim and the NIDS engines.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace nwlb::nids {

/// The largest payload one IPv4 packet can carry: a 65,535-byte total
/// length less a 20-byte IPv4 header and a 20-byte TCP header.  The trace
/// boundaries (generator bounds, replay windows, the pcap writer) reject
/// more.
inline constexpr std::size_t kMaxPayloadBytes = 65'535 - 20 - 20;

/// IP 5-tuple.  Addresses and ports are stored in host order; the protocol
/// is the IP protocol number (6 = TCP, 17 = UDP).
struct FiveTuple {
  std::uint32_t src_ip = 0;
  std::uint32_t dst_ip = 0;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint8_t protocol = 6;

  friend bool operator==(const FiveTuple&, const FiveTuple&) = default;

  /// The same tuple with source and destination swapped (the reverse
  /// direction of the session).
  FiveTuple reversed() const {
    return FiveTuple{dst_ip, src_ip, dst_port, src_port, protocol};
  }

  /// Canonical form: the endpoint with the smaller (ip, port) pair is
  /// always placed first, so both directions of a session canonicalize to
  /// the same tuple (§7.2's bidirectional pinning trick).
  FiveTuple canonical() const {
    const bool swap = (src_ip > dst_ip) || (src_ip == dst_ip && src_port > dst_port);
    return swap ? reversed() : *this;
  }

  bool is_canonical() const { return canonical() == *this; }
};

enum class Direction : unsigned char { kForward, kReverse };

/// A simulated packet: enough header to drive the shim's decision and a
/// payload for the signature engine.
struct Packet {
  FiveTuple tuple;              // As seen on the wire (direction-specific).
  Direction direction = Direction::kForward;
  std::uint64_t session_id = 0; // Generator-assigned, for ground truth only.
  std::string payload;

  std::size_t wire_bytes() const { return payload.size() + 40; }  // + headers.
};

/// Non-owning view of a packet: the same header fields, with the payload
/// referencing caller-owned bytes (a staging buffer, a tunnel frame).
/// This is the allocation-free currency of the replay path — a Packet can
/// be viewed, and a view can be materialized wherever an owning Packet is
/// still needed.
struct PacketView {
  FiveTuple tuple;
  Direction direction = Direction::kForward;
  std::uint64_t session_id = 0;
  std::string_view payload;

  PacketView() = default;
  PacketView(const FiveTuple& t, Direction d, std::uint64_t id, std::string_view p)
      : tuple(t), direction(d), session_id(id), payload(p) {}
  explicit PacketView(const Packet& packet)
      : tuple(packet.tuple),
        direction(packet.direction),
        session_id(packet.session_id),
        payload(packet.payload) {}

  std::size_t wire_bytes() const { return payload.size() + 40; }  // + headers.

  Packet materialize() const {
    return Packet{tuple, direction, session_id, std::string(payload)};
  }
};

}  // namespace nwlb::nids
