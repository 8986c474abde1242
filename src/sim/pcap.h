// Pcap export/import of synthetic traces.
//
// Writes generated packets as a standard libpcap capture (LINKTYPE_RAW,
// IPv4 + TCP/UDP with correct IP header checksums) so traces can be
// inspected with tcpdump/Wireshark or fed to a real Snort/Bro instance —
// the interoperability bridge to the paper's "unmodified NIDS" story.
// The reader parses such captures back into nids::Packet records
// (session ids are not representable in pcap and come back as 0).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "nids/packet.h"

namespace nwlb::sim {

class PcapWriter {
 public:
  /// Writes the global header immediately.  The stream must be binary.
  explicit PcapWriter(std::ostream& out);

  /// Appends one packet with the given capture timestamp.  Throws
  /// std::invalid_argument, writing nothing, for a payload above
  /// nids::kMaxPayloadBytes (it would not fit one IPv4 packet).
  void write(const nids::Packet& packet, std::uint32_t ts_sec = 0,
             std::uint32_t ts_usec = 0);

  std::size_t packets_written() const { return count_; }

 private:
  std::ostream* out_;
  std::size_t count_ = 0;
};

/// Reads a LINKTYPE_RAW IPv4 capture produced by PcapWriter (or any tool
/// emitting the same framing).  Throws std::invalid_argument on malformed
/// input, a record longer than the header's snaplen or than an IPv4 packet
/// among it (checked before the record is allocated).  Directions are reconstructed as kForward (pcap has no notion of
/// session direction).
std::vector<nids::Packet> read_pcap(std::istream& in);

/// The IPv4 header checksum over `header` (byte span of even length).
std::uint16_t ipv4_checksum(const std::uint8_t* header, std::size_t length);

}  // namespace nwlb::sim
