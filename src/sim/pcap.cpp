#include "sim/pcap.h"

#include <array>
#include <bit>
#include <cstring>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>

namespace nwlb::sim {
namespace {

constexpr std::uint32_t kMagic = 0xa1b2c3d4;
constexpr std::uint32_t kLinktypeRaw = 101;  // Raw IPv4.
constexpr std::uint32_t kMaxIpv4Bytes = 65535;  // IPv4 total length is 16 bits.

void put_u16le(std::ostream& out, std::uint16_t v) {
  const char bytes[2] = {static_cast<char>(v & 0xff), static_cast<char>(v >> 8)};
  out.write(bytes, 2);
}

void put_u32le(std::ostream& out, std::uint32_t v) {
  const char bytes[4] = {static_cast<char>(v & 0xff), static_cast<char>((v >> 8) & 0xff),
                         static_cast<char>((v >> 16) & 0xff),
                         static_cast<char>((v >> 24) & 0xff)};
  out.write(bytes, 4);
}

// Wire integers are read by memcpy into the target type — never by casting
// the byte buffer to an integer pointer, which is unaligned UB.
std::uint16_t get_u16le(std::istream& in) {
  char b[2];
  in.read(b, 2);
  if (!in) throw std::invalid_argument("pcap: truncated");
  std::uint16_t v;
  std::memcpy(&v, b, sizeof v);
  if constexpr (std::endian::native == std::endian::big)
    v = static_cast<std::uint16_t>((v >> 8) | (v << 8));
  return v;
}

std::uint32_t get_u32le(std::istream& in) {
  char b[4];
  in.read(b, 4);
  if (!in) throw std::invalid_argument("pcap: truncated");
  std::uint32_t v;
  std::memcpy(&v, b, sizeof v);
  if constexpr (std::endian::native == std::endian::big)
    v = ((v >> 24) & 0xffU) | ((v >> 8) & 0xff00U) | ((v << 8) & 0xff0000U) | (v << 24);
  return v;
}

void put_u16be(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v & 0xff));
}

void put_u32be(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 24));
  out.push_back(static_cast<std::uint8_t>((v >> 16) & 0xff));
  out.push_back(static_cast<std::uint8_t>((v >> 8) & 0xff));
  out.push_back(static_cast<std::uint8_t>(v & 0xff));
}

}  // namespace

std::uint16_t ipv4_checksum(const std::uint8_t* header, std::size_t length) {
  std::uint32_t sum = 0;
  for (std::size_t i = 0; i + 1 < length; i += 2)
    sum += static_cast<std::uint32_t>(header[i] << 8) | header[i + 1];
  while (sum >> 16) sum = (sum & 0xffff) + (sum >> 16);
  return static_cast<std::uint16_t>(~sum & 0xffff);
}

PcapWriter::PcapWriter(std::ostream& out) : out_(&out) {
  put_u32le(out, kMagic);
  put_u16le(out, 2);       // Major version.
  put_u16le(out, 4);       // Minor version.
  put_u32le(out, 0);       // Thiszone.
  put_u32le(out, 0);       // Sigfigs.
  put_u32le(out, kMaxIpv4Bytes);  // Snaplen.
  put_u32le(out, kLinktypeRaw);
}

void PcapWriter::write(const nids::Packet& packet, std::uint32_t ts_sec,
                       std::uint32_t ts_usec) {
  // Above the limit the 16-bit IPv4 total length would wrap and the record
  // would outgrow the snaplen the header declares.
  if (packet.payload.size() > nids::kMaxPayloadBytes)
    throw std::invalid_argument("PcapWriter: a payload of " +
                                std::to_string(packet.payload.size()) +
                                " bytes exceeds the IPv4 payload limit of " +
                                std::to_string(nids::kMaxPayloadBytes));
  const bool tcp = packet.tuple.protocol == 6;
  const std::size_t l4_len = tcp ? 20 : 8;
  const std::size_t total = 20 + l4_len + packet.payload.size();

  std::vector<std::uint8_t> frame;
  frame.reserve(total);
  // IPv4 header.
  frame.push_back(0x45);  // Version 4, IHL 5.
  frame.push_back(0);     // DSCP/ECN.
  put_u16be(frame, static_cast<std::uint16_t>(total));
  put_u16be(frame, static_cast<std::uint16_t>(packet.session_id & 0xffff));  // Id.
  put_u16be(frame, 0x4000);  // Don't fragment.
  frame.push_back(64);       // TTL.
  frame.push_back(packet.tuple.protocol);
  put_u16be(frame, 0);  // Checksum placeholder.
  put_u32be(frame, packet.tuple.src_ip);
  put_u32be(frame, packet.tuple.dst_ip);
  const std::uint16_t checksum = ipv4_checksum(frame.data(), 20);
  frame[10] = static_cast<std::uint8_t>(checksum >> 8);
  frame[11] = static_cast<std::uint8_t>(checksum & 0xff);
  // L4 header.
  if (tcp) {
    put_u16be(frame, packet.tuple.src_port);
    put_u16be(frame, packet.tuple.dst_port);
    put_u32be(frame, 0);      // Seq.
    put_u32be(frame, 0);      // Ack.
    frame.push_back(0x50);    // Data offset 5.
    frame.push_back(0x18);    // PSH|ACK.
    put_u16be(frame, 65535);  // Window.
    put_u16be(frame, 0);      // Checksum (not computed).
    put_u16be(frame, 0);      // Urgent.
  } else {
    put_u16be(frame, packet.tuple.src_port);
    put_u16be(frame, packet.tuple.dst_port);
    put_u16be(frame, static_cast<std::uint16_t>(8 + packet.payload.size()));
    put_u16be(frame, 0);  // Checksum (optional for UDP/IPv4).
  }
  for (char c : packet.payload) frame.push_back(static_cast<std::uint8_t>(c));

  put_u32le(*out_, ts_sec);
  put_u32le(*out_, ts_usec);
  put_u32le(*out_, static_cast<std::uint32_t>(frame.size()));
  put_u32le(*out_, static_cast<std::uint32_t>(frame.size()));
  // Byte-buffer aliasing as char* for stream I/O is well-defined (no
  // integer reinterpretation).  nwlb-lint: allow(reinterpret-cast)
  out_->write(reinterpret_cast<const char*>(frame.data()),
              static_cast<std::streamsize>(frame.size()));
  ++count_;
}

std::vector<nids::Packet> read_pcap(std::istream& in) {
  if (get_u32le(in) != kMagic) throw std::invalid_argument("pcap: bad magic");
  (void)get_u16le(in);  // Major version.
  (void)get_u16le(in);  // Minor version.
  (void)get_u32le(in);  // Thiszone.
  (void)get_u32le(in);  // Sigfigs.
  const std::uint32_t snaplen = get_u32le(in);
  if (get_u32le(in) != kLinktypeRaw)
    throw std::invalid_argument("pcap: only LINKTYPE_RAW captures are supported");

  std::vector<nids::Packet> out;
  for (;;) {
    in.peek();
    if (in.eof()) break;
    (void)get_u32le(in);  // ts_sec.
    (void)get_u32le(in);  // ts_usec.
    const std::uint32_t incl = get_u32le(in);
    (void)get_u32le(in);  // orig_len.
    // Checked before the record's buffer is allocated: a corrupt length
    // must not ask for gigabytes.
    if (incl > snaplen)
      throw std::invalid_argument("pcap: a record of " + std::to_string(incl) +
                                  " bytes exceeds the capture's snaplen " +
                                  std::to_string(snaplen));
    if (incl > kMaxIpv4Bytes)
      throw std::invalid_argument("pcap: a record of " + std::to_string(incl) +
                                  " bytes exceeds the IPv4 maximum of " +
                                  std::to_string(kMaxIpv4Bytes));
    std::vector<std::uint8_t> frame(incl);
    // Byte-buffer aliasing as char* for stream I/O.  nwlb-lint: allow(reinterpret-cast)
    in.read(reinterpret_cast<char*>(frame.data()), static_cast<std::streamsize>(incl));
    if (!in) throw std::invalid_argument("pcap: truncated packet record");
    if (incl < 20 || (frame[0] >> 4) != 4)
      throw std::invalid_argument("pcap: not an IPv4 packet");
    const std::size_t ihl = static_cast<std::size_t>(frame[0] & 0x0f) * 4;
    nids::Packet packet;
    packet.tuple.protocol = frame[9];
    packet.tuple.src_ip = (static_cast<std::uint32_t>(frame[12]) << 24) |
                          (static_cast<std::uint32_t>(frame[13]) << 16) |
                          (static_cast<std::uint32_t>(frame[14]) << 8) | frame[15];
    packet.tuple.dst_ip = (static_cast<std::uint32_t>(frame[16]) << 24) |
                          (static_cast<std::uint32_t>(frame[17]) << 16) |
                          (static_cast<std::uint32_t>(frame[18]) << 8) | frame[19];
    const bool tcp = packet.tuple.protocol == 6;
    const std::size_t l4_len = tcp ? 20 : 8;
    if (incl < ihl + l4_len) throw std::invalid_argument("pcap: short L4 header");
    packet.tuple.src_port =
        static_cast<std::uint16_t>((frame[ihl] << 8) | frame[ihl + 1]);
    packet.tuple.dst_port =
        static_cast<std::uint16_t>((frame[ihl + 2] << 8) | frame[ihl + 3]);
    packet.payload.assign(frame.begin() + static_cast<std::ptrdiff_t>(ihl + l4_len),
                          frame.end());
    out.push_back(std::move(packet));
  }
  return out;
}

}  // namespace nwlb::sim
