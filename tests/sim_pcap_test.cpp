// Pcap export/import round-trips and header correctness.
#include "sim/pcap.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>

#include "core/scenario.h"
#include "sim/trace.h"
#include "topo/topology.h"
#include "traffic/matrix.h"

namespace nwlb::sim {
namespace {

nids::Packet tcp_packet() {
  nids::Packet p;
  p.tuple = nids::FiveTuple{0x0a000001, 0x0a010002, 44321, 80, 6};
  p.payload = "GET /index.html HTTP/1.1";
  return p;
}

TEST(Pcap, RoundTripTcp) {
  std::ostringstream out(std::ios::binary);
  PcapWriter writer(out);
  const nids::Packet original = tcp_packet();
  writer.write(original, 1234, 567);
  EXPECT_EQ(writer.packets_written(), 1u);

  std::istringstream in(out.str(), std::ios::binary);
  const auto packets = read_pcap(in);
  ASSERT_EQ(packets.size(), 1u);
  EXPECT_EQ(packets[0].tuple, original.tuple);
  EXPECT_EQ(packets[0].payload, original.payload);
}

TEST(Pcap, RoundTripUdp) {
  std::ostringstream out(std::ios::binary);
  PcapWriter writer(out);
  nids::Packet p = tcp_packet();
  p.tuple.protocol = 17;
  p.tuple.dst_port = 53;
  p.payload = "dns query";
  writer.write(p);
  std::istringstream in(out.str(), std::ios::binary);
  const auto packets = read_pcap(in);
  ASSERT_EQ(packets.size(), 1u);
  EXPECT_EQ(packets[0].tuple, p.tuple);
  EXPECT_EQ(packets[0].payload, p.payload);
}

TEST(Pcap, Ipv4ChecksumKnownVector) {
  // RFC 1071 style check: a header whose checksum field is zero, then
  // verifying that inserting the computed checksum makes the sum 0xffff.
  std::uint8_t header[20] = {0x45, 0x00, 0x00, 0x73, 0x00, 0x00, 0x40, 0x00, 0x40, 0x11,
                             0x00, 0x00, 0xc0, 0xa8, 0x00, 0x01, 0xc0, 0xa8, 0x00, 0xc7};
  const std::uint16_t checksum = ipv4_checksum(header, 20);
  EXPECT_EQ(checksum, 0xb861);  // The classic Wikipedia example datagram.
}

TEST(Pcap, GeneratedTraceRoundTrip) {
  const auto topology = topo::make_internet2();
  const auto tm = traffic::gravity_matrix(topology.graph, 1e5);
  const core::Scenario scenario(topology, tm);
  TraceGenerator generator(scenario.classes(), {}, 7);
  const auto sessions = generator.generate(50);

  std::ostringstream out(std::ios::binary);
  PcapWriter writer(out);
  std::size_t written = 0;
  for (const auto& s : sessions) {
    for (int k = 0; k < s.fwd_packets; ++k) {
      writer.write(generator.make_packet(s, k, nids::Direction::kForward));
      ++written;
    }
  }
  std::istringstream in(out.str(), std::ios::binary);
  const auto packets = read_pcap(in);
  ASSERT_EQ(packets.size(), written);
  // Spot-check payload integrity on the first packet of the first session.
  const auto expected = generator.make_packet(sessions[0], 0, nids::Direction::kForward);
  EXPECT_EQ(packets[0].payload, expected.payload);
  EXPECT_EQ(packets[0].tuple, expected.tuple);
}

TEST(Pcap, RejectsMalformedCaptures) {
  std::istringstream bad_magic(std::string("\x01\x02\x03\x04more"), std::ios::binary);
  EXPECT_THROW(read_pcap(bad_magic), std::invalid_argument);

  // Valid header, truncated packet record.
  std::ostringstream out(std::ios::binary);
  PcapWriter writer(out);
  writer.write(tcp_packet());
  std::string data = out.str();
  data.resize(data.size() - 5);
  std::istringstream truncated(data, std::ios::binary);
  EXPECT_THROW(read_pcap(truncated), std::invalid_argument);
}

// 65,495 payload bytes fill an IPv4 packet with a TCP header exactly; one
// more would wrap the 16-bit total length and outgrow the declared snaplen.
TEST(Pcap, RejectsPayloadAboveIpv4Limit) {
  std::ostringstream out(std::ios::binary);
  PcapWriter writer(out);
  nids::Packet p = tcp_packet();
  p.payload.assign(nids::kMaxPayloadBytes + 1, 'x');  // 65,496 bytes.
  const std::size_t header_bytes = out.str().size();
  try {
    writer.write(p);
    ADD_FAILURE() << "a 65,496-byte TCP payload was written";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("65496"), std::string::npos) << e.what();
  }
  EXPECT_EQ(out.str().size(), header_bytes);
  EXPECT_EQ(writer.packets_written(), 0u);

  p.payload.pop_back();  // At the limit: written, total length 65,535.
  writer.write(p);
  const std::string data = out.str();
  ASSERT_EQ(data.size(), header_bytes + 16 + 65535);
  EXPECT_EQ(static_cast<unsigned char>(data[header_bytes + 16 + 2]), 0xff);
  EXPECT_EQ(static_cast<unsigned char>(data[header_bytes + 16 + 3]), 0xff);
  std::istringstream in(data, std::ios::binary);
  const auto packets = read_pcap(in);
  ASSERT_EQ(packets.size(), 1u);
  EXPECT_EQ(packets[0].payload, p.payload);
}

void put_u32le(std::string& out, std::uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) out.push_back(static_cast<char>((v >> shift) & 0xff));
}

/// A capture header declaring `snaplen`, then one record header claiming
/// `incl` bytes followed by only a few of them.
std::string capture_with_record(std::uint32_t snaplen, std::uint32_t incl) {
  std::string data;
  put_u32le(data, 0xa1b2c3d4);
  put_u32le(data, 2 | (4u << 16));  // Version 2.4.
  put_u32le(data, 0);               // Thiszone.
  put_u32le(data, 0);               // Sigfigs.
  put_u32le(data, snaplen);
  put_u32le(data, 101);             // LINKTYPE_RAW.
  put_u32le(data, 0);               // ts_sec.
  put_u32le(data, 0);               // ts_usec.
  put_u32le(data, incl);
  put_u32le(data, incl);            // orig_len.
  data += "short body";
  return data;
}

// A record's length is checked against the snaplen, and against the IPv4
// maximum, before its buffer is allocated.
TEST(Pcap, RejectsRecordAboveSnaplenBeforeAllocating) {
  std::istringstream over_snaplen(capture_with_record(65535, 65536), std::ios::binary);
  try {
    read_pcap(over_snaplen);
    ADD_FAILURE() << "a 65,536-byte record was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("snaplen 65535"), std::string::npos) << e.what();
  }
  // A header that declares any snaplen still cannot make a 4 GiB record
  // allocate: no IPv4 packet is longer than 65,535 bytes.
  std::istringstream huge(capture_with_record(0xffffffffu, 0xffffffffu), std::ios::binary);
  try {
    read_pcap(huge);
    ADD_FAILURE() << "a 4 GiB record was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("IPv4 maximum"), std::string::npos) << e.what();
  }
}

}  // namespace
}  // namespace nwlb::sim
