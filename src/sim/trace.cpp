// nwlb-lint: hot-path
#include "sim/trace.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <stdexcept>
#include <string>

#include "nids/signature.h"
#include "util/check.h"

namespace nwlb::sim {

namespace {

constexpr double kPayloadParetoAlpha = 1.3;  // Per-packet payload size tail.

/// The filler pool, stored twice over so that any run of up to
/// kFillerPoolBytes bytes from any start offset is contiguous: byte i of a
/// payload whose pool offset is o is kFillerPool[(o + i) % kFillerPoolBytes],
/// and every chunk of up to kFillerPoolBytes bytes of it is one memcpy from
/// kFillerPool.data() + o.  Drawn at compile time from a fixed splitmix64
/// stream over 'a'..'q': printable filler keeps accidental signature
/// collisions impossible (every rule in the corpus holds a byte outside that
/// alphabet), and no generator or seed changes a byte of it.
constexpr std::size_t kPoolBytes = TraceGenerator::kFillerPoolBytes;
static_assert((kPoolBytes & (kPoolBytes - 1)) == 0, "the pool offset is a mask");

constexpr std::array<char, 2 * kPoolBytes> make_filler_pool() {
  std::array<char, 2 * kPoolBytes> pool{};
  std::uint64_t state = 0xF111E4ULL;
  for (std::size_t i = 0; i < kPoolBytes; ++i) {
    pool[i] = static_cast<char>('a' + nwlb::util::splitmix64(state) % 17);
    pool[kPoolBytes + i] = pool[i];
  }
  return pool;
}

constexpr std::array<char, 2 * kPoolBytes> kFillerPool = make_filler_pool();

}  // namespace

TraceGenerator::TraceGenerator(const std::vector<traffic::TrafficClass>& classes,
                               TraceConfig config, std::uint64_t seed)
    : classes_(&classes),
      config_(config),
      rng_(nwlb::util::derive_seed(seed, 0x7247)),
      signatures_(nids::SignatureEngine::default_rules()) {
  if (classes.empty())
    // nwlb-analyze: allow(no-throw-hot-path) -- construction, not a packet.
    throw std::invalid_argument("TraceGenerator: no classes");
  if (config_.min_payload < 16 || config_.max_payload < config_.min_payload)
    // nwlb-analyze: allow(no-throw-hot-path) -- construction, not a packet.
    throw std::invalid_argument("TraceGenerator: bad payload bounds");
  if (static_cast<std::size_t>(config_.max_payload) > nids::kMaxPayloadBytes)
    // nwlb-analyze: allow(no-throw-hot-path) -- construction, not a packet.
    throw std::invalid_argument("TraceGenerator: max_payload " +
                                std::to_string(config_.max_payload) +
                                " exceeds the IPv4 payload limit of " +
                                std::to_string(nids::kMaxPayloadBytes));
  weights_.reserve(classes.size());
  for (const auto& c : classes) weights_.push_back(c.sessions);
}

std::uint32_t TraceGenerator::pop_prefix(int pop) {
  if (pop < 0 || pop > 255)
    // nwlb-analyze: allow(no-throw-hot-path) -- address planning, not a packet.
    throw std::invalid_argument("pop_prefix: pop out of range");
  return (10u << 24) | (static_cast<std::uint32_t>(pop) << 16);
}

int TraceGenerator::pop_of_address(std::uint32_t ip) {
  return static_cast<int>((ip >> 16) & 0xff);
}

nids::FiveTuple TraceGenerator::sample_tuple(const traffic::TrafficClass& cls) {
  nids::FiveTuple t;
  t.src_ip = pop_prefix(cls.ingress) | static_cast<std::uint32_t>(rng_.below(1 << 16));
  t.dst_ip = pop_prefix(cls.egress) | static_cast<std::uint32_t>(rng_.below(1 << 16));
  t.src_port = static_cast<std::uint16_t>(1024 + rng_.below(64000));
  t.dst_port = static_cast<std::uint16_t>(rng_.bernoulli(0.7) ? 80 : 1 + rng_.below(1023));
  t.protocol = rng_.bernoulli(0.9) ? 6 : 17;
  return t;
}

std::vector<SessionSpec> TraceGenerator::generate(int count) {
  return generate_weighted(count, weights_);
}

std::vector<SessionSpec> TraceGenerator::generate_weighted(
    int count, std::span<const double> class_weights) {
  if (count < 0)
    // nwlb-analyze: allow(no-throw-hot-path) -- window sampling, not a packet.
    throw std::invalid_argument("TraceGenerator::generate: negative count");
  if (class_weights.size() != classes_->size())
    // nwlb-analyze: allow(no-throw-hot-path) -- window sampling, not a packet.
    throw std::invalid_argument(
        "TraceGenerator::generate_weighted: weight span size mismatch");
  std::vector<SessionSpec> out;
  out.reserve(static_cast<std::size_t>(count) +
              static_cast<std::size_t>(config_.scanners) *
                  static_cast<std::size_t>(config_.scan_fanout));
  for (int i = 0; i < count; ++i) {
    const auto class_index = rng_.weighted_index(class_weights);
    const auto& cls = (*classes_)[class_index];
    SessionSpec s;
    s.id = next_id_++;
    s.class_index = static_cast<int>(class_index);
    s.tuple = sample_tuple(cls);
    s.fwd_packets = 1 + static_cast<int>(rng_.below(
                            static_cast<std::uint64_t>(config_.max_packets_per_direction)));
    s.rev_packets = 1 + static_cast<int>(rng_.below(
                            static_cast<std::uint64_t>(config_.max_packets_per_direction)));
    s.payload_bytes = static_cast<int>(rng_.pareto(config_.min_payload,
                                                   kPayloadParetoAlpha,
                                                   config_.max_payload));
    s.malicious = rng_.bernoulli(config_.malicious_fraction);
    out.push_back(s);
  }
  // Scan bursts: one source probing many distinct destinations with
  // single-packet sessions, class chosen per scanner.
  for (int scanner = 0; scanner < config_.scanners; ++scanner) {
    const auto class_index = rng_.weighted_index(class_weights);
    const auto& cls = (*classes_)[class_index];
    const std::uint32_t src =
        pop_prefix(cls.ingress) | static_cast<std::uint32_t>(rng_.below(1 << 16));
    for (int k = 0; k < config_.scan_fanout; ++k) {
      SessionSpec s;
      s.id = next_id_++;
      s.class_index = static_cast<int>(class_index);
      s.tuple = sample_tuple(cls);
      s.tuple.src_ip = src;
      // Distinct destinations: spread over the egress prefix.
      s.tuple.dst_ip = pop_prefix(cls.egress) | static_cast<std::uint32_t>(k + 1);
      s.fwd_packets = 1;
      s.rev_packets = 0;  // Probes typically go unanswered.
      s.payload_bytes = config_.min_payload;
      s.scanner = true;
      out.push_back(s);
    }
  }
  return out;
}

nids::Packet TraceGenerator::make_packet(const SessionSpec& session, int index,
                                         nids::Direction direction) const {
  nids::Packet packet;
  packet.payload.resize(static_cast<std::size_t>(session.payload_bytes));
  const nids::PacketView view = packet_into(
      session, index, direction, std::span<char>(packet.payload.data(), packet.payload.size()));
  packet.session_id = view.session_id;
  packet.direction = view.direction;
  packet.tuple = view.tuple;
  return packet;
}

nids::PacketView TraceGenerator::packet_into(const SessionSpec& session, int index,
                                            nids::Direction direction,
                                            std::span<char> payload_buf) const {
  const auto payload_bytes = static_cast<std::size_t>(session.payload_bytes);
  NWLB_CHECK(payload_buf.size() >= payload_bytes,
             "TraceGenerator::packet_into: payload buffer too small");
  nids::PacketView packet;
  packet.session_id = session.id;
  packet.direction = direction;
  packet.tuple =
      direction == nids::Direction::kForward ? session.tuple : session.tuple.reversed();
  // Filler: the pool read from an offset drawn once from (id, index,
  // direction), wrapping around for payloads longer than the pool.
  std::uint64_t state = session.id * 1315423911u + static_cast<std::uint64_t>(index) * 2654435761u +
                        (direction == nids::Direction::kReverse ? 0x9e37ULL : 0);
  const char* const from = kFillerPool.data() + (nwlb::util::splitmix64(state) & (kPoolBytes - 1));
  for (std::size_t done = 0; done < payload_bytes; done += kPoolBytes)
    std::memcpy(payload_buf.data() + done, from, std::min(kPoolBytes, payload_bytes - done));
  if (session.malicious && index == 0 && direction == nids::Direction::kForward) {
    const auto& sig = signatures_[session.id % signatures_.size()];
    if (sig.size() <= payload_bytes)
      std::memcpy(payload_buf.data() + (payload_bytes - sig.size()) / 2, sig.data(),
                  sig.size());
  }
  packet.payload = std::string_view(payload_buf.data(), payload_bytes);
  return packet;
}

}  // namespace nwlb::sim
