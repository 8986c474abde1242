#include "dist/bus.h"

#include <stdexcept>
#include <string>
#include <utility>

#include "util/check.h"

namespace nwlb::dist {

const char* to_string(MsgType type) {
  switch (type) {
    case MsgType::kEstimateShare: return "estimate_share";
    case MsgType::kVoteRequest: return "vote_request";
    case MsgType::kVote: return "vote";
    case MsgType::kHeartbeat: return "heartbeat";
    case MsgType::kHeartbeatAck: return "heartbeat_ack";
  }
  return "?";
}

namespace {

/// Uniform [0,1) hash draw keyed on (seed, stream, tag) — stateless, so
/// the verdict cannot depend on the order replicas are stepped.
double hash_draw(std::uint64_t seed, std::uint64_t stream, std::uint64_t tag) {
  std::uint64_t s = util::derive_seed(util::derive_seed(seed, stream), tag);
  return static_cast<double>(util::splitmix64(s) >> 11) * 0x1.0p-53;
}

}  // namespace

void BusOptions::validate() const {
  if (!(drop_probability >= 0.0 && drop_probability <= 1.0))
    throw std::invalid_argument("MessageBus: drop probability out of [0,1], got " +
                                std::to_string(drop_probability));
  if (max_delay_rounds < 0)
    throw std::invalid_argument("MessageBus: negative max delay, got " +
                                std::to_string(max_delay_rounds));
}

MessageBus::MessageBus(int num_replicas, BusOptions options)
    : num_replicas_(num_replicas),
      options_(options),
      pending_(static_cast<std::size_t>(num_replicas > 0 ? num_replicas : 0)) {
  NWLB_CHECK_GE(num_replicas, 1, "MessageBus: needs at least one replica");
  options.validate();
}

bool MessageBus::reachable(int from, int to) const {
  if (partition_ == 0) return true;
  const auto side = [&](int r) {
    return (partition_ >> static_cast<unsigned>(r)) & 1u;
  };
  return side(from) == side(to);
}

void MessageBus::send(Message msg) {
  NWLB_CHECK(msg.from >= 0 && msg.from < num_replicas_, "MessageBus: bad sender ",
             msg.from);
  NWLB_CHECK(msg.to >= 0 && msg.to < num_replicas_, "MessageBus: bad recipient ",
             msg.to);
  ++stats_.sent;
  const std::uint64_t tag = sends_++;
  if (!reachable(msg.from, msg.to)) {
    ++stats_.partitioned;
    return;
  }
  if (options_.drop_probability > 0.0 &&
      hash_draw(options_.seed, 0xd409ULL, tag) < options_.drop_probability) {
    ++stats_.dropped;
    return;
  }
  int delay = 0;
  if (options_.max_delay_rounds > 0) {
    std::uint64_t s = util::derive_seed(util::derive_seed(options_.seed, 0xde1aULL), tag);
    delay = static_cast<int>(util::splitmix64(s) %
                             static_cast<std::uint64_t>(options_.max_delay_rounds + 1));
  }
  const auto to = static_cast<std::size_t>(msg.to);
  pending_[to].push_back(Pending{1 + delay, std::move(msg)});
}

std::vector<Message> MessageBus::drain(int replica) {
  auto& queue = pending_.at(static_cast<std::size_t>(replica));
  std::vector<Message> ready;
  std::vector<Pending> waiting;
  for (Pending& pending : queue) {
    if (pending.rounds_left <= 0) {
      ready.push_back(std::move(pending.msg));
    } else {
      waiting.push_back(std::move(pending));
    }
  }
  queue = std::move(waiting);
  stats_.delivered += ready.size();
  return ready;
}

void MessageBus::advance_round() {
  for (auto& queue : pending_)
    for (Pending& pending : queue) --pending.rounds_left;
}

void MessageBus::flush() {
  for (auto& queue : pending_) {
    stats_.flushed += queue.size();
    queue.clear();
  }
}

}  // namespace nwlb::dist
