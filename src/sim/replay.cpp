// nwlb-lint: hot-path
#include "sim/replay.h"

#include <algorithm>
#include <bit>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/metrics.h"
#include "shim/hash.h"
#include "shim/tunnel.h"
#include "util/cpus.h"
#include "util/fork_join.h"

namespace nwlb::sim {

std::vector<double> ReplayStats::normalized_work() const {
  std::vector<double> out(node_work);
  const double worst = out.empty() ? 0.0 : *std::max_element(out.begin(), out.end());
  if (worst > 0.0)
    for (double& w : out) w /= worst;
  return out;
}

namespace {

/// Adds the counters a shard tallies during replay, and its per-link tunnel
/// bytes, into `total`.  Node work and packets come from the shard's
/// engines, tunnel losses from its receivers, and decisions and flaps from
/// stats(), so those fields are not summed here.
void add_counts(ReplayStats& total, const ReplayStats& part) {
  for (std::size_t l = 0; l < part.link_replicated_bytes.size(); ++l)
    total.link_replicated_bytes[l] += part.link_replicated_bytes[l];
  total.sessions_replayed += part.sessions_replayed;
  total.packets_replayed += part.packets_replayed;
  total.signature_matches += part.signature_matches;
  total.tunnel_frames_sent += part.tunnel_frames_sent;
  total.tunnel_frames_dropped += part.tunnel_frames_dropped;
  total.tunnel_frames_blackholed += part.tunnel_frames_blackholed;
  total.crash_skipped_packets += part.crash_skipped_packets;
  total.fail_open_packets += part.fail_open_packets;
  total.degraded_skipped_packets += part.degraded_skipped_packets;
  total.stateful_covered += part.stateful_covered;
  total.stateful_missed += part.stateful_missed;
}

}  // namespace

/// All mutable replay state for one shard of the session list.  A shard is
/// replayed by exactly one team block; nothing here is shared, so the blocks
/// never synchronize until the final in-order merge.
struct ReplaySimulator::Shard {
  std::vector<nids::NidsNode> nodes;           // One per processing node.
  std::vector<shim::TunnelReceiver> receivers; // One per processing node.
  // Tunnel senders in a flat (local * stride + remote) layout, created on
  // first use.  Index order equals the old (local, remote)-sorted map
  // order, which the deterministic merge relies on.
  std::vector<std::optional<shim::TunnelSender>> senders;
  std::size_t stride = 0;                      // Processing-node count.
  std::vector<shim::ShimStats> shim_stats;     // One per PoP.
  ReplayStats tally;  // What add_counts() merges: counters and link bytes.
  std::uint64_t unassigned = 0;               // Defensive; stays 0.
  std::vector<std::uint64_t> gen_sessions;    // Sessions per generation slot.
  std::vector<std::uint64_t> class_sessions;  // Per traffic class.
  std::vector<std::uint64_t> class_bytes;     // Payload bytes per class.
  // Bitmap over processing nodes: set while a session replays for every
  // node its packets may have reached, so the stateful-coverage verdict
  // probes only those trackers (cache-warm) instead of all of them.
  std::vector<std::uint64_t> touched_nodes;

  void touch_node(std::size_t j) { touched_nodes[j >> 6] |= std::uint64_t{1} << (j & 63); }

  // Reused per-direction scratch: one action per on-path node (every
  // packet of a direction shares one hash, hence one decision).
  std::vector<shim::Action> action_buf;
  // Packet and frame scratch, sized once per window for its largest
  // payload: every packet is built into payload_buf and every replicated
  // frame is stamped into frame_buf, so no packet or frame allocates.
  std::vector<char> payload_buf;
  std::vector<std::byte> frame_buf;

  Shard(const core::ProblemInput& input,
        const std::shared_ptr<const nids::SignatureEngine>& engine,
        std::size_t num_generations, std::size_t max_payload_bytes,
        std::size_t expected_sessions) {
    const int processing = input.num_processing_nodes();
    const int num_pops = input.num_pops();
    nodes.reserve(static_cast<std::size_t>(processing));
    receivers.reserve(static_cast<std::size_t>(processing));
    // A session touches only a few nodes (its processing node plus a
    // mirror or two), so each tracker holds roughly its share of the
    // window — sizing every table for the full window would zero an order
    // of magnitude more slot memory than ever gets touched.  A node that
    // aggregates far more (e.g. an ingress-plan datacenter) just grows,
    // amortized in its final size.
    const std::size_t per_node_sessions =
        expected_sessions * 3 / static_cast<std::size_t>(std::max(processing, 1)) + 64;
    for (int id = 0; id < processing; ++id) {
      nodes.emplace_back(id < num_pops ? input.routing->graph().name(id) : "Datacenter",
                         engine);
      nodes.back().reserve(per_node_sessions);
      receivers.emplace_back(id);
    }
    stride = static_cast<std::size_t>(processing);
    touched_nodes.assign((stride + 63) / 64, 0);
    senders.resize(stride * stride);
    shim_stats.resize(static_cast<std::size_t>(num_pops));
    tally.link_replicated_bytes.assign(input.link_capacity.size(), 0.0);
    gen_sessions.assign(num_generations, 0);
    class_sessions.assign(input.classes.size(), 0);
    class_bytes.assign(input.classes.size(), 0);
    payload_buf.resize(max_payload_bytes);
    frame_buf.resize(shim::TunnelSender::wire_size(max_payload_bytes));
  }

  shim::TunnelSender& sender_for(std::size_t local, std::size_t remote) {
    std::optional<shim::TunnelSender>& slot = senders[local * stride + remote];
    if (!slot) slot.emplace(static_cast<int>(local), static_cast<int>(remote));
    return *slot;
  }
};

ReplaySimulator::ReplaySimulator(const core::ProblemInput& input,
                                 const shim::ConfigBundle& bundle,
                                 ReplayOptions options)
    : input_(&input), options_(options) {
  if (options.replication_loss < 0.0 || options.replication_loss > 1.0)
    // nwlb-lint: allow(no-throw-hot-path) -- construction, not replay.
    throw std::invalid_argument("ReplaySimulator: loss probability out of [0,1]");
  if (options.num_workers < 0)
    // nwlb-lint: allow(no-throw-hot-path) -- construction, not replay.
    throw std::invalid_argument("ReplaySimulator: negative worker count");
  if (options.num_workers > ReplayOptions::kMaxWorkers)
    // nwlb-lint: allow(no-throw-hot-path) -- construction, not replay.
    throw std::invalid_argument("ReplaySimulator: " + std::to_string(options.num_workers) +
                                " workers exceeds the cap of " +
                                std::to_string(ReplayOptions::kMaxWorkers));
  if (options.fail_open_headroom < 0.0 || options.fail_open_headroom > 1.0)
    // nwlb-lint: allow(no-throw-hot-path) -- construction, not replay.
    throw std::invalid_argument("ReplaySimulator: fail-open headroom out of [0,1]");
  if (static_cast<int>(bundle.configs.size()) != input.num_pops())
    // nwlb-lint: allow(no-throw-hot-path) -- construction, not replay.
    throw std::invalid_argument("ReplaySimulator: one config per PoP required");

  const auto processing = static_cast<std::size_t>(input.num_processing_nodes());
  mirror_target_.assign(processing, 0);
  mark_mirror_targets(bundle.configs);
  health_.assign(processing, shim::MirrorHealth{});
  mirror_down_.assign(processing, 0);
  window_mirror_sent_.assign(processing, 0);
  window_mirror_lost_.assign(processing, 0);
  window_class_sessions_.assign(input.classes.size(), 0);
  window_class_bytes_.assign(input.classes.size(), 0);
  pop_stats_.resize(static_cast<std::size_t>(input.num_pops()));

  // Bootstrap generation: owns every session until the first rollout.
  Generation boot;
  boot.generation = bundle.generation;
  boot.first_session = 0;
  boot.shims.reserve(bundle.configs.size());
  for (int j = 0; j < input.num_pops(); ++j) {
    boot.shims.emplace_back(j);
    // nwlb-lint: allow(raw-shim-install)
    boot.shims.back().install(bundle.configs[static_cast<std::size_t>(j)],
                              bundle.generation);
  }
  generations_.push_back(std::move(boot));

  // Cold path: constructor-time setup, runs once per simulator.
  // nwlb-analyze: allow(hot-path-purity)
  engine_ = std::make_shared<const nids::SignatureEngine>(
      nids::SignatureEngine::default_rules());
  workers_ = options.num_workers == 0 ? std::min(8, nwlb::util::usable_cpus(4))
                                      : options.num_workers;
  totals_.node_work.assign(processing, 0.0);
  totals_.node_packets.assign(processing, 0);
  totals_.link_replicated_bytes.assign(input.link_capacity.size(), 0.0);
}

void ReplaySimulator::install_bundle(const shim::ConfigBundle& bundle) {
  install_bundle(bundle, next_index_);
}

void ReplaySimulator::install_bundle(const shim::ConfigBundle& bundle,
                                     std::uint64_t activate_at) {
  // Installs happen between replay windows, on the control thread.
  const nwlb::util::RoleGuard reconcile(reconcile_);
  if (static_cast<int>(bundle.configs.size()) != input_->num_pops())
    // nwlb-lint: allow(no-throw-hot-path) -- control-plane entry point.
    throw std::invalid_argument("ReplaySimulator: one config per PoP required");
  if (activate_at < next_index_)
    // nwlb-lint: allow(no-throw-hot-path) -- control-plane entry point.
    throw std::invalid_argument(
        "ReplaySimulator: rollout cannot activate before the session cursor");
  for (const Generation& g : generations_)
    if (bundle.generation <= g.generation)
      // nwlb-lint: allow(no-throw-hot-path) -- control-plane entry point.
      throw std::invalid_argument(
          "ReplaySimulator: bundle generation must exceed every installed one");
  mark_mirror_targets(bundle.configs);  // The last check: throws or marks.

  // A staged-but-not-yet-activated generation that this bundle supersedes
  // (its activation point is at or past ours) would never serve a session:
  // drop it outright.  Anything still serving sessions stays — that is the
  // make-before-break coexistence window; it drains naturally.
  while (generations_.size() > 1 &&
         generations_.back().first_session >= std::max(activate_at, next_index_) &&
         generations_.back().first_session >= next_index_) {
    generations_.pop_back();
  }

  // New generation's shims start as copies of the newest installed ones, so
  // an unchanged per-PoP config skips the flat-table recompile (the
  // equality check in Shim::install) — a rollout that moves 3% of the hash
  // space recompiles only the PoPs it touches.
  Generation next;
  next.generation = bundle.generation;
  next.first_session = activate_at;
  next.shims = generations_.back().shims;
  for (std::size_t j = 0; j < bundle.configs.size(); ++j)
    // nwlb-lint: allow(raw-shim-install)
    next.shims[j].install(bundle.configs[j], bundle.generation);
  generations_.push_back(std::move(next));
  ++rollout_.rollouts_installed;
  retire_drained_generations();
}

void ReplaySimulator::mark_mirror_targets(const std::vector<shim::ShimConfig>& configs) {
  // Sticky across installs: a degraded reconfiguration that stops using a
  // mirror must not stop probing it — the persistent tunnel's keepalive is
  // exactly how the control plane observes the mirror recovering.  Marked
  // on a copy: a mirror outside the processing nodes (which the shards
  // would index their node, sender and health tables with) rejects the
  // whole bundle with no mark changed.
  std::vector<char> targets = mirror_target_;
  for (std::size_t pop = 0; pop < configs.size(); ++pop)
    configs[pop].for_each_table([&](int class_id, nids::Direction,
                                    const shim::RangeTable& table) {
      for (const shim::HashRange& range : table.ranges()) {
        if (range.action.kind != shim::Action::Kind::kReplicate) continue;
        const int mirror = range.action.mirror;
        if (mirror < 0 || static_cast<std::size_t>(mirror) >= targets.size())
          // nwlb-lint: allow(no-throw-hot-path) -- control-plane entry point.
          throw std::invalid_argument(
              "ReplaySimulator: PoP " + std::to_string(pop) + " class " +
              std::to_string(class_id) + " replicates to mirror " +
              std::to_string(mirror) + ", outside the " +
              std::to_string(targets.size()) + " processing nodes");
        targets[static_cast<std::size_t>(mirror)] = 1;
      }
    });
  mirror_target_ = std::move(targets);
}

std::size_t ReplaySimulator::generation_slot(std::uint64_t session_index) const {
  // Generations are ascending in first_session; a session belongs to the
  // newest one whose activation point it has reached.  Pure function of the
  // global index over state frozen for the whole replay() call, so the
  // mapping is identical for any sharding.
  for (std::size_t s = generations_.size(); s-- > 0;)
    if (generations_[s].first_session <= session_index) return s;
  return generations_.size();  // Unreachable: slot 0 activates at 0.
}

void ReplaySimulator::replay_direction(Shard& shard, const std::vector<shim::Shim>& shims,
                                       const SessionSpec& session,
                                       std::uint64_t session_index,
                                       bool fail_open_admitted,
                                       const TraceGenerator& generator,
                                       nids::Direction direction, int packets,
                                       nwlb::util::Rng& loss_rng) const {
  if (packets <= 0) return;
  const auto& cls = input_->classes[static_cast<std::size_t>(session.class_index)];
  const topo::Path& path =
      direction == nids::Direction::kForward ? cls.fwd_path : cls.rev_path;
  ReplayStats& tally = shard.tally;
  tally.packets_replayed += static_cast<std::uint64_t>(packets);
  const FailureSchedule* failures = options_.failures;

  // Every packet of one session direction carries the same 5-tuple, so
  // one canonical-tuple hash — and therefore one table probe per on-path
  // shim — decides the whole run; decide_hashed_repeat turns the rest into
  // arithmetic on the decision counters (all replay shims use the default
  // hash seed).
  const nids::FiveTuple tuple =
      direction == nids::Direction::kForward ? session.tuple : session.tuple.reversed();
  const std::uint32_t hash = shim::hash_tuple(tuple);
  shard.action_buf.resize(path.size());
  bool any_action = false;
  for (std::size_t p = 0; p < path.size(); ++p) {
    const auto j = static_cast<std::size_t>(path[p]);
    shim::Action action = shim::Action::ignore();
    if (failures && failures->node_crashed(path[p], session_index)) {
      // Crashed node: the shim makes no decisions and the engine does no
      // work — this direction's packets pass it un-inspected.
      tally.crash_skipped_packets += static_cast<std::uint64_t>(packets);
    } else {
      action = shims[j].decide_hashed_repeat(session.class_index, direction, hash,
                                             static_cast<std::uint64_t>(packets),
                                             shard.shim_stats[j]);
    }
    shard.action_buf[p] = action;
    any_action = any_action || action.kind != shim::Action::Kind::kIgnore;
    // Record which node this decision can deliver packets to — exactly the
    // process() sites below — so the end-of-session coverage check knows
    // where to look.
    if (action.kind == shim::Action::Kind::kProcess) {
      shard.touch_node(j);
    } else if (action.kind == shim::Action::Kind::kReplicate) {
      const auto m = static_cast<std::size_t>(action.mirror);
      if (mirror_down_[m] != 0) {
        if (options_.degrade == DegradePolicy::kFailOpen && fail_open_admitted)
          shard.touch_node(j);
      } else {
        shard.touch_node(m);
      }
    }
  }
  // Fast path: when every on-path node ignores this session direction, the
  // payloads influence nothing — skip materializing them.
  if (!any_action) return;

  for (int k = 0; k < packets; ++k) {
    const nids::PacketView packet =
        generator.packet_into(session, k, direction, shard.payload_buf);
    for (std::size_t p = 0; p < path.size(); ++p) {
      const topo::NodeId j = path[p];
      const shim::Action action = shard.action_buf[p];
      switch (action.kind) {
        case shim::Action::Kind::kProcess:
          tally.signature_matches += shard.nodes[static_cast<std::size_t>(j)].process(packet);
          break;
        case shim::Action::Kind::kReplicate: {
          const int mirror = action.mirror;
          // Degraded operation: the health monitor flagged this mirror down
          // in an earlier reconcile window, so the shim stops tunneling to
          // it.  Fail-open absorbs admitted sessions locally (up to the
          // headroom cap); otherwise the range goes dark.
          if (mirror_down_[static_cast<std::size_t>(mirror)] != 0) {
            if (options_.degrade == DegradePolicy::kFailOpen && fail_open_admitted) {
              tally.signature_matches +=
                  shard.nodes[static_cast<std::size_t>(j)].process(packet);
              ++tally.fail_open_packets;
            } else {
              ++tally.degraded_skipped_packets;
            }
            break;
          }
          // Distinguishes every frame of a session for partial-severity
          // failure draws (direction bit | path position | packet index).
          const std::uint64_t frame_tag =
              (direction == nids::Direction::kReverse ? 1ULL << 63 : 0ULL) |
              (static_cast<std::uint64_t>(p) << 32) | static_cast<std::uint64_t>(k);
          // Real tunnel framing into the shard's frame scratch: the frame is
          // stamped even if it is lost in transit (sequence numbers advance,
          // which is what makes the loss detectable).
          const std::size_t frame_bytes =
              shard.sender_for(static_cast<std::size_t>(j), static_cast<std::size_t>(mirror))
                  .encapsulate_into(packet, shard.frame_buf);
          ++tally.tunnel_frames_sent;
          const auto bytes = static_cast<double>(frame_bytes);
          shard.shim_stats[static_cast<std::size_t>(j)].count_replicated(mirror,
                                                                         frame_bytes);
          const topo::NodeId target_pop = input_->attach_pop_of(mirror);
          bool link_eaten = false;
          if (target_pop != j) {
            for (topo::LinkId l : input_->routing->links_on_path(j, target_pop)) {
              if (link_eaten) break;  // Dropped upstream: never reaches l.
              tally.link_replicated_bytes[static_cast<std::size_t>(l)] += bytes;
              if (failures) {
                if (const FailureEvent* e =
                        failures->link_down_at(static_cast<int>(l), session_index);
                    e && FailureSchedule::drops_frame(*e, options_.seed, session.id,
                                                      frame_tag))
                  link_eaten = true;
              }
            }
          }
          if (options_.replication_loss > 0.0 &&
              loss_rng.bernoulli(options_.replication_loss)) {
            ++tally.tunnel_frames_dropped;
            break;  // Frame lost: the mirror never sees this packet.
          }
          if (link_eaten) {
            ++tally.tunnel_frames_blackholed;
            break;
          }
          if (failures) {
            // A crashed mirror eats frames outright; a blackholed one eats
            // the event's severity fraction via stateless per-frame draws.
            if (failures->node_crashed(mirror, session_index)) {
              ++tally.tunnel_frames_blackholed;
              break;
            }
            if (const FailureEvent* bh = failures->blackhole_at(mirror, session_index);
                bh && FailureSchedule::drops_frame(*bh, options_.seed, session.id,
                                                   frame_tag)) {
              ++tally.tunnel_frames_blackholed;
              break;
            }
          }
          // Delivered: the mirror decapsulates and processes it inline.
          if (auto delivered = shard.receivers[static_cast<std::size_t>(mirror)]
                                   .try_decapsulate_view(std::span<const std::byte>(
                                       shard.frame_buf.data(), frame_bytes)))
            tally.signature_matches +=
                shard.nodes[static_cast<std::size_t>(mirror)].process(*delivered);
          break;
        }
        case shim::Action::Kind::kIgnore:
          break;
      }
    }
  }
}

void ReplaySimulator::replay_session(Shard& shard, const SessionSpec& session,
                                     std::uint64_t session_index,
                                     const TraceGenerator& generator) const {
  ++shard.tally.sessions_replayed;
  // Sticky generation tag: the newest generation whose activation point
  // this session has reached decides every one of its packets, in both
  // directions — exactly one generation processes each session.
  const std::size_t slot = generation_slot(session_index);
  if (slot >= generations_.size()) {
    ++shard.unassigned;  // Defensive: cannot happen (slot 0 activates at 0).
    return;
  }
  ++shard.gen_sessions[slot];
  const std::vector<shim::Shim>& shims = generations_[slot].shims;

  // Ingress observation counters for the traffic estimator: sessions and
  // payload bytes per class, attributed whether or not any shim acts.
  const auto ci = static_cast<std::size_t>(session.class_index);
  ++shard.class_sessions[ci];
  shard.class_bytes[ci] +=
      static_cast<std::uint64_t>(session.payload_bytes) *
      static_cast<std::uint64_t>(std::max(session.fwd_packets, 0) +
                                 std::max(session.rev_packets, 0));

  // The loss stream is derived from the session id, not drawn from a
  // shared sequence, so drop decisions are identical for any sharding.
  nwlb::util::Rng loss_rng(nwlb::util::derive_seed(options_.seed, session.id));
  // Fail-open admission is one stateless per-session draw: the expected
  // fraction of degraded sessions absorbed locally equals the headroom cap,
  // independent of replay order.
  bool fail_open_admitted = false;
  if (options_.degrade == DegradePolicy::kFailOpen) {
    std::uint64_t s = nwlb::util::derive_seed(
        nwlb::util::derive_seed(options_.seed, 0xADB17ULL), session.id);
    const double u =
        static_cast<double>(nwlb::util::splitmix64(s) >> 11) * 0x1.0p-53;
    fail_open_admitted = u < options_.fail_open_headroom;
  }
  std::fill(shard.touched_nodes.begin(), shard.touched_nodes.end(), 0);
  replay_direction(shard, shims, session, session_index, fail_open_admitted, generator,
                   nids::Direction::kForward, session.fwd_packets, loss_rng);
  replay_direction(shard, shims, session, session_index, fail_open_admitted, generator,
                   nids::Direction::kReverse, session.rev_packets, loss_rng);
  // Stateful-coverage verdict, taken while this session's tracker entries
  // are still cache-hot.  A node outside the touched set cannot have
  // observed the session, so probing only touched nodes is exact.
  if (session.fwd_packets > 0 && session.rev_packets > 0) {
    bool covered = false;
    for (std::size_t w = 0; w < shard.touched_nodes.size() && !covered; ++w) {
      for (std::uint64_t bits = shard.touched_nodes[w]; bits != 0; bits &= bits - 1) {
        const std::size_t j = w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
        if (shard.nodes[j].session_tracker().is_covered(session.id)) {
          covered = true;
          break;
        }
      }
    }
    (covered ? shard.tally.stateful_covered : shard.tally.stateful_missed) += 1;
  }
}

void ReplaySimulator::merge(Shard& shard) {
  for (std::size_t id = 0; id < shard.nodes.size(); ++id) {
    totals_.node_work[id] += shard.nodes[id].work_units();
    totals_.node_packets[id] += shard.nodes[id].packets_processed();
  }
  // A session's packets are all replayed by its own shard, so the coverage
  // verdicts in its tally were final at end of session (see replay_session).
  add_counts(totals_, shard.tally);

  // Rollout drain accounting: a session that rode any generation other
  // than the newest installed one was in a make-before-break drain window.
  rollout_.sessions_unassigned += shard.unassigned;
  for (std::size_t s = 0; s < shard.gen_sessions.size(); ++s) {
    if (s + 1 == shard.gen_sessions.size())
      rollout_.sessions_current_generation += shard.gen_sessions[s];
    else
      rollout_.sessions_draining_generation += shard.gen_sessions[s];
  }
  for (std::size_t c = 0; c < shard.class_sessions.size(); ++c) {
    window_class_sessions_[c] += shard.class_sessions[c];
    window_class_bytes_[c] += shard.class_bytes[c];
  }

  // Tunnel epoch flush: senders report their final sequence counts so
  // trailing drops are detected no matter where the shard boundary fell.
  // The per-mirror (sent, lost) totals also feed this window's health
  // observations.
  for (std::size_t idx = 0; idx < shard.senders.size(); ++idx) {
    if (!shard.senders[idx]) continue;
    const shim::TunnelSender& sender = *shard.senders[idx];
    const std::size_t local = idx / shard.stride;
    const std::size_t mirror = idx % shard.stride;
    shard.receivers[mirror].reconcile(static_cast<std::uint32_t>(local),
                                      sender.packets_sent());
    window_mirror_sent_[mirror] += sender.packets_sent();
  }
  for (std::size_t m = 0; m < shard.receivers.size(); ++m) {
    totals_.tunnel_frames_detected_lost += shard.receivers[m].packets_lost();
    window_mirror_lost_[m] += shard.receivers[m].packets_lost();
    totals_.tunnel_frames_malformed += shard.receivers[m].frames_malformed();
  }

  // Decision counters are owned per PoP by the simulator — configuration
  // generations come and go during rollouts, the counters persist.
  for (std::size_t j = 0; j < shard.shim_stats.size(); ++j)
    pop_stats_[j].merge(shard.shim_stats[j]);
}

void ReplaySimulator::update_health(std::uint64_t window_last_index) {
  const FailureSchedule* failures = options_.failures;
  for (std::size_t m = 0; m < health_.size(); ++m) {
    // Only mirror targets maintain a keepalive stream; a node no config
    // replicates to (and that saw no frames) has nothing to observe.
    if (mirror_target_[m] == 0 && window_mirror_sent_[m] == 0) continue;
    bool keepalive_ok = true;
    if (failures) {
      const int node = static_cast<int>(m);
      keepalive_ok = !failures->node_crashed(node, window_last_index) &&
                     failures->blackhole_at(node, window_last_index) == nullptr;
    }
    health_[m].observe_window(window_mirror_sent_[m], window_mirror_lost_[m],
                              keepalive_ok);
    mirror_down_[m] = health_[m].down() ? 1 : 0;
  }
}

void ReplaySimulator::retire_drained_generations() {
  // Once the session cursor has reached a generation's successor's
  // activation point, no future session can map to it: its drain window is
  // over and it is dropped (its decision counters already live in
  // pop_stats_, so nothing is lost).
  while (generations_.size() > 1 && generations_[1].first_session <= next_index_) {
    generations_.erase(generations_.begin());
    ++rollout_.generations_retired;
  }
}

void ReplaySimulator::replay(std::span<const SessionSpec> sessions,
                             const TraceGenerator& generator) {
  // The reconcile role spans the whole call: the window scratch is zeroed
  // before the shards launch and the merged accumulators are only written
  // after the team joins — shard code never touches guarded state (it
  // works on its own Shard), which -Wthread-safety proves.
  const nwlb::util::RoleGuard reconcile(reconcile_);
  const std::size_t total = sessions.size();
  // Window pre-scan, before any state changes or shard starts: reject a
  // session the shards would index or size buffers with out of bounds, and
  // find the largest payload, which sizes every shard's packet and frame
  // scratch.
  std::size_t max_payload = 0;
  for (std::size_t s = 0; s < total; ++s) {
    const SessionSpec& session = sessions[s];
    if (session.class_index < 0 ||
        static_cast<std::size_t>(session.class_index) >= input_->classes.size())
      // nwlb-lint: allow(no-throw-hot-path) -- window pre-scan, no shard running.
      throw std::invalid_argument(
          "ReplaySimulator::replay: session at position " + std::to_string(s) +
          " has class_index " + std::to_string(session.class_index) +
          " outside [0, " + std::to_string(input_->classes.size()) + ")");
    if (session.payload_bytes < 0)
      // nwlb-lint: allow(no-throw-hot-path) -- window pre-scan, no shard running.
      throw std::invalid_argument("ReplaySimulator::replay: session at position " +
                                  std::to_string(s) + " has negative payload_bytes " +
                                  std::to_string(session.payload_bytes));
    max_payload = std::max(max_payload, static_cast<std::size_t>(session.payload_bytes));
  }
  const std::uint64_t base_index = next_index_;
  std::fill(window_mirror_sent_.begin(), window_mirror_sent_.end(), 0);
  std::fill(window_mirror_lost_.begin(), window_mirror_lost_.end(), 0);
  std::fill(window_class_sessions_.begin(), window_class_sessions_.end(), 0);
  std::fill(window_class_bytes_.begin(), window_class_bytes_.end(), 0);
  const std::size_t shard_count =
      std::max<std::size_t>(1, std::min<std::size_t>(static_cast<std::size_t>(workers_),
                                                     std::max<std::size_t>(total, 1)));
  const std::size_t expected_sessions = total / shard_count + 1;
  std::vector<Shard> shards;
  shards.reserve(shard_count);
  for (std::size_t w = 0; w < shard_count; ++w)
    shards.emplace_back(*input_, engine_, generations_.size(), max_payload,
                        expected_sessions);

  auto run_shard = [&](std::size_t w) {
    const std::size_t begin = total * w / shard_count;
    const std::size_t end = total * (w + 1) / shard_count;
    for (std::size_t s = begin; s < end; ++s)
      replay_session(shards[w], sessions[s], base_index + s, generator);
  };
  if (shard_count == 1) {
    run_shard(0);
  } else {
    // A team for this call only: its helpers spin between regions, so one
    // kept across windows would hold cores through the control plane's
    // solve.  The destructor joins them before the merge.
    nwlb::util::ForkJoinTeam team(static_cast<int>(shard_count));
    team.run([&run_shard](int block) { run_shard(static_cast<std::size_t>(block)); });
  }

  // Deterministic merge: shard index order, every accumulated double is an
  // integer-valued quantity, so the result is byte-identical to serial.
  for (Shard& shard : shards) merge(shard);
  next_index_ += total;
  // One replay call = one reconcile window: verdicts computed here steer
  // the degradation policy from the next call on (the snapshot the shards
  // read is frozen for the duration of a call — sharding-safe).
  if (total > 0) update_health(base_index + total - 1);
  retire_drained_generations();
}

const shim::Shim& ReplaySimulator::shim(int pop) const {
  const Generation& g = generations_[generation_slot(next_index_)];
  return g.shims.at(static_cast<std::size_t>(pop));
}

std::uint64_t ReplaySimulator::active_generation() const {
  return generations_[generation_slot(next_index_)].generation;
}

ReplayStats ReplaySimulator::stats() const {
  reconcile_.assert_held();  // Readers run between replay windows.
  ReplayStats s = totals_;
  for (const shim::ShimStats& stats : pop_stats_) {
    s.decisions_process += stats.decided_process;
    s.decisions_replicate += stats.decided_replicate;
    s.decisions_ignore += stats.decided_ignore;
  }
  for (const shim::MirrorHealth& h : health_)
    s.mirror_flaps += static_cast<std::uint64_t>(h.transitions());
  return s;
}

RolloutStats ReplaySimulator::rollout_stats() const {
  reconcile_.assert_held();  // Readers run between replay windows.
  RolloutStats r = rollout_;
  r.active_generation = active_generation();
  for (const Generation& g : generations_)
    if (g.first_session > next_index_) ++r.staged_generations;
  return r;
}

void ReplaySimulator::export_metrics(obs::Registry& registry) const {
  reconcile_.assert_held();  // Exports run between replay windows.
  const ReplayStats s = stats();
  const RolloutStats r = rollout_stats();
  const auto counter = [&registry](const char* name, std::uint64_t value,
                                   const char* help) {
    registry.counter(name, {}, help).inc(value);
  };
  counter("nwlb_replay_sessions_total", s.sessions_replayed, "Sessions replayed");
  counter("nwlb_replay_packets_total", s.packets_replayed,
          "Packets walked along their paths");
  counter("nwlb_replay_signature_matches_total", s.signature_matches,
          "Signature-engine matches across every node");
  counter("nwlb_replay_crash_skipped_packets_total", s.crash_skipped_packets,
          "Per-node decisions skipped because the shim's node was crashed");
  counter("nwlb_replay_fail_open_packets_total", s.fail_open_packets,
          "Packets absorbed locally under the fail-open degrade policy");
  counter("nwlb_replay_degraded_skipped_packets_total", s.degraded_skipped_packets,
          "Packets whose hash range went dark (fail-closed or over headroom)");
  counter("nwlb_replay_sessions_covered_total", s.stateful_covered,
          "Bidirectional sessions with both directions seen by one engine");
  counter("nwlb_replay_sessions_missed_total", s.stateful_missed,
          "Bidirectional sessions no engine saw both directions of");
  counter("nwlb_tunnel_frames_sent_total", s.tunnel_frames_sent,
          "Frames encapsulated toward a mirror");
  counter("nwlb_tunnel_frames_dropped_total", s.tunnel_frames_dropped,
          "Frames lost to injected congestion drops");
  counter("nwlb_tunnel_frames_blackholed_total", s.tunnel_frames_blackholed,
          "Frames eaten by crash/blackhole/link failure events");
  counter("nwlb_tunnel_frames_detected_lost_total", s.tunnel_frames_detected_lost,
          "Receiver-side sequence-gap detections");
  counter("nwlb_tunnel_frames_malformed_total", s.tunnel_frames_malformed,
          "Frames rejected by tunnel framing validation");
  counter("nwlb_mirror_flaps_total", s.mirror_flaps,
          "Mirror health up/down verdict transitions");

  // Rollout lifecycle: how sessions rode configuration generations.
  counter("nwlb_rollout_installs_total", r.rollouts_installed,
          "Configuration bundles installed after bootstrap");
  counter("nwlb_rollout_generations_retired_total", r.generations_retired,
          "Generations fully drained and dropped");
  counter("nwlb_rollout_sessions_draining_total", r.sessions_draining_generation,
          "Sessions that rode a superseded generation during its drain window");
  counter("nwlb_rollout_sessions_unassigned_total", r.sessions_unassigned,
          "Sessions no generation claimed (must stay 0)");
  registry
      .gauge("nwlb_rollout_active_generation", {},
             "Generation tag new sessions currently ride")
      .set(static_cast<double>(r.active_generation));

  static const char* kDecisionsHelp = "Shim decisions by verdict";
  registry.counter("nwlb_shim_decisions_total", {{"verdict", "process"}}, kDecisionsHelp)
      .inc(s.decisions_process);
  registry.counter("nwlb_shim_decisions_total", {{"verdict", "replicate"}}, kDecisionsHelp)
      .inc(s.decisions_replicate);
  registry.counter("nwlb_shim_decisions_total", {{"verdict", "ignore"}}, kDecisionsHelp)
      .inc(s.decisions_ignore);

  // Per-mirror tunnel bytes, summed over every sending shim.  Only mirrors
  // that received bytes get a series (totals are merge-deterministic, so
  // the emitted set is identical for any worker count).
  std::vector<std::uint64_t> per_mirror;
  for (const shim::ShimStats& stats : pop_stats_) {
    const std::vector<std::uint64_t>& bytes = stats.replicated_bytes;
    if (bytes.size() > per_mirror.size()) per_mirror.resize(bytes.size(), 0);
    for (std::size_t m = 0; m < bytes.size(); ++m) per_mirror[m] += bytes[m];
  }
  for (std::size_t m = 0; m < per_mirror.size(); ++m)
    if (per_mirror[m] > 0)
      registry
          .counter("nwlb_shim_replicated_bytes_total",
                   {{"mirror", std::to_string(m)}},
                   "Tunnel payload bytes pushed toward each mirror node")
          .inc(per_mirror[m]);

  registry
      .gauge("nwlb_mirrors_down", {},
             "Processing nodes currently flagged down by mirror health")
      .set(static_cast<double>(down_mirrors().size()));
  registry
      .gauge("nwlb_replay_miss_rate", {},
             "Fraction of bidirectional sessions without stateful coverage")
      .set(s.miss_rate());

  for (std::size_t id = 0; id < s.node_work.size(); ++id) {
    const obs::Labels labels = {{"node", std::to_string(id)}};
    registry
        .gauge("nwlb_replay_node_work_units", labels,
               "Cumulative engine work units per processing node")
        .set(s.node_work[id]);
    registry
        .counter("nwlb_replay_node_packets_total", labels,
                 "Packets processed per node (local + tunneled)")
        .inc(s.node_packets[id]);
  }
}

std::vector<int> ReplaySimulator::down_mirrors() const {
  std::vector<int> down;
  for (std::size_t m = 0; m < mirror_down_.size(); ++m)
    if (mirror_down_[m] != 0) down.push_back(static_cast<int>(m));
  return down;
}

}  // namespace nwlb::sim
