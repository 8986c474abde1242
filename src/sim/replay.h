// Trace replay through shims and live NIDS engines.
//
// This is the "live emulation" substitute for the paper's Emulab run
// (Fig. 10): every PoP runs a Shim plus an off-the-shelf NidsNode; the
// datacenter (when present) runs a NidsNode fed purely by replication
// tunnels.  Sessions are walked along their forward and reverse paths;
// each on-path shim decides process/replicate/ignore per §7.2, and the
// engines do real per-byte work, so per-node work units are an honest
// CPU-instruction proxy.
//
// Parallel replay: each replay() call splits its sessions into contiguous
// shards and runs them as the blocks of a util::ForkJoinTeam that lives for
// that call only, so no thread outlives it.  Every shard owns its complete
// mutable state (NIDS engine instances, tunnel endpoints, a ReplayStats
// tally, shim stats) while the shims themselves are only read; shards are
// merged in index order after the team joins.  Because
// the per-session loss RNG is derived from the session id, every per-frame
// decision is independent of which shard replays the session, and every
// accumulated quantity is either an integer counter or an integer-valued
// double (the cost model charges integral work units), so floating-point
// merges are exact — ReplayStats is byte-identical for any worker count.
//
// One data-plane path (§7.2): per session direction, one hash and one
// table probe per on-path shim decide the whole run; then per packet the
// shard builds the payload into one reusable buffer, processes it locally,
// or stamps a tunnel frame into one reusable frame buffer that the mirror
// decapsulates and processes inline.  Both buffers are sized once per
// replay() call from the window's largest payload, so no packet or frame
// allocates, and shards share no atomics until the end-of-window merge.
//
// Failure injection: a FailureSchedule times node crashes, mirror
// blackholes, and link outages in global-session-index space, so the set
// of failures a session observes is a pure function of its position in
// the stream — shard-invariant by construction.  Mirror health is updated
// only *between* replay() calls (one call = one reconcile window), so the
// degradation policy the shards consult is frozen for the duration of a
// call and serial/parallel equivalence holds under any schedule.
//
// Hitless rollout (DESIGN.md §10): configuration is installed as a
// generation-tagged shim::ConfigBundle.  install_bundle() stages the new
// generation make-before-break — the old and new generations' shims
// coexist, and every session carries a sticky generation tag (a pure
// function of its global index and the staged activation point), so
// exactly one generation decides it: a mid-replay swap never drops or
// double-processes a session, and the sharded replay stays byte-identical
// to serial.  A superseded generation is retired once the session cursor
// passes its successor's activation index (the drain is complete).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/problem.h"
#include "nids/node.h"
#include "nids/signature.h"
#include "shim/bundle.h"
#include "shim/config.h"
#include "shim/health.h"
#include "shim/shim.h"
#include "sim/failure.h"
#include "sim/trace.h"
#include "util/mutex.h"
#include "util/rng.h"
#include "util/thread_annotations.h"

namespace nwlb::obs {
class Registry;
}

namespace nwlb::sim {

/// What a shim does with traffic it would replicate to a mirror that the
/// health monitor has flagged down (§7.2 degraded operation).
enum class DegradePolicy {
  kFailClosed,  // Ignore: the hash range goes dark, counted as missed coverage.
  kFailOpen,    // Process locally, admitting sessions up to a headroom cap.
};

/// Failure-injection and execution knobs for the emulation.
struct ReplayOptions {
  /// Probability that a replicated (tunneled) frame is lost in transit —
  /// models congestion drops on the mirror path.  Local processing is
  /// unaffected; only offloaded work degrades.  Drops are decided by a
  /// per-session RNG stream derived from (seed, session id), so results do
  /// not depend on replay order or sharding.
  double replication_loss = 0.0;
  std::uint64_t seed = 0x10ad;

  /// Session shards replayed concurrently.  1 = serial (default);
  /// 0 = one per usable CPU, at most 8; at most kMaxWorkers, since each
  /// replay() starts a spinning thread per worker beyond the first.  Any
  /// value produces the same ReplayStats, byte for byte.
  static constexpr int kMaxWorkers = 64;
  int num_workers = 1;

  /// Timed crash/blackhole/link events; must outlive the simulator.
  /// Null = no injected failures.
  const FailureSchedule* failures = nullptr;

  /// Behaviour toward health-flagged mirrors.
  DegradePolicy degrade = DegradePolicy::kFailClosed;
  /// Fail-open headroom: the fraction of sessions bound for a down mirror
  /// that the shim absorbs locally (per-session stateless admission draw),
  /// modelling a cap on emergency local processing.
  double fail_open_headroom = 0.5;
};

struct ReplayStats {
  std::vector<double> node_work;          // Work units per processing node.
  std::vector<std::uint64_t> node_packets;
  std::vector<double> link_replicated_bytes;  // Per directed link.

  std::uint64_t sessions_replayed = 0;
  std::uint64_t packets_replayed = 0;
  std::uint64_t tunnel_frames_sent = 0;
  std::uint64_t tunnel_frames_dropped = 0;   // Injected congestion losses.
  std::uint64_t tunnel_frames_blackholed = 0;  // Eaten by failure events.
  std::uint64_t tunnel_frames_detected_lost = 0;  // Receiver-side gap count.
  std::uint64_t tunnel_frames_malformed = 0;      // Rejected framing.

  // Failure-path accounting.
  std::uint64_t crash_skipped_packets = 0;  // Decisions dropped: shim down.
  std::uint64_t fail_open_packets = 0;      // Absorbed locally (fail-open).
  std::uint64_t degraded_skipped_packets = 0;  // Dark ranges (fail-closed /
                                               // over fail-open headroom).

  // Stateful (both-directions) coverage, network-wide: a session counts as
  // covered when at least one engine instance saw both of its directions.
  std::uint64_t stateful_covered = 0;
  std::uint64_t stateful_missed = 0;

  std::uint64_t signature_matches = 0;

  // Shim decisions by verdict, summed over every PoP (crash-skipped
  // packets never reach a shim and appear in crash_skipped_packets only).
  std::uint64_t decisions_process = 0;
  std::uint64_t decisions_replicate = 0;
  std::uint64_t decisions_ignore = 0;

  /// Up/down verdict transitions across every mirror health monitor.
  std::uint64_t mirror_flaps = 0;

  // Every ratio accessor is guarded against a zero denominator (an empty
  // trace reports 0, never NaN).
  double miss_rate() const {
    return ratio(stateful_missed, stateful_covered + stateful_missed);
  }
  double coverage() const {
    return ratio(stateful_covered, stateful_covered + stateful_missed);
  }
  double tunnel_drop_rate() const {
    return ratio(tunnel_frames_dropped + tunnel_frames_blackholed, tunnel_frames_sent);
  }
  double detected_loss_rate() const {
    return ratio(tunnel_frames_detected_lost, tunnel_frames_sent);
  }

  /// Work normalized by the most loaded node's work (shape comparisons).
  std::vector<double> normalized_work() const;

 private:
  static double ratio(std::uint64_t num, std::uint64_t den) {
    return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
  }
};

/// Rollout accounting: how configuration generations moved through the
/// data plane.  Every session maps to exactly one generation, so
/// sessions_current + sessions_draining == sessions_replayed and
/// sessions_unassigned stays 0 — the bench asserts both.
struct RolloutStats {
  std::uint64_t active_generation = 0;   // Generation new sessions ride now.
  std::uint64_t staged_generations = 0;  // Installed but not yet activated.
  std::uint64_t rollouts_installed = 0;  // install_bundle() calls accepted.
  std::uint64_t generations_retired = 0; // Fully drained and dropped.
  std::uint64_t sessions_current_generation = 0;
  std::uint64_t sessions_draining_generation = 0;  // Rode a superseded
                                                   // generation (drain window).
  std::uint64_t sessions_unassigned = 0;  // Defensive; must stay 0.
};

class ReplaySimulator {
 public:
  /// `input` supplies topology/paths/datacenter; `bundle` is the bootstrap
  /// configuration (generation-tagged, one ShimConfig per PoP, typically
  /// from a Controller epoch).  `input` must outlive the simulator.
  /// Replicated packets travel through real tunnel framing (encapsulate ->
  /// optional injected loss -> decapsulate).
  ReplaySimulator(const core::ProblemInput& input, const shim::ConfigBundle& bundle,
                  ReplayOptions options = {});

  /// Installs a fresh bundle, activating it for the next replayed session
  /// — the path a controller uses to push a patched or re-optimized
  /// configuration between control windows.  Stats, health state, and the
  /// global session index all persist across the swap.
  void install_bundle(const shim::ConfigBundle& bundle);

  /// Make-before-break install: the bundle activates when the global
  /// session cursor reaches `activate_at` (>= next_session_index(), or
  /// std::invalid_argument).  Until then both generations coexist and
  /// in-flight sessions keep their sticky generation; `bundle.generation`
  /// must exceed every installed generation's.  Both overloads, like the
  /// constructor, throw std::invalid_argument before changing any state
  /// when a config replicates to a mirror outside the processing nodes.
  void install_bundle(const shim::ConfigBundle& bundle, std::uint64_t activate_at);

  /// Replays the sessions; cumulative across calls.
  /// Stateful coverage is evaluated per call (a session's two directions
  /// must be replayed in the same call to count as covered).  One call is
  /// also one tunnel reconcile window: mirror health verdicts update at
  /// the end of the call and apply from the next call on.  Throws
  /// std::invalid_argument, before replaying anything and with every
  /// counter and the session cursor unchanged, if a session's class_index
  /// is outside ProblemInput::classes or its payload_bytes is negative.
  void replay(std::span<const SessionSpec> sessions, const TraceGenerator& generator);

  ReplayStats stats() const;
  RolloutStats rollout_stats() const;

  /// Exports the merged cumulative totals as nwlb_replay_* / nwlb_tunnel_* /
  /// nwlb_shim_* metrics.  Counters are *added* to whatever the registry
  /// already holds, so call this once per registry (typically a fresh one at
  /// reconcile/report time).  Because it reads only deterministically merged
  /// accumulators, the exposition is byte-identical for any worker count.
  void export_metrics(obs::Registry& registry) const;

  /// Workers actually used (after resolving num_workers == 0).
  int num_workers() const { return workers_; }

  /// The shim of `pop` in the generation new sessions currently ride.
  const shim::Shim& shim(int pop) const;

  /// Generation serving the next replayed session.
  std::uint64_t active_generation() const;
  /// Installed generations currently coexisting (1 outside a drain window).
  std::size_t num_generations() const { return generations_.size(); }

  /// Sessions and payload bytes observed per traffic class during the most
  /// recent replay() call — the data-plane counters the online
  /// traffic-matrix estimator folds each control interval.  Indexed like
  /// ProblemInput::classes; deterministically merged across shards.
  const std::vector<std::uint64_t>& window_class_sessions() const {
    reconcile_.assert_held();  // Caller runs between replay windows.
    return window_class_sessions_;
  }
  const std::vector<std::uint64_t>& window_class_bytes() const {
    reconcile_.assert_held();  // Caller runs between replay windows.
    return window_class_bytes_;
  }

  /// Health verdicts as of the last completed reconcile window.
  const shim::MirrorHealth& mirror_health(int node) const {
    return health_.at(static_cast<std::size_t>(node));
  }
  bool mirror_down(int node) const {
    return mirror_down_.at(static_cast<std::size_t>(node)) != 0;
  }
  /// Processing nodes currently flagged down by their health monitors.
  std::vector<int> down_mirrors() const;

  /// Global index the next replayed session will get (failure-schedule
  /// timestamps and rollout activation points count in this space).
  std::uint64_t next_session_index() const { return next_index_; }

 private:
  struct Shard;

  /// One installed configuration generation.  Sessions with global index
  /// >= first_session (and below the next generation's) belong to it.
  struct Generation {
    std::uint64_t generation = 0;
    std::uint64_t first_session = 0;
    std::vector<shim::Shim> shims;  // One per PoP; read-only during replay.
  };

  std::size_t generation_slot(std::uint64_t session_index) const;
  void replay_session(Shard& shard, const SessionSpec& session,
                      std::uint64_t session_index, const TraceGenerator& generator) const;
  void replay_direction(Shard& shard, const std::vector<shim::Shim>& shims,
                        const SessionSpec& session, std::uint64_t session_index,
                        bool fail_open_admitted, const TraceGenerator& generator,
                        nids::Direction direction, int packets,
                        nwlb::util::Rng& loss_rng) const;
  void merge(Shard& shard) NWLB_REQUIRES(reconcile_);
  void mark_mirror_targets(const std::vector<shim::ShimConfig>& configs);
  void update_health(std::uint64_t window_last_index) NWLB_REQUIRES(reconcile_);
  void retire_drained_generations() NWLB_REQUIRES(reconcile_);

  const core::ProblemInput* input_;
  ReplayOptions options_;
  int workers_ = 1;
  std::vector<Generation> generations_;  // Ascending first_session.
  // One compiled automaton shared by every (shard, node) engine instance.
  std::shared_ptr<const nids::SignatureEngine> engine_;

  // Health state, one monitor per processing node; mirror_down_ is the
  // frozen snapshot the shards consult during a replay call.
  std::vector<shim::MirrorHealth> health_;
  std::vector<char> mirror_down_;
  std::vector<char> mirror_target_;  // Appears as a replicate target.
  std::uint64_t next_index_ = 0;     // Global session index cursor.

  // Reconcile-phase capability (compile-time only, DESIGN.md §11): the
  // merged accumulators below are touched exclusively by the caller's
  // thread while no shard is in flight — replay() merge/health sections,
  // install_bundle(), and the stats readers.  Guarding them with
  // this role makes clang's -Wthread-safety prove that discipline: shard
  // code (replay_session / replay_direction) cannot reach them.  State
  // shards *do* read during a window (generations_, mirror_down_,
  // health_, next_index_) is deliberately unguarded — it is frozen for
  // the duration of a replay call instead.
  util::ThreadRole reconcile_;

  // Per-window scratch (filled by merge, consumed by update_health).
  std::vector<std::uint64_t> window_mirror_sent_ NWLB_GUARDED_BY(reconcile_);
  std::vector<std::uint64_t> window_mirror_lost_ NWLB_GUARDED_BY(reconcile_);

  // Per-window per-class observations (the estimator's input).
  std::vector<std::uint64_t> window_class_sessions_ NWLB_GUARDED_BY(reconcile_);
  std::vector<std::uint64_t> window_class_bytes_ NWLB_GUARDED_BY(reconcile_);

  // Cumulative accumulators (merged from shards in index order).  Shim
  // decision counters are owned per PoP by the simulator — generations
  // come and go, the counters persist — and fill totals_' decisions_*
  // fields only when stats() reads them.
  std::vector<shim::ShimStats> pop_stats_ NWLB_GUARDED_BY(reconcile_);
  ReplayStats totals_ NWLB_GUARDED_BY(reconcile_);
  // The counted fields; rollout_stats() derives active_generation and
  // staged_generations from generations_.
  RolloutStats rollout_ NWLB_GUARDED_BY(reconcile_);
};

}  // namespace nwlb::sim
