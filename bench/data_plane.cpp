// Data-plane fast path benchmark: flat-table decide latency and sharded
// parallel replay throughput.
//
// Two measurements per topology, both against the LP-optimal shim
// configuration (so segment counts and class mixes are realistic):
//
//   1. ns/decide — the compiled FlatConfig lookup (dense slot index +
//      bucketed binary search) vs the installable RangeTable path (class
//      hash map + ordered-map upper_bound).  This is the per-packet cost
//      the paper's §8.1 overhead claim rests on.
//   2. packets/sec — ReplaySimulator serial (1 worker) vs sharded parallel
//      replay, verifying the two produce byte-identical ReplayStats.
//
//   3. signature engine ns/byte — the baseline node-per-state Aho–Corasick
//      vs the flat premultiplied table, single-stream and batched four,
//      three and two lanes wide; the 4-lane batch must be >= 2x baseline.
//      Replay streams a session's packets, forward then reverse, through
//      the batch: each group of four, then the one to three the session
//      ends with (three or two lanes wide; a lone packet single-stream).
//   4. replay headline — sessions/sec and payload bytes/sec of the
//      sharded replay on a probe-heavy trace (16 B payloads, one packet
//      per direction), with a worker-scaling table.  The
//      serial/parallel byte-identity check is enforced unconditionally
//      (mismatch = exit 1); NWLB_BENCH_ENFORCE=1 additionally fails the
//      run when the headline misses target_sessions_per_sec (1M) or the
//      batch signature speedup misses 2x.
//
// Output: human-readable tables, plus a JSON report (NWLB_BENCH_JSON=path)
// for CI artifacts.  Knobs: NWLB_FAST, NWLB_TOPO, NWLB_SESSIONS,
// NWLB_WORKERS (default 4), NWLB_LOOKUPS (decide samples),
// NWLB_HEADLINE_SESSIONS, NWLB_AC_REPS, NWLB_LP_BUDGET_SEC,
// NWLB_BENCH_ENFORCE.
//
// Bootstrap configs come from the controller.  Every topology in the
// sweep — the full set included — must solve to a deployable optimum
// inside the LP budget (NWLB_LP_BUDGET_SEC, default 30); an epoch that
// degrades for a solver-limit reason fails the run.
#include "bench_common.h"

#include <chrono>
#include <cstdint>
#include <optional>
#include <string_view>
#include <thread>
#include <vector>

#include "core/controller.h"
#include "core/scenario.h"
#include "nids/signature.h"
#include "shim/flat_table.h"
#include "sim/replay.h"
#include "sim/trace.h"
#include "support/signature_baseline.h"
#include "traffic/matrix.h"
#include "util/rng.h"

using namespace nwlb;

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

/// One pre-sampled decide query: which PoP's table, which class/direction,
/// and the packet hash.
struct LookupKey {
  std::uint32_t pop;
  int class_id;
  nids::Direction dir;
  std::uint32_t hash;
};

bool stats_identical(const sim::ReplayStats& a, const sim::ReplayStats& b) {
  return a.node_work == b.node_work && a.node_packets == b.node_packets &&
         a.link_replicated_bytes == b.link_replicated_bytes &&
         a.sessions_replayed == b.sessions_replayed &&
         a.packets_replayed == b.packets_replayed &&
         a.signature_matches == b.signature_matches &&
         a.tunnel_frames_sent == b.tunnel_frames_sent &&
         a.tunnel_frames_dropped == b.tunnel_frames_dropped &&
         a.tunnel_frames_detected_lost == b.tunnel_frames_detected_lost &&
         a.stateful_covered == b.stateful_covered &&
         a.stateful_missed == b.stateful_missed;
}

}  // namespace

int main() {
  const int sessions = util::env_int("NWLB_SESSIONS", util::env_flag("NWLB_FAST") ? 4000 : 12000);
  const int workers = util::env_int("NWLB_WORKERS", 4);
  const int lookups = util::env_int("NWLB_LOOKUPS", util::env_flag("NWLB_FAST") ? 2'000'000 : 8'000'000);

  bench::print_header(
      "Data-plane fast path: flat decide tables + sharded parallel replay",
      "sessions=" + std::to_string(sessions) + ", workers=" + std::to_string(workers) +
          ", decide samples=" + std::to_string(lookups) +
          ", gravity traffic, DC=10x, MaxLinkLoad=0.4");

  util::Table decide_table({"Topology", "Classes", "Segments", "TableKB", "FlatNs",
                            "MapNs", "Speedup"});
  util::Table replay_table({"Topology", "Sessions", "Packets", "SerialSec", "SerialPps",
                            "Workers", "ParallelSec", "ParallelPps", "Speedup",
                            "Identical"});
  util::Table lp_table({"Topology", "LpSolveSec", "LpIters", "Status"});
  const int lp_budget_sec = util::env_int("NWLB_LP_BUDGET_SEC", 30);
  std::uint64_t checksum = 0;  // Defeats dead-code elimination of the loops.

  // --- 0. Signature engine ns/byte: baseline nodes vs flat table vs the
  // batch at four, three and two lanes (replay hands it each group of a
  // session's packets: four, or the one to three the session ends with). ---
  util::Table ac_table({"PayloadB", "BaselineNsB", "FlatNsB", "BatchNsB", "Batch3NsB",
                        "Batch2NsB", "FlatX", "BatchX"});
  double ac_speedup = 0.0;  // Baseline time / 4-lane batch time over all bytes.
  {
    const std::vector<std::string> rules = nids::SignatureEngine::default_rules();
    const nids::SignatureEngine flat_engine(rules);
    const nids::BaselineSignatureEngine baseline_engine(rules);
    const int ac_reps =
        util::env_int("NWLB_AC_REPS", util::env_flag("NWLB_FAST") ? 80 : 250);
    util::Rng rng(0xac);
    double baseline_total_sec = 0.0, batch_total_sec = 0.0;
    for (const std::size_t payload_bytes : {64u, 160u, 256u}) {
      constexpr std::size_t kPayloads = 512;
      std::vector<std::string> payloads(kPayloads);
      std::vector<std::string_view> views(kPayloads);
      for (std::size_t i = 0; i < kPayloads; ++i) {
        payloads[i].resize(payload_bytes);
        // Benign filler matching the trace generator's alphabet.
        for (auto& ch : payloads[i]) ch = static_cast<char>('a' + rng.below(17));
        views[i] = payloads[i];
      }
      const double total_bytes =
          static_cast<double>(payload_bytes) * static_cast<double>(kPayloads) * ac_reps;

      const auto baseline_start = std::chrono::steady_clock::now();
      for (int r = 0; r < ac_reps; ++r)
        for (const std::string_view payload : views)
          checksum += baseline_engine.count_matches(payload);
      const double baseline_sec = seconds_since(baseline_start);

      const auto flat_start = std::chrono::steady_clock::now();
      for (int r = 0; r < ac_reps; ++r)
        for (const std::string_view payload : views)
          checksum += flat_engine.count_matches(payload);
      const double flat_sec = seconds_since(flat_start);

      // The batch in groups of `lanes` over as many payloads as fill whole
      // groups: ns per byte, after cross-checking every count against both
      // single-payload kernels.
      std::vector<std::size_t> counts(kPayloads);
      bool agree = true;
      const auto batch_ns_per_byte = [&](std::size_t lanes) {
        const std::size_t covered = kPayloads - kPayloads % lanes;
        const auto start = std::chrono::steady_clock::now();
        for (int r = 0; r < ac_reps; ++r) {
          for (std::size_t i = 0; i < covered; i += lanes)
            flat_engine.count_matches_batch(views.data() + i, counts.data() + i, lanes);
          checksum += counts[covered - 1];
        }
        const double seconds = seconds_since(start);
        for (std::size_t i = 0; i < covered; ++i)
          agree = agree && counts[i] == baseline_engine.count_matches(views[i]) &&
                  counts[i] == flat_engine.count_matches(views[i]);
        return seconds * 1e9 /
               (static_cast<double>(payload_bytes) * static_cast<double>(covered) * ac_reps);
      };
      const double batch4 = batch_ns_per_byte(4);
      const double batch3 = batch_ns_per_byte(3);
      const double batch2 = batch_ns_per_byte(2);
      const double batch_sec = batch4 * total_bytes * 1e-9;  // 4 lanes cover every payload.
      if (!agree) {
        std::cerr << "FAIL: signature engines disagree at " << payload_bytes << " B\n";
        return 1;
      }

      baseline_total_sec += baseline_sec;
      batch_total_sec += batch_sec;
      ac_table.row()
          .cell(payload_bytes)
          .cell(baseline_sec * 1e9 / total_bytes, 2)
          .cell(flat_sec * 1e9 / total_bytes, 2)
          .cell(batch4, 2)
          .cell(batch3, 2)
          .cell(batch2, 2)
          .cell(baseline_sec / flat_sec, 2)
          .cell(baseline_sec / batch_sec, 2);
    }
    ac_speedup = baseline_total_sec / batch_total_sec;
  }

  for (const auto& topology : bench::selected_topologies()) {
    const auto tm = traffic::gravity_matrix(
        topology.graph, traffic::paper_total_sessions(topology.graph.num_nodes()));
    core::ControllerOptions copts;
    copts.lp.max_seconds = static_cast<double>(lp_budget_sec);
    core::Controller controller(topology, tm, copts);
    const core::ProblemInput input =
        controller.scenario().problem(copts.architecture);
    core::EpochRequest request;
    request.tm = &tm;
    const core::EpochResult epoch = controller.run(request);
    const shim::ConfigBundle& bundle = epoch.bundle;
    const auto& configs = bundle.configs;
    lp_table.row()
        .cell(topology.name)
        .cell(epoch.solve_seconds, 4)
        .cell(epoch.iterations)
        .cell(epoch.degraded ? core::to_string(epoch.degraded_reasons)
                             : std::string("optimal"));
    // A solver-limit degradation means the LP layer regressed: the
    // steepest-edge solver handles every topology in the full sweep well
    // inside the budget, so this is a hard failure, enforcement flag or not.
    if (epoch.has_reason(core::DegradedReason::kLpBudgetExhausted) ||
        epoch.has_reason(core::DegradedReason::kLpFailed) ||
        epoch.has_reason(core::DegradedReason::kResolveBackoff)) {
      std::cerr << "FAIL: " << topology.name << " epoch degraded ("
                << core::to_string(epoch.degraded_reasons)
                << ") — the LP must solve inside the budget\n";
      return 1;
    }

    // --- 1. decide latency: compiled flat tables vs map+scan tables. ---
    std::vector<shim::FlatConfig> flat;
    flat.reserve(configs.size());
    std::size_t segments = 0, table_bytes = 0;
    for (const auto& config : configs) {
      flat.emplace_back(config);
      segments += flat.back().num_segments();
      table_bytes += flat.back().table_bytes();
    }

    const int num_classes = static_cast<int>(input.classes.size());
    util::Rng rng(0xdec1de);
    std::vector<LookupKey> keys(1 << 15);
    for (auto& key : keys) {
      key.pop = static_cast<std::uint32_t>(rng.below(configs.size()));
      key.class_id = static_cast<int>(rng.below(static_cast<std::uint64_t>(num_classes)));
      key.dir = rng.bernoulli(0.5) ? nids::Direction::kForward : nids::Direction::kReverse;
      key.hash = static_cast<std::uint32_t>(rng());
    }

    const int reps = std::max(1, lookups / static_cast<int>(keys.size()));
    const auto total = static_cast<double>(reps) * static_cast<double>(keys.size());

    const auto flat_start = std::chrono::steady_clock::now();
    for (int r = 0; r < reps; ++r)
      for (const LookupKey& key : keys)
        checksum += static_cast<std::uint64_t>(
            flat[key.pop].lookup(key.class_id, key.dir, key.hash).kind);
    const double flat_ns = seconds_since(flat_start) * 1e9 / total;

    const auto map_start = std::chrono::steady_clock::now();
    for (int r = 0; r < reps; ++r)
      for (const LookupKey& key : keys)
        checksum += static_cast<std::uint64_t>(
            configs[key.pop].lookup(key.class_id, key.dir, key.hash).kind);
    const double map_ns = seconds_since(map_start) * 1e9 / total;

    decide_table.row()
        .cell(topology.name)
        .cell(num_classes)
        .cell(segments)
        .cell(static_cast<double>(table_bytes) / 1024.0, 1)
        .cell(flat_ns, 2)
        .cell(map_ns, 2)
        .cell(map_ns / flat_ns, 2);

    // --- 2. replay throughput: serial vs sharded parallel. ---
    sim::TraceConfig tc;
    tc.scanners = 6;
    sim::TraceGenerator generator(input.classes, tc, /*seed=*/2012);
    const std::vector<sim::SessionSpec> trace = generator.generate(sessions);

    sim::ReplayOptions serial_opts;
    serial_opts.num_workers = 1;
    sim::ReplaySimulator serial(input, bundle, serial_opts);
    const auto serial_start = std::chrono::steady_clock::now();
    serial.replay(trace, generator);
    const double serial_sec = seconds_since(serial_start);
    const sim::ReplayStats serial_stats = serial.stats();

    sim::ReplayOptions parallel_opts;
    parallel_opts.num_workers = workers;
    sim::ReplaySimulator parallel(input, bundle, parallel_opts);
    const auto parallel_start = std::chrono::steady_clock::now();
    parallel.replay(trace, generator);
    const double parallel_sec = seconds_since(parallel_start);
    const sim::ReplayStats parallel_stats = parallel.stats();

    const auto packets = static_cast<double>(serial_stats.packets_replayed);
    replay_table.row()
        .cell(topology.name)
        .cell(sessions)
        .cell(serial_stats.packets_replayed)
        .cell(serial_sec, 3)
        .cell(packets / serial_sec, 0)
        .cell(parallel.num_workers())
        .cell(parallel_sec, 3)
        .cell(packets / parallel_sec, 0)
        .cell(serial_sec / parallel_sec, 2)
        .cell(stats_identical(serial_stats, parallel_stats) ? "yes" : "NO");
  }

  // --- 3. Replay headline: end-to-end sessions/sec through the
  // full sharded data plane (decide -> payload -> engines -> tunnels) on a
  // probe-heavy trace, targeting >= 1M sessions/sec. ---
  util::Table rtc_table({"Workers", "Sessions", "Packets", "Sec", "SessionsPerSec",
                         "BytesPerSec", "Identical"});
  double headline_sps = 0.0, headline_bps = 0.0;
  bool identity_ok = true;
  {
    const topo::Topology topology = bench::selected_topologies().front();
    const auto tm = traffic::gravity_matrix(
        topology.graph, traffic::paper_total_sessions(topology.graph.num_nodes()));
    core::ControllerOptions copts;
    copts.lp.max_seconds = static_cast<double>(lp_budget_sec);
    core::Controller controller(topology, tm, copts);
    const core::ProblemInput input =
        controller.scenario().problem(copts.architecture);
    core::EpochRequest request;
    request.tm = &tm;
    const shim::ConfigBundle bundle = controller.run(request).bundle;

    // Probe trace: minimum payloads, one packet per direction — the
    // session-rate stress shape (per-session overheads dominate, exactly
    // what a "sessions per second" headline should measure).
    sim::TraceConfig tc;
    tc.scanners = 0;
    tc.min_payload = 16;
    tc.max_payload = 16;
    tc.max_packets_per_direction = 1;
    const int headline_sessions = util::env_int(
        "NWLB_HEADLINE_SESSIONS", util::env_flag("NWLB_FAST") ? 150'000 : 300'000);
    sim::TraceGenerator generator(input.classes, tc, /*seed=*/0x10ad);
    const std::vector<sim::SessionSpec> trace = generator.generate(headline_sessions);
    double payload_bytes_total = 0.0;
    for (const sim::SessionSpec& s : trace)
      payload_bytes_total += static_cast<double>(s.payload_bytes) *
                             static_cast<double>(s.fwd_packets + s.rev_packets);

    std::optional<sim::ReplayStats> serial_stats;
    for (const int w : {1, 2, 4, 8}) {
      sim::ReplayOptions opts;
      opts.num_workers = w;
      sim::ReplaySimulator replay(input, bundle, opts);
      const auto start = std::chrono::steady_clock::now();
      replay.replay(trace, generator);
      const double sec = seconds_since(start);
      const sim::ReplayStats stats = replay.stats();
      const double sps = static_cast<double>(trace.size()) / sec;
      const double bps = payload_bytes_total / sec;
      bool identical = true;
      if (!serial_stats) {
        serial_stats = stats;
      } else {
        identical = stats_identical(*serial_stats, stats);
        identity_ok = identity_ok && identical;
      }
      if (sps > headline_sps) {
        headline_sps = sps;
        headline_bps = bps;
      }
      rtc_table.row()
          .cell(w)
          .cell(trace.size())
          .cell(stats.packets_replayed)
          .cell(sec, 3)
          .cell(sps, 0)
          .cell(bps, 0)
          .cell(identical ? "yes" : "NO");
    }
  }

  std::cout << "-- signature engine ns/byte (BatchX must be >= 2) --\n";
  bench::print_table(ac_table);
  std::cout << "-- decide latency (lower FlatNs is better) --\n";
  bench::print_table(decide_table);
  std::cout << "-- replay throughput (Identical must be yes) --\n";
  bench::print_table(replay_table);
  std::cout << "-- replay headline (SessionsPerSec vs 1M target) --\n";
  bench::print_table(rtc_table);
  std::cout << "-- LP solve (context for the configs above) --\n";
  bench::print_table(lp_table);

  bench::JsonReport report("data_plane");
  // Parallel speedup is bounded by the hardware: on a 1-core machine the
  // 4-worker replay can only demonstrate low overhead, not scaling.
  report.scalar("sessions", static_cast<long long>(sessions))
      .scalar("workers", static_cast<long long>(workers))
      .scalar("hw_threads",
              static_cast<long long>(std::thread::hardware_concurrency()))
      .scalar("decide_samples", static_cast<long long>(lookups))
      .scalar("sessions_per_sec", headline_sps)
      .scalar("bytes_per_sec", headline_bps)
      .scalar("target_sessions_per_sec", 1'000'000.0)
      .scalar("rtc_identity_ok", identity_ok ? std::string("yes") : std::string("no"))
      .scalar("ac_count_matches_speedup", ac_speedup)
      .scalar("checksum", static_cast<long long>(checksum & 0x7fffffff))
      .table("signature_ns_per_byte", ac_table)
      .table("decide_ns", decide_table)
      .table("replay_throughput", replay_table)
      .table("rtc_scaling", rtc_table)
      .table("lp_solve", lp_table);
  report.write_if_requested();

  // The byte-identity invariant is a correctness property, not a perf
  // target: a mismatch fails the bench no matter what was requested.
  if (!identity_ok) {
    std::cerr << "FAIL: replay headline serial/parallel ReplayStats mismatch\n";
    return 1;
  }
  if (util::env_flag("NWLB_BENCH_ENFORCE")) {
    if (headline_sps < 1'000'000.0) {
      std::cerr << "FAIL: sessions_per_sec " << headline_sps
                << " below target 1000000\n";
      return 1;
    }
    if (ac_speedup < 2.0) {
      std::cerr << "FAIL: ac_count_matches_speedup " << ac_speedup << " below 2.0\n";
      return 1;
    }
  }
  return 0;
}
