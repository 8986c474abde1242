// nwlbctl — command-line front end to the nwlb optimizer.
//
// The operator-facing entry point: pick a topology (built-in or a text
// file), an architecture, and knobs; get the optimized assignment, the
// per-node load table, and optional artifact dumps (MPS model, DOT graph,
// per-node hash-range configurations).
//
//   nwlbctl --topology Internet2 --arch replicate --mll 0.4 --dc 10
//   nwlbctl --topology-file mynet.topo --arch onehop --csv
//   nwlbctl --list-topologies
//   nwlbctl --topology Geant --arch replicate --dump-mps model.mps
//           --dump-dot net.dot --show-configs
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "core/controller.h"
#include "core/mapper.h"
#include "dist/replicated_loop.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "online/loop.h"
#include "core/replication_lp.h"
#include "core/scenario.h"
#include "core/validate.h"
#include "lp/mps.h"
#include "lp/validate.h"
#include "shim/validate.h"
#include "sim/failure.h"
#include "sim/replay.h"
#include "sim/trace.h"
#include "topo/io.h"
#include "topo/metrics.h"
#include "topo/validate.h"
#include "traffic/matrix.h"
#include "traffic/selfsimilar.h"
#include "util/table.h"

using namespace nwlb;

namespace {

struct CliOptions {
  std::string topology = "Internet2";
  std::string topology_file;
  std::string arch = "replicate";
  double mll = 0.4;
  double dc = 10.0;
  std::string placement = "most-observed";
  bool csv = false;
  bool show_configs = false;
  bool validate = false;
  bool list_topologies = false;
  std::string dump_mps;
  std::string dump_dot;
  std::string metrics_out;  // Base path: writes <base>.prom + <base>.json.

  // Failure-recovery runner (--failures).
  std::string failures;  // Inline schedule spec or a schedule file path.
  int sessions = 800;    // Sessions replayed per control window.
  int epochs = 8;        // Control windows simulated.
  bool fail_open = false;
  double headroom = 0.5;
  int workers = 1;

  // Online control loop (--live): estimator-driven epochs + hitless
  // versioned rollouts, no oracle traffic matrix after bootstrap.
  bool live = false;
  std::string estimator = "ewma";  // Estimator spec (see --estimator).
  int estimator_window = 4;     // Smoothing window, in control intervals.
  std::uint64_t drain = 0;      // Make-before-break drain, in sessions.
  double hurst = 0.0;           // > 0: self-similar interval traffic.

  // Replicated control plane (--live --replicas=N).
  int replicas = 1;          // 1 = the plain single-controller loop.
  int rounds = 8;            // Consensus bus rounds per interval.
  std::uint64_t lease = 3;   // Leader lease, in control intervals.
  double drop = 0.0;         // Bus message-loss probability.
  int delay = 0;             // Max extra bus delay, in rounds.
};

/// The runs nwlbctl makes, as bits so a flag can name every run that reads it.
enum Mode : unsigned {
  kOneShot = 1,     // No --failures, no --live.
  kFailures = 2,    // --failures without --live.
  kLive = 4,        // --live with one controller.
  kReplicated = 8,  // --live --replicas N, N > 1.
};

/// The run `opt` selects; run() dispatches on it.
Mode mode_of(const CliOptions& opt) {
  if (opt.live) return opt.replicas > 1 ? kReplicated : kLive;
  return opt.failures.empty() ? kOneShot : kFailures;
}

const char* mode_name(Mode mode) {
  switch (mode) {
    case kOneShot: return "the one-shot solve";
    case kFailures: return "the --failures loop";
    case kLive: return "the --live loop";
    case kReplicated: return "the replicated --live loop";
  }
  return "";
}

/// A flag only some runs read; every flag not listed is read by every run.
struct ModeFlag {
  const char* flag;
  unsigned modes;     // The runs that read it.
  const char* needs;  // How to select one of them.
};

constexpr const char* kNeedsOneShot = "the one-shot solve (no --failures or --live)";
constexpr const char* kNeedsLoop = "--failures or --live";
constexpr const char* kNeedsReplicas = "--live --replicas N with N > 1";
constexpr ModeFlag kModeFlags[] = {
    {"--validate", kOneShot, kNeedsOneShot},
    {"--show-configs", kOneShot, kNeedsOneShot},
    {"--dump-mps", kOneShot, kNeedsOneShot},
    {"--dump-dot", kOneShot, kNeedsOneShot},
    {"--sessions", kFailures | kLive | kReplicated, kNeedsLoop},
    {"--epochs", kFailures | kLive | kReplicated, kNeedsLoop},
    {"--fail-open", kFailures | kLive | kReplicated, kNeedsLoop},
    {"--fail-closed", kFailures | kLive | kReplicated, kNeedsLoop},
    {"--headroom", kFailures | kLive | kReplicated, kNeedsLoop},
    {"--workers", kFailures | kLive | kReplicated, kNeedsLoop},
    {"--estimator", kLive | kReplicated, "--live"},
    {"--window", kLive | kReplicated, "--live"},
    {"--drain", kLive | kReplicated, "--live"},
    {"--hurst", kLive | kReplicated, "--live"},
    {"--replicas", kLive | kReplicated, "--live"},
    {"--rounds", kReplicated, kNeedsReplicas},
    {"--lease", kReplicated, kNeedsReplicas},
    {"--drop", kReplicated, kNeedsReplicas},
    {"--delay", kReplicated, kNeedsReplicas},
};

/// One flag as given on the command line, with its value when it takes one.
struct GivenFlag {
  std::string flag;
  std::optional<std::string> value;
};

/// A flag the selected run never reads would be silently ignored: reject it.
void reject_unread_flags(const CliOptions& opt, const std::vector<GivenFlag>& given) {
  const Mode mode = mode_of(opt);
  for (const GivenFlag& g : given)
    for (const ModeFlag& m : kModeFlags)
      if (g.flag == m.flag && (m.modes & mode) == 0)
        throw std::invalid_argument(g.flag + (g.value ? " '" + *g.value + "'" : "") +
                                    " needs " + m.needs + "; " + mode_name(mode) +
                                    " never reads it");
}

void print_usage() {
  std::cout <<
      R"(nwlbctl — network-wide NIDS load-balancing optimizer

A flag the selected run never reads (say --rounds without --replicas) is
an error, not ignored.

Options:
  --topology <name>       Built-in topology (default Internet2; see --list-topologies)
  --topology-file <path>  Load a topology in the nwlb text format instead
  --arch <name>           ingress | path | replicate | augmented | onehop |
                          twohop | dc+onehop          (default replicate)
  --mll <x>               MaxLinkLoad in [0,1]         (default 0.4)
  --dc <alpha>            Datacenter capacity factor   (default 10)
  --placement <strategy>  most-originating | most-observed | most-paths | medoid
  --csv                   Emit tables as CSV
  --show-configs          Print per-node hash-range counts
  --validate              Run the routing / LP / assignment / shim-config
                          invariant validators; exit 2 on any violation
  --dump-mps <path>       Write the LP in MPS format
  --dump-dot <path>       Write the topology as Graphviz DOT
  --metrics-out <base>    Write <base>.prom (Prometheus text) and <base>.json
                          covering the solve / control loop / replay counters
  --list-topologies       List built-in topologies and exit
  --help                  This text

Failure-recovery runner:
  --failures <spec|file>  Run the failure-aware control loop against a fault
                          schedule instead of a one-shot solve.  Events, one
                          per line or ';'-separated, timed in global session
                          indices:
                            crash <node> <begin> <end|-> [severity]
                            blackhole <mirror> <begin> <end|-> [severity]
                            linkdown <link> <begin> <end|-> [severity]
                            controller_crash <replica> <begin> <end|->
                            partition <mask> <begin> <end|->
  --sessions <n>          Sessions replayed per control window (default 800)
  --epochs <n>            Control windows to simulate        (default 8)
  --fail-open             Degraded shims absorb offloaded classes locally
                          (default: fail-closed — ranges go dark)
  --fail-closed           Degraded ranges go dark (the default; overrides an
                          earlier --fail-open)
  --headroom <x>          Fail-open local admission cap in [0,1] (default 0.5)
  --workers <n>           Parallel replay workers, 0 to 64; 0 = one per
                          usable CPU, at most 8 (default 1)

Online control loop:
  --live                  Run the estimate -> epoch -> rollout loop: each
                          interval replays traffic, folds the shims' ingress
                          counters into an EWMA traffic-matrix estimate,
                          re-optimizes, and installs the new generation-tagged
                          config bundle make-before-break (no oracle matrix
                          after bootstrap).  Combines with --failures to
                          inject faults under the live loop.
  --estimator <spec>      Estimator kind[:key=value,...]     (default ewma)
                          Kinds: ewma | var-ewma.  Keys for both: window,
                          floor, scale; var-ewma only: variance-window,
                          headroom, cap, burst.
                          e.g. --estimator=var-ewma:headroom=2,cap=0.5
  --window <n>            Estimator smoothing window, intervals (default 4)
  --drain <n>             Rollout drain window, in sessions     (default 0)
  --hurst <H>             Drive each interval's traffic from a seeded
                          self-similar (fractional-Gaussian-noise) burst
                          process with Hurst H in [0.5, 0.99]; the class
                          mix and per-interval volume follow the bursts.
                          (default 0 = stationary class mix)
                          (--sessions/--epochs/--workers apply as above)

Replicated control plane (with --live):
  --replicas <n>          Run N controller replicas behind a leader lease:
                          estimates travel by gossip, only the committed-
                          lease leader emits generations, and installs pass
                          a fenced gate (no regression, no split-brain).
                          controller_crash / partition schedule events
                          exercise failover.            (default 1 = off)
  --rounds <n>            Consensus bus rounds per interval     (default 8)
  --lease <n>             Leader lease, in control intervals    (default 3)
  --drop <p>              Bus message-loss probability          (default 0)
  --delay <n>             Max extra bus delay, in rounds        (default 0)

Examples:
  nwlbctl --topology Internet2 --arch replicate \
          --failures "crash 3 1600 4000; blackhole 11 2400 -" \
          --fail-open --epochs 10
  nwlbctl --topology Internet2 --arch replicate --live \
          --epochs 12 --sessions 1000 --drain 100
  nwlbctl --topology Internet2 --live --replicas 3 --epochs 12 \
          --failures "controller_crash 0 2000 6000"
)";
}

// A numeric flag takes its whole token: std::stoi and friends stop at the
// first bad character, so "2x" would run as 2 and "-5" would wrap to a huge
// unsigned count.
template <typename T>
T parse_whole(const std::string& flag, const std::string& text, const char* what) {
  T value{};
  const char* const end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  bool ok = !text.empty() && error == std::errc{} && stop == end;
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(value);
  if (!ok)
    throw std::invalid_argument(flag + " needs " + what + ", got '" + text + "'");
  return value;
}

int parse_int(const std::string& flag, const std::string& text) {
  return parse_whole<int>(flag, text, "an integer");
}

std::uint64_t parse_u64(const std::string& flag, const std::string& text) {
  return parse_whole<std::uint64_t>(flag, text, "a non-negative integer");
}

double parse_double(const std::string& flag, const std::string& text) {
  return parse_whole<double>(flag, text, "a finite number");
}

std::optional<CliOptions> parse(int argc, char** argv) {
  CliOptions opt;
  std::vector<GivenFlag> given;
  for (int i = 1; i < argc; ++i) {
    const std::string raw = argv[i];
    // Accept both `--flag value` and `--flag=value`.
    std::string arg = raw;
    std::optional<std::string> inline_value;
    if (raw.rfind("--", 0) == 0) {
      if (const auto eq = raw.find('='); eq != std::string::npos) {
        arg = raw.substr(0, eq);
        inline_value = raw.substr(eq + 1);
      }
    }
    std::optional<std::string> taken;  // The value this flag consumed.
    auto value = [&]() -> std::string {
      if (inline_value) {
        taken = inline_value;
      } else {
        if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
        taken = argv[++i];
      }
      return *taken;
    };
    if (arg == "--topology") opt.topology = value();
    else if (arg == "--topology-file") opt.topology_file = value();
    else if (arg == "--arch") opt.arch = value();
    else if (arg == "--mll") opt.mll = parse_double(arg, value());
    else if (arg == "--dc") opt.dc = parse_double(arg, value());
    else if (arg == "--placement") opt.placement = value();
    else if (arg == "--csv") opt.csv = true;
    else if (arg == "--show-configs") opt.show_configs = true;
    else if (arg == "--validate") opt.validate = true;
    else if (arg == "--dump-mps") opt.dump_mps = value();
    else if (arg == "--dump-dot") opt.dump_dot = value();
    else if (arg == "--metrics-out") opt.metrics_out = value();
    else if (arg == "--list-topologies") opt.list_topologies = true;
    else if (arg == "--failures") opt.failures = value();
    else if (arg == "--sessions") opt.sessions = parse_int(arg, value());
    else if (arg == "--epochs") opt.epochs = parse_int(arg, value());
    else if (arg == "--fail-open") opt.fail_open = true;
    else if (arg == "--fail-closed") opt.fail_open = false;
    else if (arg == "--headroom") opt.headroom = parse_double(arg, value());
    else if (arg == "--workers") {
      opt.workers = parse_int(arg, value());
      if (opt.workers < 0 || opt.workers > sim::ReplayOptions::kMaxWorkers)
        throw std::invalid_argument(arg + " needs a count from 0 to " +
                                    std::to_string(sim::ReplayOptions::kMaxWorkers) +
                                    ", got '" + *taken + "'");
    }
    else if (arg == "--live") opt.live = true;
    else if (arg == "--estimator") opt.estimator = value();
    else if (arg == "--hurst") opt.hurst = parse_double(arg, value());
    else if (arg == "--window") opt.estimator_window = parse_int(arg, value());
    else if (arg == "--drain") opt.drain = parse_u64(arg, value());
    else if (arg == "--replicas") {
      opt.replicas = parse_int(arg, value());
      if (opt.replicas < 1)
        throw std::invalid_argument(arg + " needs a count of at least 1, got '" + *taken + "'");
    }
    else if (arg == "--rounds") opt.rounds = parse_int(arg, value());
    else if (arg == "--lease") opt.lease = parse_u64(arg, value());
    else if (arg == "--drop") opt.drop = parse_double(arg, value());
    else if (arg == "--delay") opt.delay = parse_int(arg, value());
    else if (arg == "--help" || arg == "-h") {
      print_usage();
      return std::nullopt;
    } else {
      throw std::invalid_argument("unknown option '" + arg + "' (try --help)");
    }
    given.push_back({arg, taken});
  }
  reject_unread_flags(opt, given);
  return opt;
}

core::Architecture parse_arch(const std::string& name) {
  if (name == "ingress") return core::Architecture::kIngress;
  if (name == "path") return core::Architecture::kPathNoReplicate;
  if (name == "replicate") return core::Architecture::kPathReplicate;
  if (name == "augmented") return core::Architecture::kPathAugmented;
  if (name == "onehop") return core::Architecture::kLocalOffload1;
  if (name == "twohop") return core::Architecture::kLocalOffload2;
  if (name == "dc+onehop") return core::Architecture::kDcPlusOneHop;
  throw std::invalid_argument("unknown architecture '" + name + "'");
}

core::DcPlacement parse_placement(const std::string& name) {
  if (name == "most-originating") return core::DcPlacement::kMostOriginating;
  if (name == "most-observed") return core::DcPlacement::kMostObserved;
  if (name == "most-paths") return core::DcPlacement::kMostPaths;
  if (name == "medoid") return core::DcPlacement::kMedoid;
  throw std::invalid_argument("unknown placement '" + name + "'");
}

void emit(const util::Table& table, bool csv) {
  if (csv) {
    std::cout << table.to_csv();
  } else {
    table.print(std::cout);
  }
}

/// `--failures` accepts the schedule inline or as a file path.
sim::FailureSchedule load_schedule(const std::string& spec) {
  if (std::ifstream file(spec); file) {
    std::ostringstream text;
    text << file.rdbuf();
    return sim::FailureSchedule::parse(text.str());
  }
  return sim::FailureSchedule::parse(spec);
}

/// Writes <base>.prom + <base>.json; nonzero (with a message) on failure.
int write_metrics(const obs::Registry& registry, const std::string& base) {
  if (const std::string error = obs::write_exposition_files(registry, base);
      !error.empty()) {
    std::cerr << "nwlbctl: " << error << "\n";
    return 1;
  }
  std::cout << "wrote metrics to " << base << ".prom and " << base << ".json\n";
  return 0;
}

int cannot_write(const std::string& flag, const std::string& path) {
  std::cerr << "nwlbctl: " << flag << " cannot write '" << path << "'\n";
  return 1;
}

/// Opens a --dump-* file, before any solve; nonzero (with a message) when it
/// cannot be opened.
int open_dump(std::ofstream& out, const std::string& flag, const std::string& path) {
  out.open(path);
  return out ? 0 : cannot_write(flag, path);
}

/// Closes a written --dump-* file; nonzero (with a message) when it could
/// not be written.
int close_dump(std::ofstream& out, const std::string& flag, const std::string& path,
               const char* what) {
  out.close();
  if (!out) return cannot_write(flag, path);
  std::cout << "wrote " << what << " to " << path << "\n";
  return 0;
}

bool same_failures(const core::FailureSet& a, const core::FailureSet& b) {
  auto sorted = [](std::vector<int> v) {
    std::sort(v.begin(), v.end());
    return v;
  };
  return sorted(a.down_nodes) == sorted(b.down_nodes) &&
         sorted(a.failed_links) == sorted(b.failed_links);
}

/// The failure-aware control loop (§3 under faults): replay one control
/// window, read the mirror-health verdicts and keepalive reports, respond
/// tier-1 (instant LP-free patch) the window a failure appears, tier-2
/// (budgeted warm-started re-solve over the survivors) the window after,
/// and re-solve back to the healthy optimum on recovery.
int run_failures(const CliOptions& opt, const topo::Topology& topology) {
  if (opt.sessions <= 0 || opt.epochs <= 0)
    throw std::invalid_argument("--sessions and --epochs must be positive");
  const auto tm = traffic::gravity_matrix(
      topology.graph, traffic::paper_total_sessions(topology.graph.num_nodes()));
  core::ControllerOptions copts;
  copts.architecture = parse_arch(opt.arch);
  copts.scenario.max_link_load = opt.mll;
  copts.scenario.dc_factor = opt.dc;
  copts.scenario.placement = parse_placement(opt.placement);
  copts.lp.max_seconds = 10.0;  // One runaway solve degrades, never stalls.
  obs::Registry registry;
  copts.metrics = &registry;
  core::Controller controller(topology, tm, copts);
  const core::EpochResult initial = controller.run({.tm = &tm});
  const core::ProblemInput input = controller.scenario().problem(copts.architecture);

  const sim::FailureSchedule schedule = load_schedule(opt.failures);
  sim::ReplayOptions ropts;
  ropts.failures = &schedule;
  ropts.degrade = opt.fail_open ? sim::DegradePolicy::kFailOpen
                                : sim::DegradePolicy::kFailClosed;
  ropts.fail_open_headroom = opt.headroom;
  ropts.num_workers = opt.workers;
  sim::ReplaySimulator simulator(input, initial.bundle, ropts);
  sim::TraceConfig trace_config;
  trace_config.scanners = 0;
  sim::TraceGenerator generator(input.classes, trace_config, 77);

  std::cout << "topology=" << topology.name << " arch=" << opt.arch << " policy="
            << (opt.fail_open ? "fail-open" : "fail-closed") << " schedule={"
            << "\n" << schedule.to_string() << "}\n\n";

  util::Table table({"Window", "Sessions", "Coverage", "DownMirrors", "Action"});
  core::FailureSet active;
  bool pending_resolve = false;
  for (int w = 0; w < opt.epochs; ++w) {
    const sim::ReplayStats before = simulator.stats();
    simulator.replay(generator.generate(opt.sessions), generator);
    const sim::ReplayStats after = simulator.stats();
    const std::uint64_t covered = after.stateful_covered - before.stateful_covered;
    const std::uint64_t missed = after.stateful_missed - before.stateful_missed;
    const double coverage =
        covered + missed > 0
            ? static_cast<double>(covered) / static_cast<double>(covered + missed)
            : 0.0;

    // Control-plane view of the failure state: tunnel health verdicts plus
    // keepalive reports (the schedule's crash/blackhole set at the index
    // the next window starts from).
    core::FailureSet detected;
    detected.down_nodes = simulator.down_mirrors();
    for (const int node : schedule.failed_nodes_at(simulator.next_session_index()))
      if (!detected.node_down(node)) detected.down_nodes.push_back(node);

    std::string action = "none";
    if (!same_failures(detected, active)) {
      if (!detected.empty()) {
        simulator.install_bundle(
            controller.run({.failures = detected, .force_patch = true}).bundle);
        action = "patch";
        pending_resolve = true;  // Tier 2 lands next control period.
      } else {
        const core::EpochResult recovered = controller.run({.tm = &tm});
        simulator.install_bundle(recovered.bundle);
        action = "resolve:recovered";
        pending_resolve = false;
      }
      active = detected;
    } else if (pending_resolve && !detected.empty()) {
      const core::EpochResult resolved =
          controller.run({.tm = &tm, .failures = detected});
      simulator.install_bundle(resolved.bundle);
      action = resolved.degraded
                   ? "resolve:" + core::to_string(resolved.degraded_reasons)
                   : "resolve";
      pending_resolve = false;
    }

    std::string down;
    for (const int node : detected.down_nodes)
      down += (down.empty() ? "" : " ") + std::to_string(node);
    table.row()
        .cell(w)
        .cell(static_cast<long long>(after.sessions_replayed - before.sessions_replayed))
        .cell(coverage, 4)
        .cell(down.empty() ? "-" : down)
        .cell(action);
  }
  emit(table, opt.csv);

  const sim::ReplayStats final_stats = simulator.stats();
  std::cout << "\nsessions=" << final_stats.sessions_replayed
            << " coverage=" << final_stats.coverage()
            << " frames_blackholed=" << final_stats.tunnel_frames_blackholed
            << " crash_skipped=" << final_stats.crash_skipped_packets
            << " fail_open=" << final_stats.fail_open_packets
            << " degraded_skipped=" << final_stats.degraded_skipped_packets << "\n";
  if (!opt.metrics_out.empty()) {
    simulator.export_metrics(registry);
    return write_metrics(registry, opt.metrics_out);
  }
  return 0;
}

/// --hurst: the burst process the live loops draw interval traffic from.
std::optional<traffic::SelfSimilarTraffic> make_bursts(
    const CliOptions& opt, const traffic::TrafficMatrix& tm) {
  if (opt.hurst <= 0.0) return std::nullopt;
  traffic::SelfSimilarOptions ssopts;
  ssopts.hurst = opt.hurst;
  return traffic::SelfSimilarTraffic(tm, opt.epochs, ssopts);
}

/// One interval's sessions: the stationary class mix, or — under --hurst —
/// the window's self-similar mix with volume tracking the burst process.
std::vector<sim::SessionSpec> interval_sessions(
    sim::TraceGenerator& generator,
    const std::vector<traffic::TrafficClass>& classes,
    const std::optional<traffic::SelfSimilarTraffic>& bursts, int base_sessions,
    int w) {
  if (!bursts) return generator.generate(base_sessions);
  const traffic::TrafficMatrix win = bursts->window(w % bursts->num_windows());
  std::vector<double> weights;
  weights.reserve(classes.size());
  for (const auto& cls : classes)
    weights.push_back(win.volume(cls.ingress, cls.egress));
  const double mean_total = bursts->mean().total();
  const double burst_scale = mean_total > 0.0 ? win.total() / mean_total : 1.0;
  const int count = static_cast<int>(
      std::llround(static_cast<double>(base_sessions) * burst_scale));
  return generator.generate_weighted(std::max(count, 1), weights);
}

/// --live --replicas=N: the same estimate -> epoch -> rollout pipeline run
/// by N controller replicas behind a leader lease.  Estimates converge by
/// gossip over a lossy simulated bus, only the committed-lease leader
/// emits generations, every install passes the fenced gate, and
/// controller_crash / partition events from --failures drive failover.
int run_replicated(const CliOptions& opt, const topo::Topology& topology) {
  if (opt.sessions <= 0 || opt.epochs <= 0)
    throw std::invalid_argument("--sessions and --epochs must be positive");
  const auto tm = traffic::gravity_matrix(
      topology.graph, traffic::paper_total_sessions(topology.graph.num_nodes()));
  core::ControllerOptions copts;
  copts.architecture = parse_arch(opt.arch);
  copts.scenario.max_link_load = opt.mll;
  copts.scenario.dc_factor = opt.dc;
  copts.scenario.placement = parse_placement(opt.placement);
  copts.lp.max_seconds = 10.0;  // One runaway solve degrades, never stalls.
  obs::Registry registry;

  // Bootstrap epoch from a throwaway controller built from the same
  // deployment constants as every replica.
  core::Controller bootstrap(topology, tm, copts);
  const core::EpochResult initial = bootstrap.run({.tm = &tm});
  const core::ProblemInput input = bootstrap.scenario().problem(copts.architecture);

  // One schedule serves both planes: the simulator consumes the
  // crash/blackhole/linkdown events, the replicated loop the
  // controller_crash/partition ones.
  std::optional<sim::FailureSchedule> schedule;
  if (!opt.failures.empty()) schedule = load_schedule(opt.failures);
  sim::ReplayOptions ropts;
  if (schedule) ropts.failures = &*schedule;
  ropts.degrade = opt.fail_open ? sim::DegradePolicy::kFailOpen
                                : sim::DegradePolicy::kFailClosed;
  ropts.fail_open_headroom = opt.headroom;
  ropts.num_workers = opt.workers;
  sim::ReplaySimulator simulator(input, initial.bundle, ropts);
  sim::TraceConfig trace_config;
  trace_config.scanners = 0;
  sim::TraceGenerator generator(input.classes, trace_config, 77);

  dist::ReplicatedLoopOptions dopts;
  dopts.replicas = opt.replicas;
  dopts.consensus_rounds = opt.rounds;
  dopts.bus.drop_probability = opt.drop;
  dopts.bus.max_delay_rounds = opt.delay;
  dopts.replica.lease_ticks = opt.lease;
  dopts.replica.estimator_spec = opt.estimator;
  dopts.replica.estimator.window = opt.estimator_window;
  dopts.replica.estimator.scale_to_total = tm.total();
  dopts.rollout.drain_sessions = opt.drain;
  if (schedule) dopts.faults = &*schedule;
  dopts.metrics = &registry;
  dist::ReplicatedControlLoop loop(topology, tm, copts, simulator,
                                   initial.bundle, dopts);

  const std::optional<traffic::SelfSimilarTraffic> bursts = make_bursts(opt, tm);

  std::cout << "topology=" << topology.name << " arch=" << opt.arch
            << " replicas=" << opt.replicas << " lease=" << opt.lease
            << " drop=" << opt.drop << " estimator=" << opt.estimator
            << (opt.hurst > 0.0 ? " hurst=" + std::to_string(opt.hurst) : "")
            << (schedule ? " schedule={\n" + schedule->to_string() + "}" : "")
            << "\n\n";

  util::Table table({"Interval", "Sessions", "Leader", "Term", "Gen", "Rollout",
                     "Alive", "Heard", "Epoch"});
  for (int w = 0; w < opt.epochs; ++w) {
    const dist::ReplicatedIntervalReport report = loop.run_interval(
        interval_sessions(generator, input.classes, bursts, opt.sessions, w),
        generator);
    std::string rollout = "-";
    if (report.install_attempted)
      rollout = report.rollout.installed ? "install" : "skip";
    else if (report.leader < 0)
      rollout = "no-leader";
    std::string epoch = "-";
    if (report.epoch_run)
      epoch = report.epoch.degraded
                  ? "degraded:" + core::to_string(report.epoch.degraded_reasons)
                  : "ok";
    table.row()
        .cell(w)
        .cell(static_cast<long long>(report.sessions_replayed))
        .cell(report.leader)
        .cell(static_cast<long long>(report.term))
        .cell(static_cast<long long>(report.generation))
        .cell(rollout)
        .cell(report.replicas_alive)
        .cell(report.replicas_heard)
        .cell(epoch);
  }
  emit(table, opt.csv);

  const sim::ReplayStats final_stats = simulator.stats();
  const sim::RolloutStats rollout = simulator.rollout_stats();
  std::cout << "\nsessions=" << final_stats.sessions_replayed
            << " coverage=" << final_stats.coverage()
            << " active_generation=" << rollout.active_generation
            << " rollouts=" << rollout.rollouts_installed
            << " unassigned=" << rollout.sessions_unassigned << "\n";
  if (rollout.sessions_current_generation + rollout.sessions_draining_generation !=
          final_stats.sessions_replayed ||
      rollout.sessions_unassigned != 0) {
    std::cerr << "nwlbctl: rollout conservation violated\n";
    return 2;
  }
  if (!opt.metrics_out.empty()) {
    simulator.export_metrics(registry);
    return write_metrics(registry, opt.metrics_out);
  }
  return 0;
}

/// The online control loop (--live): after the bootstrap epoch the oracle
/// matrix is never consulted again — each interval the loop replays
/// traffic, folds the data plane's ingress counters into an EWMA estimate,
/// re-optimizes, and rolls the fresh generation out make-before-break.
int run_live(const CliOptions& opt, const topo::Topology& topology) {
  if (opt.sessions <= 0 || opt.epochs <= 0)
    throw std::invalid_argument("--sessions and --epochs must be positive");
  const auto tm = traffic::gravity_matrix(
      topology.graph, traffic::paper_total_sessions(topology.graph.num_nodes()));
  core::ControllerOptions copts;
  copts.architecture = parse_arch(opt.arch);
  copts.scenario.max_link_load = opt.mll;
  copts.scenario.dc_factor = opt.dc;
  copts.scenario.placement = parse_placement(opt.placement);
  copts.lp.max_seconds = 10.0;  // One runaway solve degrades, never stalls.
  obs::Registry registry;
  copts.metrics = &registry;
  core::Controller controller(topology, tm, copts);
  const core::EpochResult initial = controller.run({.tm = &tm});
  const core::ProblemInput input = controller.scenario().problem(copts.architecture);

  // --failures composes with --live: faults fire while the estimator-driven
  // loop is in charge of both detection (mirror health) and response.
  std::optional<sim::FailureSchedule> schedule;
  if (!opt.failures.empty()) schedule = load_schedule(opt.failures);
  sim::ReplayOptions ropts;
  if (schedule) ropts.failures = &*schedule;
  ropts.degrade = opt.fail_open ? sim::DegradePolicy::kFailOpen
                                : sim::DegradePolicy::kFailClosed;
  ropts.fail_open_headroom = opt.headroom;
  ropts.num_workers = opt.workers;
  sim::ReplaySimulator simulator(input, initial.bundle, ropts);
  sim::TraceConfig trace_config;
  trace_config.scanners = 0;
  sim::TraceGenerator generator(input.classes, trace_config, 77);

  online::ControlLoopOptions lopts;
  lopts.estimator = opt.estimator;
  lopts.estimator_options.window = opt.estimator_window;
  lopts.estimator_options.scale_to_total = tm.total();
  lopts.rollout.drain_sessions = opt.drain;
  lopts.metrics = &registry;
  online::ControlLoop loop(controller, simulator, initial.bundle, lopts);

  const std::optional<traffic::SelfSimilarTraffic> bursts = make_bursts(opt, tm);

  std::cout << "topology=" << topology.name << " arch=" << opt.arch
            << " live estimator=" << opt.estimator
            << " window=" << opt.estimator_window << " drain=" << opt.drain
            << (opt.hurst > 0.0 ? " hurst=" + std::to_string(opt.hurst) : "")
            << (schedule ? " schedule={\n" + schedule->to_string() + "}" : "")
            << "\n\n";

  util::Table table(
      {"Interval", "Sessions", "EstTotal", "Gen", "Rollout", "Churn", "Epoch"});
  for (int w = 0; w < opt.epochs; ++w) {
    const online::IntervalReport report = loop.run_interval(
        interval_sessions(generator, input.classes, bursts, opt.sessions, w),
        generator);
    table.row()
        .cell(w)
        .cell(static_cast<long long>(report.sessions_replayed))
        .cell(report.estimate_total, 0)
        .cell(static_cast<long long>(report.rollout.generation))
        .cell(report.rollout.installed ? "install" : "skip")
        .cell(report.rollout.churn.moved_fraction, 4)
        .cell(report.epoch.degraded
                  ? "degraded:" + core::to_string(report.epoch.degraded_reasons)
                  : "ok");
  }
  emit(table, opt.csv);

  const sim::ReplayStats final_stats = simulator.stats();
  const sim::RolloutStats rollout = simulator.rollout_stats();
  std::cout << "\nsessions=" << final_stats.sessions_replayed
            << " coverage=" << final_stats.coverage()
            << " active_generation=" << rollout.active_generation
            << " rollouts=" << rollout.rollouts_installed
            << " retired=" << rollout.generations_retired
            << " draining_sessions=" << rollout.sessions_draining_generation
            << " unassigned=" << rollout.sessions_unassigned << "\n";
  // Hitless invariant: every session rode exactly one generation.
  if (rollout.sessions_current_generation + rollout.sessions_draining_generation !=
          final_stats.sessions_replayed ||
      rollout.sessions_unassigned != 0) {
    std::cerr << "nwlbctl: rollout conservation violated\n";
    return 2;
  }
  if (!opt.metrics_out.empty()) {
    simulator.export_metrics(registry);
    return write_metrics(registry, opt.metrics_out);
  }
  return 0;
}

int run(const CliOptions& opt) {
  if (opt.list_topologies) {
    util::Table table({"Name", "PoPs", "Links", "Diameter"});
    for (const auto& t : topo::all_topologies()) {
      const topo::Routing routing(t.graph);
      const auto metrics = topo::compute_metrics(routing);
      table.row().cell(t.name).cell(metrics.num_nodes).cell(metrics.num_edges).cell(
          metrics.diameter);
    }
    emit(table, opt.csv);
    return 0;
  }

  topo::Topology topology = [&] {
    if (!opt.topology_file.empty()) {
      std::ifstream in(opt.topology_file);
      if (!in) throw std::invalid_argument("cannot open " + opt.topology_file);
      return topo::read_topology(in);
    }
    return topo::topology_by_name(opt.topology);
  }();

  switch (mode_of(opt)) {
    case kReplicated: return run_replicated(opt, topology);
    case kLive: return run_live(opt, topology);
    case kFailures: return run_failures(opt, topology);
    case kOneShot: break;
  }

  std::ofstream mps_out;
  std::ofstream dot_out;
  if (!opt.dump_mps.empty() && open_dump(mps_out, "--dump-mps", opt.dump_mps) != 0) return 1;
  if (!opt.dump_dot.empty() && open_dump(dot_out, "--dump-dot", opt.dump_dot) != 0) return 1;

  const auto tm = traffic::gravity_matrix(
      topology.graph, traffic::paper_total_sessions(topology.graph.num_nodes()));
  core::ScenarioConfig config;
  config.max_link_load = opt.mll;
  config.dc_factor = opt.dc;
  config.placement = parse_placement(opt.placement);
  const core::Scenario scenario(topology, tm, config);
  const core::Architecture arch = parse_arch(opt.arch);
  const core::ProblemInput input = scenario.problem(arch);
  const core::Assignment assignment = scenario.solve(arch);

  std::cout << "topology=" << topology.name << " arch=" << core::to_string(arch)
            << " mll=" << opt.mll << " dc=" << opt.dc << "\n";
  std::cout << "max_load=" << assignment.load_cost
            << " miss_rate=" << assignment.miss_rate
            << " dc_access_util=" << assignment.dc_access_utilization
            << " solve_ms=" << assignment.lp.solve_seconds * 1e3 << "\n\n";

  std::vector<std::string> violations = validate_assignment(input, assignment);
  if (opt.validate) {
    // Full invariant sweep: routing, LP certificate, compiled shim configs.
    for (std::string& v : topo::validate(scenario.routing()))
      violations.push_back("routing: " + std::move(v));
    if (arch != core::Architecture::kIngress) {
      const core::ReplicationLp formulation(input);
      const auto report = lp::validate_solution(formulation.model(), assignment.lp);
      for (const std::string& v : report.violations) violations.push_back("lp: " + v);
    }
    const auto configs = core::build_shim_configs(input, assignment);
    shim::ConfigValidationOptions config_options;
    config_options.num_classes = static_cast<int>(input.classes.size());
    for (std::string& v : shim::validate_configs(configs, config_options))
      violations.push_back("shim: " + std::move(v));
  }
  if (!violations.empty()) {
    std::cerr << "WARNING: validation failed:\n";
    for (const auto& v : violations) std::cerr << "  " << v << "\n";
    if (opt.validate) return 2;
  } else if (opt.validate) {
    std::cout << "\nvalidate: routing, LP solution, assignment, and shim configs OK\n";
  }

  util::Table loads({"Node", "CPU load", "Role"});
  for (int j = 0; j < input.num_processing_nodes(); ++j) {
    const bool is_dc = input.has_datacenter() && j == input.datacenter_id();
    loads.row()
        .cell(is_dc ? "Datacenter" : topology.graph.name(j))
        .cell(assignment.node_load[static_cast<std::size_t>(j)][0], 3)
        .cell(is_dc ? "cluster"
                    : (j == scenario.datacenter_pop() && input.has_datacenter()
                           ? "PoP (DC attach)"
                           : "PoP"));
  }
  emit(loads, opt.csv);

  if (opt.show_configs) {
    const auto configs = core::build_shim_configs(input, assignment);
    util::Table ranges({"Node", "RangeTables", "ProcessFrac", "ReplicateFrac"});
    for (std::size_t j = 0; j < configs.size(); ++j) {
      double process = 0.0, replicate = 0.0;
      for (std::size_t c = 0; c < input.classes.size(); ++c) {
        const auto* table = configs[j].table(static_cast<int>(c), nids::Direction::kForward);
        if (table == nullptr) continue;
        process += table->fraction_of(shim::Action::Kind::kProcess);
        replicate += table->fraction_of(shim::Action::Kind::kReplicate);
      }
      ranges.row()
          .cell(topology.graph.name(static_cast<int>(j)))
          .cell(static_cast<long long>(configs[j].num_tables()))
          .cell(process, 2)
          .cell(replicate, 2);
    }
    emit(ranges, opt.csv);
  }

  if (!opt.dump_mps.empty()) {
    const core::ReplicationLp formulation(input);
    lp::write_mps(formulation.model(), mps_out, topology.name);
    if (close_dump(mps_out, "--dump-mps", opt.dump_mps, "LP") != 0) return 1;
  }
  if (!opt.dump_dot.empty()) {
    topo::write_dot(topology, dot_out);
    if (close_dump(dot_out, "--dump-dot", opt.dump_dot, "DOT") != 0) return 1;
  }
  if (!opt.metrics_out.empty()) {
    obs::Registry registry;
    registry
        .gauge("nwlb_solve_seconds", {}, "One-shot LP solve wall time, seconds")
        .set(assignment.lp.solve_seconds);
    registry
        .counter("nwlb_solve_lp_iterations_total", {},
                 "Simplex iterations for the one-shot solve")
        .inc(static_cast<std::uint64_t>(assignment.lp.iterations +
                                        assignment.lp.phase1_iterations));
    registry.gauge("nwlb_solve_max_load", {}, "Most-loaded node's compute load")
        .set(assignment.load_cost);
    registry
        .gauge("nwlb_solve_miss_rate", {},
               "Traffic fraction the assignment leaves uncovered")
        .set(assignment.miss_rate);
    registry.trace().push("nwlbctl", "solve", assignment.lp.solve_seconds,
                          "topology=" + topology.name + " arch=" + opt.arch);
    return write_metrics(registry, opt.metrics_out);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const auto options = parse(argc, argv);
    if (!options) return 0;
    return run(*options);
  } catch (const std::exception& e) {
    std::cerr << "nwlbctl: " << e.what() << "\n";
    return 1;
  }
}
