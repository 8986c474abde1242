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
//
// One table, kFlags, names every flag, the runs that read it and how its
// value parses.  The three loop runs share one Deployment, which checks every
// flag's value before the bootstrap solve, and one closing check.
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
#include <utility>
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
constexpr unsigned kAllRuns = kOneShot | kFailures | kLive | kReplicated;
constexpr unsigned kLoops = kFailures | kLive | kReplicated;
constexpr unsigned kLiveLoops = kLive | kReplicated;

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

/// How to select one of the runs in `modes`.
const char* how_to_select(unsigned modes) {
  switch (modes) {
    case kOneShot: return "the one-shot solve (no --failures or --live)";
    case kLoops: return "--failures or --live";
    case kLiveLoops: return "--live";
    default: return "--live --replicas N with N > 1";
  }
}

/// A flag's value, taken only when the flag's row reads one: from
/// `--flag=value` or from the next token.
struct Arg {
  const std::string& flag;
  std::optional<std::string> value;  // Inline, then whatever text() took.
  int& i;
  int argc;
  char** argv;

  std::string text() {
    if (!value) {
      if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
      value = argv[++i];
    }
    return *value;
  }

  /// A switch reads no value: `--live=false` would otherwise turn it on.
  bool on() const {
    if (value) throw std::invalid_argument(flag + " takes no value, got '" + *value + "'");
    return true;
  }

  // A number takes its whole token: std::stoi and friends stop at the first
  // bad character, so "2x" would run as 2 and "-5" would wrap to a huge
  // unsigned count.
  template <typename T>
  T number() {
    const std::string token = text();
    T parsed{};
    const char* const end = token.data() + token.size();
    const auto [stop, error] = std::from_chars(token.data(), end, parsed);
    bool ok = !token.empty() && error == std::errc{} && stop == end;
    if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(parsed);
    const char* what = std::is_floating_point_v<T> ? "a finite number"
                       : std::is_signed_v<T>       ? "an integer"
                                                   : "a non-negative integer";
    if (!ok) throw std::invalid_argument(flag + " needs " + what + ", got '" + token + "'");
    return parsed;
  }

  /// A finite number above zero.
  double positive() {
    const double x = number<double>();
    if (x > 0.0) return x;
    throw std::invalid_argument(flag + " needs a positive finite number, got '" + *value + "'");
  }

  /// A count lies in [lo, hi].  One below a positive floor names the floor;
  /// any other miss names the whole range.
  int count(int lo, int hi) {
    const int n = number<int>();
    if (n >= lo && n <= hi) return n;
    std::string range = "a count from " + std::to_string(lo) + " to " + std::to_string(hi);
    if (n < lo && lo > 0) range = "a count of at least " + std::to_string(lo);
    throw std::invalid_argument(flag + " needs " + range + ", got '" + *value + "'");
  }
};

/// One row per flag: its name, the runs that read it, how its value parses.
struct Flag {
  const char* name;
  unsigned modes;
  void (*set)(CliOptions& o, Arg& a);
};

constexpr int kMaxWorkers = sim::ReplayOptions::kMaxWorkers;
constexpr int kMaxReplicas = dist::ReplicatedLoopOptions::kMaxReplicas;
using O = CliOptions;
constexpr Flag kFlags[] = {
    {"--topology", kAllRuns, [](O& o, Arg& a) { o.topology = a.text(); }},
    {"--topology-file", kAllRuns, [](O& o, Arg& a) { o.topology_file = a.text(); }},
    {"--arch", kAllRuns, [](O& o, Arg& a) { o.arch = a.text(); }},
    {"--mll", kAllRuns, [](O& o, Arg& a) { o.mll = a.number<double>(); }},
    {"--dc", kAllRuns, [](O& o, Arg& a) { o.dc = a.positive(); }},
    {"--placement", kAllRuns, [](O& o, Arg& a) { o.placement = a.text(); }},
    {"--csv", kAllRuns, [](O& o, Arg& a) { o.csv = a.on(); }},
    {"--show-configs", kOneShot, [](O& o, Arg& a) { o.show_configs = a.on(); }},
    {"--validate", kOneShot, [](O& o, Arg& a) { o.validate = a.on(); }},
    {"--dump-mps", kOneShot, [](O& o, Arg& a) { o.dump_mps = a.text(); }},
    {"--dump-dot", kOneShot, [](O& o, Arg& a) { o.dump_dot = a.text(); }},
    {"--metrics-out", kAllRuns, [](O& o, Arg& a) { o.metrics_out = a.text(); }},
    {"--list-topologies", kAllRuns, [](O& o, Arg& a) { o.list_topologies = a.on(); }},
    {"--failures", kAllRuns, [](O& o, Arg& a) { o.failures = a.text(); }},
    {"--sessions", kLoops, [](O& o, Arg& a) { o.sessions = a.number<int>(); }},
    {"--epochs", kLoops, [](O& o, Arg& a) { o.epochs = a.number<int>(); }},
    {"--fail-open", kLoops, [](O& o, Arg& a) { o.fail_open = a.on(); }},
    {"--fail-closed", kLoops, [](O& o, Arg& a) { o.fail_open = !a.on(); }},
    {"--headroom", kLoops, [](O& o, Arg& a) { o.headroom = a.number<double>(); }},
    {"--workers", kLoops, [](O& o, Arg& a) { o.workers = a.count(0, kMaxWorkers); }},
    {"--live", kAllRuns, [](O& o, Arg& a) { o.live = a.on(); }},
    {"--estimator", kLiveLoops, [](O& o, Arg& a) { o.estimator = a.text(); }},
    {"--window", kLiveLoops, [](O& o, Arg& a) { o.estimator_window = a.number<int>(); }},
    {"--drain", kLiveLoops, [](O& o, Arg& a) { o.drain = a.number<std::uint64_t>(); }},
    {"--hurst", kLiveLoops, [](O& o, Arg& a) { o.hurst = a.number<double>(); }},
    {"--replicas", kLiveLoops, [](O& o, Arg& a) { o.replicas = a.count(1, kMaxReplicas); }},
    {"--rounds", kReplicated, [](O& o, Arg& a) { o.rounds = a.number<int>(); }},
    {"--lease", kReplicated, [](O& o, Arg& a) { o.lease = a.number<std::uint64_t>(); }},
    {"--drop", kReplicated, [](O& o, Arg& a) { o.drop = a.number<double>(); }},
    {"--delay", kReplicated, [](O& o, Arg& a) { o.delay = a.number<int>(); }},
};

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

std::optional<CliOptions> parse(int argc, char** argv) {
  CliOptions opt;
  std::vector<std::pair<const Flag*, std::optional<std::string>>> given;
  for (int i = 1; i < argc; ++i) {
    // Accept both `--flag value` and `--flag=value`.
    std::string name = argv[i];
    std::optional<std::string> inline_value;
    if (name.rfind("--", 0) == 0) {
      if (const auto eq = name.find('='); eq != std::string::npos) {
        inline_value = name.substr(eq + 1);
        name.resize(eq);
      }
    }
    if (name == "--help" || name == "-h") {
      print_usage();
      return std::nullopt;
    }
    const Flag* flag = std::find_if(std::begin(kFlags), std::end(kFlags),
                                    [&](const Flag& f) { return name == f.name; });
    if (flag == std::end(kFlags))
      throw std::invalid_argument("unknown option '" + name + "' (try --help)");
    Arg arg{name, std::move(inline_value), i, argc, argv};
    flag->set(opt, arg);
    given.emplace_back(flag, std::move(arg.value));
  }
  // A flag the selected run never reads would be silently ignored: reject it.
  const Mode mode = mode_of(opt);
  for (const auto& [flag, value] : given) {
    if ((flag->modes & mode) != 0) continue;
    std::string message = flag->name;
    if (value) message.append(" '").append(*value).append("'");
    message.append(" needs ").append(how_to_select(flag->modes)).append("; ");
    throw std::invalid_argument(message.append(mode_name(mode)).append(" never reads it"));
  }
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

/// What the three loop runs share: the gravity provisioning matrix, the
/// controller knobs, the fault schedule, the --hurst burst process, the
/// loop options, the bootstrap epoch, the simulator that runs it and the
/// scanner-free trace generator.  The constructor checks every value the
/// flags describe with the library's own validators before the bootstrap
/// solve.  The simulator keeps pointers to `input` and `schedule`, so a
/// deployment stays where it is built.
struct Deployment {
  Deployment(const CliOptions& opt, const topo::Topology& topology)
      : opt(opt), topology(topology), tm(traffic::gravity_matrix(
            topology.graph, traffic::paper_total_sessions(topology.graph.num_nodes()))) {
    if (opt.sessions <= 0 || opt.epochs <= 0)
      throw std::invalid_argument("--sessions and --epochs must be positive");
    copts.architecture = parse_arch(opt.arch);
    copts.scenario.max_link_load = opt.mll;
    copts.scenario.dc_factor = opt.dc;
    copts.scenario.placement = parse_placement(opt.placement);
    copts.lp.max_seconds = 10.0;  // One runaway solve degrades, never stalls.

    if (!opt.failures.empty()) schedule = load_schedule(opt.failures);
    const sim::ReplayOptions ropts{
        .num_workers = opt.workers,
        .failures = schedule ? &*schedule : nullptr,
        .degrade = opt.fail_open ? sim::DegradePolicy::kFailOpen : sim::DegradePolicy::kFailClosed,
        .fail_open_headroom = opt.headroom};
    ropts.validate();
    if (opt.hurst != 0.0)  // 0 = stationary; any other value must be a Hurst exponent.
      bursts.emplace(tm, opt.epochs, traffic::SelfSimilarOptions{.hurst = opt.hurst});

    live.estimator = opt.estimator;
    live.estimator_options = {.window = opt.estimator_window, .scale_to_total = tm.total()};
    live.rollout.drain_sessions = opt.drain;
    live.metrics = &registry;
    replicated.replicas = opt.replicas;
    replicated.consensus_rounds = opt.rounds;
    replicated.bus = {.drop_probability = opt.drop, .max_delay_rounds = opt.delay};
    replicated.replica.lease_ticks = opt.lease;
    replicated.replica.estimator_spec = live.estimator;
    replicated.replica.estimator = live.estimator_options;
    replicated.rollout = live.rollout;
    replicated.faults = ropts.failures;
    replicated.metrics = &registry;
    const Mode mode = mode_of(opt);
    if (mode == kLive) live.validate();
    if (mode == kReplicated) replicated.validate();

    // Build the bootstrap controller; the replicated loop's is a throwaway
    // built from the same constants as every replica, and records nothing.
    // The nodes and links a schedule may name are known before the solve,
    // so its targets are the last value checked.  Then solve the bootstrap
    // epoch.
    if (mode != kReplicated) copts.metrics = &registry;
    controller.emplace(topology, tm, copts);
    if (schedule) {
      const core::ProblemInput planned = controller->scenario().problem(copts.architecture);
      schedule->check_targets(planned.num_processing_nodes(),
                              planned.routing->graph().num_directed_links());
    }
    initial = controller->run({.tm = &tm});
    input = controller->scenario().problem(copts.architecture);
    simulator.emplace(input, initial.bundle, ropts);
    generator.emplace(input.classes, sim::TraceConfig{.scanners = 0}, 77);
  }
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  /// Ends the header line every loop run starts with: the burst process,
  /// the schedule, a blank line.
  void end_header() const {
    if (bursts) std::cout << " hurst=" << std::to_string(opt.hurst);
    if (schedule) std::cout << " schedule={\n" << schedule->to_string() << "}";
    std::cout << "\n\n";
  }

  /// One interval's sessions: the stationary class mix, or — under --hurst
  /// — the window's self-similar mix with volume tracking the burst process.
  std::vector<sim::SessionSpec> interval_sessions(int w) {
    if (!bursts) return generator->generate(opt.sessions);
    const traffic::TrafficMatrix win = bursts->window(w % bursts->num_windows());
    std::vector<double> weights;
    weights.reserve(input.classes.size());
    for (const auto& cls : input.classes)
      weights.push_back(win.volume(cls.ingress, cls.egress));
    const double mean_total = bursts->mean().total();
    const double burst_scale = mean_total > 0.0 ? win.total() / mean_total : 1.0;
    const int count = static_cast<int>(
        std::llround(static_cast<double>(opt.sessions) * burst_scale));
    return generator->generate_weighted(std::max(count, 1), weights);
  }

  /// The closing check every loop run ends with: each replayed session
  /// rode exactly one generation (exit 2 otherwise), then --metrics-out.
  int finish() {
    const sim::ReplayStats stats = simulator->stats();
    const sim::RolloutStats rollout = simulator->rollout_stats();
    if (rollout.sessions_current_generation + rollout.sessions_draining_generation !=
            stats.sessions_replayed ||
        rollout.sessions_unassigned != 0) {
      std::cerr << "nwlbctl: rollout conservation violated\n";
      return 2;
    }
    if (opt.metrics_out.empty()) return 0;
    simulator->export_metrics(registry);
    return write_metrics(registry, opt.metrics_out);
  }

  const CliOptions& opt;
  const topo::Topology& topology;
  const traffic::TrafficMatrix tm;
  obs::Registry registry;
  core::ControllerOptions copts;
  // One schedule serves both planes: the simulator consumes the
  // crash/blackhole/linkdown events, the replicated loop the
  // controller_crash/partition ones.
  std::optional<sim::FailureSchedule> schedule;
  std::optional<traffic::SelfSimilarTraffic> bursts;
  online::ControlLoopOptions live;         // Read by the --live loop.
  dist::ReplicatedLoopOptions replicated;  // Read by the replicated loop.
  std::optional<core::Controller> controller;
  core::EpochResult initial;
  core::ProblemInput input;
  std::optional<sim::ReplaySimulator> simulator;
  std::optional<sim::TraceGenerator> generator;
};

/// The failure-aware control loop (§3 under faults): replay one control
/// window, read the mirror-health verdicts and keepalive reports, respond
/// tier-1 (instant LP-free patch) the window a failure appears, tier-2
/// (budgeted warm-started re-solve over the survivors) the window after,
/// and re-solve back to the healthy optimum on recovery.
int run_failures(Deployment& d) {
  const CliOptions& opt = d.opt;
  sim::ReplaySimulator& simulator = *d.simulator;
  core::Controller& controller = *d.controller;
  std::cout << "topology=" << d.topology.name << " arch=" << opt.arch << " policy="
            << (opt.fail_open ? "fail-open" : "fail-closed");
  d.end_header();

  util::Table table({"Window", "Sessions", "Coverage", "DownMirrors", "Action"});
  core::FailureSet active;
  bool pending_resolve = false;
  for (int w = 0; w < opt.epochs; ++w) {
    const sim::ReplayStats before = simulator.stats();
    simulator.replay(d.interval_sessions(w), *d.generator);
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
    for (const int node : d.schedule->failed_nodes_at(simulator.next_session_index()))
      if (!detected.node_down(node)) detected.down_nodes.push_back(node);

    std::string action = "none";
    if (!same_failures(detected, active)) {
      if (!detected.empty()) {
        simulator.install_bundle(
            controller.run({.failures = detected, .force_patch = true}).bundle);
        action = "patch";
        pending_resolve = true;  // Tier 2 lands next control period.
      } else {
        simulator.install_bundle(controller.run({.tm = &d.tm}).bundle);
        action = "resolve:recovered";
        pending_resolve = false;
      }
      active = detected;
    } else if (pending_resolve && !detected.empty()) {
      const core::EpochResult resolved =
          controller.run({.tm = &d.tm, .failures = detected});
      simulator.install_bundle(resolved.bundle);
      action = resolved.degraded
                   ? "resolve:" + core::to_string(resolved.degraded_reasons)
                   : "resolve";
      pending_resolve = false;
    }

    std::string down;
    for (const int node : detected.down_nodes)
      down.append(down.empty() ? "" : " ").append(std::to_string(node));
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
  return d.finish();
}

/// --live --replicas=N: the same estimate -> epoch -> rollout pipeline run
/// by N controller replicas behind a leader lease.  Estimates converge by
/// gossip over a lossy simulated bus, only the committed-lease leader
/// emits generations, every install passes the fenced gate, and
/// controller_crash / partition events from --failures drive failover.
int run_replicated(Deployment& d) {
  const CliOptions& opt = d.opt;
  dist::ReplicatedControlLoop loop(d.topology, d.tm, d.copts, *d.simulator,
                                   d.initial.bundle, d.replicated);
  std::cout << "topology=" << d.topology.name << " arch=" << opt.arch
            << " replicas=" << opt.replicas << " lease=" << opt.lease
            << " drop=" << opt.drop << " estimator=" << opt.estimator;
  d.end_header();

  util::Table table({"Interval", "Sessions", "Leader", "Term", "Gen", "Rollout",
                     "Alive", "Heard", "Epoch"});
  for (int w = 0; w < opt.epochs; ++w) {
    const dist::ReplicatedIntervalReport report =
        loop.run_interval(d.interval_sessions(w), *d.generator);
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

  const sim::ReplayStats final_stats = d.simulator->stats();
  const sim::RolloutStats rollout = d.simulator->rollout_stats();
  std::cout << "\nsessions=" << final_stats.sessions_replayed
            << " coverage=" << final_stats.coverage()
            << " active_generation=" << rollout.active_generation
            << " rollouts=" << rollout.rollouts_installed
            << " unassigned=" << rollout.sessions_unassigned << "\n";
  return d.finish();
}

/// The online control loop (--live): after the bootstrap epoch the oracle
/// matrix is never consulted again — each interval the loop replays
/// traffic, folds the data plane's ingress counters into an EWMA estimate,
/// re-optimizes, and rolls the fresh generation out make-before-break.
/// --failures composes with --live: faults fire while the estimator-driven
/// loop is in charge of both detection (mirror health) and response.
int run_live(Deployment& d) {
  const CliOptions& opt = d.opt;
  online::ControlLoop loop(*d.controller, *d.simulator, d.initial.bundle, d.live);
  std::cout << "topology=" << d.topology.name << " arch=" << opt.arch
            << " live estimator=" << opt.estimator
            << " window=" << opt.estimator_window << " drain=" << opt.drain;
  d.end_header();

  util::Table table(
      {"Interval", "Sessions", "EstTotal", "Gen", "Rollout", "Churn", "Epoch"});
  for (int w = 0; w < opt.epochs; ++w) {
    const online::IntervalReport report =
        loop.run_interval(d.interval_sessions(w), *d.generator);
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

  const sim::ReplayStats final_stats = d.simulator->stats();
  const sim::RolloutStats rollout = d.simulator->rollout_stats();
  std::cout << "\nsessions=" << final_stats.sessions_replayed
            << " coverage=" << final_stats.coverage()
            << " active_generation=" << rollout.active_generation
            << " rollouts=" << rollout.rollouts_installed
            << " retired=" << rollout.generations_retired
            << " draining_sessions=" << rollout.sessions_draining_generation
            << " unassigned=" << rollout.sessions_unassigned << "\n";
  return d.finish();
}

/// The one-shot solve: the assignment, the per-node load table and the
/// optional validators, configs, dumps and metrics.
int run_one_shot(const CliOptions& opt, const topo::Topology& topology) {
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

  const topo::Topology topology = [&] {
    if (!opt.topology_file.empty()) {
      std::ifstream in(opt.topology_file);
      if (!in) throw std::invalid_argument("cannot open " + opt.topology_file);
      return topo::read_topology(in);
    }
    return topo::topology_by_name(opt.topology);
  }();

  const Mode mode = mode_of(opt);
  if (mode == kOneShot) return run_one_shot(opt, topology);
  Deployment deployment(opt, topology);
  if (mode == kReplicated) return run_replicated(deployment);
  if (mode == kLive) return run_live(deployment);
  return run_failures(deployment);
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
