// nwlb_e2e: the repository's end-to-end benchmark.
//
//   nwlb_e2e --workload=<name|all> --seed=<n> [--seconds=<s>] [--trace=<path>]
//            [--json=<path>] [--smoke]
//
// Runs one workload (or each of them, in its own child process, so set-up
// time and peak RSS belong to one workload) through the library's public
// entry points, checks the outputs, and prints every metric by name with
// its unit:
//
//   metric <workload> <name> <value> <unit>   end-to-end, tracing off
//   info   <workload> <name> <value> <unit>   end-to-end, not bounded
//   layer  <workload> <name> <value> <unit>   per layer (--trace only)
//   span   <workload> <name> count=.. total_ms=.. self_ms=.. p50_ms=..
//
// Without --seconds every workload times 120 steps; --seconds=S instead
// times steps until S seconds have passed.  --trace=PATH adds the traced
// run and writes Chrome trace-event JSON to PATH (with `all`, one file per
// workload: PATH with "-<workload>" before the extension).  --json=PATH
// writes the results as JSON.  --smoke runs 6 steps on a tenth of the
// sessions with one set-up.  Exit status: 0 when every correctness gate
// holds, 3 when one fails, 2 on a usage error, 1 when the run itself fails.
#include <spawn.h>
#include <sys/wait.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "util/table.h"
#include "workload.h"

extern char** environ;

namespace {

namespace e2e = nwlb::bench::e2e;

constexpr int kDefaultSteps = 120;
constexpr int kSmokeSteps = 6;
constexpr int kTimeBoxedStepCap = 1'000'000;

struct Args {
  std::string workload;
  e2e::RunOptions run;
  std::string json_path;
  std::string seconds;  // As given, for passing on to children.
};

int usage(const std::string& problem) {
  std::cerr << "nwlb_e2e: " << problem
            << "\nusage: nwlb_e2e --workload=<name|all> --seed=<n> [--seconds=<s>] "
               "[--trace=<path>] [--json=<path>] [--smoke]\nworkloads:";
  for (const e2e::Workload& w : e2e::workloads()) std::cerr << " " << w.name;
  std::cerr << "\n";
  return 2;
}

bool parse_number(const std::string& text, double& out) {
  char* end = nullptr;
  out = std::strtod(text.c_str(), &end);
  return !text.empty() && end != nullptr && *end == '\0' && std::isfinite(out);
}

bool parse_seed(const std::string& text, std::uint64_t& out) {
  if (text.empty() || text.find_first_not_of("0123456789") != std::string::npos)
    return false;
  errno = 0;
  out = std::strtoull(text.c_str(), nullptr, 10);
  return errno == 0;
}

/// Returns "" on success, else what was wrong.
std::string parse_args(int argc, char** argv, Args& args) {
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    double number = 0.0;
    if (key == "--smoke" && eq == std::string::npos) {
      args.run.smoke = true;
    } else if (eq == std::string::npos || value.empty()) {
      return "expected --flag=value, got '" + arg + "'";
    } else if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      if (!parse_seed(value, args.run.seed))
        return "--seed must be a non-negative integer below 2^64";
      have_seed = true;
    } else if (key == "--seconds") {
      if (!parse_number(value, number) || number <= 0)
        return "--seconds must be a positive number";
      args.run.seconds = number;
      args.seconds = value;
    } else if (key == "--trace") {
      args.run.trace_path = value;
    } else if (key == "--json") {
      args.json_path = value;
    } else {
      return "unknown flag '" + arg + "'";
    }
  }
  if (args.workload.empty()) return "--workload is required";
  if (!have_seed) return "--seed is required";
  if (args.workload != "all" && e2e::find_workload(args.workload) == nullptr)
    return "unknown workload '" + args.workload + "'";
  args.run.max_steps = args.run.smoke ? kSmokeSteps
                       : args.run.seconds > 0.0 ? kTimeBoxedStepCap
                                                : kDefaultSteps;
  return "";
}

/// Full precision: the value exactly as measured.
std::string number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::string metrics_json(const std::vector<e2e::Metric>& metrics) {
  std::string out = "{";
  for (const e2e::Metric& m : metrics) {
    if (out.size() > 1) out += ",";
    out += "\"" + m.name + "\":{\"value\":" + number(m.value) + ",\"unit\":\"" + m.unit +
           "\"}";
  }
  return out + "}";
}

std::string result_json(const e2e::Workload& w, const Args& args, const e2e::Result& r) {
  std::string failures = "[";
  for (const std::string& f : r.failures) {
    if (failures.size() > 1) failures += ",";
    failures += "\"" + nwlb::util::json_escape(f) + "\"";
  }
  failures += "]";
  std::ostringstream out;
  out << "{\"workload\":\"" << w.name << "\",\"seed\":" << args.run.seed
      << ",\"steps\":" << r.steps << ",\"correct\":" << (r.correct ? "true" : "false")
      << ",\"attempted\":" << r.attempted << ",\"failed\":" << r.failed
      << ",\"failures\":" << failures << ",\"metrics\":" << metrics_json(r.end_to_end)
      << ",\"info\":" << metrics_json(r.info) << ",\"layers\":" << metrics_json(r.layers)
      << "}";
  return out.str();
}

void print_metrics(const char* kind, const e2e::Workload& w,
                   const std::vector<e2e::Metric>& metrics) {
  for (const e2e::Metric& m : metrics)
    std::cout << kind << " " << w.name << " " << m.name << " "
              << nwlb::util::format_double(m.value, 6) << " " << m.unit << "\n";
}

void print_result(const e2e::Workload& w, const Args& args, const e2e::Result& r) {
  std::cout << "# nwlb_e2e workload=" << w.name << " topology=" << w.topology
            << " seed=" << args.run.seed << " steps=" << r.steps
            << " sessions/step=" << w.sessions_per_step / (args.run.smoke ? 10 : 1)
            << " traced=" << (args.run.trace_path.empty() ? "no" : "yes") << "\n";
  print_metrics("metric", w, r.end_to_end);
  print_metrics("info", w, r.info);
  print_metrics("layer", w, r.layers);
  for (const e2e::SpanSummary& s : r.spans)
    std::cout << "span " << w.name << " " << s.name << " count=" << s.count
              << " total_ms=" << nwlb::util::format_double(s.total_ms, 3)
              << " self_ms=" << nwlb::util::format_double(s.self_ms, 3)
              << " p50_ms=" << nwlb::util::format_double(s.p50_ms, 3) << "\n";
  if (!r.spans.empty())
    std::cout << "# step span coverage (children / step), min over steps: "
              << nwlb::util::format_double(r.step_span_coverage_min, 4)
              << "  kernel checksum: " << r.checksum << "\n";
  for (const std::string& f : r.failures)
    std::cerr << "gate " << w.name << " FAILED: " << f << "\n";
  std::cout << "result " << w.name << " correct=" << (r.correct ? 1 : 0)
            << " attempted=" << r.attempted << " failed=" << r.failed << "\n"
            << std::flush;
}

/// "out/t.json" + "ntt_loop" -> "out/t-ntt_loop.json".
std::string per_workload_path(const std::string& path, std::string_view name) {
  const std::size_t slash = path.find_last_of('/');
  const std::size_t dot = path.find_last_of('.');
  const bool has_ext = dot != std::string::npos && (slash == std::string::npos || dot > slash);
  const std::size_t cut = has_ext ? dot : path.size();
  return path.substr(0, cut) + "-" + std::string(name) + path.substr(cut);
}

/// Runs each workload in a child process (this binary again), in order.
int run_all(const Args& args) {
  int status_max = 0;
  std::vector<std::string> child_json;
  for (const e2e::Workload& w : e2e::workloads()) {
    std::vector<std::string> argv_s = {"nwlb_e2e", "--workload=" + std::string(w.name),
                                       "--seed=" + std::to_string(args.run.seed)};
    if (!args.seconds.empty()) argv_s.push_back("--seconds=" + args.seconds);
    if (args.run.smoke) argv_s.push_back("--smoke");
    if (!args.run.trace_path.empty())
      argv_s.push_back("--trace=" + per_workload_path(args.run.trace_path, w.name));
    if (!args.json_path.empty()) {
      child_json.push_back(per_workload_path(args.json_path, w.name));
      argv_s.push_back("--json=" + child_json.back());
    }
    std::vector<char*> argv_c;
    for (std::string& s : argv_s) argv_c.push_back(s.data());
    argv_c.push_back(nullptr);

    std::cout << std::flush;
    pid_t pid = 0;
    if (posix_spawn(&pid, "/proc/self/exe", nullptr, nullptr, argv_c.data(), environ) != 0) {
      std::cerr << "nwlb_e2e: cannot start the " << w.name << " child\n";
      return 1;
    }
    int status = 0;
    if (waitpid(pid, &status, 0) != pid) return 1;
    const int code = WIFEXITED(status) ? WEXITSTATUS(status) : 1;
    if (code != 0) std::cerr << "nwlb_e2e: " << w.name << " exited with " << code << "\n";
    status_max = std::max(status_max, code);
  }
  if (!args.json_path.empty()) {
    std::ofstream out(args.json_path);
    out << "{\"seed\":" << args.run.seed << ",\"workloads\":[";
    for (std::size_t i = 0; i < child_json.size(); ++i) {
      std::ifstream in(child_json[i]);
      std::stringstream body;
      body << in.rdbuf();
      out << (i ? "," : "") << "\n" << (body.str().empty() ? "null" : body.str());
      in.close();
      std::remove(child_json[i].c_str());
    }
    out << "\n]}\n";
    if (!out) {
      std::cerr << "nwlb_e2e: cannot write " << args.json_path << "\n";
      return 1;
    }
  }
  return status_max;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (const std::string problem = parse_args(argc, argv, args); !problem.empty())
    return usage(problem);
  if (args.workload == "all") return run_all(args);

  const e2e::Workload& w = *e2e::find_workload(args.workload);
  try {
    const e2e::Result r = e2e::run_workload(w, args.run);
    print_result(w, args, r);
    if (!args.json_path.empty()) {
      std::ofstream out(args.json_path);
      out << result_json(w, args, r) << "\n";
      if (!out) {
        std::cerr << "nwlb_e2e: cannot write " << args.json_path << "\n";
        return 1;
      }
    }
    return r.correct ? 0 : 3;
  } catch (const std::exception& e) {
    std::cerr << "nwlb_e2e: " << w.name << " failed: " << e.what() << "\n";
    return 1;
  }
}
