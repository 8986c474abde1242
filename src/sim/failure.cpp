#include "sim/failure.h"

#include <charconv>
#include <sstream>
#include <stdexcept>

namespace nwlb::sim {

namespace {

/// `token` read as one whole number of type T: no sign on an unsigned T
/// and nothing after the number.  Throws std::invalid_argument naming the
/// line (`where`), the field (`what`) and the token otherwise.
template <typename T>
T whole_number(const std::string& token, const std::string& where, const char* what) {
  T value{};
  const char* end = token.data() + token.size();
  const auto [stop, error] = std::from_chars(token.data(), end, value);
  if (error != std::errc() || stop != end)
    throw std::invalid_argument(where + "bad " + what + " '" + token + "'");
  return value;
}

}  // namespace

const char* to_string(FailureKind kind) {
  switch (kind) {
    case FailureKind::kNodeCrash: return "crash";
    case FailureKind::kMirrorBlackhole: return "blackhole";
    case FailureKind::kLinkDown: return "linkdown";
    case FailureKind::kControllerCrash: return "controller_crash";
    case FailureKind::kPartition: return "partition";
  }
  return "?";
}

std::string to_string(const FailureEvent& event) {
  std::ostringstream out;
  out << to_string(event.kind) << ' ' << event.target << ' ' << event.begin << ' ';
  if (event.end == FailureEvent::kNever)
    out << '-';
  else
    out << event.end;
  if (event.severity < 1.0) out << ' ' << event.severity;
  return out.str();
}

int FailureSchedule::add(FailureEvent event) {
  if (event.target < 0)
    throw std::invalid_argument("FailureSchedule: negative target id");
  if (event.kind == FailureKind::kPartition && event.target == 0)
    throw std::invalid_argument(
        "FailureSchedule: partition mask must have at least one bit set");
  if (event.end <= event.begin)
    throw std::invalid_argument("FailureSchedule: event ends before it begins");
  if (!(event.severity >= 0.0 && event.severity <= 1.0))
    throw std::invalid_argument("FailureSchedule: severity out of [0,1]");
  event.id = static_cast<int>(events_.size());
  events_.push_back(event);
  return event.id;
}

bool FailureSchedule::node_crashed(int node, std::uint64_t session_index) const {
  for (const FailureEvent& e : events_)
    if (e.kind == FailureKind::kNodeCrash && e.target == node &&
        e.active_at(session_index))
      return true;
  return false;
}

const FailureEvent* FailureSchedule::blackhole_at(int mirror,
                                                  std::uint64_t session_index) const {
  for (const FailureEvent& e : events_)
    if (e.kind == FailureKind::kMirrorBlackhole && e.target == mirror &&
        e.active_at(session_index))
      return &e;
  return nullptr;
}

const FailureEvent* FailureSchedule::link_down_at(int link,
                                                  std::uint64_t session_index) const {
  for (const FailureEvent& e : events_)
    if (e.kind == FailureKind::kLinkDown && e.target == link &&
        e.active_at(session_index))
      return &e;
  return nullptr;
}

std::vector<int> FailureSchedule::failed_nodes_at(std::uint64_t session_index) const {
  std::vector<int> nodes;
  for (const FailureEvent& e : events_) {
    const bool data_plane_node = e.kind == FailureKind::kNodeCrash ||
                                 e.kind == FailureKind::kMirrorBlackhole;
    if (!data_plane_node || !e.active_at(session_index)) continue;
    bool seen = false;
    for (int n : nodes) seen = seen || n == e.target;
    if (!seen) nodes.push_back(e.target);
  }
  return nodes;
}

bool FailureSchedule::controller_crashed(int replica,
                                         std::uint64_t session_index) const {
  for (const FailureEvent& e : events_)
    if (e.kind == FailureKind::kControllerCrash && e.target == replica &&
        e.active_at(session_index))
      return true;
  return false;
}

std::uint32_t FailureSchedule::partition_mask_at(std::uint64_t session_index) const {
  for (const FailureEvent& e : events_)
    if (e.kind == FailureKind::kPartition && e.active_at(session_index))
      return static_cast<std::uint32_t>(e.target);
  return 0;
}

bool FailureSchedule::any_active_at(std::uint64_t session_index) const {
  for (const FailureEvent& e : events_)
    if (e.active_at(session_index)) return true;
  return false;
}

void FailureSchedule::check_targets(int processing_nodes, int directed_links) const {
  for (const FailureEvent& e : events_) {
    int limit = 0;
    const char* what = nullptr;
    switch (e.kind) {
      case FailureKind::kNodeCrash:
      case FailureKind::kMirrorBlackhole:
        limit = processing_nodes;
        what = "processing node";
        break;
      case FailureKind::kLinkDown:
        limit = directed_links;
        what = "directed link";
        break;
      case FailureKind::kControllerCrash:
      case FailureKind::kPartition:
        continue;
    }
    if (e.target < limit) continue;
    std::string message = "FailureSchedule: '";
    message.append(sim::to_string(e)).append("' targets ").append(what).append(1, ' ');
    message.append(std::to_string(e.target)).append(", outside [0, ");
    throw std::invalid_argument(message.append(std::to_string(limit)).append(")"));
  }
}

FailureSchedule FailureSchedule::parse(const std::string& spec) {
  FailureSchedule schedule;
  std::string normalized = spec;
  for (char& c : normalized)
    if (c == ';') c = '\n';
  std::istringstream lines(normalized);
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(lines, line)) {
    ++line_no;
    if (const std::size_t hash = line.find('#'); hash != std::string::npos)
      line.erase(hash);
    std::istringstream fields(line);
    std::string kind_name;
    if (!(fields >> kind_name)) continue;  // Blank / comment-only line.

    const std::string where = "FailureSchedule: line " + std::to_string(line_no) + ": ";
    FailureEvent event;
    if (kind_name == "crash") {
      event.kind = FailureKind::kNodeCrash;
    } else if (kind_name == "blackhole") {
      event.kind = FailureKind::kMirrorBlackhole;
    } else if (kind_name == "linkdown") {
      event.kind = FailureKind::kLinkDown;
    } else if (kind_name == "controller_crash") {
      event.kind = FailureKind::kControllerCrash;
    } else if (kind_name == "partition") {
      event.kind = FailureKind::kPartition;
    } else {
      throw std::invalid_argument(where + "unknown event kind '" + kind_name + "'");
    }
    std::string target_token, begin_token, end_token;
    if (!(fields >> target_token >> begin_token >> end_token))
      throw std::invalid_argument(where + "expected '<kind> <target> <begin> <end|->'");
    event.target = whole_number<int>(target_token, where, "target");
    event.begin = whole_number<std::uint64_t>(begin_token, where, "begin index");
    event.end = end_token == "-" || end_token == "inf"
                    ? FailureEvent::kNever
                    : whole_number<std::uint64_t>(end_token, where, "end index");
    if (std::string severity; fields >> severity)
      event.severity = whole_number<double>(severity, where, "severity");
    if (std::string extra; fields >> extra)
      throw std::invalid_argument(where + "unexpected token '" + extra + "' after the severity");

    // Schedules read top to bottom as a timeline; an event that begins
    // before its predecessor, or repeats one verbatim, is almost always a
    // typo in the spec — reject loudly instead of silently reordering.
    if (!schedule.events_.empty() && event.begin < schedule.events_.back().begin)
      throw std::invalid_argument(
          where + "out-of-order event: begin " + std::to_string(event.begin) +
          " precedes the previous event's begin " +
          std::to_string(schedule.events_.back().begin) +
          " (list events in non-decreasing begin order)");
    for (const FailureEvent& prior : schedule.events_)
      if (prior.kind == event.kind && prior.target == event.target &&
          prior.begin == event.begin && prior.end == event.end)
        throw std::invalid_argument(
            where + "duplicate event '" + kind_name + " " + std::to_string(event.target) +
            " " + std::to_string(event.begin) + " ...' already scheduled");

    try {
      schedule.add(event);
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument(where + e.what());
    }
  }
  return schedule;
}

std::string FailureSchedule::to_string() const {
  std::string out;
  for (const FailureEvent& e : events_) out.append(sim::to_string(e)).append(1, '\n');
  return out;
}

}  // namespace nwlb::sim
