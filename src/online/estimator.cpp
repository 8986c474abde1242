#include "online/estimator.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

namespace nwlb::online {

namespace {

constexpr std::array<std::string_view, 2> kKinds = {"ewma", "var-ewma"};

constexpr std::string_view kGrammar =
    "estimator spec grammar: kind[:key=value[,key=value]...] with kind in "
    "{ewma, var-ewma}; both take keys {window, floor, scale}, var-ewma also "
    "{variance-window, headroom, cap, burst}";

[[noreturn]] void reject(std::string_view spec, const std::string& why) {
  throw std::invalid_argument("estimator spec \"" + std::string(spec) + "\": " +
                              why + " (" + std::string(kGrammar) + ")");
}

double parse_number(std::string_view spec, std::string_view key,
                    std::string_view value) {
  const std::string text(value);
  char* end = nullptr;
  const double parsed = std::strtod(text.c_str(), &end);
  if (text.empty() || end != text.c_str() + text.size())
    reject(spec, "value for key '" + std::string(key) + "' is not a number: '" +
                     text + "'");
  return parsed;
}

int parse_int(std::string_view spec, std::string_view key,
              std::string_view value) {
  const double parsed = parse_number(spec, key, value);
  const int as_int = static_cast<int>(parsed);
  if (static_cast<double>(as_int) != parsed)
    reject(spec, "value for key '" + std::string(key) + "' must be an integer");
  return as_int;
}

// ---- Shared per-class smoothing machinery ---------------------------------
//
// Every registered estimator shares the windowed shape: one state slot per
// traffic class, a warm-up-corrected smoothing weight, the plain
// sessions/bytes EWMAs behind bytes_per_session(), and the floor+anchor
// matrix assembly.  Subclasses supply the per-class rate forecast and an
// optional headroom fraction.
class WindowedEstimator : public Estimator {
 public:
  WindowedEstimator(std::string_view kind,
                    const std::vector<traffic::TrafficClass>& classes,
                    int num_pops, const EstimatorOptions& options)
      : kind_(kind), options_(options), num_pops_(num_pops) {
    validate_estimator_options(options);
    if (num_pops < 1)
      throw std::invalid_argument("Estimator: num_pops must be >= 1");
    alpha_ = 2.0 / (static_cast<double>(options.window) + 1.0);
    pairs_.reserve(classes.size());
    for (const traffic::TrafficClass& cls : classes) {
      if (cls.ingress < 0 || cls.ingress >= num_pops || cls.egress < 0 ||
          cls.egress >= num_pops)
        throw std::invalid_argument("Estimator: class pair outside PoP range");
      pairs_.push_back({cls.ingress, cls.egress});
    }
    mean_sessions_.assign(pairs_.size(), 0.0);
    mean_bytes_.assign(pairs_.size(), 0.0);
  }

  void observe(std::span<const std::uint64_t> class_sessions,
               std::span<const std::uint64_t> class_bytes) final {
    if (class_sessions.size() != pairs_.size() ||
        class_bytes.size() != pairs_.size())
      throw std::invalid_argument("Estimator: counter span size mismatch");
    // Warm-up bias correction: the first window seeds the state directly
    // (a = 1), and for the next few windows the weight floors at the
    // running-mean weight 1/(t+1).  A flash-crowd first window therefore
    // cannot lock in an inflated scale anchor: it decays at least as fast
    // as a sample mean would dilute it, regardless of how long the
    // configured window is.
    const double a =
        std::max(alpha_, 1.0 / (static_cast<double>(intervals_) + 1.0));
    for (std::size_t c = 0; c < pairs_.size(); ++c) {
      const auto sessions = static_cast<double>(class_sessions[c]);
      const auto bytes = static_cast<double>(class_bytes[c]);
      // Subclass first: update() sees the *pre-fold* mean_rate(c) — the
      // previous level — which is what an innovation is measured against.
      update(c, a, sessions);
      mean_sessions_[c] = a * sessions + (1.0 - a) * mean_sessions_[c];
      mean_bytes_[c] = a * bytes + (1.0 - a) * mean_bytes_[c];
    }
    ++intervals_;
  }

  traffic::TrafficMatrix estimate() const final {
    traffic::TrafficMatrix tm(num_pops_);
    // Class-support floor: every pair the deployment was built with keeps
    // a sliver of demand so the LP model shape never changes.
    double total = 0.0;
    for (std::size_t c = 0; c < pairs_.size(); ++c) total += rate(c);
    const double mean =
        pairs_.empty()
            ? 0.0
            : std::max(total / static_cast<double>(pairs_.size()), 1.0);
    const double floor = options_.support_floor * mean;
    std::vector<double> base(pairs_.size(), 0.0);
    double raw = 0.0;
    for (std::size_t c = 0; c < pairs_.size(); ++c) {
      base[c] = std::max(rate(c), floor);
      if (pairs_[c].ingress != pairs_[c].egress) raw += base[c];
    }
    // Scale anchoring first, headroom second: the tracked level mass is
    // renormalized to the provisioned volume, then each class is inflated
    // by its own burst headroom.  Inflating before anchoring would be a
    // no-op — the renormalization divides it right back out.
    const double factor =
        (options_.scale_to_total > 0.0 && raw > 0.0)
            ? options_.scale_to_total / raw
            : 1.0;
    for (std::size_t c = 0; c < pairs_.size(); ++c) {
      if (pairs_[c].ingress == pairs_[c].egress) continue;
      const double volume = base[c] * factor * (1.0 + headroom_fraction(c));
      tm.set_volume(pairs_[c].ingress, pairs_[c].egress,
                    tm.volume(pairs_[c].ingress, pairs_[c].egress) + volume);
    }
    return tm;
  }

  double class_rate(std::size_t class_index) const final {
    if (class_index >= pairs_.size())
      throw std::out_of_range("Estimator: class index out of range");
    return rate(class_index);
  }

  double bytes_per_session(std::size_t class_index) const final {
    const double sessions = mean_sessions_.at(class_index);
    return sessions > 0.0 ? mean_bytes_.at(class_index) / sessions : 0.0;
  }

  int intervals_observed() const final { return intervals_; }
  std::size_t num_classes() const final { return pairs_.size(); }
  std::string_view kind() const final { return kind_; }
  const EstimatorOptions& options() const final { return options_; }

 protected:
  /// Folds one window's session count for class `c` with effective
  /// smoothing weight `a` (already warm-up-corrected; a = 1 on the very
  /// first window).  Called before intervals_observed() is bumped.
  virtual void update(std::size_t c, double a, double sessions) = 0;
  /// The per-class sessions-per-interval forecast.
  virtual double rate(std::size_t c) const = 0;
  /// Extra provisioned fraction for class `c` (0 = no headroom).
  virtual double headroom_fraction(std::size_t c) const {
    (void)c;
    return 0.0;
  }

  double mean_rate(std::size_t c) const { return mean_sessions_[c]; }
  bool first_window() const { return intervals_ == 0; }

 private:
  struct Pair {
    int ingress;
    int egress;
  };
  std::string_view kind_;  // Points into kKinds (static storage).
  EstimatorOptions options_;
  int num_pops_;
  double alpha_;
  std::vector<Pair> pairs_;
  std::vector<double> mean_sessions_;  // Plain EWMA, warm-up corrected.
  std::vector<double> mean_bytes_;     // Payload bytes/interval.
  int intervals_ = 0;
};

// ---- ewma: the paper-faithful near-stationary baseline --------------------
class EwmaEstimator final : public WindowedEstimator {
 public:
  using WindowedEstimator::WindowedEstimator;

 protected:
  // The base's plain EWMA *is* the rate — nothing extra to track.
  void update(std::size_t, double, double) override {}
  double rate(std::size_t c) const override { return mean_rate(c); }
};

// ---- var-ewma: EWMA level + innovation variance -> burst response ---------
//
// The tracked variance is used twice:
//   * burst onset detection — an UP innovation beyond burst_sigmas·σ̂
//     snaps the level to the observation, because under long-range
//     dependence a jump that large marks the start of a sustained episode
//     and smoothing into it at alpha costs several windows of
//     under-provisioning (the tail windows the selfsimilar_tracking bench
//     prices).  Ordinary innovations smooth exactly like plain ewma, so
//     calm-traffic plans — and therefore rollout churn — stay identical.
//   * headroom — the estimate is inflated by k·σ̂/level (capped) so the
//     LP keeps a hedge on the classes that have recently been volatile.
class VarEwmaEstimator final : public WindowedEstimator {
 public:
  VarEwmaEstimator(const std::vector<traffic::TrafficClass>& classes,
                   int num_pops, const EstimatorOptions& options)
      : WindowedEstimator("var-ewma", classes, num_pops, options),
        // The second moment gets its own, slower smoothing constant:
        // headroom is meant to track *which classes are bursty*, a
        // slowly-changing property, and a jittery sigma-hat would
        // translate straight into rollout churn.
        var_alpha_(2.0 / (static_cast<double>(options.variance_window) + 1.0)),
        level_(num_classes(), 0.0),
        var_(num_classes(), 0.0),
        headroom_(num_classes(), 0.0) {}

 protected:
  void update(std::size_t c, double a, double sessions) override {
    if (first_window()) {
      level_[c] = sessions;
      return;
    }
    const double innovation = sessions - level_[c];
    // Sigma-hat from *past* innovations only — the trigger must compare
    // this window's jump against what was normal before it.
    const double sigma = std::sqrt(var_[c]);
    // Same warm-up floor as the level: the first innovation seeds the
    // variance outright instead of being scaled by a tiny alpha.
    const double av = std::max(
        var_alpha_, 1.0 / static_cast<double>(intervals_observed()));
    var_[c] = av * innovation * innovation + (1.0 - av) * var_[c];
    const bool burst = options().burst_sigmas > 0.0 &&
                       intervals_observed() >= 2 &&
                       innovation > options().burst_sigmas * sigma;
    level_[c] = burst ? sessions : level_[c] + a * innovation;

    // Quantize the headroom fraction to coarse steps with hysteresis
    // (a Schmitt trigger): sigma-hat drifts a little every window, and
    // feeding that drift straight into the LP re-tilts the plan — and
    // re-shuffles the hash space — for no provisioning benefit.  The
    // published fraction only moves once the raw value is clearly past
    // the current step, so within-step jitter is bit-stable.
    if (level_[c] > 0.0) {
      const double raw =
          std::min(options().headroom_cap,
                   options().headroom_sigmas * std::sqrt(var_[c]) / level_[c]);
      if (std::abs(raw - headroom_[c]) > 0.7 * kHeadroomStep)
        headroom_[c] = kHeadroomStep * std::floor(raw / kHeadroomStep + 0.5);
    }
  }
  double rate(std::size_t c) const override { return level_[c]; }
  double headroom_fraction(std::size_t c) const override {
    return headroom_[c];
  }

 private:
  static constexpr double kHeadroomStep = 0.05;
  double var_alpha_;
  std::vector<double> level_;
  std::vector<double> var_;
  std::vector<double> headroom_;
};

}  // namespace

void validate_estimator_options(const EstimatorOptions& options) {
  if (options.window < 1)
    throw std::invalid_argument("EstimatorOptions: window must be >= 1, got " +
                                std::to_string(options.window));
  if (!(options.scale_to_total >= 0.0) ||
      !std::isfinite(options.scale_to_total))
    throw std::invalid_argument(
        "EstimatorOptions: scale_to_total must be finite and >= 0");
  if (!(options.support_floor >= 0.0 && options.support_floor < 1.0))
    throw std::invalid_argument(
        "EstimatorOptions: support_floor must be in [0, 1), got " +
        std::to_string(options.support_floor));
  if (options.variance_window < 1)
    throw std::invalid_argument(
        "EstimatorOptions: variance_window must be >= 1, got " +
        std::to_string(options.variance_window));
  if (!(options.headroom_sigmas >= 0.0) ||
      !std::isfinite(options.headroom_sigmas))
    throw std::invalid_argument(
        "EstimatorOptions: headroom_sigmas must be finite and >= 0");
  if (!(options.headroom_cap >= 0.0) || !std::isfinite(options.headroom_cap))
    throw std::invalid_argument(
        "EstimatorOptions: headroom_cap must be finite and >= 0");
  if (!(options.burst_sigmas >= 0.0) || !std::isfinite(options.burst_sigmas))
    throw std::invalid_argument(
        "EstimatorOptions: burst_sigmas must be finite and >= 0 (0 disables "
        "the burst trigger)");
}

void Estimator::begin_partials() {
  merged_sessions_.assign(num_classes(), 0);
  merged_bytes_.assign(num_classes(), 0);
}

void Estimator::merge_partial(std::span<const std::uint64_t> sessions,
                              std::span<const std::uint64_t> bytes) {
  if (merged_sessions_.size() != num_classes()) begin_partials();
  if (sessions.size() != num_classes() || bytes.size() != num_classes())
    throw std::invalid_argument("Estimator: partial span size mismatch");
  for (std::size_t c = 0; c < sessions.size(); ++c) {
    merged_sessions_[c] += sessions[c];
    merged_bytes_[c] += bytes[c];
  }
}

void Estimator::commit_partials() {
  if (merged_sessions_.size() != num_classes()) begin_partials();
  observe(merged_sessions_, merged_bytes_);
}

std::string_view estimator_spec_grammar() { return kGrammar; }

std::span<const std::string_view> estimator_kinds() { return kKinds; }

EstimatorSpec parse_estimator_spec(std::string_view spec,
                                   const EstimatorOptions& defaults) {
  EstimatorSpec parsed;
  parsed.options = defaults;
  const std::size_t colon = spec.find(':');
  const std::string_view kind = spec.substr(0, colon);
  if (std::find(kKinds.begin(), kKinds.end(), kind) == kKinds.end())
    reject(spec, "unknown estimator kind '" + std::string(kind) + "'");
  parsed.kind = std::string(kind);
  std::string_view rest =
      colon == std::string_view::npos ? std::string_view{} : spec.substr(colon + 1);
  while (!rest.empty()) {
    const std::size_t comma = rest.find(',');
    const std::string_view pair = rest.substr(0, comma);
    rest = comma == std::string_view::npos ? std::string_view{}
                                           : rest.substr(comma + 1);
    const std::size_t eq = pair.find('=');
    if (eq == std::string_view::npos || eq == 0)
      reject(spec, "expected key=value, got '" + std::string(pair) + "'");
    const std::string_view key = pair.substr(0, eq);
    const std::string_view value = pair.substr(eq + 1);
    const bool var_ewma_key = key == "variance-window" || key == "headroom" ||
                              key == "cap" || key == "burst";
    if (var_ewma_key && kind != "var-ewma")
      reject(spec, "key '" + std::string(key) + "' applies only to var-ewma");
    if (key == "window")
      parsed.options.window = parse_int(spec, key, value);
    else if (key == "variance-window")
      parsed.options.variance_window = parse_int(spec, key, value);
    else if (key == "headroom")
      parsed.options.headroom_sigmas = parse_number(spec, key, value);
    else if (key == "cap")
      parsed.options.headroom_cap = parse_number(spec, key, value);
    else if (key == "floor")
      parsed.options.support_floor = parse_number(spec, key, value);
    else if (key == "scale")
      parsed.options.scale_to_total = parse_number(spec, key, value);
    else if (key == "burst")
      parsed.options.burst_sigmas = parse_number(spec, key, value);
    else
      reject(spec, "unknown key '" + std::string(key) + "'");
  }
  try {
    validate_estimator_options(parsed.options);
  } catch (const std::invalid_argument& e) {
    reject(spec, e.what());
  }
  return parsed;
}

std::unique_ptr<Estimator> make_estimator(
    std::string_view spec, const std::vector<traffic::TrafficClass>& classes,
    int num_pops, const EstimatorOptions& defaults) {
  const EstimatorSpec parsed = parse_estimator_spec(spec, defaults);
  if (parsed.kind == "ewma")
    return std::make_unique<EwmaEstimator>("ewma", classes, num_pops,
                                           parsed.options);
  if (parsed.kind == "var-ewma")
    return std::make_unique<VarEwmaEstimator>(classes, num_pops, parsed.options);
  reject(spec, "unknown estimator kind '" + parsed.kind + "'");
}

double estimation_error(const traffic::TrafficMatrix& estimate,
                        const traffic::TrafficMatrix& oracle) {
  if (estimate.num_nodes() != oracle.num_nodes())
    throw std::invalid_argument("estimation_error: matrix size mismatch");
  const double et = estimate.total();
  const double ot = oracle.total();
  // Total-variation distance on unit-normalized matrices: half the L1
  // difference of the two distributions.
  double l1 = 0.0;
  const int n = estimate.num_nodes();
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j) {
      if (i == j) continue;
      const double e = et > 0.0 ? estimate.volume(i, j) / et : 0.0;
      const double o = ot > 0.0 ? oracle.volume(i, j) / ot : 0.0;
      l1 += e > o ? e - o : o - e;
    }
  return 0.5 * l1;
}

}  // namespace nwlb::online
