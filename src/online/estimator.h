// Streaming traffic-matrix estimation (DESIGN.md §10, §15).
//
// The paper's controller re-optimizes from a periodic traffic-matrix feed;
// in a live deployment nobody hands the controller an oracle matrix — it
// must be *measured*.  The shims already observe every session at its
// ingress (the per-class window counters the replay data plane exports),
// so an estimator folds those sketches into a TrafficMatrix each control
// interval, mapped back onto each class's ordered (ingress, egress) pair.
//
// Estimation is pluggable behind the abstract `Estimator` interface
// (DESIGN.md §15): the control loop, the replicated control plane, and
// nwlbctl all construct estimators through `make_estimator(spec)` where
// `spec` is `kind[:key=value[,key=value]...]`.  Registered kinds:
//
//   * `ewma`     — one EWMA per class (alpha = 2/(window+1)).  The
//     paper-faithful near-stationary baseline.
//   * `var-ewma` — EWMA level plus an EWMA of the squared innovation;
//     each class's estimate is inflated by `headroom_sigmas·σ̂` (capped)
//     so the LP provisions burst headroom where the traffic is actually
//     bursty.  The burst-aware choice for self-similar traffic.
//
// Both correct warm-up bias with an effective smoothing weight
// `max(alpha, 1/(t+1))`: the first window seeds the state directly (no
// bias toward the all-zero initial state), yet an anomalous first window
// (a flash crowd at boot) is forgotten at least as fast as a running
// sample mean would forget it, instead of being locked in as the scale
// anchor for `window` intervals.
//
// Two guards keep every estimate LP-compatible:
//
//   * Class-support floor.  build_classes() creates one class per ordered
//     pair with *positive* demand, and the controller warm-starts every
//     epoch from the previous basis, which requires the model shape to be
//     identical across epochs.  A pair that happens to see zero sessions
//     in a window must therefore not vanish from the matrix: every class
//     known at construction keeps a small positive floor.
//
//   * Scale anchoring.  Window counters are "sessions this interval", not
//     "provisioned sessions"; scale_to_total renormalizes the estimate to
//     the deployment's provisioned volume so LP load fractions stay
//     comparable with the oracle-fed path.  Headroom inflation is applied
//     *after* anchoring — otherwise the renormalization would cancel it.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "traffic/classes.h"
#include "traffic/matrix.h"

namespace nwlb::online {

struct EstimatorOptions {
  /// Smoothing window, in control intervals (alpha = 2 / (window + 1)).
  /// 1 = no smoothing: each estimate is the latest window alone.
  int window = 4;

  /// Renormalize every estimate so the matrix totals this many sessions
  /// (the deployment's provisioned volume).  0 = keep raw window counts.
  double scale_to_total = 0.0;

  /// Floor for a known class pair as a fraction of the mean per-class
  /// volume — keeps the LP model shape fixed (see file comment).
  double support_floor = 1e-3;

  /// var-ewma only: innovation-variance window (2/(variance_window+1)),
  /// slower than `window` so headroom tracks *which classes are bursty*
  /// without jittering.
  int variance_window = 8;

  /// var-ewma only: headroom multiplier k — each class's estimate is
  /// inflated by k·σ̂ of its recent innovation (one-step forecast error).
  /// Keep k modest: LP plan fractions are scale-invariant, so inflating
  /// one class *squeezes every other class's share* — headroom is a
  /// zero-sum tilt, not free slack.  A quarter-sigma hedge is what wins
  /// the selfsimilar_tracking bench; k >= 1 measurably loses.
  double headroom_sigmas = 0.25;

  /// var-ewma only: cap on the inflation as a fraction of the class
  /// estimate (0.2 = at most 1.2x the class's provisioned volume).
  double headroom_cap = 0.2;
};

/// Throws std::invalid_argument with a typed message when any field is
/// outside its documented domain.  Called by every estimator constructor
/// and by spec parsing, so a bad option never gets past construction.
void validate_estimator_options(const EstimatorOptions& options);

/// Abstract traffic-matrix estimator (DESIGN.md §15).  Construct through
/// make_estimator(); the concrete types are implementation details.
class Estimator {
 public:
  virtual ~Estimator() = default;

  /// Folds one control interval's data-plane observations (indexed like
  /// the construction-time class list; sizes must match).
  virtual void observe(std::span<const std::uint64_t> class_sessions,
                       std::span<const std::uint64_t> class_bytes) = 0;

  /// The current estimate (see file comment for floor + scaling).  Valid
  /// after the first observe(); before that it is the flat floor matrix.
  virtual traffic::TrafficMatrix estimate() const = 0;

  /// Smoothed sessions-per-interval forecast for one class (headroom
  /// inflation excluded — this is the tracked level, not the provisioned
  /// volume).
  virtual double class_rate(std::size_t class_index) const = 0;
  /// Smoothed payload bytes per session for one class (0 until observed).
  virtual double bytes_per_session(std::size_t class_index) const = 0;

  virtual int intervals_observed() const = 0;
  virtual std::size_t num_classes() const = 0;
  /// The registered spec kind this estimator was built as ("ewma", ...).
  virtual std::string_view kind() const = 0;
  virtual const EstimatorOptions& options() const = 0;
};

/// Grammar accepted by make_estimator() / parse_estimator_spec().
/// Kept in one place so every rejection message can cite it.
std::string_view estimator_spec_grammar();

/// Registered estimator kinds, in registration order.
std::span<const std::string_view> estimator_kinds();

struct EstimatorSpec {
  std::string kind;
  EstimatorOptions options;
};

/// Parses `kind[:key=value[,key=value]...]` on top of `defaults`.
/// Keys for every kind: window, floor, scale; var-ewma also takes
/// variance-window, headroom, cap.  Throws std::invalid_argument
/// citing estimator_spec_grammar() on an unknown kind, a key the kind does
/// not take, a malformed pair, or an out-of-domain value.
EstimatorSpec parse_estimator_spec(std::string_view spec,
                                   const EstimatorOptions& defaults = {});

/// The one way to build an estimator.  `classes` fixes the shape (one
/// state slot per class, mapped to its (ingress, egress) pair); `num_pops`
/// sizes the emitted matrix; `defaults` seeds the options the spec's
/// key=value overrides are applied on top of.
std::unique_ptr<Estimator> make_estimator(
    std::string_view spec, const std::vector<traffic::TrafficClass>& classes,
    int num_pops, const EstimatorOptions& defaults = {});

/// Total-variation distance between the two matrices after normalizing
/// each to unit mass: 0 = identical shape, 1 = disjoint support.  The
/// bench's "estimator error vs oracle" metric.
double estimation_error(const traffic::TrafficMatrix& estimate,
                        const traffic::TrafficMatrix& oracle);

}  // namespace nwlb::online
