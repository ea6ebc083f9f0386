// Adaptive feedback tuning of the threshold rule.
//
// The paper deploys "an adaptive feedback scheme to dynamically tune
// threshold parameters on the fly" but withholds its details for
// Renren's security. This is our re-design of such a scheme, documented
// as a substitution in DESIGN.md: administrators confirm flagged
// accounts (and spot-check unflagged ones); the tuner keeps bounded
// reservoir samples of confirmed-normal and confirmed-Sybil feature
// values and re-derives each threshold from a false-positive-budget
// quantile of the *normal* population, smoothing changes exponentially
// so a burst of feedback cannot whipsaw the production rule.
#pragma once

#include <cstddef>
#include <vector>

#include "core/features.h"
#include "core/threshold_detector.h"
#include "stats/rng.h"

namespace sybil::core {

struct AdaptiveConfig {
  /// Quantile of the confirmed-normal distribution each threshold is
  /// anchored to (0.995 → at most ~0.5% of normals cross any single
  /// threshold; the conjunction pushes the joint FPR far lower).
  double fp_quantile = 0.995;
  /// Exponential smoothing factor applied when moving a threshold
  /// toward its re-estimated value (0 = frozen, 1 = jump immediately).
  double smoothing = 0.3;
  /// Reservoir capacity per class.
  std::size_t reservoir_capacity = 5000;
  /// Minimum confirmed-normal observations before retuning activates.
  std::size_t min_observations = 50;
  ThresholdRule initial{};
  std::uint64_t seed = 99;
};

class AdaptiveThresholdTuner {
 public:
  explicit AdaptiveThresholdTuner(AdaptiveConfig config = {});

  /// Feedback from manual verification of an account.
  void observe(const SybilFeatures& f, bool confirmed_sybil);

  /// Re-derives the rule from the reservoirs (no-op until
  /// min_observations normals have been seen). Returns the active rule.
  const ThresholdRule& retune();

  const ThresholdRule& rule() const noexcept { return rule_; }
  std::size_t normal_observations() const noexcept { return normal_seen_; }
  std::size_t sybil_observations() const noexcept { return sybil_seen_; }

 private:
  struct Reservoir {
    std::vector<double> invite_rate;
    std::vector<double> out_accept;
    std::vector<double> clustering;
  };

  void reservoir_add(Reservoir& r, const SybilFeatures& f,
                     std::size_t seen_before);
  static double quantile_of(std::vector<double> values, double q);

  AdaptiveConfig config_;
  ThresholdRule rule_;
  stats::Rng rng_;
  Reservoir normal_, sybil_;
  std::size_t normal_seen_ = 0;
  std::size_t sybil_seen_ = 0;
};

}  // namespace sybil::core
