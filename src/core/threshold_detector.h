// The paper's threshold-based Sybil classifier.
//
// Section 2.3: an account is flagged as a Sybil when
//   outgoing-accept ratio < 0.5  AND  invitation frequency exceeds 20/hr
//   AND clustering coefficient < 0.01.
// (The paper's inline formula prints "frequency < 20", but Fig 1 and the
// surrounding text — "accounts sending more than 20 invites per time
// interval are Sybils" — make clear the rule fires on HIGH frequency;
// we implement it that way and note the typo in EXPERIMENTS.md.)
//
// An account with insufficient activity is never flagged (min_requests
// guards the ratios against tiny denominators).
#pragma once

#include <cstdint>

#include "core/features.h"

namespace sybil::core {

struct ThresholdRule {
  double outgoing_accept_max = 0.5;
  double invite_rate_min = 20.0;  // invites per hour (short window)
  double clustering_max = 0.01;
  /// Minimum outgoing requests before the ratios are trusted.
  std::uint32_t min_requests = 10;
};

class ThresholdDetector {
 public:
  explicit ThresholdDetector(ThresholdRule rule = {}) : rule_(rule) {}

  /// True if the account has sent enough requests and the features
  /// cross all three Sybil thresholds.
  bool is_sybil(const SybilFeatures& f, std::uint32_t requests_sent) const;

  /// The min_requests guard, is_sybil's first clause. False means no
  /// feature values can make the account a Sybil, so callers may skip
  /// computing them.
  bool enough_requests(std::uint32_t requests_sent) const noexcept {
    return requests_sent >= rule_.min_requests;
  }

  /// Convenience when activity counts are unavailable: assumes the
  /// min-requests guard is satisfied.
  bool is_sybil(const SybilFeatures& f) const {
    return is_sybil(f, rule_.min_requests);
  }

  const ThresholdRule& rule() const noexcept { return rule_; }
  void set_rule(const ThresholdRule& rule) noexcept { rule_ = rule; }

 private:
  ThresholdRule rule_;
};

}  // namespace sybil::core
