#include "core/threshold_detector.h"

#include <gtest/gtest.h>

namespace sybil::core {
namespace {

SybilFeatures sybil_like() {
  SybilFeatures f;
  f.invite_rate_short = 55.0;
  f.outgoing_accept_ratio = 0.25;
  f.incoming_accept_ratio = 1.0;
  f.clustering_coefficient = 0.0005;
  return f;
}

SybilFeatures normal_like() {
  SybilFeatures f;
  f.invite_rate_short = 2.0;
  f.outgoing_accept_ratio = 0.8;
  f.incoming_accept_ratio = 0.6;
  f.clustering_coefficient = 0.05;
  return f;
}

TEST(Threshold, FlagsSybilProfile) {
  const ThresholdDetector det;
  EXPECT_TRUE(det.is_sybil(sybil_like()));
  EXPECT_FALSE(det.is_sybil(normal_like()));
}

TEST(Threshold, ConjunctionRequiresAllThree) {
  const ThresholdDetector det;
  SybilFeatures f = sybil_like();
  f.invite_rate_short = 5.0;  // below rate threshold
  EXPECT_FALSE(det.is_sybil(f));
  f = sybil_like();
  f.outgoing_accept_ratio = 0.7;  // accepted too often
  EXPECT_FALSE(det.is_sybil(f));
  f = sybil_like();
  f.clustering_coefficient = 0.05;  // too clustered
  EXPECT_FALSE(det.is_sybil(f));
}

TEST(Threshold, BoundaryConditions) {
  const ThresholdDetector det;  // accept<0.5, rate>=20, cc<0.01
  SybilFeatures f = sybil_like();
  f.invite_rate_short = 20.0;  // inclusive lower bound
  EXPECT_TRUE(det.is_sybil(f));
  f.invite_rate_short = 19.999;
  EXPECT_FALSE(det.is_sybil(f));
  f = sybil_like();
  f.outgoing_accept_ratio = 0.5;  // exclusive upper bound
  EXPECT_FALSE(det.is_sybil(f));
  f = sybil_like();
  f.clustering_coefficient = 0.01;  // exclusive upper bound
  EXPECT_FALSE(det.is_sybil(f));
}

TEST(Threshold, MinRequestsGuard) {
  const ThresholdDetector det;
  // Sybil-looking features but too little history to trust the ratios.
  EXPECT_FALSE(det.is_sybil(sybil_like(), 3));
  EXPECT_TRUE(det.is_sybil(sybil_like(), 10));
}

/// enough_requests() is is_sybil()'s first clause and nothing else: for
/// features that cross every threshold, the verdict flips exactly where
/// enough_requests() does, at min_requests.
TEST(Threshold, EnoughRequestsIsTheMinRequestsClause) {
  for (const std::uint32_t min_requests : {0u, 1u, 10u}) {
    ThresholdRule rule;
    rule.min_requests = min_requests;
    const ThresholdDetector det(rule);
    for (std::uint32_t sent = 0; sent <= 2 * min_requests + 2; ++sent) {
      EXPECT_EQ(det.enough_requests(sent), sent >= min_requests) << sent;
      EXPECT_EQ(det.is_sybil(sybil_like(), sent), det.enough_requests(sent))
          << sent;
      EXPECT_FALSE(det.is_sybil(normal_like(), sent)) << sent;
    }
  }
}

TEST(Threshold, CustomRule) {
  ThresholdRule rule;
  rule.invite_rate_min = 100.0;
  const ThresholdDetector det(rule);
  EXPECT_FALSE(det.is_sybil(sybil_like()));
  SybilFeatures f = sybil_like();
  f.invite_rate_short = 150.0;
  EXPECT_TRUE(det.is_sybil(f));
}

}  // namespace
}  // namespace sybil::core
