#include "core/threshold_detector.h"

namespace sybil::core {

bool ThresholdDetector::is_sybil(const SybilFeatures& f,
                                 std::uint32_t requests_sent) const {
  if (!enough_requests(requests_sent)) return false;
  return f.outgoing_accept_ratio < rule_.outgoing_accept_max &&
         f.invite_rate_short >= rule_.invite_rate_min &&
         f.clustering_coefficient < rule_.clustering_max;
}

}  // namespace sybil::core
