// Real-time Sybil detection pipeline (Section 2.3).
//
// Deployed form of the threshold detector: it periodically sweeps the
// accounts that have been active since the last sweep, extracts the four
// features, applies the (optionally adaptively tuned) threshold rule,
// and reports accounts to flag. Renren's workflow — flag, manual
// verification, ban, feedback into the tuner — is modeled by the caller
// confirming flags back into the pipeline.
//
// Degraded mode: a sweep may be budgeted (DetectorOptions::sweep_budget
// caps evaluated candidates; sweep_deadline_millis caps wall-clock).
// Candidates the budget cuts off are carried over, in order, to the
// next sweep — a slow sweep degrades into several bounded sweeps
// instead of stalling the pipeline, and the union of flags over
// successive sweeps equals the single unbudgeted sweep (tested in
// realtime_test.cpp). At least one candidate is always evaluated per
// sweep, so progress is guaranteed.
//
// Observability: each sweep runs under a "realtime.sweep" span and
// bumps candidate/flag counters; budget cut-offs and the carry-over
// backlog are visible as "realtime.sweep.deadline_hits" and
// "realtime.sweep.carryover". Collection never affects verdicts or
// tuner state.
#pragma once

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "core/adaptive.h"
#include "core/detector.h"
#include "core/detector_options.h"
#include "core/features.h"
#include "core/threshold_detector.h"
#include "osn/network.h"

namespace sybil::core {

class RealTimeDetector {
 public:
  /// Throws std::invalid_argument if `options` fails validate().
  explicit RealTimeDetector(const DetectorOptions& options = {});

  /// Evaluates carried-over candidates from earlier budget-cut sweeps,
  /// then `candidates`, against the current rule using a fresh feature
  /// snapshot of `net`. Returns the newly flagged accounts with the
  /// features the rule fired on, stamped with `now` (accounts flagged
  /// in earlier sweeps are skipped). Candidates beyond the sweep
  /// budget/deadline are queued for the next sweep.
  FlagBatch sweep(const osn::Network& net,
                  const std::vector<osn::NodeId>& candidates,
                  graph::Time now = 0.0);

  /// Manual-verification feedback: the account's features at flag time
  /// plus the verdict. Drives the adaptive tuner.
  void confirm(const SybilFeatures& features, bool confirmed_sybil);

  const ThresholdRule& rule() const noexcept { return detector_.rule(); }
  std::size_t flagged_count() const noexcept { return flagged_.size(); }
  bool already_flagged(osn::NodeId id) const {
    return flagged_.contains(id);
  }
  /// Candidates awaiting the next sweep after a budget/deadline cut.
  std::size_t carryover_count() const noexcept { return carryover_.size(); }

 private:
  DetectorOptions options_;
  ThresholdDetector detector_;
  AdaptiveThresholdTuner tuner_;
  std::unordered_set<osn::NodeId> flagged_;
  /// Budget-cut candidates, in cut order; carryover_set_ mirrors it so
  /// re-submitted candidates are not queued twice.
  std::vector<osn::NodeId> carryover_;
  std::unordered_set<osn::NodeId> carryover_set_;
  std::size_t confirmations_ = 0;
};

}  // namespace sybil::core
