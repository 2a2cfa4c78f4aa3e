// Copyright (c) the sensord authors. Licensed under the Apache License 2.0.
//
// Output checks, all computed outside the timed regions: exact ground truth
// (eval::GroundTruthTracker) for precision/recall, and D3's Theorem 3
// containment on every round.

#ifndef PERFBENCH_SCORE_H_
#define PERFBENCH_SCORE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "eval/ground_truth.h"
#include "eval/scoring.h"
#include "fleet.h"

namespace perfbench {

/// Scores D3 (every level, merged) and MGDD (leaves) against exact truth.
class Scorer {
 public:
  explicit Scorer(const Fleet& fleet);

  /// Adds one round of readings to the pooled windows without scoring.
  void Add(const double* flat);

  /// Adds one round and records the truth of each reading at its arrival.
  void AddAndJudge(const double* flat);

  /// Compares the judged round with the detections of `fleet`'s recorders;
  /// `seq` is the leaves' reading counter for that round.
  void Resolve(Fleet& fleet, uint64_t seq);

  const sensord::PrecisionRecall& d3() const { return d3_; }
  const sensord::PrecisionRecall& mgdd() const { return mgdd_; }

 private:
  const WorkloadSpec& spec_;
  std::unique_ptr<sensord::GroundTruthTracker> tracker_;
  std::vector<int> leaf_slots_;
  std::vector<std::vector<int>> ancestors_;  // per leaf, leaf first
  // Truth of the judged round: per leaf, D3 per ancestor then MGDD.
  std::vector<std::vector<bool>> d3_truth_;
  std::vector<bool> mgdd_truth_;
  sensord::Point point_;
  sensord::PrecisionRecall d3_;
  sensord::PrecisionRecall mgdd_;
};

/// Theorem 3: every D3 flag at level k > 1 needs the same (leaf, seq)
/// flagged at level k - 1. Returns the number of readings violating it.
uint64_t ContainmentViolations(const Recorder& d3);

}  // namespace perfbench

#endif  // PERFBENCH_SCORE_H_
