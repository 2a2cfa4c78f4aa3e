// Copyright (c) the sensord authors. Licensed under the Apache License 2.0.

#include "score.h"

#include <set>
#include <utility>

namespace perfbench {

Scorer::Scorer(const Fleet& fleet)
    : spec_(fleet.spec()), leaf_slots_(fleet.leaf_slots()) {
  sensord::GroundTruthOptions opts;
  opts.dimensions = spec_.dimensions;
  opts.leaf_window = spec_.window;
  opts.mdef_cell_side = 2.0 * spec_.mdef.counting_radius;
  tracker_ =
      std::make_unique<sensord::GroundTruthTracker>(fleet.layout(), opts);
  for (int leaf : leaf_slots_) {
    std::vector<int> chain;
    for (int cur = leaf; cur >= 0;
         cur = fleet.layout().nodes[static_cast<size_t>(cur)].parent_slot) {
      chain.push_back(cur);
    }
    ancestors_.push_back(std::move(chain));
  }
  d3_truth_.resize(leaf_slots_.size());
  mgdd_truth_.resize(leaf_slots_.size());
}

void Scorer::Add(const double* flat) {
  const size_t dims = spec_.dimensions;
  for (size_t i = 0; i < leaf_slots_.size(); ++i) {
    point_.assign(flat + i * dims, flat + (i + 1) * dims);
    tracker_->AddLeafReading(leaf_slots_[i], point_);
  }
}

void Scorer::AddAndJudge(const double* flat) {
  const size_t dims = spec_.dimensions;
  const int root = tracker_->RootSlot();
  for (size_t i = 0; i < leaf_slots_.size(); ++i) {
    point_.assign(flat + i * dims, flat + (i + 1) * dims);
    tracker_->AddLeafReading(leaf_slots_[i], point_);
    d3_truth_[i].clear();
    for (int a : ancestors_[i]) {
      d3_truth_[i].push_back(
          tracker_->IsTrueDistanceOutlier(a, point_, spec_.d3));
    }
    mgdd_truth_[i] = tracker_->TrueMdef(root, point_, spec_.mdef).is_outlier;
  }
}

void Scorer::Resolve(Fleet& fleet, uint64_t seq) {
  const Recorder& d3 = fleet.recorder(kD3);
  const Recorder& mgdd = fleet.recorder(kMgdd);
  const auto& d3_ids = fleet.ids(kD3);
  const auto& mgdd_ids = fleet.ids(kMgdd);
  for (size_t i = 0; i < leaf_slots_.size(); ++i) {
    const auto leaf = static_cast<size_t>(leaf_slots_[i]);
    for (size_t k = 0; k < ancestors_[i].size(); ++k) {
      const auto a = static_cast<size_t>(ancestors_[i][k]);
      d3_.Record(d3_truth_[i][k], d3.Flagged(d3_ids[a], d3_ids[leaf], seq));
    }
    mgdd_.Record(mgdd_truth_[i],
                 mgdd.Flagged(mgdd_ids[leaf], mgdd_ids[leaf], seq));
  }
}

uint64_t ContainmentViolations(const Recorder& d3) {
  std::set<std::pair<sensord::NodeId, uint64_t>> violating;
  for (const sensord::OutlierEvent& e : d3.events()) {
    if (e.level > 1 &&
        !d3.FlaggedAtLevel(e.level - 1, e.source_leaf, e.source_seq)) {
      violating.insert({e.source_leaf, e.source_seq});
    }
  }
  return violating.size();
}

}  // namespace perfbench
