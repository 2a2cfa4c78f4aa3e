// Copyright (c) the sensord authors. Licensed under the Apache License 2.0.
//
// The system under test: one Simulator per strategy (D3, MGDD and, for the
// relay workload, the centralized baseline) over one grid hierarchy, fed
// round by round with generated readings. A round delivers one reading to
// every leaf of every simulator, then drains each simulator to quiescence.

#ifndef PERFBENCH_FLEET_H_
#define PERFBENCH_FLEET_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "core/config.h"
#include "core/outlier_observer.h"
#include "data/stream_source.h"
#include "net/hierarchy.h"
#include "net/network.h"
#include "util/rng.h"

namespace perfbench {

enum class DataKind { kSyntheticMixture, kEngine };

/// One named workload. All sizes are fixed per workload; only the seed
/// varies between runs.
struct WorkloadSpec {
  std::string name;
  DataKind data = DataKind::kSyntheticMixture;
  size_t dimensions = 1;
  size_t leaves = 16;
  size_t window = 10000;  ///< |W|
  size_t sample = 500;    ///< |R|
  double fraction = 0.5;  ///< f
  sensord::DistanceOutlierConfig d3;
  sensord::MdefConfig mdef;
  /// D3/MGDD decisions on after one full window. False: traffic only
  /// (detection disabled, chain samples prewarmed, no warm-up rounds) and
  /// the centralized baseline runs beside D3 and MGDD, as in Figure 11.
  bool detect = true;
  /// Measured rounds per epoch. A run repeats epochs (fresh set-up, then
  /// these rounds) until it has measured --seconds.
  size_t epoch_rounds = 500;
  /// Rounds of the untimed evaluation pass that scores quality and counts
  /// messages on a fixed input.
  size_t eval_rounds = 400;
  /// Correctness floors on precision/recall (measured on the seed commit).
  double d3_precision_floor = 0.0;
  double d3_recall_floor = 0.0;
  double mgdd_precision_floor = 0.0;
  double mgdd_recall_floor = 0.0;
};

/// Rounds run during set-up: one full window for the detecting workloads,
/// plus a few more so lazily built state (the first estimators, the first
/// model broadcast, event-queue growth) exists before timing starts.
size_t SetupRounds(const WorkloadSpec& spec);

/// Looks up a workload by name; `tiny` selects the smoke-test sizes.
std::optional<WorkloadSpec> FindWorkload(const std::string& name, bool tiny);

/// Per-leaf reading streams: a fixed sensor field, read from a position
/// derived from the seed. Readings are produced round-major into a flat
/// buffer: [leaf][dim] for one round.
class ReadingSource {
 public:
  ReadingSource(const WorkloadSpec& spec, uint64_t seed);

  void NextRound(std::vector<double>* flat);

 private:
  size_t dims_;
  std::vector<std::unique_ptr<sensord::StreamSource>> streams_;
};

/// Collects detection events of one round.
class Recorder : public sensord::OutlierObserver {
 public:
  void OnOutlierDetected(const sensord::OutlierEvent& event) override;

  bool Flagged(sensord::NodeId node, sensord::NodeId leaf,
               uint64_t seq) const;
  /// Every event of the round, in detection order.
  const std::vector<sensord::OutlierEvent>& events() const { return events_; }
  bool FlaggedAtLevel(int level, sensord::NodeId leaf, uint64_t seq) const;
  void Clear();

 private:
  std::vector<sensord::OutlierEvent> events_;
  std::set<std::tuple<sensord::NodeId, sensord::NodeId, uint64_t>> by_node_;
  std::set<std::tuple<int, sensord::NodeId, uint64_t>> by_level_;
};

/// Wall time spent inside Simulator calls, by strategy. Filled only when a
/// round is traced.
struct SimSpans {
  double deliver_ns = 0.0;
  uint64_t deliver_calls = 0;
  double run_ns = 0.0;
  uint64_t run_calls = 0;
};

enum Strategy { kD3 = 0, kMgdd = 1, kCentralized = 2, kNumStrategies = 3 };

class Fleet {
 public:
  /// Builds the hierarchy and every node of every strategy.
  Fleet(const WorkloadSpec& spec, uint64_t seed);

  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  /// One round: reading i of `flat` (leaves x dimensions values) goes to
  /// leaf i of every simulator, then each simulator drains. With `spans`
  /// (one per Strategy), every Simulator call is timed.
  void RunRound(const double* flat, SimSpans* spans);

  const WorkloadSpec& spec() const { return spec_; }
  const sensord::HierarchyLayout& layout() const { return layout_; }
  /// Leaf slots in layout order; leaf index i is leaf_slots()[i].
  const std::vector<int>& leaf_slots() const { return leaf_slots_; }

  sensord::Simulator* sim(Strategy s) { return sims_[s].get(); }
  const std::vector<sensord::NodeId>& ids(Strategy s) const {
    return ids_[s];
  }
  Recorder& recorder(Strategy s) { return recorders_[s]; }
  /// Model configuration of every leaf (identical across strategies).
  const sensord::DensityModelConfig& leaf_model() const { return leaf_model_; }
  /// The Rng each D3 leaf was constructed with, by leaf index, so a replay
  /// can rebuild a bit-identical model.
  const sensord::Rng& d3_leaf_rng(size_t leaf) const {
    return d3_leaf_rngs_[leaf];
  }

 private:
  WorkloadSpec spec_;
  sensord::HierarchyLayout layout_;
  std::vector<int> leaf_slots_;
  sensord::DensityModelConfig leaf_model_;
  std::unique_ptr<sensord::Simulator> sims_[kNumStrategies];
  std::vector<sensord::NodeId> ids_[kNumStrategies];
  Recorder recorders_[kNumStrategies];
  std::vector<sensord::Rng> d3_leaf_rngs_;
  sensord::Point point_;  // reused per delivery
  size_t rounds_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_FLEET_H_
