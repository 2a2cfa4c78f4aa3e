// Copyright (c) the sensord authors. Licensed under the Apache License 2.0.
//
// Per-layer measurement for the traced run: the registry quantities the
// benchmark samples around traced rounds (Probe), and the replay that times
// each public layer call on recorded leaf readings (Replay).

#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "fleet.h"

namespace sensord::obs {
class Counter;
class Histogram;
}  // namespace sensord::obs

namespace perfbench {

/// num / den, or 0 when there is nothing to divide by.
inline double Ratio(double num, double den) {
  return den > 0.0 ? num / den : 0.0;
}

/// Registry quantities, by index into Probe::Values.
enum Quantity {
  kChainAdds,
  kChainRestarts,
  kChainExpirations,
  kChainAddNsCount,
  kChainAddNsSum,
  kObserves,
  kObserveNsCount,
  kObserveNsSum,
  kRebuilds,
  kRebuildNsCount,
  kRebuildNsSum,
  kCacheHits,
  kBoxQueries,
  kTermsCount,
  kTermsSum,
  kSweptTerms,
  kMdefEvaluations,
  kD3LeafFlags,
  kD3Confirms,
  kD3Rechecks,
  kMgddFlags,
  kMsgSampleValue,
  kMsgOutlierReport,
  kMsgGlobalModelUpdate,
  kMsgRawReading,
  kNumbersTotal,
  kNumQuantities
};

/// Reads the process-wide MetricsRegistry counters and histograms above.
class Probe {
 public:
  using Values = std::array<double, kNumQuantities>;

  Probe();
  Values Read() const;

 private:
  std::array<const sensord::obs::Counter*, kNumQuantities> counters_{};
  // Histograms contribute two quantities: count (at the index) and sum
  // (the next index).
  std::array<const sensord::obs::Histogram*, kNumQuantities> histograms_{};
};

/// Mean cost of each public layer call, measured by replaying recorded
/// leaf readings through standalone copies of the leaf's layers.
struct ReplayResult {
  size_t leaves = 0;
  uint64_t readings = 0;       ///< measured readings replayed
  double chain_add_ns = 0.0;   ///< ChainSample::Add
  double sketch_add_ns = 0.0;  ///< VarianceSketch::Add (one dimension)
  double observe_ns = 0.0;     ///< DensityModel::Observe
  double estimator_ns = 0.0;   ///< DensityModel::Estimator (incl. rebuilds)
  double decide_ns = 0.0;      ///< IsDistanceOutlier, estimator built
  double mdef_ns = 0.0;        ///< ComputeMdef against the global model
  double query_ns = 0.0;       ///< IsDistanceOutlier time per box query
  /// Replayed models ended in the live D3 leaves' exact state.
  bool faithful = true;
  std::string mismatch;
};

/// Replays the first `replay_leaves` leaves of `fleet` on the readings it
/// was fed: `setup` then `measured` rounds, each round-major (leaves x
/// dimensions values per round).
ReplayResult Replay(Fleet& fleet, const std::vector<double>& setup,
                    const std::vector<double>& measured, size_t replay_leaves);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
