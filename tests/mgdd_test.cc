#include "core/mgdd.h"

#include <vector>

#include <gtest/gtest.h>

#include "core/d3.h"  // LeaderModelConfig
#include "net/protocol.h"
#include "stats/bandwidth.h"
#include "net/hierarchy.h"
#include "net/network.h"
#include "obs/metrics.h"
#include "util/rng.h"

namespace sensord {
namespace {

class CollectingObserver : public OutlierObserver {
 public:
  void OnOutlierDetected(const OutlierEvent& event) override {
    events.push_back(event);
  }
  std::vector<OutlierEvent> events;
};

MgddOptions TestOptions() {
  MgddOptions opts;
  opts.model.dimensions = 1;
  opts.model.window_size = 500;
  opts.model.sample_size = 100;
  opts.mdef.sampling_radius = 0.08;
  opts.mdef.counting_radius = 0.01;
  opts.mdef.k_sigma = 3.0;
  opts.sample_fraction = 0.5;
  opts.min_observations = 200;
  return opts;
}

struct MgddFixture {
  explicit MgddFixture(const MgddOptions& opts, size_t leaves = 4,
                       size_t fanout = 2, uint64_t seed = 1)
      : layout(*BuildGridHierarchy(leaves, fanout)), rng(seed) {
    ids = sim.Instantiate(
        layout, [&](int, const HierarchyNodeSpec& spec)
                    -> std::unique_ptr<Node> {
          if (spec.level == 1) {
            return std::make_unique<MgddLeafNode>(opts, rng.Split(),
                                                  &observer);
          }
          MgddOptions internal = opts;
          internal.model = LeaderModelConfig(
              opts.model, fanout, opts.sample_fraction, spec.level);
          return std::make_unique<MgddInternalNode>(internal, rng.Split());
        });
    num_leaves = leaves;
  }

  // Delivers one round of readings (one per leaf) and flushes messages.
  void Round(const std::vector<Point>& readings) {
    for (size_t i = 0; i < num_leaves; ++i) {
      sim.DeliverReading(ids[i], readings[i]);
    }
    t += 1.0;
    sim.RunUntil(t);
  }

  HierarchyLayout layout;
  Simulator sim;
  CollectingObserver observer;
  Rng rng;
  std::vector<NodeId> ids;
  size_t num_leaves;
  double t = 0.0;
};

TEST(MgddTest, GlobalModelPropagatesToLeaves) {
  MgddFixture fx(TestOptions());
  Rng values(2);
  for (int round = 0; round < 1500; ++round) {
    std::vector<Point> readings;
    for (size_t i = 0; i < fx.num_leaves; ++i) {
      readings.push_back({Clamp(values.Gaussian(0.4, 0.02), 0.0, 1.0)});
    }
    fx.Round(readings);
  }
  EXPECT_GT(fx.sim.stats().MessagesOfKind(kMsgGlobalModelUpdate), 0u);
  for (size_t i = 0; i < fx.num_leaves; ++i) {
    const auto& leaf = static_cast<const MgddLeafNode&>(fx.sim.node(fx.ids[i]));
    EXPECT_TRUE(leaf.HasGlobalModel()) << "leaf " << i;
    EXPECT_GT(leaf.global_updates_received(), 0u);
  }
}

TEST(MgddTest, ReplicaMatchesRootSample) {
  // With kEveryChange updates, after the messages drain, each leaf's global
  // estimator must be built from exactly the root's current sample.
  MgddFixture fx(TestOptions());
  Rng values(3);
  for (int round = 0; round < 1200; ++round) {
    std::vector<Point> readings;
    for (size_t i = 0; i < fx.num_leaves; ++i) {
      readings.push_back({values.UniformDouble(0.3, 0.5)});
    }
    fx.Round(readings);
  }
  const auto& root = static_cast<const MgddInternalNode&>(
      fx.sim.node(fx.ids.back()));
  std::vector<Point> root_sample = root.model().sample().Snapshot();
  std::sort(root_sample.begin(), root_sample.end());

  const auto& leaf = static_cast<const MgddLeafNode&>(fx.sim.node(fx.ids[0]));
  ASSERT_TRUE(leaf.HasGlobalModel());
  std::vector<Point> replica = leaf.GlobalEstimator().sample().ToPoints();
  std::sort(replica.begin(), replica.end());
  EXPECT_EQ(replica, root_sample);
}

TEST(MgddTest, DetectsDeviationAgainstGlobalModel) {
  // Bimodal data with an empty gap: a value inside the gap has a near-empty
  // counting neighbourhood while its sampling neighbourhood is dense and
  // homogeneous — the textbook MDEF outlier (high MDEF, small sigma_MDEF).
  // Scott's-rule bandwidths over bimodal data are wide and partially smear
  // the gap, so the deviation threshold is set below the paper's k_sigma=3
  // default (see EXPERIMENTS.md on MDEF sensitivity under smoothing).
  MgddOptions opts = TestOptions();
  opts.mdef.k_sigma = 0.5;
  MgddFixture fx(opts);
  Rng values(4);
  for (int round = 0; round < 1500; ++round) {
    std::vector<Point> readings;
    for (size_t i = 0; i < fx.num_leaves; ++i) {
      readings.push_back({values.Bernoulli(0.5)
                              ? values.UniformDouble(0.30, 0.42)
                              : values.UniformDouble(0.50, 0.62)});
    }
    fx.Round(readings);
  }
  fx.observer.events.clear();

  std::vector<Point> readings(fx.num_leaves, Point{0.38});
  readings[0] = {0.46};  // dead centre of the gap
  fx.Round(readings);

  bool flagged = false;
  for (const auto& e : fx.observer.events) {
    if (e.detector == DetectorKind::kMgdd && e.value[0] == 0.46) {
      flagged = true;
      EXPECT_EQ(e.level, 1);  // MGDD detects only at leaves
    }
  }
  EXPECT_TRUE(flagged);
}

TEST(MgddTest, OnlyLeavesDetect) {
  MgddFixture fx(TestOptions());
  Rng values(5);
  for (int round = 0; round < 1500; ++round) {
    std::vector<Point> readings;
    for (size_t i = 0; i < fx.num_leaves; ++i) {
      readings.push_back(
          {values.Bernoulli(0.01)
               ? values.UniformDouble(0.6, 1.0)  // occasional deviations
               : values.UniformDouble(0.30, 0.45)});
    }
    fx.Round(readings);
  }
  for (const auto& e : fx.observer.events) {
    EXPECT_EQ(e.level, 1);
    EXPECT_EQ(e.detector, DetectorKind::kMgdd);
  }
}

TEST(MgddTest, OnModelChangeModeSendsFewerUpdates) {
  MgddOptions every = TestOptions();
  every.update_mode = GlobalUpdateMode::kEveryChange;
  MgddOptions lazy = TestOptions();
  lazy.update_mode = GlobalUpdateMode::kOnModelChange;
  lazy.push_js_threshold = 0.05;

  uint64_t every_updates = 0, lazy_updates = 0;
  for (int which = 0; which < 2; ++which) {
    MgddFixture fx(which == 0 ? every : lazy, 4, 2, 42);
    Rng values(6);
    // Stationary distribution: the lazy mode should push rarely.
    for (int round = 0; round < 1200; ++round) {
      std::vector<Point> readings;
      for (size_t i = 0; i < fx.num_leaves; ++i) {
        readings.push_back({values.UniformDouble(0.3, 0.5)});
      }
      fx.Round(readings);
    }
    const uint64_t updates =
        fx.sim.stats().MessagesOfKind(kMsgGlobalModelUpdate);
    (which == 0 ? every_updates : lazy_updates) = updates;
  }
  EXPECT_GT(every_updates, 0u);
  EXPECT_LT(lazy_updates, every_updates / 2)
      << "stationary stream should suppress most model pushes";
}

TEST(MgddTest, RobustBandwidthsPropagateToReplicas) {
  // With robust_bandwidth set, the root broadcasts IQR-tempered spreads,
  // and the leaf replica's bandwidths must match what the root's own
  // estimator would use.
  MgddOptions opts = TestOptions();
  opts.model.robust_bandwidth = true;
  MgddFixture fx(opts);
  Rng values(20);
  for (int round = 0; round < 1200; ++round) {
    std::vector<Point> readings;
    for (size_t i = 0; i < fx.num_leaves; ++i) {
      // Spiky: tight bulk + rare excursions, where robust != plain sigma.
      const double v = values.Bernoulli(0.05)
                           ? values.UniformDouble(0.7, 0.9)
                           : values.Gaussian(0.4, 0.005);
      readings.push_back({Clamp(v, 0.0, 1.0)});
    }
    fx.Round(readings);
  }
  const auto& root = static_cast<const MgddInternalNode&>(
      fx.sim.node(fx.ids.back()));
  const auto& leaf = static_cast<const MgddLeafNode&>(fx.sim.node(fx.ids[0]));
  ASSERT_TRUE(leaf.HasGlobalModel());

  const auto root_spreads = root.model().BandwidthSpreads();
  const auto root_sigmas = root.model().StdDevs();
  // The robust spread must actually differ on this workload ...
  EXPECT_LT(root_spreads[0], 0.8 * root_sigmas[0]);
  // ... and the replica's bandwidth must be derived from it, not from the
  // plain sigma.
  const double replica_bw = leaf.GlobalEstimator().bandwidths()[0];
  const double expected_bw = ScottBandwidth(
      root_spreads[0], leaf.GlobalEstimator().sample_size(), 1);
  EXPECT_NEAR(replica_bw, expected_bw, 0.25 * expected_bw);
}

TEST(MgddTest, FiveDimensionalReadingsUseDefaultMdefConfig) {
  // Five columns at the default MDEF config: the whole-cube cell grid
  // (50^5 cells) is never built; each test fills its neighbourhood instead.
  MgddOptions opts = TestOptions();
  opts.model.dimensions = 5;
  opts.model.window_size = 300;
  opts.model.sample_size = 60;
  opts.min_observations = 120;
  opts.mdef = MdefConfig();
  obs::Counter* builds = obs::MetricsRegistry::Global().GetCounter(
      "stats.kde.cell_grid_builds");
  obs::Counter* evaluations = obs::MetricsRegistry::Global().GetCounter(
      "core.mgdd.leaf.mdef_evaluations");
  const uint64_t builds_before = builds->value();
  const uint64_t evaluations_before = evaluations->value();

  MgddFixture fx(opts);
  Rng values(21);
  for (int round = 0; round < 400; ++round) {
    std::vector<Point> readings;
    for (size_t i = 0; i < fx.num_leaves; ++i) {
      Point v(5);
      for (double& x : v) x = Clamp(values.Gaussian(0.5, 0.05), 0.0, 1.0);
      readings.push_back(v);
    }
    fx.Round(readings);
  }
  for (size_t i = 0; i < fx.num_leaves; ++i) {
    const auto& leaf = static_cast<const MgddLeafNode&>(fx.sim.node(fx.ids[i]));
    EXPECT_TRUE(leaf.HasGlobalModel()) << "leaf " << i;
  }
  EXPECT_GT(evaluations->value() - evaluations_before, 0u);
  EXPECT_EQ(builds->value(), builds_before);
}

TEST(MgddTest, NoDetectionWithoutGlobalModel) {
  // A leaf with no parent (single-node hierarchy) never receives a global
  // model and therefore never flags.
  auto opts = TestOptions();
  MgddFixture fx(opts, 1, 2);
  Rng values(7);
  for (int round = 0; round < 1000; ++round) {
    fx.Round({{values.UniformDouble(0.3, 0.5)}});
  }
  fx.Round({{0.95}});
  EXPECT_TRUE(fx.observer.events.empty());
}

}  // namespace
}  // namespace sensord
