#include "core/d3.h"

#include <vector>

#include <gtest/gtest.h>

#include "net/protocol.h"
#include "net/hierarchy.h"
#include "net/network.h"
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

D3Options TestOptions() {
  D3Options opts;
  opts.model.dimensions = 1;
  opts.model.window_size = 500;
  opts.model.sample_size = 100;
  opts.outlier.radius = 0.02;
  opts.outlier.neighbor_threshold = 10.0;
  opts.sample_fraction = 0.5;
  opts.min_observations = 200;
  return opts;
}

TEST(LeaderModelConfigTest, ArrivalWindowAndPopulation) {
  DensityModelConfig leaf;
  leaf.window_size = 10000;
  leaf.sample_size = 500;
  const auto level2 = LeaderModelConfig(leaf, 4, 0.5, 2);
  EXPECT_EQ(level2.window_size, 1000u);  // 4 * 0.5 * 500
  EXPECT_DOUBLE_EQ(level2.logical_window_count, 40000.0);
  const auto level3 = LeaderModelConfig(leaf, 4, 0.5, 3);
  EXPECT_DOUBLE_EQ(level3.logical_window_count, 160000.0);
}

TEST(LeaderModelConfigTest, WindowNeverBelowSampleSize) {
  DensityModelConfig leaf;
  leaf.window_size = 10000;
  leaf.sample_size = 500;
  const auto cfg = LeaderModelConfig(leaf, 2, 0.1, 2);  // 2*0.1*500 = 100
  EXPECT_EQ(cfg.window_size, 500u);
}

TEST(D3LeafTest, FlagsInjectedDeviation) {
  Simulator sim;
  CollectingObserver observer;
  auto layout = BuildGridHierarchy(1, 2);
  ASSERT_TRUE(layout.ok());
  Rng rng(1);
  const auto ids = sim.Instantiate(
      *layout, [&](int, const HierarchyNodeSpec&) {
        return std::make_unique<D3LeafNode>(TestOptions(), rng.Split(),
                                            &observer);
      });

  Rng values(2);
  for (int i = 0; i < 1000; ++i) {
    sim.DeliverReading(ids[0], {Clamp(values.Gaussian(0.4, 0.01), 0.0, 1.0)});
  }
  EXPECT_TRUE(observer.events.empty()) << "dense stream falsely flagged";

  sim.DeliverReading(ids[0], {0.9});  // far from everything
  ASSERT_EQ(observer.events.size(), 1u);
  EXPECT_EQ(observer.events[0].detector, DetectorKind::kD3);
  EXPECT_EQ(observer.events[0].level, 1);
  EXPECT_DOUBLE_EQ(observer.events[0].value[0], 0.9);
  EXPECT_EQ(observer.events[0].source_seq, 1001u);
}

TEST(D3LeafTest, NoDetectionBeforeMinObservations) {
  Simulator sim;
  CollectingObserver observer;
  auto layout = BuildGridHierarchy(1, 2);
  ASSERT_TRUE(layout.ok());
  Rng rng(3);
  const auto ids = sim.Instantiate(
      *layout, [&](int, const HierarchyNodeSpec&) {
        return std::make_unique<D3LeafNode>(TestOptions(), rng.Split(),
                                            &observer);
      });
  for (int i = 0; i < 100; ++i) sim.DeliverReading(ids[0], {0.4});
  sim.DeliverReading(ids[0], {0.9});  // would be an outlier, but too early
  EXPECT_TRUE(observer.events.empty());
}

TEST(D3TreeTest, SamplePropagationReachesParent) {
  auto layout = BuildGridHierarchy(2, 2);
  ASSERT_TRUE(layout.ok());
  Simulator sim;
  CollectingObserver observer;
  Rng rng(4);
  D3Options leaf_opts = TestOptions();
  const auto ids = sim.Instantiate(
      *layout, [&](int, const HierarchyNodeSpec& spec)
                   -> std::unique_ptr<Node> {
        if (spec.level == 1) {
          return std::make_unique<D3LeafNode>(leaf_opts, rng.Split(),
                                              &observer);
        }
        D3Options opts = leaf_opts;
        opts.model = LeaderModelConfig(leaf_opts.model, 2,
                                       leaf_opts.sample_fraction, spec.level);
        return std::make_unique<D3ParentNode>(opts, rng.Split(), &observer);
      });

  Rng values(5);
  for (int i = 0; i < 2000; ++i) {
    for (size_t leaf = 0; leaf < 2; ++leaf) {
      sim.DeliverReading(ids[leaf],
                         {Clamp(values.Gaussian(0.4, 0.02), 0.0, 1.0)});
    }
  }
  sim.RunUntil(10.0);
  EXPECT_GT(sim.stats().MessagesOfKind(kMsgSampleValue), 0u);
  // Parent's model received data.
  const auto& parent =
      static_cast<const D3ParentNode&>(sim.node(ids.back()));
  EXPECT_GT(parent.model().total_seen(), 0u);
}

TEST(D3TreeTest, OutlierEscalatesThroughHierarchy) {
  auto layout = BuildGridHierarchy(4, 2);  // 3 levels
  ASSERT_TRUE(layout.ok());
  Simulator sim;
  CollectingObserver observer;
  Rng rng(6);
  D3Options leaf_opts = TestOptions();
  const auto ids = sim.Instantiate(
      *layout, [&](int, const HierarchyNodeSpec& spec)
                   -> std::unique_ptr<Node> {
        if (spec.level == 1) {
          return std::make_unique<D3LeafNode>(leaf_opts, rng.Split(),
                                              &observer);
        }
        D3Options opts = leaf_opts;
        opts.model = LeaderModelConfig(leaf_opts.model, 2,
                                       leaf_opts.sample_fraction, spec.level);
        opts.min_observations = 50;
        return std::make_unique<D3ParentNode>(opts, rng.Split(), &observer);
      });

  // All sensors see the same tight distribution, so a global deviation is
  // an outlier at every level.
  Rng values(7);
  double t = 0.0;
  for (int round = 0; round < 3000; ++round) {
    for (size_t leaf = 0; leaf < 4; ++leaf) {
      sim.DeliverReading(ids[leaf],
                         {Clamp(values.Gaussian(0.4, 0.01), 0.0, 1.0)});
    }
    t += 1.0;
    sim.RunUntil(t);
  }
  observer.events.clear();

  sim.DeliverReading(ids[0], {0.95});
  sim.RunUntil(t + 1.0);

  std::set<int> levels;
  for (const auto& e : observer.events) {
    if (e.value[0] == 0.95) levels.insert(e.level);
  }
  EXPECT_TRUE(levels.count(1)) << "leaf did not flag";
  EXPECT_TRUE(levels.count(2)) << "level-2 leader did not confirm";
  EXPECT_TRUE(levels.count(3)) << "root did not confirm";
}

TEST(D3TreeTest, LocallyCommonValueSuppressedAtParent) {
  // The paper's Example 1 / Theorem 3 scenario: a value that is an outlier
  // for one sensor but common across the cell should be rejected by the
  // leader. Leaf 0 sees values near 0.4 only; leaves 1-3 see a mixture
  // including mass near 0.8. A reading of 0.8 at leaf 0 is a local outlier
  // but NOT a cell-level outlier.
  auto layout = BuildGridHierarchy(4, 4);  // 2 levels
  ASSERT_TRUE(layout.ok());
  Simulator sim;
  CollectingObserver observer;
  Rng rng(8);
  D3Options leaf_opts = TestOptions();
  const auto ids = sim.Instantiate(
      *layout, [&](int, const HierarchyNodeSpec& spec)
                   -> std::unique_ptr<Node> {
        if (spec.level == 1) {
          return std::make_unique<D3LeafNode>(leaf_opts, rng.Split(),
                                              &observer);
        }
        D3Options opts = leaf_opts;
        opts.model = LeaderModelConfig(leaf_opts.model, 4,
                                       leaf_opts.sample_fraction, spec.level);
        opts.min_observations = 100;
        return std::make_unique<D3ParentNode>(opts, rng.Split(), &observer);
      });

  Rng values(9);
  double t = 0.0;
  for (int round = 0; round < 3000; ++round) {
    sim.DeliverReading(ids[0],
                       {Clamp(values.Gaussian(0.4, 0.01), 0.0, 1.0)});
    for (size_t leaf = 1; leaf < 4; ++leaf) {
      const double mean = values.Bernoulli(0.5) ? 0.4 : 0.8;
      sim.DeliverReading(ids[leaf],
                         {Clamp(values.Gaussian(mean, 0.01), 0.0, 1.0)});
    }
    t += 1.0;
    sim.RunUntil(t);
  }
  observer.events.clear();

  sim.DeliverReading(ids[0], {0.8});
  sim.RunUntil(t + 1.0);

  bool leaf_flagged = false, parent_flagged = false;
  for (const auto& e : observer.events) {
    if (e.level == 1) leaf_flagged = true;
    if (e.level == 2) parent_flagged = true;
  }
  EXPECT_TRUE(leaf_flagged) << "0.8 should be an outlier for leaf 0";
  EXPECT_FALSE(parent_flagged)
      << "0.8 is common in the cell; the leader must reject it (Example 1)";
}

TEST(D3TreeTest, ParentOnlyExaminesChildReports) {
  // Parents must never flag values that no child escalated (Theorem 3's
  // operational consequence: parent work is bounded by child reports).
  auto layout = BuildGridHierarchy(2, 2);
  ASSERT_TRUE(layout.ok());
  Simulator sim;
  CollectingObserver observer;
  Rng rng(10);
  D3Options leaf_opts = TestOptions();
  leaf_opts.min_observations = UINT64_MAX;  // leaves never flag
  const auto ids = sim.Instantiate(
      *layout, [&](int, const HierarchyNodeSpec& spec)
                   -> std::unique_ptr<Node> {
        if (spec.level == 1) {
          return std::make_unique<D3LeafNode>(leaf_opts, rng.Split(),
                                              &observer);
        }
        D3Options opts = leaf_opts;
        opts.model = LeaderModelConfig(leaf_opts.model, 2, 0.5, spec.level);
        opts.min_observations = 10;
        return std::make_unique<D3ParentNode>(opts, rng.Split(), &observer);
      });
  Rng values(11);
  double t = 0.0;
  for (int round = 0; round < 2000; ++round) {
    sim.DeliverReading(ids[0], {values.UniformDouble()});
    sim.DeliverReading(ids[1], {values.UniformDouble()});
    t += 1.0;
    sim.RunUntil(t);
  }
  EXPECT_TRUE(observer.events.empty());
  EXPECT_EQ(sim.stats().MessagesOfKind(kMsgOutlierReport), 0u);
}

}  // namespace
}  // namespace sensord
