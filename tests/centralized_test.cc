#include "baseline/centralized.h"

#include <gtest/gtest.h>

#include "net/protocol.h"
#include "net/hierarchy.h"

namespace sensord {
namespace {

TEST(CentralizedTest, EveryReadingReachesRoot) {
  auto layout = BuildGridHierarchy(4, 2);  // 4 + 2 + 1 nodes
  ASSERT_TRUE(layout.ok());
  Simulator sim;
  const auto ids = sim.Instantiate(
      *layout, [&](int, const HierarchyNodeSpec& spec)
                   -> std::unique_ptr<Node> {
        if (spec.level == 1) return std::make_unique<CentralizedLeafNode>();
        return std::make_unique<CentralizedRelayNode>(100, 1);
      });

  for (int round = 0; round < 10; ++round) {
    for (size_t leaf = 0; leaf < 4; ++leaf) {
      sim.DeliverReading(ids[leaf], {0.5});
    }
  }
  sim.RunUntil(1.0);

  const auto& root =
      static_cast<const CentralizedRelayNode&>(sim.node(ids.back()));
  EXPECT_EQ(root.window().total_seen(), 40u);
  // Messages: each reading crosses 2 hops (leaf->mid, mid->root).
  EXPECT_EQ(sim.stats().MessagesOfKind(kMsgRawReading), 80u);
}

TEST(CentralizedTest, RelayKeepsOwnWindowEmpty) {
  auto layout = BuildGridHierarchy(2, 2);
  ASSERT_TRUE(layout.ok());
  Simulator sim;
  const auto ids = sim.Instantiate(
      *layout, [&](int, const HierarchyNodeSpec& spec)
                   -> std::unique_ptr<Node> {
        if (spec.level == 1) return std::make_unique<CentralizedLeafNode>();
        return std::make_unique<CentralizedRelayNode>(10, 1);
      });
  sim.DeliverReading(ids[0], {0.3});
  sim.RunUntil(1.0);
  // Two-level tree: ids.back() is the root and absorbs the reading.
  const auto& root =
      static_cast<const CentralizedRelayNode&>(sim.node(ids.back()));
  EXPECT_EQ(root.window().size(), 1u);
}

TEST(CentralizedTest, SingleNodeNetworkSendsNothing) {
  auto layout = BuildGridHierarchy(1, 2);
  ASSERT_TRUE(layout.ok());
  Simulator sim;
  const auto ids = sim.Instantiate(
      *layout, [&](int, const HierarchyNodeSpec&) {
        return std::make_unique<CentralizedLeafNode>();
      });
  sim.DeliverReading(ids[0], {0.5});
  sim.RunUntil(1.0);
  EXPECT_EQ(sim.stats().TotalMessages(), 0u);
}

TEST(CentralizedTest, MessageCountScalesWithDepth) {
  // 16 leaves, fanout 2: depth 5 tree; each reading crosses (level-1) hops.
  auto layout = BuildGridHierarchy(16, 2);
  ASSERT_TRUE(layout.ok());
  Simulator sim;
  const auto ids = sim.Instantiate(
      *layout, [&](int, const HierarchyNodeSpec& spec)
                   -> std::unique_ptr<Node> {
        if (spec.level == 1) return std::make_unique<CentralizedLeafNode>();
        return std::make_unique<CentralizedRelayNode>(10, 1);
      });
  for (size_t leaf = 0; leaf < 16; ++leaf) {
    sim.DeliverReading(ids[leaf], {0.5});
  }
  sim.RunUntil(1.0);
  // Every leaf is 4 hops from the root: 16 * 4 = 64 messages.
  EXPECT_EQ(sim.stats().MessagesOfKind(kMsgRawReading), 64u);
}

}  // namespace
}  // namespace sensord
