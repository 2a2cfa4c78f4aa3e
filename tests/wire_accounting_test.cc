// Wire accounting pinned end to end: fixed-seed runs of every shipped
// protocol — D3, MGDD in both update modes, the centralized baseline,
// in-network queries, and amnesia rejoins over the reliable transport — must
// send exactly the recorded number of messages of each kind and charge
// exactly the recorded payload volume (the paper's Figure 11 accounting,
// Section 10.3: numbers on the wire, 2 bytes each). Any drift in how a
// payload's size is derived, or in which messages a node sends, shows here.

#include <array>
#include <cstdint>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "baseline/centralized.h"
#include "core/d3.h"
#include "core/mgdd.h"
#include "core/query_processing.h"
#include "net/hierarchy.h"
#include "net/network.h"
#include "util/math_utils.h"
#include "util/rng.h"

namespace sensord {
namespace {

// Per-kind message counts (kinds 1..8, then the transport ack) and the
// total payload volume in numbers.
struct Tally {
  std::array<uint64_t, 9> messages;
  uint64_t numbers;
};

constexpr std::array<MessageKind, 9> kKinds = {
    kMsgSampleValue,  kMsgOutlierReport,  kMsgGlobalModelUpdate,
    kMsgRawReading,   kMsgQueryRequest,   kMsgQueryResponse,
    kMsgRejoinAnnounce, kMsgRejoinResync, kMsgTransportAck};

std::string Describe(const Tally& t) {
  std::string out = "{{";
  for (size_t i = 0; i < t.messages.size(); ++i) {
    out += (i == 0 ? "" : ", ") + std::to_string(t.messages[i]);
  }
  return out + "}, " + std::to_string(t.numbers) + "}";
}

void ExpectTally(const Simulator& sim, const Tally& want) {
  Tally got{};
  for (size_t i = 0; i < kKinds.size(); ++i) {
    got.messages[i] = sim.stats().MessagesOfKind(kKinds[i]);
  }
  got.numbers = sim.stats().TotalNumbers();
  for (size_t i = 0; i < kKinds.size(); ++i) {
    EXPECT_EQ(got.messages[i], want.messages[i])
        << "kind " << kKinds[i] << "; tally " << Describe(got);
  }
  EXPECT_EQ(got.numbers, want.numbers) << "tally " << Describe(got);
  uint64_t total = 0;
  for (uint64_t m : got.messages) total += m;
  EXPECT_EQ(sim.stats().TotalMessages(), total) << "a kind is untallied";
}

// A 2-d stream: a tight band plus, every 7th round at one leaf, a value
// far outside it, so D3 escalates reports and MGDD flags.
Point Reading(Rng* rng, int round, int leaf, int leaves) {
  if (round % 7 == 0 && leaf == (round / 7) % leaves) {
    return {rng->UniformDouble(0.7, 1.0), rng->UniformDouble(0.7, 1.0)};
  }
  return {Clamp(rng->Gaussian(0.4, 0.02), 0.0, 1.0),
          Clamp(rng->Gaussian(0.5, 0.02), 0.0, 1.0)};
}

void Drive(Simulator* sim, const std::vector<NodeId>& ids, int leaves,
           int rounds, uint64_t seed) {
  Rng rng(seed);
  double t = 0.0;
  for (int round = 0; round < rounds; ++round) {
    for (int leaf = 0; leaf < leaves; ++leaf) {
      sim->DeliverReading(ids[static_cast<size_t>(leaf)],
                          Reading(&rng, round, leaf, leaves));
    }
    t += 1.0;
    sim->RunUntil(t);
  }
  sim->RunAll();
}

D3Options LeafD3() {
  D3Options opts;
  opts.model.dimensions = 2;
  opts.model.window_size = 300;
  opts.model.sample_size = 60;
  opts.outlier.radius = 0.05;
  opts.outlier.neighbor_threshold = 5.0;
  opts.min_observations = 100;
  return opts;
}

std::vector<NodeId> BuildD3(Simulator* sim, int leaves) {
  auto layout = BuildGridHierarchy(static_cast<size_t>(leaves), 2);
  Rng rng(11);
  return sim->Instantiate(
      *layout,
      [&](int, const HierarchyNodeSpec& spec) -> std::unique_ptr<Node> {
        if (spec.level == 1) {
          return std::make_unique<D3LeafNode>(LeafD3(), rng.Split(), nullptr);
        }
        D3Options opts = LeafD3();
        opts.model = LeaderModelConfig(LeafD3().model, 2, 0.5, spec.level);
        opts.min_observations = 40;
        return std::make_unique<D3ParentNode>(opts, rng.Split(), nullptr);
      });
}

MgddOptions LeafMgdd(GlobalUpdateMode mode) {
  MgddOptions opts;
  opts.model.dimensions = 2;
  opts.model.window_size = 300;
  opts.model.sample_size = 40;
  opts.min_observations = 100;
  opts.update_mode = mode;
  return opts;
}

std::vector<NodeId> BuildMgdd(Simulator* sim, int leaves,
                              GlobalUpdateMode mode) {
  auto layout = BuildGridHierarchy(static_cast<size_t>(leaves), 2);
  Rng rng(12);
  return sim->Instantiate(
      *layout,
      [&](int, const HierarchyNodeSpec& spec) -> std::unique_ptr<Node> {
        if (spec.level == 1) {
          return std::make_unique<MgddLeafNode>(LeafMgdd(mode), rng.Split(),
                                                nullptr);
        }
        MgddOptions opts = LeafMgdd(mode);
        opts.model = LeaderModelConfig(opts.model, 2, 0.5, spec.level);
        return std::make_unique<MgddInternalNode>(opts, rng.Split());
      });
}

TEST(WireAccountingTest, D3) {
  Simulator sim;
  const auto ids = BuildD3(&sim, 8);
  Drive(&sim, ids, 8, 400, 21);
  ExpectTally(sim, {{895, 103, 0, 0, 0, 0, 0, 0, 0}, 2202});
}

TEST(WireAccountingTest, MgddEveryChange) {
  Simulator sim;
  const auto ids = BuildMgdd(&sim, 4, GlobalUpdateMode::kEveryChange);
  Drive(&sim, ids, 4, 300, 22);
  ExpectTally(sim, {{257, 0, 378, 0, 0, 0, 0, 0, 0}, 5824});
}

TEST(WireAccountingTest, MgddOnModelChange) {
  Simulator sim;
  const auto ids = BuildMgdd(&sim, 4, GlobalUpdateMode::kOnModelChange);
  Drive(&sim, ids, 4, 300, 23);
  ExpectTally(sim, {{257, 0, 84, 0, 0, 0, 0, 0, 0}, 10846});
}

TEST(WireAccountingTest, Centralized) {
  Simulator sim;
  auto layout = BuildGridHierarchy(4, 2);
  const auto ids = sim.Instantiate(
      *layout,
      [&](int, const HierarchyNodeSpec& spec) -> std::unique_ptr<Node> {
        if (spec.level == 1) return std::make_unique<CentralizedLeafNode>();
        return std::make_unique<CentralizedRelayNode>(100, 2);
      });
  Drive(&sim, ids, 4, 50, 24);
  ExpectTally(sim, {{0, 0, 0, 400, 0, 0, 0, 0, 0}, 800});
}

TEST(WireAccountingTest, InNetworkQueries) {
  Simulator sim;
  auto layout = BuildGridHierarchy(16, 4);
  Rng rng(13);
  DensityModelConfig leaf;
  leaf.dimensions = 2;
  leaf.window_size = 300;
  leaf.sample_size = 50;
  const auto ids = sim.Instantiate(
      *layout,
      [&](int, const HierarchyNodeSpec& spec) -> std::unique_ptr<Node> {
        if (spec.level == 1) {
          return std::make_unique<QuerySensorNode>(leaf, rng.Split());
        }
        return std::make_unique<QueryAggregatorNode>();
      });
  Drive(&sim, ids, 16, 100, 25);
  auto& root = static_cast<QueryAggregatorNode&>(sim.node(ids.back()));
  int resolved = 0;
  AggregateQuery count;
  count.id = 1;
  count.lo = {0.3, 0.4};
  count.hi = {0.5, 0.6};
  root.InjectQuery(count, [&](const QueryAnswer&) { ++resolved; });
  AggregateQuery average = count;
  average.id = 2;
  average.kind = AggregateQuery::Kind::kAverage;
  average.average_dim = 1;
  root.InjectQuery(average, [&](const QueryAnswer&) { ++resolved; });
  // A level-2 leader answers for its own cell only.
  const int leader_slot = layout->slots_by_level[1][0];
  auto& leader = static_cast<QueryAggregatorNode&>(
      sim.node(ids[static_cast<size_t>(leader_slot)]));
  AggregateQuery fraction = count;
  fraction.id = 3;
  fraction.kind = AggregateQuery::Kind::kFraction;
  leader.InjectQuery(fraction, [&](const QueryAnswer&) { ++resolved; });
  sim.RunAll();
  EXPECT_EQ(resolved, 3);
  ExpectTally(sim, {{0, 0, 0, 0, 44, 44, 0, 0, 0}, 528});
}

// Amnesia crashes of a leaf and of an interior node over the reliable
// transport: rejoin announces, D3 resyncs, MGDD full re-pushes and acks.
SimulatorOptions RejoinOptions() {
  SimulatorOptions opts;
  opts.transport.reliable = true;
  opts.fault_seed = 0xFA;
  return opts;
}

TEST(WireAccountingTest, D3AmnesiaRejoin) {
  Simulator sim(RejoinOptions());
  const auto ids = BuildD3(&sim, 4);
  sim.faults().CrashNode(ids[1], 150.0, 170.0, CrashKind::kAmnesia);
  sim.faults().CrashNode(ids[4], 200.0, 220.0, CrashKind::kAmnesia);
  Drive(&sim, ids, 4, 400, 26);
  ExpectTally(sim, {{457, 78, 0, 0, 0, 0, 9, 2, 487}, 1986});
}

TEST(WireAccountingTest, MgddAmnesiaRejoin) {
  Simulator sim(RejoinOptions());
  const auto ids = BuildMgdd(&sim, 4, GlobalUpdateMode::kEveryChange);
  sim.faults().CrashNode(ids[1], 150.0, 170.0, CrashKind::kAmnesia);
  sim.faults().CrashNode(ids[4], 200.0, 220.0, CrashKind::kAmnesia);
  Drive(&sim, ids, 4, 300, 27);
  ExpectTally(sim, {{308, 0, 443, 0, 0, 0, 4, 0, 713}, 8745});
}

}  // namespace
}  // namespace sensord
