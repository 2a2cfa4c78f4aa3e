#include "net/stats_collector.h"

#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "core/d3.h"
#include "net/hierarchy.h"
#include "net/network.h"
#include "obs/exporters.h"
#include "obs/metrics.h"
#include "util/rng.h"

namespace sensord {
namespace {

Message MakeMessage(Payload payload) {
  Message msg;
  msg.from = 0;
  msg.to = 1;
  msg.payload = std::move(payload);
  return msg;
}

// A sample-value message of `numbers` coordinates (and as many numbers).
Message Sample(size_t numbers) {
  return MakeMessage(SampleValuePayload{Point(numbers, 0.5)});
}

TEST(StatsCollectorTest, StartsEmpty) {
  StatsCollector stats;
  EXPECT_EQ(stats.TotalMessages(), 0u);
  EXPECT_EQ(stats.TotalNumbers(), 0u);
  EXPECT_EQ(stats.MessagesOfKind(kMsgSampleValue), 0u);
}

TEST(StatsCollectorTest, AccumulatesByKind) {
  StatsCollector stats;
  stats.RecordSend(Sample(2));
  stats.RecordSend(Sample(3));
  stats.RecordSend(MakeMessage(OutlierReportPayload{Point(8, 0.5)}));
  EXPECT_EQ(stats.TotalMessages(), 3u);
  EXPECT_EQ(stats.MessagesOfKind(kMsgSampleValue), 2u);
  EXPECT_EQ(stats.MessagesOfKind(kMsgOutlierReport), 1u);
  EXPECT_EQ(stats.MessagesOfKind(kMsgGlobalModelUpdate), 0u);
  EXPECT_EQ(stats.TotalNumbers(), 15u);  // 2 + 3 + (8 + 2)
}

TEST(StatsCollectorTest, ByteConversion) {
  StatsCollector stats;
  stats.RecordSend(Sample(7));
  EXPECT_EQ(stats.TotalBytes(2), 14u);
  EXPECT_EQ(stats.TotalBytes(8), 56u);
}

TEST(StatsCollectorTest, RateComputation) {
  StatsCollector stats;
  for (int i = 0; i < 30; ++i) stats.RecordSend(Sample(1));
  EXPECT_DOUBLE_EQ(stats.MessagesPerSecond(10.0), 3.0);
}

TEST(StatsCollectorTest, RateOverEmptyOrNegativeSpanIsZero) {
  StatsCollector stats;
  stats.RecordSend(Sample(1));
  EXPECT_DOUBLE_EQ(stats.MessagesPerSecond(0.0), 0.0);
  EXPECT_DOUBLE_EQ(stats.MessagesPerSecond(-1.0), 0.0);
}

TEST(StatsCollectorTest, MirrorsIntoGlobalRegistry) {
  auto& registry = obs::MetricsRegistry::Global();
  obs::Counter* total = registry.GetCounter("net.messages.total");
  obs::Counter* numbers = registry.GetCounter("net.numbers.total");
  obs::Counter* samples = registry.GetCounter("net.messages.sample_value");
  obs::Counter* acks = registry.GetCounter("net.messages.transport_ack");
  const uint64_t total0 = total->value();
  const uint64_t numbers0 = numbers->value();
  const uint64_t samples0 = samples->value();
  const uint64_t acks0 = acks->value();

  StatsCollector stats;
  stats.RecordSend(Sample(4));
  stats.RecordSend(MakeMessage(TransportAckPayload{}));
  EXPECT_EQ(total->value(), total0 + 2);
  EXPECT_EQ(numbers->value(), numbers0 + 5);
  EXPECT_EQ(samples->value(), samples0 + 1);
  EXPECT_EQ(acks->value(), acks0 + 1);

  // Reset clears the per-instance tallies but not the cumulative mirrors.
  stats.Reset();
  EXPECT_EQ(stats.TotalMessages(), 0u);
  EXPECT_EQ(total->value(), total0 + 2);
}

// The crash-recovery rejoin kinds (7 = announce, 8 = resync) export under
// names, like every other protocol kind, not as net.messages.kind_<n>.
TEST(StatsCollectorTest, RejoinKindsExportNamedCounters) {
  auto& registry = obs::MetricsRegistry::Global();
  obs::Counter* announce = registry.GetCounter("net.messages.rejoin_announce");
  obs::Counter* resync = registry.GetCounter("net.messages.rejoin_resync");
  const uint64_t announce0 = announce->value();
  const uint64_t resync0 = resync->value();

  StatsCollector stats;
  stats.RecordSend(MakeMessage(RejoinAnnouncePayload{}));
  stats.RecordSend(MakeMessage(RejoinResyncPayload{}));
  stats.RecordSend(MakeMessage(RejoinResyncPayload{}));
  EXPECT_EQ(announce->value(), announce0 + 1);
  EXPECT_EQ(resync->value(), resync0 + 2);
  EXPECT_EQ(stats.MessagesOfKind(kMsgRejoinAnnounce), 1u);
  EXPECT_EQ(stats.MessagesOfKind(kMsgRejoinResync), 2u);
  const std::string json = obs::MetricsToJson(registry);
  EXPECT_EQ(json.find("net.messages.kind_7"), std::string::npos) << json;
  EXPECT_EQ(json.find("net.messages.kind_8"), std::string::npos) << json;
}

// After a protocol run the dump names exactly the protocol kinds: every
// kind of the protocol table is listed, and no numbered kind_<n> row
// appears (kind 0 is not a kind).
TEST(StatsCollectorTest, ProtocolRunDumpHasNoNumberedKindRows) {
  SimulatorOptions opts;
  opts.transport.reliable = true;
  Simulator sim(opts);
  auto layout = BuildGridHierarchy(2, 2);
  ASSERT_TRUE(layout.ok());
  D3Options d3;
  d3.model.window_size = 50;
  d3.model.sample_size = 10;
  d3.min_observations = 20;
  Rng rng(3);
  const auto ids = sim.Instantiate(
      *layout,
      [&](int, const HierarchyNodeSpec& spec) -> std::unique_ptr<Node> {
        if (spec.level == 1) {
          return std::make_unique<D3LeafNode>(d3, rng.Split(), nullptr);
        }
        return std::make_unique<D3ParentNode>(d3, rng.Split(), nullptr);
      });
  for (int round = 0; round < 40; ++round) {
    sim.DeliverReading(ids[0], {0.4});
    sim.DeliverReading(ids[1], {0.6});
    sim.RunUntil(round + 1.0);
  }
  ASSERT_GT(sim.stats().MessagesOfKind(kMsgTransportAck), 0u);

  const std::string json =
      obs::MetricsToJson(obs::MetricsRegistry::Global());
  EXPECT_EQ(json.find("net.messages.kind_"), std::string::npos) << json;
  for (const MessageKindInfo& info : kMessageKinds) {
    EXPECT_NE(json.find(std::string("\"net.messages.") + info.label + "\""),
              std::string::npos)
        << info.label;
  }
}

TEST(StatsCollectorTest, ResetClearsEverything) {
  StatsCollector stats;
  stats.RecordSend(MakeMessage(QueryRequestPayload{}));
  stats.Reset();
  EXPECT_EQ(stats.TotalMessages(), 0u);
  EXPECT_EQ(stats.TotalNumbers(), 0u);
  EXPECT_EQ(stats.MessagesOfKind(kMsgQueryRequest), 0u);
}

TEST(StatsCollectorTest, ZeroSizeMessagesCountAsMessages) {
  StatsCollector stats;
  stats.RecordSend(Sample(0));
  EXPECT_EQ(stats.TotalMessages(), 1u);
  EXPECT_EQ(stats.TotalNumbers(), 0u);
}

}  // namespace
}  // namespace sensord
