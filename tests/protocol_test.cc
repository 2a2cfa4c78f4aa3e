#include "net/protocol.h"

#include <memory>
#include <string>
#include <variant>

#include <gtest/gtest.h>

#include "net/message.h"

namespace sensord {
namespace {

// The metric label of `kind`, or nullptr for a kind outside the protocol.
const char* Label(MessageKind kind) {
  for (const MessageKindInfo& info : kMessageKinds) {
    if (info.kind == kind) return info.label;
  }
  return nullptr;
}

TEST(ProtocolTest, KindValuesAreStable) {
  // The kind numbers are recorded in flight JSONL and the labels name the
  // net.messages.<label> counters (perfbench reads four of them): both are
  // part of the public contract.
  EXPECT_EQ(kMsgSampleValue, 1);
  EXPECT_EQ(kMsgOutlierReport, 2);
  EXPECT_EQ(kMsgGlobalModelUpdate, 3);
  EXPECT_EQ(kMsgRawReading, 4);
  EXPECT_EQ(kMsgQueryRequest, 5);
  EXPECT_EQ(kMsgQueryResponse, 6);
  EXPECT_EQ(kMsgRejoinAnnounce, 7);
  EXPECT_EQ(kMsgRejoinResync, 8);
  EXPECT_EQ(kMsgTransportAck, 99);
  EXPECT_STREQ(Label(kMsgSampleValue), "sample_value");
  EXPECT_STREQ(Label(kMsgOutlierReport), "outlier_report");
  EXPECT_STREQ(Label(kMsgGlobalModelUpdate),
               "global_model_update");
  EXPECT_STREQ(Label(kMsgRawReading), "raw_reading");
  EXPECT_STREQ(Label(kMsgQueryRequest), "query_request");
  EXPECT_STREQ(Label(kMsgQueryResponse), "query_response");
  EXPECT_STREQ(Label(kMsgRejoinAnnounce), "rejoin_announce");
  EXPECT_STREQ(Label(kMsgRejoinResync), "rejoin_resync");
  EXPECT_STREQ(Label(kMsgTransportAck), "transport_ack");
  EXPECT_EQ(Label(0), nullptr);
}

TEST(ProtocolTest, KindsBelowApplicationRange) {
  // Every kind is a distinct small positive number: 0 is no kind, and the
  // closed protocol leaves no range for other kinds.
  for (size_t i = 0; i < kMessageKinds.size(); ++i) {
    EXPECT_GT(kMessageKinds[i].kind, 0);
    EXPECT_LT(kMessageKinds[i].kind, 100);
    for (size_t j = 0; j < i; ++j) {
      EXPECT_NE(kMessageKinds[i].kind, kMessageKinds[j].kind);
    }
  }
}

TEST(ProtocolTest, GlobalUpdateSizeAccounting) {
  GlobalModelUpdatePayload payload;
  payload.stddevs = {0.1, 0.2};
  payload.updates.push_back({0, {0.5, 0.5}});
  payload.updates.push_back({3, {0.1, 0.9}});
  // 2 updates x (slot + 2 coords) + 2 sigmas + version tag = 9 numbers.
  EXPECT_EQ(payload.SizeNumbers(), 9u);
}

TEST(ProtocolTest, GlobalUpdateEmptyIsJustSigmasAndVersion) {
  GlobalModelUpdatePayload payload;
  payload.stddevs = {0.1};
  EXPECT_EQ(payload.SizeNumbers(), 2u);
}

TEST(ProtocolTest, OutlierReportCarriesProvenance) {
  OutlierReportPayload report;
  report.value = {0.9};
  report.origin_level = 2;
  report.source_leaf = 7;
  report.source_seq = 1234;
  // Round-trip through the payload a Message carries.
  Message msg;
  msg.payload = report;
  const auto* out = std::get_if<OutlierReportPayload>(&msg.payload);
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->source_leaf, 7u);
  EXPECT_EQ(out->source_seq, 1234u);
  EXPECT_EQ(out->origin_level, 2);
  EXPECT_EQ(msg.kind(), kMsgOutlierReport);
  EXPECT_EQ(msg.size_numbers(), 3u);  // 1 coordinate + 2 of provenance
}

// A message's kind and wire size follow from its payload alone.
TEST(ProtocolTest, MessageDerivesKindAndSizeFromPayload) {
  const auto check = [](Payload payload, MessageKind kind, size_t numbers) {
    Message msg;
    msg.payload = std::move(payload);
    EXPECT_EQ(msg.kind(), kind);
    EXPECT_EQ(msg.size_numbers(), numbers) << Label(kind);
  };
  check(SampleValuePayload{{0.1, 0.2}}, kMsgSampleValue, 2);
  check(RawReadingPayload{{0.1, 0.2, 0.3}}, kMsgRawReading, 3);
  check(OutlierReportPayload{{0.1, 0.2}}, kMsgOutlierReport, 4);
  GlobalModelUpdatePayload update;
  update.stddevs = {0.1, 0.2};
  update.updates.push_back({0, {0.5, 0.5}});
  check(std::make_shared<const GlobalModelUpdatePayload>(update),
        kMsgGlobalModelUpdate, 6);
  AggregateQuery query;
  query.lo = {0.0, 0.0};
  query.hi = {1.0, 1.0};
  check(QueryRequestPayload{query}, kMsgQueryRequest, 7);
  check(QueryPartialPayload{}, kMsgQueryResponse, 5);
  check(RejoinAnnouncePayload{}, kMsgRejoinAnnounce, 3);
  RejoinResyncPayload resync;
  resync.sample = {{0.1, 0.2}, {0.3, 0.4}, {0.5, 0.6}};
  resync.spreads = {0.1, 0.1};
  check(resync, kMsgRejoinResync, 9);  // 3 x 2 coords + 2 spreads + 1
  check(TransportAckPayload{}, kMsgTransportAck, 1);
}

}  // namespace
}  // namespace sensord
