// Copyright (c) the sensord authors. Licensed under the Apache License 2.0.
//
// The wire protocol: every payload a simulated radio carries.
//
// Each payload struct states its message kind (kKind) and its size on the
// wire (SizeNumbers) once; a Message derives both from the payload it holds.
// Sizes follow the paper's accounting (Section 10.3): the numeric values a
// real radio would carry, at 2 bytes per number on the assumed 16-bit
// architecture, over the payload's own dimensionality.
//
// Header-only and dependent on util/ alone, so the detectors in core/, the
// baselines and the simulator in net/ share one closed set of payloads
// without net/ including anything from core/.

#ifndef SENSORD_NET_PROTOCOL_H_
#define SENSORD_NET_PROTOCOL_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "util/math_utils.h"

namespace sensord {

/// Identifier of a simulated node; assigned densely from 0 by the Simulator.
using NodeId = uint32_t;

/// Sentinel for "no node" (e.g. the root's parent).
inline constexpr NodeId kNoNode = static_cast<NodeId>(-1);

/// Message category, for per-kind accounting. The numbers are part of the
/// recorded artifacts (flight JSONL, net.messages.<label> counters): never
/// renumber.
using MessageKind = uint16_t;

enum ProtocolKind : MessageKind {
  /// A value that entered a node's sample, propagated upward w.p. f
  /// (D3 lines 14-15 / 30, MGDD lines 13-14 / 20-21).
  kMsgSampleValue = 1,
  /// A value a node flagged as an outlier, escalated to its parent
  /// (D3 lines 19, 27).
  kMsgOutlierReport = 2,
  /// A global-model update flowing down the hierarchy (MGDD lines 22-23).
  kMsgGlobalModelUpdate = 3,
  /// A raw reading shipped upward by the centralized baseline.
  kMsgRawReading = 4,
  /// An aggregate query disseminated down the tree (Section 9 / TAG-style
  /// in-network query processing; see core/query_processing.h).
  kMsgQueryRequest = 5,
  /// A partial aggregate flowing back up toward the query's origin.
  kMsgQueryResponse = 6,
  /// A restarted node announcing its new incarnation to its parent, and —
  /// once its model is back to capability — reporting recovery complete
  /// (DESIGN.md §10, rejoin protocol).
  kMsgRejoinAnnounce = 7,
  /// The parent's answer to a rejoin: a summary of its model (sample
  /// snapshot + bandwidth spreads) the child warm-starts from.
  kMsgRejoinResync = 8,
  /// Transport-layer acknowledgement (see net/transport.h). Consumed by the
  /// Simulator's receive path, never handed to a Node.
  kMsgTransportAck = 99,
};

/// A kind and its name in metric dumps (net.messages.<label>).
struct MessageKindInfo {
  MessageKind kind;
  const char* label;
};

/// Every protocol kind, in the order of the Payload alternatives below.
inline constexpr std::array<MessageKindInfo, 9> kMessageKinds = {{
    {kMsgSampleValue, "sample_value"},
    {kMsgRawReading, "raw_reading"},
    {kMsgOutlierReport, "outlier_report"},
    {kMsgGlobalModelUpdate, "global_model_update"},
    {kMsgQueryRequest, "query_request"},
    {kMsgQueryResponse, "query_response"},
    {kMsgRejoinAnnounce, "rejoin_announce"},
    {kMsgRejoinResync, "rejoin_resync"},
    {kMsgTransportAck, "transport_ack"},
}};

/// kMsgSampleValue.
struct SampleValuePayload {
  static constexpr MessageKind kKind = kMsgSampleValue;
  Point value;
  size_t SizeNumbers() const { return value.size(); }
};

/// kMsgRawReading.
struct RawReadingPayload {
  static constexpr MessageKind kKind = kMsgRawReading;
  Point value;
  size_t SizeNumbers() const { return value.size(); }
};

/// kMsgOutlierReport.
struct OutlierReportPayload {
  static constexpr MessageKind kKind = kMsgOutlierReport;
  Point value;
  /// Hierarchy level at which the value was first flagged.
  int origin_level = 1;
  /// Provenance of the reading: the leaf that sensed it and that leaf's
  /// reading counter — a source timestamp, as real deployments attach. Lets
  /// upper levels (and the evaluation harness) identify the observation.
  NodeId source_leaf = kNoNode;
  uint64_t source_seq = 0;
  /// Virtual time the originating leaf ingested the reading. Upper levels
  /// subtract it from their decision time to feed the per-tier
  /// detection.latency_s histograms (DESIGN.md §11). A timestamp the real
  /// protocol already pays for via source_seq, so not charged again.
  double ingest_time = 0.0;

  /// Numbers on the wire: the d coordinates plus two of provenance.
  size_t SizeNumbers() const { return value.size() + 2; }
};

/// One slot change of the replicated global sample.
struct GlobalSlotUpdate {
  uint32_t slot = 0;
  Point value;
};

/// kMsgGlobalModelUpdate: the slots of the root's sample that changed (all
/// slots for a full push), plus the root's current standard deviations for
/// bandwidth selection at the leaves.
struct GlobalModelUpdatePayload {
  static constexpr MessageKind kKind = kMsgGlobalModelUpdate;
  std::vector<GlobalSlotUpdate> updates;
  /// One per dimension.
  std::vector<double> stddevs;
  uint64_t version = 0;

  /// Numbers on the wire: (slot + d coordinates) per update + d sigmas + the
  /// version tag.
  size_t SizeNumbers() const {
    return updates.size() * (1 + stddevs.size()) + stddevs.size() + 1;
  }
};

/// An aggregate over the window values inside an axis-aligned box.
struct AggregateQuery {
  enum class Kind {
    kCount,     ///< estimated number of window values in the box
    kFraction,  ///< that count over the total pooled window size
    kAverage,   ///< estimated mean of coordinate `average_dim` in the box
  };

  uint32_t id = 0;
  Kind kind = Kind::kCount;
  Point lo, hi;
  size_t average_dim = 0;
};

/// kMsgQueryRequest.
struct QueryRequestPayload {
  static constexpr MessageKind kKind = kMsgQueryRequest;
  AggregateQuery query;

  /// Numbers on the wire: the box corners + id, kind and average_dim.
  size_t SizeNumbers() const { return 2 * query.lo.size() + 3; }
};

/// kMsgQueryResponse: a partial aggregate.
struct QueryPartialPayload {
  static constexpr MessageKind kKind = kMsgQueryResponse;
  uint32_t query_id = 0;
  double count = 0.0;         ///< estimated in-box values in this subtree
  double weighted_sum = 0.0;  ///< sum of (avg * count) for kAverage
  double window_total = 0.0;  ///< pooled window size of this subtree
  uint32_t leaves = 0;        ///< leaves that contributed

  /// Numbers on the wire: the five fields above.
  size_t SizeNumbers() const { return 5; }
};

/// kMsgRejoinAnnounce.
struct RejoinAnnouncePayload {
  static constexpr MessageKind kKind = kMsgRejoinAnnounce;
  /// The announcing node's new transport incarnation epoch.
  uint32_t incarnation = 0;
  /// Observations the node's restored model had already seen (0 for a cold
  /// restart) — tells the parent how degraded the child is.
  uint64_t restored_seen = 0;
  /// True if the restart restored a checkpoint.
  bool from_checkpoint = false;
  /// False on the initial announce; true on the follow-up announce sent
  /// once the node's model is capable again (closes the parent's
  /// degraded window for this child).
  bool recovered = false;

  /// Numbers on the wire: incarnation, seen count, and the two flags packed
  /// into one number.
  size_t SizeNumbers() const { return 3; }
};

/// kMsgRejoinResync.
struct RejoinResyncPayload {
  static constexpr MessageKind kKind = kMsgRejoinResync;
  /// The parent model's current sample snapshot.
  std::vector<Point> sample;
  /// The parent's bandwidth spreads, one per dimension (see
  /// DensityModel::BandwidthSpreads).
  std::vector<double> spreads;
  /// Observations behind the parent's model, for context.
  uint64_t parent_seen = 0;

  /// Numbers on the wire: d coordinates per sample point + d spreads + the
  /// seen counter.
  size_t SizeNumbers() const {
    return sample.size() * spreads.size() + spreads.size() + 1;
  }
};

/// kMsgTransportAck. The acked (seq, epoch) ride in the Message header.
struct TransportAckPayload {
  static constexpr MessageKind kKind = kMsgTransportAck;

  /// Numbers on the wire: the sequence number.
  size_t SizeNumbers() const { return 1; }
};

/// The global update is the one payload carried by pointer: a root push is
/// fanned out unchanged to every child and relayed down every tier, so all
/// those copies share one immutable payload instead of each copying the
/// sample. Every other payload travels by value and is moved, not copied,
/// along a plain hop.
using SharedGlobalModelUpdate = std::shared_ptr<const GlobalModelUpdatePayload>;

/// Everything a Message can carry. Closed: a payload outside this list is
/// not part of the protocol.
using Payload =
    std::variant<SampleValuePayload, RawReadingPayload, OutlierReportPayload,
                 SharedGlobalModelUpdate, QueryRequestPayload,
                 QueryPartialPayload, RejoinAnnouncePayload,
                 RejoinResyncPayload, TransportAckPayload>;

/// The payload struct behind an alternative (the pointee for the shared one).
template <typename T>
const T& PayloadBody(const T& payload) {
  return payload;
}
template <typename T>
const T& PayloadBody(const std::shared_ptr<const T>& payload) {
  return *payload;
}

namespace protocol_internal {
template <size_t... I>
constexpr bool KindsMatchAlternatives(std::index_sequence<I...>) {
  return ((std::decay_t<decltype(PayloadBody(
               std::declval<std::variant_alternative_t<I, Payload>>()))>::
               kKind == kMessageKinds[I].kind) &&
          ...);
}
}  // namespace protocol_internal

static_assert(kMessageKinds.size() == std::variant_size_v<Payload> &&
                  protocol_internal::KindsMatchAlternatives(
                      std::make_index_sequence<kMessageKinds.size()>()),
              "kMessageKinds must list each Payload alternative's kind, in "
              "alternative order");

}  // namespace sensord

#endif  // SENSORD_NET_PROTOCOL_H_
