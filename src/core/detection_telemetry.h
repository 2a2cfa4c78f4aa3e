// Copyright (c) the sensord authors. Licensed under the Apache License 2.0.
//
// What D3 and MGDD share beyond the wire protocol: detection telemetry
// (DESIGN.md §11) and the rejoin announce of the crash-recovery protocol
// (DESIGN.md §10).
//
// The per-tier decision-latency histograms measure *virtual* time from the
// originating leaf's ingest (OutlierReportPayload::ingest_time) to the
// decision that consumed the report, so they answer "how long did the
// hierarchy take to confirm this reading" per tier.

#ifndef SENSORD_CORE_DETECTION_TELEMETRY_H_
#define SENSORD_CORE_DETECTION_TELEMETRY_H_

#include <cstdint>
#include <cstdio>

#include "net/network.h"
#include "net/node.h"
#include "net/protocol.h"
#include "obs/metrics.h"

namespace sensord {

/// The detection.latency_s.level<N> histogram for hierarchy tier `level`,
/// cached per level so the hot path never formats a metric name. Tiers
/// above 8 (deeper than any shipped experiment) share the last histogram.
inline obs::Histogram* DetectionLatencyHist(int level) {
  constexpr int kMaxLevel = 8;
  // Inline: one shared static array across every including TU.
  static obs::Histogram* hists[kMaxLevel + 1] = {};
  const int idx = level < 1 ? 1 : (level > kMaxLevel ? kMaxLevel : level);
  if (hists[idx] == nullptr) {
    char name[40];
    std::snprintf(name, sizeof(name), "detection.latency_s.level%d", idx);
    hists[idx] = obs::MetricsRegistry::Global().GetHistogram(
        name, obs::DetectionLatencyBoundariesS());
  }
  return hists[idx];
}

/// core.degraded_windows: entries into the degraded state, by any detector.
inline obs::Counter* DegradedWindowsCounter() {
  static obs::Counter* const counter =
      obs::MetricsRegistry::Global().GetCounter("core.degraded_windows");
  return counter;
}

/// Rejoin-protocol telemetry.
struct RejoinMetrics {
  obs::Counter* announces;  // rejoin/recovered announces sent upward
  obs::Counter* resyncs;    // model resyncs / full re-pushes sent down
  obs::Histogram* ttr_s;    // restart -> capability, virtual seconds
};

inline const RejoinMetrics& Rejoin() {
  auto& registry = obs::MetricsRegistry::Global();
  static const RejoinMetrics m{
      registry.GetCounter("recovery.rejoin_announces"),
      registry.GetCounter("recovery.rejoin_resyncs"),
      registry.GetHistogram("recovery.time_to_recover_s",
                            obs::DurationBoundariesS())};
  return m;
}

/// Announces `node`'s rejoin to its parent (a no-op at the root): its new
/// incarnation, the observations its model holds after the restart, whether
/// that model came from a checkpoint, and — on the follow-up announce —
/// that it is capable again.
inline void SendRejoinAnnounce(Node& node, uint64_t restored_seen,
                               bool from_checkpoint, bool recovered) {
  if (node.parent() == kNoNode) return;
  Rejoin().announces->Increment();
  RejoinAnnouncePayload ann;
  ann.incarnation = node.sim()->Incarnation(node.id());
  ann.restored_seen = restored_seen;
  ann.from_checkpoint = from_checkpoint;
  ann.recovered = recovered;
  node.Send(node.parent(), ann);
}

}  // namespace sensord

#endif  // SENSORD_CORE_DETECTION_TELEMETRY_H_
