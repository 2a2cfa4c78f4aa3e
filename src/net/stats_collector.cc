#include "net/stats_collector.h"

#include <array>
#include <cstddef>
#include <string>

#include "obs/metrics.h"

namespace sensord {
namespace {

// The per-kind counters, indexed like kMessageKinds. Registered together on
// first use, so a dump lists every protocol kind (0 if never sent) and no
// send formats a name or looks one up.
const std::array<obs::Counter*, kMessageKinds.size()>& KindCounters() {
  static const auto counters = [] {
    auto& registry = obs::MetricsRegistry::Global();
    std::array<obs::Counter*, kMessageKinds.size()> out{};
    for (size_t i = 0; i < kMessageKinds.size(); ++i) {
      out[i] = registry.GetCounter(std::string("net.messages.") +
                                   kMessageKinds[i].label);
    }
    return out;
  }();
  return counters;
}

struct NetMetrics {
  obs::Counter* messages_total;
  obs::Counter* numbers_total;
  obs::Counter* messages_dropped;
};

const NetMetrics& Metrics() {
  auto& registry = obs::MetricsRegistry::Global();
  static const NetMetrics m{registry.GetCounter("net.messages.total"),
                            registry.GetCounter("net.numbers.total"),
                            registry.GetCounter("net.messages.dropped")};
  return m;
}

}  // namespace

void StatsCollector::RecordSend(const Message& msg) {
  const size_t size_numbers = msg.size_numbers();
  ++total_messages_;
  total_numbers_ += size_numbers;
  ++by_kind_[msg.payload.index()];
  // Mirror into the process-wide registry (cumulative across Reset()).
  Metrics().messages_total->Increment();
  Metrics().numbers_total->Increment(size_numbers);
  KindCounters()[msg.payload.index()]->Increment();
}

void StatsCollector::RecordDrop() {
  ++dropped_;
  Metrics().messages_dropped->Increment();
}

uint64_t StatsCollector::MessagesOfKind(MessageKind kind) const {
  for (size_t i = 0; i < kMessageKinds.size(); ++i) {
    if (kMessageKinds[i].kind == kind) return by_kind_[i];
  }
  return 0;
}

void StatsCollector::Reset() {
  // Only the per-instance tallies reset; the registry mirrors are
  // process-cumulative by design (see header).
  total_messages_ = 0;
  total_numbers_ = 0;
  dropped_ = 0;
  by_kind_.fill(0);
}

}  // namespace sensord
