#include "net/transport.h"

#include <iterator>
#include <utility>

#include "net/network.h"
#include "obs/metrics.h"

#include "util/check.h"

namespace sensord {
namespace {

struct TransportMetrics {
  obs::Counter* retries;         // retransmissions performed
  obs::Counter* timeouts;        // ack timers that expired
  obs::Counter* dup_suppressed;  // duplicate deliveries absorbed
  obs::Counter* abandoned;       // messages given up after the retry budget
  obs::Counter* acks;            // acks transmitted
  obs::Counter* stale_epoch;     // messages from a superseded incarnation
  obs::Counter* flushed;         // pending sends flushed on restart
};

const TransportMetrics& Metrics() {
  auto& registry = obs::MetricsRegistry::Global();
  static const TransportMetrics m{
      registry.GetCounter("net.retries"),
      registry.GetCounter("net.timeouts"),
      registry.GetCounter("net.dup_suppressed"),
      registry.GetCounter("net.abandoned"),
      registry.GetCounter("net.acks"),
      registry.GetCounter("recovery.stale_epoch_dropped"),
      registry.GetCounter("recovery.flushed_pending")};
  return m;
}

}  // namespace

void ReliableTransport::SendReliable(Message msg) {
  SENSORD_DCHECK_NE(msg.kind(), kMsgTransportAck);
  const uint64_t seq = ++next_seq_[{msg.from, msg.to}];
  msg.transport_seq = seq;
  msg.transport_epoch = incarnation(msg.from);
  const PendingKey key{msg.from, msg.to, seq};
  Pending& entry = pending_[key];
  entry.msg = std::move(msg);
  entry.attempts = 1;
  entry.wait = options_.ack_timeout;
  sim_->Transmit(entry.msg);
  sim_->ScheduleAfter(entry.wait, [this, key]() { OnTimeout(key); });
}

bool ReliableTransport::AcceptData(const Message& msg) {
  SENSORD_DCHECK_GT(msg.transport_seq, 0u);
  LinkDedup& dedup = delivered_[{msg.from, msg.to}];
  if (msg.transport_epoch < dedup.epoch) {
    // Straggler from a superseded incarnation (a retransmit that was in
    // flight across the sender's restart). Not acked: an ack would settle a
    // pending entry of the *new* incarnation holding the same seq.
    ++stale_epoch_dropped_;
    Metrics().stale_epoch->Increment();
    return false;
  }
  if (msg.transport_epoch > dedup.epoch) {
    // The sender restarted and its seqs start over: old dedup state would
    // silently eat them (the correctness hole epochs exist to close).
    dedup.epoch = msg.transport_epoch;
    dedup.seqs.clear();
  }
  const bool first = dedup.seqs.insert(msg.transport_seq).second;

  // Ack every copy: a re-ack is exactly what repairs a lost ack. The epoch
  // echo lets the sender ignore acks for a previous incarnation's sends.
  Message ack;
  ack.from = msg.to;
  ack.to = msg.from;
  ack.payload = TransportAckPayload{};
  ack.transport_seq = msg.transport_seq;
  ack.transport_epoch = msg.transport_epoch;
  ++acks_sent_;
  Metrics().acks->Increment();
  sim_->Transmit(std::move(ack));

  if (!first) {
    ++dup_suppressed_;
    Metrics().dup_suppressed->Increment();
  }
  return first;
}

void ReliableTransport::HandleAck(const Message& ack) {
  // The ack travels receiver -> sender, so the pending entry is keyed by
  // the reversed endpoints.
  const auto it = pending_.find(PendingKey{ack.to, ack.from, ack.transport_seq});
  if (it == pending_.end()) return;
  // An ack echoing an older epoch settles nothing: it names a message the
  // sender's previous incarnation sent, not the same-seq message the current
  // incarnation may have in flight.
  if (it->second.msg.transport_epoch != ack.transport_epoch) return;
  pending_.erase(it);
}

void ReliableTransport::OnNodeRestart(NodeId node) {
  ++incarnation_[node];

  // Sender side: in-flight messages of the previous incarnation are gone —
  // the node no longer remembers sending them — and seq counters restart.
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (std::get<0>(it->first) == node) {
      ++flushed_pending_;
      Metrics().flushed->Increment();
      it = pending_.erase(it);
    } else {
      ++it;
    }
  }
  for (auto it = next_seq_.begin(); it != next_seq_.end();) {
    it = it->first.first == node ? next_seq_.erase(it) : std::next(it);
  }

  // Receiver side: the dedup memory is volatile state. Peers' in-flight
  // retransmits will be re-delivered to the restarted node — at-least-once
  // delivery across a crash that lost the original, which is the correct
  // direction to err; their acks still carry the peer's epoch and settle
  // normally.
  for (auto it = delivered_.begin(); it != delivered_.end();) {
    it = it->first.second == node ? delivered_.erase(it) : std::next(it);
  }
}

void ReliableTransport::OnTimeout(const PendingKey& key) {
  const auto it = pending_.find(key);
  if (it == pending_.end()) return;  // acked in the meantime
  ++timeouts_;
  Metrics().timeouts->Increment();

  Pending& entry = it->second;
  const NodeId sender = std::get<0>(key);
  if (entry.attempts > options_.max_retries ||
      !sim_->faults().IsNodeUp(sender, sim_->Now())) {
    // Budget exhausted (or the sender itself died): give up. The message
    // stays lost — graceful degradation in core/ is what copes from here.
    ++abandoned_;
    Metrics().abandoned->Increment();
    pending_.erase(it);
    return;
  }

  ++entry.attempts;
  entry.wait *= options_.backoff_factor;
  ++retries_;
  Metrics().retries->Increment();
  sim_->Transmit(entry.msg);
  sim_->ScheduleAfter(entry.wait, [this, key]() { OnTimeout(key); });
}

}  // namespace sensord
