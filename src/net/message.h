// Copyright (c) the sensord authors. Licensed under the Apache License 2.0.
//
// Messages exchanged between simulated sensor nodes.
//
// A message carries one payload of the closed wire protocol (net/protocol.h)
// plus transport and tracing metadata. Its kind (for per-category
// statistics) and its size in numbers (the paper's "16-bit architecture,
// 2 bytes per number" accounting, Section 10.3) are not stored: both are
// derived from the payload, so a sender cannot mislabel or mis-size one.

#ifndef SENSORD_NET_MESSAGE_H_
#define SENSORD_NET_MESSAGE_H_

#include <cstddef>
#include <cstdint>
#include <variant>

#include "net/protocol.h"

namespace sensord {

/// A message in flight.
struct Message {
  NodeId from = kNoNode;
  NodeId to = kNoNode;
  /// Transport sequence number on the (from, to) link; 0 for unreliable
  /// datagrams. Stamped by ReliableTransport on reliable sends and echoed
  /// back by acks (where it names the acked data message).
  uint64_t transport_seq = 0;
  /// Sender's incarnation epoch at send time (see ReliableTransport). Bumped
  /// when the sender restarts from an amnesia crash, so receivers can tell a
  /// restarted peer's reused seq numbers from stale duplicates. Echoed by
  /// acks alongside transport_seq. 0 until the sender's first restart.
  uint32_t transport_epoch = 0;
  /// Causal trace context (DESIGN.md §11): the trace this message belongs to
  /// and the span that caused its send, both 0 when untraced. Raw ids, not
  /// obs types, so net/ stays independent of the obs layer. Out-of-band
  /// metadata like transport_seq: not charged to size_numbers(), and carried
  /// verbatim through transport retransmits (the transport retains the whole
  /// Message) so a retransmitted report still joins its original chain.
  uint64_t trace_id = 0;
  uint64_t trace_parent_span = 0;
  /// What the message carries; receivers std::get_if the payload they
  /// handle and ignore the rest.
  Payload payload;

  /// The protocol kind of the payload.
  MessageKind kind() const { return kMessageKinds[payload.index()].kind; }

  /// Payload size in numeric values; the stats layer converts to bytes.
  size_t size_numbers() const {
    return std::visit(
        [](const auto& p) { return PayloadBody(p).SizeNumbers(); }, payload);
  }
};

}  // namespace sensord

#endif  // SENSORD_NET_MESSAGE_H_
