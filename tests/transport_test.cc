#include "net/transport.h"

#include <cstdio>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "net/fault_schedule.h"
#include "net/network.h"

namespace sensord {
namespace {

class ProbeNode : public Node {
 public:
  void HandleMessage(const Message& msg) override { received.push_back(msg); }
  std::vector<Message> received;
};

Simulator MakeReliableSim(double ack_timeout = 0.05, int max_retries = 5,
                          double backoff = 2.0) {
  SimulatorOptions opts;
  opts.transport.reliable = true;
  opts.transport.ack_timeout = ack_timeout;
  opts.transport.max_retries = max_retries;
  opts.transport.backoff_factor = backoff;
  return Simulator(opts);
}

// A one-number data message; `tag` tells messages apart at the receiver.
Message Msg(NodeId from, NodeId to, double tag = 42) {
  Message msg;
  msg.from = from;
  msg.to = to;
  msg.payload = SampleValuePayload{{tag}};
  return msg;
}

double Tag(const Message& msg) {
  return std::get<SampleValuePayload>(msg.payload).value[0];
}

TEST(TransportTest, CleanLinkDeliversOnceAndAcks) {
  Simulator sim = MakeReliableSim();
  const NodeId a = sim.AddNode(std::make_unique<ProbeNode>());
  const NodeId b = sim.AddNode(std::make_unique<ProbeNode>());
  sim.Send(Msg(a, b));
  sim.RunAll();

  auto& receiver = static_cast<ProbeNode&>(sim.node(b));
  ASSERT_EQ(receiver.received.size(), 1u);
  EXPECT_EQ(receiver.received[0].transport_seq, 1u);
  EXPECT_EQ(sim.transport().retries(), 0u);
  EXPECT_EQ(sim.transport().acks_sent(), 1u);
  EXPECT_EQ(sim.transport().PendingCount(), 0u);
  // Data + ack are both real traffic.
  EXPECT_EQ(sim.stats().TotalMessages(), 2u);
  EXPECT_EQ(sim.stats().MessagesOfKind(kMsgTransportAck), 1u);
  // The ack is infrastructure: it never reached the sending node's handler.
  EXPECT_TRUE(static_cast<ProbeNode&>(sim.node(a)).received.empty());
}

TEST(TransportTest, RetransmitsThroughForcedDrops) {
  Simulator sim = MakeReliableSim();
  const NodeId a = sim.AddNode(std::make_unique<ProbeNode>());
  const NodeId b = sim.AddNode(std::make_unique<ProbeNode>());
  sim.faults().DropNext(a, b, 2);
  sim.Send(Msg(a, b));
  sim.RunAll();

  auto& receiver = static_cast<ProbeNode&>(sim.node(b));
  ASSERT_EQ(receiver.received.size(), 1u);  // exactly once despite 2 losses
  EXPECT_EQ(sim.transport().timeouts(), 2u);
  EXPECT_EQ(sim.transport().retries(), 2u);
  EXPECT_EQ(sim.transport().abandoned(), 0u);
  EXPECT_EQ(sim.transport().PendingCount(), 0u);
  EXPECT_EQ(sim.MessagesDropped(), 2u);
}

TEST(TransportTest, BackoffTimingOnVirtualTime) {
  // ack_timeout 1, backoff 2: attempts go out at t = 0, 1, 3, 7.
  Simulator sim = MakeReliableSim(/*ack_timeout=*/1.0, /*max_retries=*/5,
                                  /*backoff=*/2.0);
  const NodeId a = sim.AddNode(std::make_unique<ProbeNode>());
  const NodeId b = sim.AddNode(std::make_unique<ProbeNode>());
  sim.faults().DropNext(a, b, 3);
  sim.Send(Msg(a, b));

  auto& receiver = static_cast<ProbeNode&>(sim.node(b));
  sim.RunUntil(6.99);
  EXPECT_TRUE(receiver.received.empty());  // 4th attempt not out yet
  sim.RunUntil(7.01);  // 4th attempt at t=7 arrives after hop latency
  ASSERT_EQ(receiver.received.size(), 1u);
  EXPECT_EQ(sim.transport().retries(), 3u);
  sim.RunAll();
  EXPECT_EQ(sim.transport().PendingCount(), 0u);
  EXPECT_EQ(receiver.received.size(), 1u);  // nothing further arrives
}

TEST(TransportTest, RetryBudgetExhaustionAbandons) {
  Simulator sim = MakeReliableSim(/*ack_timeout=*/0.05, /*max_retries=*/2);
  const NodeId a = sim.AddNode(std::make_unique<ProbeNode>());
  const NodeId b = sim.AddNode(std::make_unique<ProbeNode>());
  sim.faults().DropNext(a, b, 100);  // the link eats everything
  sim.Send(Msg(a, b));
  sim.RunAll();

  EXPECT_TRUE(static_cast<ProbeNode&>(sim.node(b)).received.empty());
  EXPECT_EQ(sim.transport().abandoned(), 1u);
  EXPECT_EQ(sim.transport().retries(), 2u);  // 1 + max_retries transmissions
  EXPECT_EQ(sim.stats().TotalMessages(), 3u);
  EXPECT_EQ(sim.transport().PendingCount(), 0u);  // no zombie state
}

TEST(TransportTest, LostAckRetransmitsButDeliversOnce) {
  Simulator sim = MakeReliableSim();
  const NodeId a = sim.AddNode(std::make_unique<ProbeNode>());
  const NodeId b = sim.AddNode(std::make_unique<ProbeNode>());
  sim.faults().DropNext(b, a, 1);  // kill the first ack, not the data
  sim.Send(Msg(a, b));
  sim.RunAll();

  // Data arrived twice on the wire, the node saw it once, and the re-ack of
  // the suppressed duplicate settled the sender.
  auto& receiver = static_cast<ProbeNode&>(sim.node(b));
  ASSERT_EQ(receiver.received.size(), 1u);
  EXPECT_EQ(sim.transport().dup_suppressed(), 1u);
  EXPECT_EQ(sim.transport().acks_sent(), 2u);
  EXPECT_EQ(sim.transport().retries(), 1u);
  EXPECT_EQ(sim.transport().PendingCount(), 0u);
}

TEST(TransportTest, RadioDuplicateIsSuppressed) {
  Simulator sim = MakeReliableSim();
  const NodeId a = sim.AddNode(std::make_unique<ProbeNode>());
  const NodeId b = sim.AddNode(std::make_unique<ProbeNode>());
  LinkFault fault;
  fault.duplicate_probability = 1.0;
  sim.faults().SetLinkFault(a, b, fault);
  sim.Send(Msg(a, b));
  sim.RunAll();

  EXPECT_EQ(static_cast<ProbeNode&>(sim.node(b)).received.size(), 1u);
  EXPECT_EQ(sim.transport().dup_suppressed(), 1u);
}

TEST(TransportTest, SequenceNumbersAreMonotonePerLink) {
  Simulator sim = MakeReliableSim();
  const NodeId a = sim.AddNode(std::make_unique<ProbeNode>());
  const NodeId b = sim.AddNode(std::make_unique<ProbeNode>());
  const NodeId c = sim.AddNode(std::make_unique<ProbeNode>());
  for (int i = 0; i < 3; ++i) sim.Send(Msg(a, b));
  sim.Send(Msg(a, c));  // a different link numbers independently
  sim.RunAll();

  auto& rb = static_cast<ProbeNode&>(sim.node(b));
  ASSERT_EQ(rb.received.size(), 3u);
  EXPECT_EQ(rb.received[0].transport_seq, 1u);
  EXPECT_EQ(rb.received[1].transport_seq, 2u);
  EXPECT_EQ(rb.received[2].transport_seq, 3u);
  auto& rc = static_cast<ProbeNode&>(sim.node(c));
  ASSERT_EQ(rc.received.size(), 1u);
  EXPECT_EQ(rc.received[0].transport_seq, 1u);
}

TEST(TransportTest, RetriesRideOutReceiverCrash) {
  // b is down for the first two delivery attempts and back up for the third.
  Simulator sim = MakeReliableSim(/*ack_timeout=*/0.2, /*max_retries=*/5,
                                  /*backoff=*/2.0);
  const NodeId a = sim.AddNode(std::make_unique<ProbeNode>());
  const NodeId b = sim.AddNode(std::make_unique<ProbeNode>());
  sim.faults().CrashNode(b, 0.0, 0.5);  // attempts at 0, 0.2 hit the crash
  sim.Send(Msg(a, b));
  sim.RunAll();

  ASSERT_EQ(static_cast<ProbeNode&>(sim.node(b)).received.size(), 1u);
  EXPECT_EQ(sim.transport().retries(), 2u);
  EXPECT_EQ(sim.MessagesDropped(), 2u);  // the two crashed-receiver copies
  EXPECT_EQ(sim.transport().PendingCount(), 0u);
}

TEST(TransportTest, SenderCrashAbandonsItsPendingMessages) {
  Simulator sim = MakeReliableSim(/*ack_timeout=*/0.1, /*max_retries=*/5);
  const NodeId a = sim.AddNode(std::make_unique<ProbeNode>());
  const NodeId b = sim.AddNode(std::make_unique<ProbeNode>());
  sim.faults().DropNext(a, b, 1);          // first attempt lost ...
  sim.faults().CrashNode(a, 0.05);         // ... then the sender dies
  sim.Send(Msg(a, b));
  sim.RunAll();

  EXPECT_TRUE(static_cast<ProbeNode&>(sim.node(b)).received.empty());
  EXPECT_EQ(sim.transport().abandoned(), 1u);
  EXPECT_EQ(sim.transport().retries(), 0u);  // dead nodes don't retransmit
  EXPECT_EQ(sim.transport().PendingCount(), 0u);
}

TEST(TransportTest, PartitionHealsAndDeliveryResumes) {
  Simulator sim = MakeReliableSim(/*ack_timeout=*/0.2, /*max_retries=*/8);
  const NodeId a = sim.AddNode(std::make_unique<ProbeNode>());
  const NodeId b = sim.AddNode(std::make_unique<ProbeNode>());
  sim.faults().Partition({a}, 0.0, 0.5);
  sim.Send(Msg(a, b));
  sim.RunAll();

  // Attempts at 0 and 0.2 die against the partition; 0.6 goes through.
  ASSERT_EQ(static_cast<ProbeNode&>(sim.node(b)).received.size(), 1u);
  EXPECT_EQ(sim.transport().retries(), 2u);
  EXPECT_GT(sim.Now(), 0.5);
}

TEST(TransportTest, UnreliableModeBypassesTransportEntirely) {
  Simulator sim;  // default: transport off
  const NodeId a = sim.AddNode(std::make_unique<ProbeNode>());
  const NodeId b = sim.AddNode(std::make_unique<ProbeNode>());
  sim.Send(Msg(a, b));
  sim.RunAll();

  auto& receiver = static_cast<ProbeNode&>(sim.node(b));
  ASSERT_EQ(receiver.received.size(), 1u);
  EXPECT_EQ(receiver.received[0].transport_seq, 0u);  // unstamped datagram
  EXPECT_EQ(sim.stats().MessagesOfKind(kMsgTransportAck), 0u);
  EXPECT_EQ(sim.transport().PendingCount(), 0u);
}

// --- Incarnation epochs: correctness across amnesia restarts. ---

TEST(TransportTest, ReceiverAmnesiaRestartAcceptsInFlightRetransmit) {
  // b is amnesia-down for the first attempts; its restart wipes the link
  // dedup state, and the sender's retransmit (same epoch, same seq) must
  // still deliver exactly once and settle the pending entry.
  Simulator sim = MakeReliableSim(/*ack_timeout=*/0.2, /*max_retries=*/5,
                                  /*backoff=*/2.0);
  const NodeId a = sim.AddNode(std::make_unique<ProbeNode>());
  const NodeId b = sim.AddNode(std::make_unique<ProbeNode>());
  sim.faults().CrashNode(b, 0.0, 0.5, CrashKind::kAmnesia);
  sim.Send(Msg(a, b));
  sim.RunAll();

  EXPECT_EQ(sim.Incarnation(b), 1u);
  auto& receiver = static_cast<ProbeNode&>(sim.node(b));
  ASSERT_EQ(receiver.received.size(), 1u);
  EXPECT_EQ(receiver.received[0].transport_seq, 1u);
  EXPECT_EQ(receiver.received[0].transport_epoch, 0u);  // sender's epoch
  EXPECT_EQ(sim.transport().retries(), 2u);  // attempts at 0, 0.2, 0.6
  EXPECT_EQ(sim.transport().PendingCount(), 0u);
  EXPECT_EQ(sim.transport().stale_epoch_dropped(), 0u);
}

TEST(TransportTest, SenderAmnesiaRestartReusedSeqIsNotMisDeduped) {
  // Regression: a restarted sender restarts its per-link seq counter at 1.
  // Without epochs the receiver's dedup set would silently eat the reused
  // seq; the bumped epoch must flush it instead.
  Simulator sim = MakeReliableSim();
  const NodeId a = sim.AddNode(std::make_unique<ProbeNode>());
  const NodeId b = sim.AddNode(std::make_unique<ProbeNode>());
  sim.Send(Msg(a, b, /*tag=*/42));  // delivered as (epoch 0, seq 1)
  sim.faults().CrashNode(a, 0.1, 0.2, CrashKind::kAmnesia);
  sim.ScheduleAt(0.3, [&sim, a, b] { sim.Send(Msg(a, b, /*tag=*/43)); });
  sim.RunAll();

  EXPECT_EQ(sim.Incarnation(a), 1u);
  auto& receiver = static_cast<ProbeNode&>(sim.node(b));
  ASSERT_EQ(receiver.received.size(), 2u);
  EXPECT_EQ(Tag(receiver.received[0]), 42);
  EXPECT_EQ(Tag(receiver.received[1]), 43);
  // The second message reused seq 1 under the new epoch — and got through.
  EXPECT_EQ(receiver.received[1].transport_seq, 1u);
  EXPECT_EQ(receiver.received[1].transport_epoch, 1u);
  EXPECT_EQ(sim.transport().dup_suppressed(), 0u);
  EXPECT_EQ(sim.transport().PendingCount(), 0u);
}

TEST(TransportTest, StaleEpochCopyIsDroppedWithoutAck) {
  // msg1's only physical copy is held back a full second by the reorder
  // fault; meanwhile its sender amnesia-restarts (flushing the pending
  // entry) and sends msg2 under epoch 1. When the stale epoch-0 copy
  // finally lands it must be dropped without an ack — acking it would
  // settle a new-incarnation pending entry carrying the same seq.
  Simulator sim = MakeReliableSim(/*ack_timeout=*/0.5, /*max_retries=*/3);
  const NodeId a = sim.AddNode(std::make_unique<ProbeNode>());
  const NodeId b = sim.AddNode(std::make_unique<ProbeNode>());
  LinkFault slow;
  slow.reorder_probability = 1.0;
  slow.reorder_delay = 1.0;
  sim.faults().SetLinkFault(a, b, slow);
  sim.Send(Msg(a, b, /*tag=*/42));  // epoch 0, seq 1; arrives ~t=1.001
  sim.faults().CrashNode(a, 0.1, 0.2, CrashKind::kAmnesia);
  sim.ScheduleAt(0.3, [&sim, a, b] {
    sim.faults().SetLinkFault(a, b, LinkFault{});  // link is fast again
    sim.Send(Msg(a, b, /*tag=*/43));              // epoch 1, seq 1
  });
  sim.RunAll();

  EXPECT_EQ(sim.transport().flushed_pending(), 1u);  // msg1 died with a
  auto& receiver = static_cast<ProbeNode&>(sim.node(b));
  ASSERT_EQ(receiver.received.size(), 1u);
  EXPECT_EQ(Tag(receiver.received[0]), 43);
  EXPECT_EQ(sim.transport().stale_epoch_dropped(), 1u);
  EXPECT_EQ(sim.transport().acks_sent(), 1u);  // only msg2 was acked
  EXPECT_EQ(sim.transport().PendingCount(), 0u);
}

// Records the exact physical delivery sequence of a simulation run.
std::vector<std::string> RunAndTapDeliveries(uint64_t fault_seed) {
  SimulatorOptions opts;
  opts.transport.reliable = true;
  opts.transport.ack_timeout = 0.05;
  opts.fault_seed = fault_seed;
  Simulator sim(opts);
  const NodeId a = sim.AddNode(std::make_unique<ProbeNode>());
  const NodeId b = sim.AddNode(std::make_unique<ProbeNode>());
  const NodeId c = sim.AddNode(std::make_unique<ProbeNode>());

  LinkFault fault;
  fault.drop_probability = 0.3;
  fault.duplicate_probability = 0.2;
  fault.jitter_max = 0.02;
  sim.faults().SetDefaultLinkFault(fault);

  std::vector<std::string> log;
  sim.SetDeliveryTapForTest([&log, &sim](const Message& msg) {
    char line[128];
    std::snprintf(line, sizeof(line), "t=%.12f %u->%u kind=%u seq=%llu",
                  sim.Now(), msg.from, msg.to,
                  static_cast<unsigned>(msg.kind()),
                  static_cast<unsigned long long>(msg.transport_seq));
    log.emplace_back(line);
  });

  for (int i = 0; i < 30; ++i) {
    sim.ScheduleAt(0.1 * i, [&sim, a, b, c, i] {
      sim.Send(Msg(a, b, /*tag=*/42));
      if (i % 3 == 0) sim.Send(Msg(b, c, /*tag=*/43));
    });
  }
  sim.RunAll();
  return log;
}

TEST(TransportTest, SameSeedYieldsByteIdenticalDeliveryOrder) {
  const std::vector<std::string> run1 = RunAndTapDeliveries(/*fault_seed=*/99);
  const std::vector<std::string> run2 = RunAndTapDeliveries(/*fault_seed=*/99);
  ASSERT_FALSE(run1.empty());
  EXPECT_EQ(run1, run2);

  // A different fault seed produces a different physical history.
  const std::vector<std::string> run3 = RunAndTapDeliveries(/*fault_seed=*/100);
  EXPECT_NE(run1, run3);
}

}  // namespace
}  // namespace sensord
