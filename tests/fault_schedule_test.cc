#include "net/fault_schedule.h"

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "net/network.h"

// Counts every heap allocation in the process so a test can assert that
// deciding a transmission allocates nothing (same idiom as
// tests/density_model_test.cc).
namespace {
std::atomic<uint64_t> g_alloc_count{0};
}  // namespace

// The replacement operators below pair malloc with free correctly, but
// GCC's heuristic sees new-expressions resolving to free() and flags a
// mismatch; the override is TU-wide, so suppress it file-wide.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace sensord {
namespace {

class ProbeNode : public Node {
 public:
  void HandleMessage(const Message& msg) override { received.push_back(msg); }
  void OnReading(const Point& value) override { readings.push_back(value); }

  std::vector<Message> received;
  std::vector<Point> readings;
};

TEST(FaultScheduleTest, DefaultScheduleIsTransparent) {
  FaultSchedule faults;
  EXPECT_TRUE(faults.IsNodeUp(0, 0.0));
  EXPECT_TRUE(faults.IsLinkUp(0, 1, 100.0));
  for (int i = 0; i < 10; ++i) {
    const TransmissionPlan plan = faults.DecideTransmission(0, 1, 1.0);
    EXPECT_FALSE(plan.drop);
    ASSERT_EQ(plan.extra_delays.size(), 1u);
    EXPECT_DOUBLE_EQ(plan.extra_delays[0], 0.0);
  }
  EXPECT_EQ(faults.drops(), 0u);
  EXPECT_EQ(faults.duplicates(), 0u);
}

TEST(FaultScheduleTest, FaultFreeDecisionAllocatesNothing) {
  // The per-hop decision on a plain link: one copy, no delay, and no heap
  // block to say so.
  FaultSchedule faults;
  faults.DecideTransmission(0, 1, 0.0);  // first call registers metrics
  size_t copies = 0;
  const uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  for (int i = 0; i < 100; ++i) {
    copies += faults.DecideTransmission(0, 1, 1.0).extra_delays.size();
  }
  const uint64_t allocs =
      g_alloc_count.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(copies, 100u);
}

TEST(FaultScheduleTest, ForcedDropsConsumeExactly) {
  FaultSchedule faults;
  faults.DropNext(0, 1, 2);
  EXPECT_TRUE(faults.DecideTransmission(0, 1, 0.0).drop);
  EXPECT_TRUE(faults.DecideTransmission(0, 1, 0.0).drop);
  EXPECT_FALSE(faults.DecideTransmission(0, 1, 0.0).drop);
  // Only the named directed link is affected.
  EXPECT_FALSE(faults.DecideTransmission(1, 0, 0.0).drop);
  EXPECT_EQ(faults.drops(), 2u);
}

TEST(FaultScheduleTest, CrashWindowTakesNodeDownThenRecovers) {
  FaultSchedule faults;
  faults.CrashNode(3, 1.0, 2.0);
  EXPECT_TRUE(faults.IsNodeUp(3, 0.5));
  EXPECT_TRUE(faults.IsNodeUp(3, 0.999));
  EXPECT_FALSE(faults.IsNodeUp(3, 1.0));  // [from, until)
  EXPECT_FALSE(faults.IsNodeUp(3, 1.5));
  EXPECT_TRUE(faults.IsNodeUp(3, 2.0));
  EXPECT_TRUE(faults.IsNodeUp(3, 100.0));
}

TEST(FaultScheduleTest, OpenEndedCrashNeverRecovers) {
  FaultSchedule faults;
  faults.CrashNode(1, 5.0);
  EXPECT_TRUE(faults.IsNodeUp(1, 4.9));
  EXPECT_FALSE(faults.IsNodeUp(1, 1e12));
}

TEST(FaultScheduleTest, CrashedNodeSeversItsLinksBothWays) {
  FaultSchedule faults;
  faults.CrashNode(2, 1.0, 2.0);
  EXPECT_FALSE(faults.IsLinkUp(2, 0, 1.5));
  EXPECT_FALSE(faults.IsLinkUp(0, 2, 1.5));
  EXPECT_TRUE(faults.IsLinkUp(0, 1, 1.5));  // unrelated link stays up
  EXPECT_TRUE(faults.DecideTransmission(0, 2, 1.5).drop);
  EXPECT_FALSE(faults.DecideTransmission(0, 2, 2.5).drop);
}

TEST(FaultScheduleTest, PartitionSeversCrossLinksOnly) {
  FaultSchedule faults;
  faults.Partition({0, 1}, 10.0, 20.0);
  // Cross-partition links are down during the window ...
  EXPECT_FALSE(faults.IsLinkUp(0, 2, 15.0));
  EXPECT_FALSE(faults.IsLinkUp(2, 0, 15.0));
  // ... intra-group and outside-group links stay up ...
  EXPECT_TRUE(faults.IsLinkUp(0, 1, 15.0));
  EXPECT_TRUE(faults.IsLinkUp(2, 3, 15.0));
  // ... and nodes themselves are not "down".
  EXPECT_TRUE(faults.IsNodeUp(0, 15.0));
  // The partition heals.
  EXPECT_TRUE(faults.IsLinkUp(0, 2, 20.0));
  EXPECT_TRUE(faults.IsLinkUp(0, 2, 9.9));
}

TEST(FaultScheduleTest, ProbabilisticDropMatchesRate) {
  FaultSchedule faults(/*seed=*/42);
  LinkFault fault;
  fault.drop_probability = 0.3;
  faults.SetLinkFault(0, 1, fault);
  const int trials = 5000;
  int dropped = 0;
  for (int i = 0; i < trials; ++i) {
    if (faults.DecideTransmission(0, 1, 0.0).drop) ++dropped;
  }
  EXPECT_NEAR(static_cast<double>(dropped) / trials, 0.3, 0.03);
  EXPECT_EQ(faults.drops(), static_cast<uint64_t>(dropped));
  // The other direction uses the default (fault-free) model.
  EXPECT_FALSE(faults.DecideTransmission(1, 0, 0.0).drop);
}

TEST(FaultScheduleTest, DuplicatesYieldTwoCopies) {
  FaultSchedule faults;
  LinkFault fault;
  fault.duplicate_probability = 1.0;
  faults.SetDefaultLinkFault(fault);
  const TransmissionPlan plan = faults.DecideTransmission(0, 1, 0.0);
  EXPECT_FALSE(plan.drop);
  EXPECT_EQ(plan.extra_delays.size(), 2u);
  EXPECT_EQ(faults.duplicates(), 1u);
}

TEST(FaultScheduleTest, JitterStaysWithinBound) {
  FaultSchedule faults(/*seed=*/7);
  LinkFault fault;
  fault.jitter_max = 0.1;
  faults.SetDefaultLinkFault(fault);
  bool saw_positive = false;
  for (int i = 0; i < 200; ++i) {
    const TransmissionPlan plan = faults.DecideTransmission(0, 1, 0.0);
    ASSERT_EQ(plan.extra_delays.size(), 1u);
    EXPECT_GE(plan.extra_delays[0], 0.0);
    EXPECT_LT(plan.extra_delays[0], 0.1);
    saw_positive |= plan.extra_delays[0] > 0.0;
  }
  EXPECT_TRUE(saw_positive);
}

TEST(FaultScheduleTest, ReorderDelayAddsGuaranteedTail) {
  FaultSchedule faults;
  LinkFault fault;
  fault.reorder_probability = 1.0;
  fault.reorder_delay = 0.5;
  faults.SetDefaultLinkFault(fault);
  const TransmissionPlan plan = faults.DecideTransmission(0, 1, 0.0);
  ASSERT_EQ(plan.extra_delays.size(), 1u);
  EXPECT_DOUBLE_EQ(plan.extra_delays[0], 0.5);
}

TEST(FaultScheduleTest, SameSeedReplaysIdenticalDecisions) {
  LinkFault fault;
  fault.drop_probability = 0.4;
  fault.duplicate_probability = 0.2;
  fault.jitter_max = 0.05;

  FaultSchedule a(/*seed=*/123), b(/*seed=*/123);
  a.SetDefaultLinkFault(fault);
  b.SetDefaultLinkFault(fault);
  for (int i = 0; i < 500; ++i) {
    const TransmissionPlan pa = a.DecideTransmission(0, 1, 0.0);
    const TransmissionPlan pb = b.DecideTransmission(0, 1, 0.0);
    ASSERT_EQ(pa.drop, pb.drop);
    ASSERT_EQ(pa.extra_delays, pb.extra_delays);  // bit-identical doubles
  }

  // A different seed diverges somewhere in 500 decisions.
  FaultSchedule c(/*seed=*/124);
  c.SetDefaultLinkFault(fault);
  FaultSchedule d(/*seed=*/123);
  d.SetDefaultLinkFault(fault);
  bool diverged = false;
  for (int i = 0; i < 500 && !diverged; ++i) {
    const TransmissionPlan pc = c.DecideTransmission(0, 1, 0.0);
    const TransmissionPlan pd = d.DecideTransmission(0, 1, 0.0);
    diverged = pc.drop != pd.drop || pc.extra_delays != pd.extra_delays;
  }
  EXPECT_TRUE(diverged);
}

// --- Crash-kind and boundary semantics (DESIGN.md §10). ---

TEST(FaultScheduleTest, AmnesiaCrashSharesOmissionWindowSemantics) {
  // The crash *kind* changes what happens at restart, never whether the
  // node is down: the half-open [from, until) rule is kind-independent.
  FaultSchedule faults;
  faults.CrashNode(5, 1.0, 2.0, CrashKind::kAmnesia);
  EXPECT_TRUE(faults.IsNodeUp(5, 0.999));
  EXPECT_FALSE(faults.IsNodeUp(5, 1.0));
  EXPECT_FALSE(faults.IsNodeUp(5, 1.999));
  EXPECT_TRUE(faults.IsNodeUp(5, 2.0));
  EXPECT_FALSE(faults.IsLinkUp(5, 0, 1.5));
}

TEST(FaultScheduleTest, OverlappingCrashIntervalsUnionDown) {
  FaultSchedule faults;
  faults.CrashNode(4, 1.0, 3.0);
  faults.CrashNode(4, 2.0, 5.0, CrashKind::kAmnesia);
  EXPECT_TRUE(faults.IsNodeUp(4, 0.5));
  EXPECT_FALSE(faults.IsNodeUp(4, 1.0));
  EXPECT_FALSE(faults.IsNodeUp(4, 2.5));  // both intervals cover it
  EXPECT_FALSE(faults.IsNodeUp(4, 3.0));  // first ended, second still on
  EXPECT_FALSE(faults.IsNodeUp(4, 4.999));
  EXPECT_TRUE(faults.IsNodeUp(4, 5.0));
}

TEST(FaultScheduleTest, CrashListenerObservesEveryCrashSynchronously) {
  FaultSchedule faults;
  struct Seen {
    NodeId node;
    SimTime from, until;
    CrashKind kind;
  };
  std::vector<Seen> seen;
  faults.SetCrashListener([&seen](NodeId n, SimTime f, SimTime u,
                                  CrashKind k) {
    seen.push_back({n, f, u, k});
  });
  faults.CrashNode(1, 2.0, 3.0);
  faults.CrashNode(2, 4.0, FaultSchedule::kForever, CrashKind::kAmnesia);
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].node, 1u);
  EXPECT_EQ(seen[0].kind, CrashKind::kOmission);
  EXPECT_EQ(seen[1].node, 2u);
  EXPECT_DOUBLE_EQ(seen[1].from, 4.0);
  EXPECT_EQ(seen[1].until, FaultSchedule::kForever);
  EXPECT_EQ(seen[1].kind, CrashKind::kAmnesia);
}

// --- Sensor data faults: corruption at the reading source. ---

TEST(FaultScheduleTest, StuckAtFreezesReadingsInsideItsWindow) {
  FaultSchedule faults;
  SensorFault fault;
  fault.kind = SensorDataFaultKind::kStuckAt;
  fault.from = 1.0;
  fault.until = 2.0;
  fault.value = 0.25;
  faults.AddSensorFault(7, fault);
  EXPECT_TRUE(faults.HasSensorFaults(7));
  EXPECT_FALSE(faults.HasSensorFaults(8));

  Point before{0.5, 0.6};
  EXPECT_FALSE(faults.PerturbReading(7, 0.999, &before));
  EXPECT_EQ(before, (Point{0.5, 0.6}));
  Point at_start{0.5, 0.6};
  EXPECT_TRUE(faults.PerturbReading(7, 1.0, &at_start));  // [from, until)
  EXPECT_EQ(at_start, (Point{0.25, 0.25}));
  Point at_end{0.5};
  EXPECT_FALSE(faults.PerturbReading(7, 2.0, &at_end));
  EXPECT_EQ(at_end, (Point{0.5}));
  // Other nodes are untouched.
  Point other{0.5};
  EXPECT_FALSE(faults.PerturbReading(8, 1.5, &other));
  EXPECT_EQ(faults.sensor_perturbations(), 1u);
}

TEST(FaultScheduleTest, SpikeAddsAndDropoutAlternatesNonFinite) {
  FaultSchedule faults;
  SensorFault spike;
  spike.kind = SensorDataFaultKind::kSpike;
  spike.value = 0.3;
  faults.AddSensorFault(1, spike);
  Point p{0.1, 0.2};
  EXPECT_TRUE(faults.PerturbReading(1, 0.0, &p));
  EXPECT_DOUBLE_EQ(p[0], 0.4);
  EXPECT_DOUBLE_EQ(p[1], 0.5);

  SensorFault dropout;
  dropout.kind = SensorDataFaultKind::kDropout;
  faults.AddSensorFault(2, dropout);
  Point q{0.5};
  EXPECT_TRUE(faults.PerturbReading(2, 0.0, &q));
  const bool first_nan = std::isnan(q[0]);
  EXPECT_TRUE(first_nan || std::isinf(q[0]));
  Point q2{0.5};
  EXPECT_TRUE(faults.PerturbReading(2, 0.0, &q2));
  // Both non-finite classes appear, deterministically alternating.
  EXPECT_NE(first_nan, std::isnan(q2[0]));
  EXPECT_TRUE(std::isnan(q2[0]) || std::isinf(q2[0]));
}

TEST(FaultScheduleTest, EarliestAddedActiveWindowWins) {
  FaultSchedule faults;
  SensorFault stuck;
  stuck.kind = SensorDataFaultKind::kStuckAt;
  stuck.value = 0.1;
  stuck.until = 10.0;
  SensorFault spike;
  spike.kind = SensorDataFaultKind::kSpike;
  spike.value = 100.0;
  faults.AddSensorFault(3, stuck);
  faults.AddSensorFault(3, spike);
  Point p{0.5};
  EXPECT_TRUE(faults.PerturbReading(3, 5.0, &p));
  EXPECT_EQ(p, (Point{0.1}));  // stuck-at, added first, applied
  // Once the first window closes, the second takes over.
  Point late{0.5};
  EXPECT_TRUE(faults.PerturbReading(3, 10.0, &late));
  EXPECT_DOUBLE_EQ(late[0], 100.5);
}

TEST(FaultScheduleTest, CertainSensorFaultConsumesNoRandomness) {
  // Two same-seed schedules, one of which also perturbs readings with a
  // probability-1 sensor fault: their transmission decision streams must
  // stay identical, proving the certain fault path never touches the rng.
  LinkFault flaky;
  flaky.drop_probability = 0.4;
  FaultSchedule plain(/*seed=*/9), faulted(/*seed=*/9);
  plain.SetDefaultLinkFault(flaky);
  faulted.SetDefaultLinkFault(flaky);
  SensorFault stuck;
  stuck.kind = SensorDataFaultKind::kStuckAt;
  stuck.value = 0.0;
  faulted.AddSensorFault(0, stuck);
  for (int i = 0; i < 200; ++i) {
    Point p{0.5};
    EXPECT_TRUE(faulted.PerturbReading(0, 1.0, &p));
    ASSERT_EQ(plain.DecideTransmission(0, 1, 0.0).drop,
              faulted.DecideTransmission(0, 1, 0.0).drop)
        << "diverged at decision " << i;
  }
}

TEST(FaultScheduleTest, ProbabilisticSensorFaultMatchesRate) {
  FaultSchedule faults(/*seed=*/17);
  SensorFault spike;
  spike.kind = SensorDataFaultKind::kSpike;
  spike.probability = 0.25;
  spike.value = 1.0;
  faults.AddSensorFault(0, spike);
  const int trials = 4000;
  int perturbed = 0;
  for (int i = 0; i < trials; ++i) {
    Point p{0.0};
    if (faults.PerturbReading(0, 0.0, &p)) ++perturbed;
  }
  EXPECT_NEAR(static_cast<double>(perturbed) / trials, 0.25, 0.03);
  EXPECT_EQ(faults.sensor_perturbations(),
            static_cast<uint64_t>(perturbed));
}

// --- Simulator integration: the schedule drives the radio and sensing. ---

TEST(FaultScheduleSimTest, CrashedSenderTransmitsNothing) {
  Simulator sim;
  const NodeId a = sim.AddNode(std::make_unique<ProbeNode>());
  const NodeId b = sim.AddNode(std::make_unique<ProbeNode>());
  sim.faults().CrashNode(a, 0.0, 1.0);

  Message msg;
  msg.from = a;
  msg.to = b;
  sim.Send(std::move(msg));
  sim.RunUntil(2.0);

  // The send was suppressed before any accounting: no traffic, no energy,
  // not even a counted drop (the radio never keyed up).
  EXPECT_EQ(sim.stats().TotalMessages(), 0u);
  EXPECT_EQ(sim.MessagesDropped(), 0u);
  EXPECT_DOUBLE_EQ(sim.EnergyConsumed(a), 0.0);
  EXPECT_TRUE(static_cast<ProbeNode&>(sim.node(b)).received.empty());
}

TEST(FaultScheduleSimTest, CrashedReceiverDropsInFlightMessage) {
  SimulatorOptions opts;
  opts.hop_latency = 0.1;
  Simulator sim(opts);
  const NodeId a = sim.AddNode(std::make_unique<ProbeNode>());
  const NodeId b = sim.AddNode(std::make_unique<ProbeNode>());
  // b dies while the message is in the air (sent at 1.0, arrives 1.1).
  sim.faults().CrashNode(b, 1.05, 2.0);

  sim.ScheduleAt(1.0, [&] {
    Message msg;
    msg.from = a;
    msg.to = b;
    sim.Send(std::move(msg));
  });
  sim.RunUntil(3.0);

  EXPECT_EQ(sim.stats().TotalMessages(), 1u);  // the tx happened
  EXPECT_EQ(sim.MessagesDropped(), 1u);        // the rx did not
  EXPECT_TRUE(static_cast<ProbeNode&>(sim.node(b)).received.empty());
  EXPECT_DOUBLE_EQ(sim.EnergyConsumed(b), 0.0);  // dead radios draw nothing
}

TEST(FaultScheduleSimTest, CrashedNodeSensesNothingButScheduleSurvives) {
  Simulator sim;
  const NodeId a = sim.AddNode(std::make_unique<ProbeNode>());
  sim.faults().CrashNode(a, 2.5, 5.5);
  sim.SchedulePeriodicReadings(a, 0.0, 1.0, [] { return Point{1.0}; });
  sim.RunUntil(8.0);
  // t = 0..8 is 9 ticks; t = 3, 4, 5 fall inside the crash window.
  EXPECT_EQ(static_cast<ProbeNode&>(sim.node(a)).readings.size(), 6u);
}

TEST(FaultScheduleSimTest, FaultDropsFeedTheUnifiedDropCounter) {
  Simulator sim;
  const NodeId a = sim.AddNode(std::make_unique<ProbeNode>());
  const NodeId b = sim.AddNode(std::make_unique<ProbeNode>());
  sim.faults().DropNext(a, b, 3);
  for (int i = 0; i < 5; ++i) {
    Message msg;
    msg.from = a;
    msg.to = b;
    sim.Send(std::move(msg));
  }
  sim.RunUntil(1.0);
  EXPECT_EQ(sim.faults().drops(), 3u);
  EXPECT_EQ(sim.MessagesDropped(), 3u);
  EXPECT_EQ(sim.MessagesDropped(), sim.stats().MessagesDropped());
  EXPECT_EQ(static_cast<ProbeNode&>(sim.node(b)).received.size(), 2u);
}

TEST(FaultScheduleSimTest, SensorFaultCorruptsDeliveredReadings) {
  Simulator sim;
  const NodeId a = sim.AddNode(std::make_unique<ProbeNode>());
  SensorFault stuck;
  stuck.kind = SensorDataFaultKind::kStuckAt;
  stuck.from = 2.0;
  stuck.until = 5.0;
  stuck.value = 0.9;
  sim.faults().AddSensorFault(a, stuck);
  sim.SchedulePeriodicReadings(a, 0.0, 1.0, [] { return Point{0.1}; });
  sim.RunUntil(7.0);

  // Ticks at t = 2, 3, 4 are frozen at the stuck value; the rest are clean.
  const auto& readings = static_cast<ProbeNode&>(sim.node(a)).readings;
  ASSERT_EQ(readings.size(), 8u);
  for (size_t i = 0; i < readings.size(); ++i) {
    const double expected = (i >= 2 && i < 5) ? 0.9 : 0.1;
    EXPECT_DOUBLE_EQ(readings[i][0], expected) << "tick " << i;
  }
}

TEST(FaultScheduleSimTest, AmnesiaRestartWaitsForOverlappingIntervals) {
  // Two overlapping amnesia windows: the restart scheduled at the first
  // window's end is a no-op (the second still covers it); only the restart
  // at the end of the union bumps the incarnation.
  Simulator sim;
  const NodeId a = sim.AddNode(std::make_unique<ProbeNode>());
  sim.faults().CrashNode(a, 1.0, 2.0, CrashKind::kAmnesia);
  sim.faults().CrashNode(a, 1.5, 3.0, CrashKind::kAmnesia);
  sim.RunUntil(2.5);
  EXPECT_EQ(sim.Incarnation(a), 0u);  // first restart was swallowed
  sim.RunUntil(4.0);
  EXPECT_EQ(sim.Incarnation(a), 1u);
}

TEST(FaultScheduleSimTest, OmissionCrashDoesNotRestartOrBumpEpoch) {
  Simulator sim;
  const NodeId a = sim.AddNode(std::make_unique<ProbeNode>());
  sim.faults().CrashNode(a, 1.0, 2.0);  // classic omission crash
  sim.RunUntil(3.0);
  EXPECT_EQ(sim.Incarnation(a), 0u);
}

TEST(FaultScheduleSimTest, RadioDuplicateDeliversTwiceWithoutTransport) {
  Simulator sim;
  const NodeId a = sim.AddNode(std::make_unique<ProbeNode>());
  const NodeId b = sim.AddNode(std::make_unique<ProbeNode>());
  LinkFault fault;
  fault.duplicate_probability = 1.0;
  sim.faults().SetLinkFault(a, b, fault);
  Message msg;
  msg.from = a;
  msg.to = b;
  sim.Send(std::move(msg));
  sim.RunUntil(1.0);
  // Raw datagrams have no dedup: the application sees both copies.
  EXPECT_EQ(static_cast<ProbeNode&>(sim.node(b)).received.size(), 2u);
}

}  // namespace
}  // namespace sensord
