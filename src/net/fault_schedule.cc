#include "net/fault_schedule.h"

#include <limits>

#include "obs/metrics.h"

namespace sensord {
namespace {

struct FaultMetrics {
  obs::Counter* drops;             // transmissions killed by the schedule
  obs::Counter* duplicates;        // radio-level duplicate copies injected
  obs::Counter* sensor_perturbed;  // readings corrupted at the source
};

const FaultMetrics& Metrics() {
  auto& registry = obs::MetricsRegistry::Global();
  static const FaultMetrics m{
      registry.GetCounter("net.fault.drops"),
      registry.GetCounter("net.fault.duplicates"),
      registry.GetCounter("net.fault.sensor_perturbed")};
  return m;
}

}  // namespace

bool FaultSchedule::IsNodeUp(NodeId node, SimTime t) const {
  const auto it = crashes_.find(node);
  if (it == crashes_.end()) return true;
  for (const Interval& iv : it->second) {
    if (iv.Contains(t)) return false;
  }
  return true;
}

bool FaultSchedule::IsLinkUp(NodeId from, NodeId to, SimTime t) const {
  if (!IsNodeUp(from, t) || !IsNodeUp(to, t)) return false;
  for (const PartitionSpec& p : partitions_) {
    if (t < p.from || t >= p.until) continue;
    if ((p.group.count(from) > 0) != (p.group.count(to) > 0)) return false;
  }
  return true;
}

bool FaultSchedule::PerturbReading(NodeId node, SimTime t, Point* reading) {
  const auto it = sensor_faults_.find(node);
  if (it == sensor_faults_.end()) return false;
  for (const SensorFault& fault : it->second) {
    if (t < fault.from || t >= fault.until) continue;
    // Randomness only when the window is actually probabilistic, mirroring
    // DecideTransmission's knob-gated draws.
    if (fault.probability < 1.0 && !rng_.Bernoulli(fault.probability)) {
      return false;  // this window decided; later windows do not re-roll
    }
    ++sensor_perturbations_;
    Metrics().sensor_perturbed->Increment();
    switch (fault.kind) {
      case SensorDataFaultKind::kStuckAt:
        for (double& c : *reading) c = fault.value;
        break;
      case SensorDataFaultKind::kDropout:
        // Alternate NaN and +Inf deterministically so both non-finite
        // classes hit the ingest firewall without consuming randomness.
        for (double& c : *reading) {
          c = (sensor_perturbations_ % 2 == 0)
                  ? std::numeric_limits<double>::infinity()
                  : std::numeric_limits<double>::quiet_NaN();
        }
        break;
      case SensorDataFaultKind::kSpike:
        for (double& c : *reading) c += fault.value;
        break;
    }
    return true;
  }
  return false;
}

const LinkFault& FaultSchedule::FaultFor(NodeId from, NodeId to) const {
  const auto it = link_faults_.find({from, to});
  return it == link_faults_.end() ? default_fault_ : it->second;
}

TransmissionPlan FaultSchedule::DecideTransmission(NodeId from, NodeId to,
                                                   SimTime t) {
  TransmissionPlan plan;

  const auto forced = forced_drops_.find({from, to});
  if (forced != forced_drops_.end() && forced->second > 0) {
    --forced->second;
    plan.drop = true;
  }
  if (!plan.drop && !IsLinkUp(from, to, t)) plan.drop = true;

  const LinkFault& fault = FaultFor(from, to);
  // Each knob consumes randomness only when configured, so the decision
  // stream of a given configuration is stable even as unrelated links gain
  // fault models.
  if (!plan.drop && fault.drop_probability > 0.0 &&
      rng_.Bernoulli(fault.drop_probability)) {
    plan.drop = true;
  }
  if (plan.drop) {
    ++drops_;
    Metrics().drops->Increment();
    return plan;
  }

  size_t copies = 1;
  if (fault.duplicate_probability > 0.0 &&
      rng_.Bernoulli(fault.duplicate_probability)) {
    copies = 2;
    ++duplicates_;
    Metrics().duplicates->Increment();
  }
  for (size_t i = 0; i < copies; ++i) {
    double delay = 0.0;
    if (fault.jitter_max > 0.0) {
      delay += rng_.UniformDouble(0.0, fault.jitter_max);
    }
    if (fault.reorder_probability > 0.0 &&
        rng_.Bernoulli(fault.reorder_probability)) {
      delay += fault.reorder_delay;
    }
    plan.extra_delays.push_back(delay);
  }
  return plan;
}

}  // namespace sensord
