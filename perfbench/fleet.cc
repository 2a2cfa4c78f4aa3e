// Copyright (c) the sensord authors. Licensed under the Apache License 2.0.

#include "fleet.h"

#include <chrono>
#include <cstdint>

#include "baseline/centralized.h"
#include "core/d3.h"
#include "core/mgdd.h"
#include "data/engine_trace.h"
#include "data/synthetic.h"
#include "util/check.h"

namespace perfbench {
namespace {

using sensord::HierarchyNodeSpec;
using sensord::Node;
using sensord::Rng;

// Every workload's hierarchy fanout and variance-sketch error, as in the
// paper's experiments.
constexpr size_t kFanout = 4;
constexpr double kEpsilon = 0.2;

// Set-up rounds beyond the warm-up window; see SetupRounds.
constexpr size_t kSettleRounds = 5;

// Seed of the sensor field; see ReadingSource.
constexpr uint64_t kFieldSeed = 0xF1E1D5EEDULL;
// Each sensor's stream starts at a seed-chosen reading below this.
constexpr uint64_t kMaxStreamOffset = uint64_t{1} << 16;

// Node randomness is drawn from a stream disjoint from the readings'.
constexpr uint64_t kNodeSeedSalt = 0x5EED0F1EE7ULL;

// fig9/fig10 fix the D3 neighbour threshold at |W| = 10000; it scales with
// |W| so the flag rate stays in the paper's regime at smaller windows.
double ThresholdFor(double at_10000, size_t window) {
  return at_10000 * static_cast<double>(window) / 10000.0;
}

WorkloadSpec E2eDetect(bool tiny) {
  // Figure 9: 2-d synthetic mixture, D3 at every level plus MGDD.
  WorkloadSpec s;
  s.name = "e2e_detect";
  s.data = DataKind::kSyntheticMixture;
  s.dimensions = 2;
  s.leaves = tiny ? 8 : 16;
  s.window = tiny ? 500 : 10000;
  s.sample = s.window / 20;  // |R| = 5% of |W|, fig9's largest setting
  s.fraction = 0.5;
  s.d3.radius = 0.01;
  s.d3.neighbor_threshold = ThresholdFor(45.0, s.window);
  s.mdef.sampling_radius = 0.08;
  s.mdef.counting_radius = 0.01;
  s.mdef.k_sigma = 1.0;  // as in fig07/fig09 (see the fig07 header)
  s.epoch_rounds = tiny ? 100 : 500;
  s.eval_rounds = tiny ? 100 : 400;
  // 90% of the evaluation pass's quality when the benchmark was added.
  s.d3_precision_floor = tiny ? 0.0 : 0.774;
  s.d3_recall_floor = tiny ? 0.0 : 0.655;
  s.mgdd_precision_floor = tiny ? 0.0 : 0.777;
  s.mgdd_recall_floor = tiny ? 0.0 : 0.447;
  return s;
}

WorkloadSpec EngineFleet(bool tiny) {
  // Figure 10's engine settings on a wider network with a short window.
  WorkloadSpec s;
  s.name = "engine_fleet";
  s.data = DataKind::kEngine;
  s.dimensions = 1;
  s.leaves = tiny ? 16 : 64;
  s.window = tiny ? 400 : 1000;
  s.sample = s.window / 10;
  s.fraction = 0.5;
  s.d3.radius = 0.005;
  s.d3.neighbor_threshold = ThresholdFor(100.0, s.window);
  s.mdef.sampling_radius = 0.05;
  s.mdef.counting_radius = 0.003;
  s.mdef.k_sigma = 1.0;
  s.epoch_rounds = tiny ? 100 : 1000;
  s.eval_rounds = tiny ? 100 : 2000;
  // 90% of the evaluation pass's quality when the benchmark was added.
  s.d3_precision_floor = tiny ? 0.0 : 0.558;
  s.d3_recall_floor = tiny ? 0.0 : 0.678;
  s.mgdd_precision_floor = tiny ? 0.0 : 0.249;
  s.mgdd_recall_floor = tiny ? 0.0 : 0.049;
  return s;
}

WorkloadSpec Fig11Relay(bool tiny) {
  // Figure 11: traffic only, prewarmed samples, windows that never fill
  // (a prewarmed sample expires nothing before W readings in all).
  WorkloadSpec s;
  s.name = "fig11_relay";
  s.data = DataKind::kSyntheticMixture;
  s.dimensions = 1;
  s.leaves = tiny ? 48 : 192;
  s.window = tiny ? 1024 : 10240;
  s.sample = s.window / 10;
  s.fraction = 0.25;
  s.detect = false;
  s.epoch_rounds = tiny ? 100 : 1000;
  s.eval_rounds = tiny ? 500 : 1000;
  return s;
}

}  // namespace

size_t SetupRounds(const WorkloadSpec& spec) {
  return (spec.detect ? spec.window : 0) + kSettleRounds;
}

std::optional<WorkloadSpec> FindWorkload(const std::string& name, bool tiny) {
  if (name == "e2e_detect") return E2eDetect(tiny);
  if (name == "engine_fleet") return EngineFleet(tiny);
  if (name == "fig11_relay") return Fig11Relay(tiny);
  return std::nullopt;
}

ReadingSource::ReadingSource(const WorkloadSpec& spec, uint64_t seed)
    : dims_(spec.dimensions) {
  // The sensor field (e.g. which mixture components each sensor draws
  // from) is part of the workload, so it comes from a constant; the seed
  // picks how far into each sensor's stream the run starts. Seeds then
  // give different readings from the same field, and a figure's spread
  // across seeds is not the spread across fields.
  Rng field(kFieldSeed);
  Rng offsets(seed);
  for (size_t i = 0; i < spec.leaves; ++i) {
    if (spec.data == DataKind::kEngine) {
      streams_.push_back(
          std::make_unique<sensord::EngineTraceGenerator>(field.Split()));
    } else {
      sensord::SyntheticOptions opts;
      opts.dimensions = spec.dimensions;
      streams_.push_back(std::make_unique<sensord::SyntheticMixtureStream>(
          opts, field.Split()));
    }
    const uint64_t skip = offsets.UniformUint64(kMaxStreamOffset);
    for (uint64_t k = 0; k < skip; ++k) streams_.back()->Next();
  }
}

void ReadingSource::NextRound(std::vector<double>* flat) {
  flat->resize(streams_.size() * dims_);
  for (size_t i = 0; i < streams_.size(); ++i) {
    const sensord::Point p = streams_[i]->Next();
    SENSORD_CHECK_EQ(p.size(), dims_);
    for (size_t d = 0; d < dims_; ++d) (*flat)[i * dims_ + d] = p[d];
  }
}

void Recorder::OnOutlierDetected(const sensord::OutlierEvent& event) {
  events_.push_back(event);
  by_node_.insert({event.node, event.source_leaf, event.source_seq});
  by_level_.insert({event.level, event.source_leaf, event.source_seq});
}

bool Recorder::Flagged(sensord::NodeId node, sensord::NodeId leaf,
                       uint64_t seq) const {
  return by_node_.count({node, leaf, seq}) > 0;
}

bool Recorder::FlaggedAtLevel(int level, sensord::NodeId leaf,
                              uint64_t seq) const {
  return by_level_.count({level, leaf, seq}) > 0;
}

void Recorder::Clear() {
  events_.clear();
  by_node_.clear();
  by_level_.clear();
}

Fleet::Fleet(const WorkloadSpec& spec, uint64_t seed) : spec_(spec) {
  auto layout = sensord::BuildGridHierarchy(spec.leaves, kFanout);
  SENSORD_CHECK_OK(layout.status());
  layout_ = std::move(layout).value();
  for (size_t slot = 0; slot < layout_.nodes.size(); ++slot) {
    if (layout_.nodes[slot].level == 1) {
      leaf_slots_.push_back(static_cast<int>(slot));
    }
  }

  leaf_model_.dimensions = spec.dimensions;
  leaf_model_.window_size = spec.window;
  leaf_model_.sample_size = spec.sample;
  leaf_model_.epsilon = kEpsilon;
  leaf_model_.prewarm_steady_state = !spec.detect;

  // Leader models speak for the exact population below them.
  std::vector<size_t> descendants(layout_.nodes.size(), 0);
  for (int leaf : leaf_slots_) {
    for (int cur = leaf; cur >= 0;
         cur = layout_.nodes[static_cast<size_t>(cur)].parent_slot) {
      ++descendants[static_cast<size_t>(cur)];
    }
  }
  auto leader_model = [&](int slot) {
    const HierarchyNodeSpec& node = layout_.nodes[static_cast<size_t>(slot)];
    return sensord::LeaderModelConfigFor(
        leaf_model_, node.child_slots.size(),
        descendants[static_cast<size_t>(slot)], spec.fraction);
  };

  // Detection starts with the first reading after a full window; the
  // traffic-only workload never decides.
  const uint64_t leaf_min_observations =
      spec.detect ? spec.window + 1 : UINT64_MAX;
  const uint64_t parent_min_observations =
      spec.detect ? spec.sample / 2 : UINT64_MAX;

  sensord::SimulatorOptions sim_opts;
  sim_opts.threads = 1;  // pinned: the benchmark measures one core
  Rng master(seed ^ kNodeSeedSalt);

  sims_[kD3] = std::make_unique<sensord::Simulator>(sim_opts);
  {
    Rng node_rng = master.Split();
    ids_[kD3] = sims_[kD3]->Instantiate(
        layout_, [&](int slot, const HierarchyNodeSpec& node)
                     -> std::unique_ptr<Node> {
          sensord::D3Options opts;
          opts.outlier = spec.d3;
          opts.sample_fraction = spec.fraction;
          if (node.level == 1) {
            opts.model = leaf_model_;
            opts.min_observations = leaf_min_observations;
            const Rng rng = node_rng.Split();
            d3_leaf_rngs_.push_back(rng);
            return std::make_unique<sensord::D3LeafNode>(
                opts, rng, &recorders_[kD3]);
          }
          opts.model = leader_model(slot);
          opts.min_observations = parent_min_observations;
          return std::make_unique<sensord::D3ParentNode>(
              opts, node_rng.Split(), &recorders_[kD3]);
        });
  }

  sim_opts.loss_seed += 1;
  sims_[kMgdd] = std::make_unique<sensord::Simulator>(sim_opts);
  {
    Rng node_rng = master.Split();
    ids_[kMgdd] = sims_[kMgdd]->Instantiate(
        layout_, [&](int slot, const HierarchyNodeSpec& node)
                     -> std::unique_ptr<Node> {
          sensord::MgddOptions opts;
          opts.mdef = spec.mdef;
          opts.sample_fraction = spec.fraction;
          if (node.level == 1) {
            opts.model = leaf_model_;
            opts.min_observations = leaf_min_observations;
            return std::make_unique<sensord::MgddLeafNode>(
                opts, node_rng.Split(), &recorders_[kMgdd]);
          }
          opts.model = leader_model(slot);
          return std::make_unique<sensord::MgddInternalNode>(
              opts, node_rng.Split());
        });
  }

  if (!spec.detect) {
    sims_[kCentralized] = std::make_unique<sensord::Simulator>(sim_opts);
    ids_[kCentralized] = sims_[kCentralized]->Instantiate(
        layout_, [&](int, const HierarchyNodeSpec& node)
                     -> std::unique_ptr<Node> {
          if (node.level == 1) {
            return std::make_unique<sensord::CentralizedLeafNode>();
          }
          return std::make_unique<sensord::CentralizedRelayNode>(
              spec.window, spec.dimensions);
        });
  }
  for (const auto& sim : sims_) {
    if (sim != nullptr) SENSORD_CHECK_EQ(sim->threads(), 1);
  }
}

void Fleet::RunRound(const double* flat, SimSpans* spans) {
  using Clock = std::chrono::steady_clock;
  const size_t dims = spec_.dimensions;
  for (size_t i = 0; i < leaf_slots_.size(); ++i) {
    point_.assign(flat + i * dims, flat + (i + 1) * dims);
    const size_t slot = static_cast<size_t>(leaf_slots_[i]);
    for (int s = 0; s < kNumStrategies; ++s) {
      if (sims_[s] == nullptr) continue;
      if (spans == nullptr) {
        sims_[s]->DeliverReading(ids_[s][slot], point_);
        continue;
      }
      const auto t0 = Clock::now();
      sims_[s]->DeliverReading(ids_[s][slot], point_);
      spans[s].deliver_ns +=
          std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
      ++spans[s].deliver_calls;
    }
  }
  const sensord::SimTime end_of_round = static_cast<double>(rounds_) + 0.5;
  for (int s = 0; s < kNumStrategies; ++s) {
    if (sims_[s] == nullptr) continue;
    if (spans == nullptr) {
      sims_[s]->RunUntil(end_of_round);
      continue;
    }
    const auto t0 = Clock::now();
    sims_[s]->RunUntil(end_of_round);
    spans[s].run_ns +=
        std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
    ++spans[s].run_calls;
  }
  ++rounds_;
}

}  // namespace perfbench
