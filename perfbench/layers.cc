// Copyright (c) the sensord authors. Licensed under the Apache License 2.0.

#include "layers.h"

#include <chrono>

#include "core/d3.h"
#include "core/density_model.h"
#include "core/distance_outlier.h"
#include "core/mdef.h"
#include "core/mgdd.h"
#include "obs/metrics.h"
#include "stream/chain_sample.h"
#include "stream/variance_sketch.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double NsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

}  // namespace

Probe::Probe() {
  auto& registry = sensord::obs::MetricsRegistry::Global();
  auto counter = [&](Quantity q, const char* name) {
    counters_[q] = registry.GetCounter(name);
  };
  auto histogram = [&](Quantity q, const char* name,
                       std::vector<double> boundaries) {
    histograms_[q] = registry.GetHistogram(name, std::move(boundaries));
  };
  const auto ns = sensord::obs::LatencyBoundariesNs;
  counter(kChainAdds, "stream.chain_sample.adds");
  counter(kChainRestarts, "stream.chain_sample.restarts");
  counter(kChainExpirations, "stream.chain_sample.expirations");
  histogram(kChainAddNsCount, "stream.chain_sample.add_ns", ns());
  counter(kObserves, "core.density_model.observes");
  histogram(kObserveNsCount, "core.density_model.observe_ns", ns());
  counter(kRebuilds, "core.density_model.estimator_rebuilds");
  histogram(kRebuildNsCount, "core.density_model.rebuild_ns", ns());
  counter(kCacheHits, "core.density_model.estimator_cache_hits");
  counter(kBoxQueries, "stats.kde.box_queries");
  histogram(kTermsCount, "stats.kde.terms_per_query",
            sensord::obs::SizeBoundaries());
  counter(kSweptTerms, "stats.kde.batch_swept_terms");
  counter(kMdefEvaluations, "core.mgdd.leaf.mdef_evaluations");
  counter(kD3LeafFlags, "core.d3.leaf.flags");
  counter(kD3Confirms, "core.d3.parent.confirms");
  counter(kD3Rechecks, "core.d3.parent.rechecks");
  counter(kMgddFlags, "core.mgdd.leaf.flags");
  counter(kMsgSampleValue, "net.messages.sample_value");
  counter(kMsgOutlierReport, "net.messages.outlier_report");
  counter(kMsgGlobalModelUpdate, "net.messages.global_model_update");
  counter(kMsgRawReading, "net.messages.raw_reading");
  counter(kNumbersTotal, "net.numbers.total");
}

Probe::Values Probe::Read() const {
  Values v{};
  for (size_t q = 0; q < kNumQuantities; ++q) {
    if (counters_[q] != nullptr) {
      v[q] = static_cast<double>(counters_[q]->value());
    } else if (histograms_[q] != nullptr) {
      v[q] = static_cast<double>(histograms_[q]->Count());
      v[q + 1] = histograms_[q]->Sum();
    }
  }
  return v;
}

ReplayResult Replay(Fleet& fleet, const std::vector<double>& setup,
                    const std::vector<double>& measured, size_t replay_leaves) {
  const WorkloadSpec& spec = fleet.spec();
  const sensord::DensityModelConfig& cfg = fleet.leaf_model();
  const size_t dims = spec.dimensions;
  const size_t row = spec.leaves * dims;
  // Leaf `leaf`'s readings of one round-major buffer, as points.
  auto column = [&](const std::vector<double>& rounds, size_t leaf) {
    std::vector<sensord::Point> points;
    for (size_t at = leaf * dims; at < rounds.size(); at += row) {
      points.emplace_back(rounds.begin() + static_cast<long>(at),
                          rounds.begin() + static_cast<long>(at + dims));
    }
    return points;
  };

  ReplayResult out;
  out.leaves = replay_leaves;
  double chain_ns = 0.0, sketch_ns = 0.0, observe_ns = 0.0;
  double estimator_ns = 0.0, decide_ns = 0.0, mdef_ns = 0.0;
  uint64_t decisions = 0, mdefs = 0, sketch_adds = 0;
  double decide_queries = 0.0;
  const sensord::obs::Counter* box_queries =
      sensord::obs::MetricsRegistry::Global().GetCounter(
          "stats.kde.box_queries");

  for (size_t leaf = 0; leaf < replay_leaves; ++leaf) {
    // The leaf's own construction: D3LeafNode hands its model rng.Split().
    sensord::Rng rng = fleet.d3_leaf_rng(leaf);
    const sensord::Rng model_rng = rng.Split();
    sensord::DensityModel model(cfg, model_rng);
    sensord::ChainSample chain(cfg.sample_size, cfg.window_size, model_rng);
    if (cfg.prewarm_steady_state) chain.PrewarmToSteadyState();
    std::vector<sensord::VarianceSketch> sketches(
        dims, sensord::VarianceSketch(cfg.window_size, cfg.epsilon));

    for (const sensord::Point& p : column(setup, leaf)) {
      model.Observe(p);
      chain.Add(p);
      for (size_t d = 0; d < dims; ++d) sketches[d].Add(p[d]);
    }
    const std::vector<sensord::Point> points = column(measured, leaf);
    out.readings += points.size();

    // Cheap calls are timed as one batch, so the clock reads do not
    // dominate what they measure.
    auto t0 = Clock::now();
    for (const sensord::Point& q : points) chain.Add(q);
    chain_ns += NsSince(t0);
    t0 = Clock::now();
    for (const sensord::Point& q : points) {
      for (size_t d = 0; d < dims; ++d) sketches[d].Add(q[d]);
    }
    sketch_ns += NsSince(t0);
    sketch_adds += points.size() * dims;

    const sensord::KernelDensityEstimator* global = nullptr;
    if (spec.detect) {
      const auto& mgdd_leaf = static_cast<const sensord::MgddLeafNode&>(
          fleet.sim(kMgdd)->node(
              fleet.ids(kMgdd)[static_cast<size_t>(fleet.leaf_slots()[leaf])]));
      if (mgdd_leaf.HasGlobalModel()) global = &mgdd_leaf.GlobalEstimator();
    }
    for (const sensord::Point& q : points) {
      t0 = Clock::now();
      model.Observe(q);
      observe_ns += NsSince(t0);
      if (!spec.detect) continue;
      t0 = Clock::now();
      const sensord::KernelDensityEstimator& est = model.Estimator();
      estimator_ns += NsSince(t0);
      const double window_count = model.WindowCount();
      const double q0 = static_cast<double>(box_queries->value());
      t0 = Clock::now();
      sensord::IsDistanceOutlier(est, window_count, q, spec.d3);
      decide_ns += NsSince(t0);
      decide_queries += static_cast<double>(box_queries->value()) - q0;
      ++decisions;
      if (global != nullptr) {
        t0 = Clock::now();
        sensord::ComputeMdef(*global, q, spec.mdef);
        mdef_ns += NsSince(t0);
        ++mdefs;
      }
    }

    // The replay must have done exactly the live leaf's model work.
    const auto& live = static_cast<const sensord::D3LeafNode&>(
        fleet.sim(kD3)->node(
            fleet.ids(kD3)[static_cast<size_t>(fleet.leaf_slots()[leaf])]));
    if (live.model().total_seen() != model.total_seen() ||
        live.model().sample().version() != model.sample().version() ||
        chain.version() != model.sample().version()) {
      out.faithful = false;
      out.mismatch = "leaf " + std::to_string(leaf) +
                     ": replayed model state differs from the live leaf";
    }
  }

  const double n = static_cast<double>(out.readings);
  out.chain_add_ns = Ratio(chain_ns, n);
  out.sketch_add_ns = Ratio(sketch_ns, static_cast<double>(sketch_adds));
  out.observe_ns = Ratio(observe_ns, n);
  out.estimator_ns = Ratio(estimator_ns, static_cast<double>(decisions));
  out.decide_ns = Ratio(decide_ns, static_cast<double>(decisions));
  out.mdef_ns = Ratio(mdef_ns, static_cast<double>(mdefs));
  out.query_ns = Ratio(decide_ns, decide_queries);
  return out;
}

}  // namespace perfbench
