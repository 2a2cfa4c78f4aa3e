#include "core/density_model.h"

#include <algorithm>

#include "core/snapshot.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "stats/bandwidth.h"

#include "util/check.h"

namespace sensord {
namespace {

struct DensityModelMetrics {
  obs::Counter* observes;
  obs::Counter* estimator_rebuilds;
  obs::Counter* estimator_cache_hits;
  obs::Histogram* observe_ns;  // window-advance latency (timing-gated)
  obs::Histogram* rebuild_ns;  // estimator materialization (timing-gated)
};

const DensityModelMetrics& Metrics() {
  auto& registry = obs::MetricsRegistry::Global();
  static const DensityModelMetrics m{
      registry.GetCounter("core.density_model.observes"),
      registry.GetCounter("core.density_model.estimator_rebuilds"),
      registry.GetCounter("core.density_model.estimator_cache_hits"),
      registry.GetHistogram("core.density_model.observe_ns",
                            obs::LatencyBoundariesNs()),
      registry.GetHistogram("core.density_model.rebuild_ns",
                            obs::LatencyBoundariesNs())};
  return m;
}

}  // namespace

DensityModel::DensityModel(const DensityModelConfig& config, Rng rng)
    : config_(config),
      sample_(config.sample_size, config.window_size, rng) {
  SENSORD_CHECK_GE(config_.dimensions, 1u);
  if (config_.prewarm_steady_state) sample_.PrewarmToSteadyState();
  sketches_.reserve(config_.dimensions);
  for (size_t i = 0; i < config_.dimensions; ++i) {
    sketches_.emplace_back(config_.window_size, config_.epsilon);
  }
}

bool DensityModel::Observe(const Point& p) {
  SENSORD_DCHECK_EQ(p.size(), config_.dimensions);
  const obs::ScopedTimer timer(Metrics().observe_ns);
  Metrics().observes->Increment();
  for (size_t i = 0; i < config_.dimensions; ++i) sketches_[i].Add(p[i]);
  // Log the sample's changes from the first estimator on, for the merge
  // rebuild; a model nobody queries logs nothing.
  if (cached_.has_value()) sample_.StartChangeLog();
  return sample_.Add(p);
}

const KernelDensityEstimator& DensityModel::Estimator() const {
  SENSORD_CHECK(Ready());
  const uint64_t version = sample_.version();
  const uint64_t seen = sample_.total_seen();
  const bool stale = !cached_.has_value() ||
                     cached_sample_version_ != version ||
                     seen - cached_at_count_ >= config_.max_estimator_age;
  if (stale) {
    const obs::ScopedTimer timer(Metrics().rebuild_ns);
    Metrics().estimator_rebuilds->Increment();
    // Zero per-point-allocation rebuild (DESIGN.md §13): the new estimator
    // takes over the displaced one's sample buffer, so only O(d) vectors
    // (spreads, bandwidths, kernels, extents) are allocated per rebuild.
    cached_.emplace(
        Rebuild(ScottBandwidths(BandwidthSpreads(), sample_.sample_size())));
    cached_sample_version_ = version;
    cached_at_count_ = seen;
  } else {
    Metrics().estimator_cache_hits->Increment();
  }
  return *cached_;
}

KernelDensityEstimator DensityModel::Rebuild(
    std::vector<double> bandwidths) const {
  if (!cached_.has_value() ||
      !sample_.ChangesLoggedSince(cached_sample_version_)) {
    FlatPoints rows;
    if (cached_.has_value()) {
      rows = std::move(*cached_).ReleaseSampleStorage();
    }
    sample_.SnapshotTo(&rows);
    auto built = KernelDensityEstimator::Create(std::move(rows),
                                                std::move(bandwidths));
    SENSORD_CHECK_OK(built.status());  // inputs are valid by construction
    return std::move(built).value();
  }
  // Each chain changed since the cached build swaps one row: out goes the
  // element its first logged change replaced (the one the cached estimator
  // holds), in comes its current active element. An age-only rebuild has
  // no changes and just re-derives bandwidths and the primary axis.
  const size_t d = config_.dimensions;
  removed_scratch_.Reset(d);
  removed_scratch_.Reserve(ChainSample::kChangeLogCapacity);
  added_scratch_.Reset(d);
  added_scratch_.Reserve(ChainSample::kChangeLogCapacity);
  const uint64_t since = cached_sample_version_;
  for (uint64_t v = since + 1; v <= sample_.version(); ++v) {
    const uint32_t chain = sample_.ChangedChain(v);
    bool repeat = false;
    for (uint64_t u = since + 1; u < v && !repeat; ++u) {
      repeat = sample_.ChangedChain(u) == chain;
    }
    if (repeat) continue;
    const PointView out = sample_.ReplacedElement(v);
    std::copy(out.begin(), out.end(), removed_scratch_.AppendRow());
    const PointView in = sample_.ActiveElement(chain);
    std::copy(in.begin(), in.end(), added_scratch_.AppendRow());
  }
  auto built = std::move(*cached_).Merge(&removed_scratch_, &added_scratch_,
                                         std::move(bandwidths));
  SENSORD_CHECK_OK(built.status());
  return std::move(built).value();
}

double DensityModel::WindowCount() const {
  const double seen = static_cast<double>(sample_.total_seen());
  const double window = static_cast<double>(config_.window_size);
  if (config_.logical_window_count > 0.0) {
    // Scale the logical population by warm-up progress so early estimates
    // do not claim a pool that has not accumulated yet.
    const double progress = std::min(1.0, seen / window);
    return config_.logical_window_count * progress;
  }
  return std::min(seen, window);
}

std::vector<double> DensityModel::StdDevs() const {
  std::vector<double> out;
  out.reserve(sketches_.size());
  for (const VarianceSketch& s : sketches_) out.push_back(s.StdDev());
  return out;
}

std::vector<double> DensityModel::BandwidthSpreads() const {
  std::vector<double> spreads = StdDevs();
  if (!config_.robust_bandwidth || !sample_.seeded()) return spreads;
  // Silverman's robust variant: temper each sigma with the sample IQR so
  // rare excursions do not inflate the bandwidth of the bulk. One warm
  // coordinate buffer serves every dimension, read straight off the
  // chains' active elements (QuantileSorted interpolates exactly like
  // Quantile, so the spreads are unchanged bit for bit).
  for (size_t dim = 0; dim < spreads.size(); ++dim) {
    coord_scratch_.clear();
    for (size_t c = 0; c < sample_.sample_size(); ++c) {
      coord_scratch_.push_back(sample_.ActiveElement(c)[dim]);
    }
    std::sort(coord_scratch_.begin(), coord_scratch_.end());
    const double iqr = QuantileSorted(coord_scratch_, 0.75) -
                       QuantileSorted(coord_scratch_, 0.25);
    spreads[dim] = RobustSpread(spreads[dim], iqr);
  }
  return spreads;
}

std::vector<double> DensityModel::Means() const {
  std::vector<double> out;
  out.reserve(sketches_.size());
  for (const VarianceSketch& s : sketches_) out.push_back(s.Mean());
  return out;
}

void DensityModel::Serialize(SnapshotWriter* writer) const {
  writer->PutU32(static_cast<uint32_t>(config_.dimensions));
  sample_.Serialize(writer);
  for (const VarianceSketch& s : sketches_) s.Serialize(writer);
}

bool DensityModel::Restore(SnapshotReader* reader) {
  const uint32_t dimensions = reader->TakeU32();
  if (!reader->ok() || dimensions != config_.dimensions) return false;
  if (!sample_.Restore(reader)) return false;
  for (VarianceSketch& s : sketches_) {
    if (!s.Restore(reader)) return false;
  }
  cached_.reset();
  cached_sample_version_ = 0;
  cached_at_count_ = 0;
  return true;
}

size_t DensityModel::MemoryBytes(size_t bytes_per_number) const {
  size_t bytes = sample_.MemoryBytes(config_.dimensions, bytes_per_number);
  for (const VarianceSketch& s : sketches_) {
    bytes += s.MemoryBytes(bytes_per_number);
  }
  return bytes;
}

size_t DensityModel::TheoreticalBoundBytes(size_t bytes_per_number) const {
  // Theorem 1: O(d(|R| + (1/eps^2) log |W|)). The sample term charges d+1
  // numbers per chain entry with the expected O(1) entries per chain taken
  // as the worst-case 2 (active + one queued replacement), matching how the
  // paper's 10KB example charges |R| directly.
  const size_t sample_numbers =
      2 * config_.sample_size * (config_.dimensions + 1) +
      config_.sample_size;
  size_t bytes = sample_numbers * bytes_per_number;
  for (const VarianceSketch& s : sketches_) {
    bytes += s.TheoreticalBoundBytes(bytes_per_number);
  }
  return bytes;
}

}  // namespace sensord
