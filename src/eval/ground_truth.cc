#include "eval/ground_truth.h"

#include <cmath>

#include "util/check.h"

namespace sensord {

GroundTruthTracker::GroundTruthTracker(const HierarchyLayout& layout,
                                       const GroundTruthOptions& options)
    : layout_(layout), options_(options) {
  const size_t n = layout_.nodes.size();
  ancestors_.resize(n);
  leaf_windows_.resize(n);
  counters_.resize(n);
  aligned_.resize(n);

  if (options_.mdef_cell_side > 0.0) {
    aligned_cells_per_dim_ = static_cast<size_t>(
        std::ceil(1.0 / options_.mdef_cell_side));
  }

  for (size_t slot = 0; slot < n; ++slot) {
    counters_[slot] = MakeBoxCounter(options_.dimensions);
    if (layout_.nodes[slot].parent_slot < 0) {
      root_slot_ = static_cast<int>(slot);
    }
    if (layout_.nodes[slot].level == 1) {
      leaf_windows_[slot] = std::make_unique<SlidingWindow>(
          options_.leaf_window, options_.dimensions);
      // Ancestor chain, leaf first.
      int cur = static_cast<int>(slot);
      while (cur >= 0) {
        ancestors_[slot].push_back(cur);
        cur = layout_.nodes[static_cast<size_t>(cur)].parent_slot;
      }
    }
    if (aligned_cells_per_dim_ > 0) {
      size_t cells = 1;
      for (size_t d = 0; d < options_.dimensions; ++d) {
        cells *= aligned_cells_per_dim_;
      }
      aligned_[slot].counts.assign(cells, 0);
    }
  }
  SENSORD_CHECK_GE(root_slot_, 0);
}

size_t GroundTruthTracker::AlignedCellOf(const Point& p) const {
  size_t idx = 0;
  for (size_t d = 0; d < options_.dimensions; ++d) {
    size_t c = static_cast<size_t>(
        Clamp(p[d], 0.0, 1.0) / options_.mdef_cell_side);
    c = std::min(c, aligned_cells_per_dim_ - 1);
    idx = idx * aligned_cells_per_dim_ + c;
  }
  return idx;
}

void GroundTruthTracker::AlignedUpdate(int slot, const Point& p, int delta) {
  if (aligned_cells_per_dim_ == 0) return;
  auto& counts = aligned_[slot].counts;
  const size_t cell = AlignedCellOf(p);
  SENSORD_DCHECK(delta > 0 || counts[cell] > 0);
  counts[cell] = static_cast<uint32_t>(
      static_cast<int64_t>(counts[cell]) + delta);
}

void GroundTruthTracker::AddLeafReading(int leaf_slot, const Point& p) {
  SENSORD_CHECK(leaf_slot >= 0 &&
                static_cast<size_t>(leaf_slot) < layout_.nodes.size());
  SlidingWindow* window = leaf_windows_[leaf_slot].get();
  SENSORD_CHECK(window != nullptr && "readings must target leaf slots");

  // Capture the value about to be evicted before it is overwritten.
  Point evicted;
  const bool evicts = window->full();
  if (evicts) evicted = window->At(0);
  SENSORD_CHECK_OK(window->Add(p));

  for (int slot : ancestors_[leaf_slot]) {
    counters_[slot]->Add(p);
    AlignedUpdate(slot, p, +1);
    if (evicts) {
      counters_[slot]->Remove(evicted);
      AlignedUpdate(slot, evicted, -1);
    }
  }
}

double GroundTruthTracker::NeighborCount(int slot, const Point& p,
                                         double radius) const {
  return counters_[slot]->CountBall(p, radius);
}

bool GroundTruthTracker::IsTrueDistanceOutlier(
    int slot, const Point& p, const DistanceOutlierConfig& config) const {
  return NeighborCount(slot, p, config.radius) < config.neighbor_threshold;
}

MdefResult GroundTruthTracker::TrueMdef(int slot, const Point& p,
                                        const MdefConfig& config) const {
  SENSORD_CHECK(aligned_cells_per_dim_ > 0 &&
                "construct the tracker with mdef_cell_side to query MDEF truth");
  SENSORD_CHECK(ApproxEqual(options_.mdef_cell_side,
                            2.0 * config.counting_radius) &&
                "tracker cell side must match the queried counting radius");

  SENSORD_CHECK(options_.dimensions <= 2 && "MDEF truth supports d <= 2");
  SENSORD_DCHECK_EQ(p.size(), options_.dimensions);

  // The cell counts over the detector's sampling neighbourhood of p: the
  // same selection rule and cell order as core/mdef.cc.
  const MdefNeighbourhood nb = SamplingNeighbourhood(p, config);
  for (size_t dim = 0; dim < nb.first.size(); ++dim) {
    SENSORD_CHECK_LE(nb.first[dim] + nb.count[dim], aligned_cells_per_dim_);
  }
  const auto& counts = aligned_[slot].counts;
  const double counting =
      counters_[slot]->CountBall(p, config.counting_radius);
  return MdefOverNeighbourhood(
      counting, nb, config, [&](const std::vector<size_t>& j) {
        size_t idx = 0;
        for (const size_t c : j) idx = idx * aligned_cells_per_dim_ + c;
        return static_cast<double>(counts[idx]);
      });
}

}  // namespace sensord
