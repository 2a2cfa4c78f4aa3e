// Copyright (c) the sensord authors. Licensed under the Apache License 2.0.
//
// Kernel density estimation over a (chain) sample — the heart of the paper.
//
// A sample R of the sliding window plus one Epanechnikov bandwidth per
// dimension defines the estimate (Eq. 1-3)
//   f(x) = (1/|R|) sum_{t in R} prod_i k_{B_i}(x_i - t_i),
// and, because the Epanechnikov profile integrates in closed form, the box
// mass P[lo, hi] is an exact O(d|R|) sum (Theorem 2). In one dimension the
// sample is kept sorted and a query only touches the kernels whose support
// intersects the query interval: O(log|R| + |R'|), the paper's refinement.
//
// This class generalizes that refinement to d > 1 (DESIGN.md §13). The
// sample lives in a flat row-major buffer (util/flat_points.h) held in a
// *canonical order*: sorted by a primary axis a — the axis with the largest
// spread/bandwidth ratio, i.e. the axis where sorting prunes best — with
// ties broken lexicographically over all coordinates. BoxProbability and
// Pdf binary-search the candidate row range [lo_a − B_a, hi_a + B_a] on
// that axis and evaluate only terms whose kernel support can intersect the
// query; every skipped term contributes exactly 0.0, so results are
// bit-identical to a full sweep over the same canonical order. Box queries
// have one path per dimensionality: the 1-d interval query additionally
// counts the kernels wholly inside the interval as 1 each.
//
// The estimator is an immutable snapshot: the online system (core::
// DensityModel) rebuilds it cheaply from the current chain sample whenever
// it needs to answer queries, which keeps it exactly reproducible. One
// routine puts every sample into canonical order: Merge() consumes the
// previous estimator and merges the rows that changed since into its
// already-ordered buffer in place, and Create() is the same routine with
// nothing to merge into (DESIGN.md §13) — so a rebuild performs zero
// per-point heap allocations. The one piece of state an estimator gains
// after construction is the memoised MDEF cell-mass grid (CellMassGrid),
// filled on first request without synchronisation: a const estimator may
// be shared by readers on one thread only, as in the single-threaded
// simulator.

#ifndef SENSORD_STATS_KDE_H_
#define SENSORD_STATS_KDE_H_

#include <cstddef>
#include <initializer_list>
#include <utility>
#include <vector>

#include "stats/estimator.h"
#include "stats/kernel.h"
#include "util/flat_points.h"
#include "util/math_utils.h"
#include "util/status.h"

namespace sensord {

class SnapshotReader;
class SnapshotWriter;

/// Product-Epanechnikov kernel density estimator over [0,1]^d.
class KernelDensityEstimator : public DistributionEstimator {
 public:
  /// Builds an estimator from a flat sample and per-dimension bandwidths;
  /// the sample is sorted into canonical order in place. Returns
  /// InvalidArgument if the sample is empty, the dimensionalities are
  /// inconsistent, any coordinate is not finite, or any bandwidth is <= 0.
  static StatusOr<KernelDensityEstimator> Create(
      FlatPoints sample, std::vector<double> bandwidths);

  /// The incremental rebuild, consuming this estimator: an estimator over
  /// the sample (sample() − removed) ∪ added, as multisets, with new
  /// `bandwidths` — bit-identical to Create() over the same rows in any
  /// order. The changed rows are merged into this estimator's buffer in
  /// place, O(|R|·d + k log k) for k changed rows plus one re-sort when the
  /// primary axis changes, allocating nothing unless the sample outgrows
  /// the buffer. `removed` and `added` are sorted in place. Returns
  /// InvalidArgument as Create() does, and also if a row of `removed` is
  /// not in sample(). This estimator is left empty either way and must not
  /// be queried afterwards.
  StatusOr<KernelDensityEstimator> Merge(FlatPoints* removed,
                                         FlatPoints* added,
                                         std::vector<double> bandwidths) &&;

  /// Convenience overload that flattens a Point vector first (allocates;
  /// hot rebuild paths should pass FlatPoints directly).
  static StatusOr<KernelDensityEstimator> Create(
      const std::vector<Point>& sample, std::vector<double> bandwidths);

  /// Disambiguates braced-list call sites (`Create({{0.5}}, {0.1})`), which
  /// would otherwise match both overloads above; list-initialization
  /// prefers an initializer_list parameter.
  static StatusOr<KernelDensityEstimator> Create(
      std::initializer_list<Point> sample, std::vector<double> bandwidths) {
    return Create(std::vector<Point>(sample), std::move(bandwidths));
  }

  /// Convenience: Scott's-rule bandwidths from per-dimension standard
  /// deviations (see stats/bandwidth.h), then Create().
  static StatusOr<KernelDensityEstimator> CreateWithScottBandwidths(
      FlatPoints sample, const std::vector<double>& stddevs);
  static StatusOr<KernelDensityEstimator> CreateWithScottBandwidths(
      const std::vector<Point>& sample, const std::vector<double>& stddevs);

  size_t dimensions() const override { return kernels_.size(); }

  /// Closed-form probability mass of the box [lo, hi]:
  /// O(log|R| + d|R'|), |R'| being the candidate rows whose primary-axis
  /// coordinate falls in [lo_a − B_a, hi_a + B_a].
  double BoxProbability(const Point& lo, const Point& hi) const override;

  /// Density f(p). Same complexity as BoxProbability.
  double Pdf(const Point& p) const override;

  /// Number of kernels |R|.
  size_t sample_size() const { return sample_size_; }

  /// Per-dimension bandwidths B_i.
  std::vector<double> bandwidths() const;

  /// The sample in canonical order: flat row-major storage, rows sorted
  /// ascending by primary_axis() with lexicographic tie-breaks, -0.0 before
  /// +0.0 (in 1-d this degenerates to the plain sorted order). Rows tied
  /// under it are bit-identical, so the order is unique.
  const FlatPoints& sample() const { return sample_; }

  /// The axis the canonical order sorts by and queries prune on: the axis
  /// maximizing (sample spread) / bandwidth, ties to the smallest index.
  /// Always 0 in 1-d.
  size_t primary_axis() const { return primary_axis_; }

  /// The half-open canonical row range whose kernels can overlap
  /// [axis_lo, axis_hi] on the primary axis, i.e. rows with coordinate in
  /// [axis_lo − B_a, axis_hi + B_a]. Rows outside it contribute exactly
  /// 0.0 to any box/pdf query over that primary-axis extent.
  std::pair<size_t, size_t> CandidateRows(double axis_lo,
                                          double axis_hi) const;

  /// Unnormalised kernel mass of a block of cells of the grid of side
  /// `side` over the unit cube, the cells the MDEF test (core/mdef.h) scans.
  /// Cell j covers [j * side, j * side + side) on each axis.
  struct CellGrid {
    double side = 0.0;
    std::vector<size_t> first;  ///< per dimension, the block's first cell
    std::vector<size_t> count;  ///< per dimension, the block's cell count
    /// Row-major over the block, the last dimension fastest: the entry of
    /// cell (j_0, ..., j_{d-1}) is the sum over the sample, in canonical
    /// order, of prod_i MassInInterval_i(t_i, j_i * side, j_i * side +
    /// side), each product taken from the last dimension down. Divide by
    /// sample_size() for probability mass.
    std::vector<double> mass;
  };

  /// Largest whole-cube grid CellMassGrid() builds: 2^16 cells, 512 KB.
  /// That covers the 2-d MDEF configs down to side 1/256, while a 3-d grid
  /// at the default side (50^3 cells) or anything in d >= 4 would cost more
  /// memory per estimator than the neighbourhood blocks it replaces.
  static constexpr size_t kMaxGridCells = size_t{1} << 16;

  /// True iff d > 1 and ceil(1/side)^d <= kMaxGridCells, i.e. iff
  /// CellMassGrid(side) may be called.
  bool HasCellGrid(double side) const;

  /// The block over the whole cube [0, ceil(1/side))^d, built on first
  /// request and memoised (one grid, keyed by side; asking for another side
  /// rebuilds). Pre: HasCellGrid(side), checked. Not thread-safe (see the
  /// file comment).
  const CellGrid& CellMassGrid(double side) const;

  /// Fills `out` with the block of cells [first_i, first_i + count_i) on
  /// each axis, not memoised: what the MDEF test uses per evaluation when
  /// the whole-cube grid is too large. Pre: d > 1, side > 0, first.size()
  /// == count.size() == d, every count_i > 0, all checked.
  void CellMassBlock(double side, const std::vector<size_t>& first,
                     const std::vector<size_t>& count, CellGrid* out) const;

  /// Steals the flat sample storage so a rebuild path can recycle the heap
  /// buffer (core::DensityModel refills it for a Create() when it cannot
  /// Merge()). The estimator is left empty and must not be queried
  /// afterwards.
  FlatPoints ReleaseSampleStorage() && { return std::move(sample_); }

  /// Footprint under the paper's accounting: d numbers per sample point plus
  /// d bandwidths, at `bytes_per_number` bytes each.
  size_t MemoryBytes(size_t bytes_per_number) const;

  /// Appends the estimator's defining state (sample points and bandwidths)
  /// to `writer`, for checkpoint/restore (core/snapshot.h). The wire format
  /// is unchanged from the vector<Point> era — one u32 dimension prefix per
  /// point — so snapshots are portable across the flat-layout change in
  /// both directions.
  void Serialize(SnapshotWriter* writer) const;

  /// Rebuilds an estimator from state previously written by Serialize(),
  /// re-validating through Create() (which re-sorts into canonical order,
  /// so pre-flat-layout payloads restore to the identical estimator). Returns
  /// InvalidArgument if the reader fails or the decoded state does not
  /// satisfy Create()'s preconditions.
  static StatusOr<KernelDensityEstimator> Deserialize(SnapshotReader* reader);

 private:
  KernelDensityEstimator(FlatPoints sample, std::vector<double> bandwidths);

  // Create() and Merge(): validates, then builds the estimator over
  // (base − removed) ∪ added in base's buffer, `base` being in canonical
  // order under `base_axis` (an empty base for Create()).
  static StatusOr<KernelDensityEstimator> Build(
      FlatPoints base, size_t base_axis, FlatPoints* removed,
      FlatPoints* added, std::vector<double> bandwidths);

  // The one canonical-order routine (DESIGN.md §13): turns sample_, in
  // canonical order under base_axis, into (sample_ − removed) ∪ added in
  // canonical order and picks primary_axis_. It sorts the k changed rows
  // under base_axis, drops the removed rows in one forward pass and splices
  // the added ones in from the back in another, then re-sorts only if the
  // new spread picks another axis. An empty sample_ has no order to keep:
  // the added rows become the sample and are sorted once. Pre:
  // dimensionalities and row counts validated by Build().
  Status Canonicalize(size_t base_axis, FlatPoints* removed,
                      FlatPoints* added);

  // First canonical row with primary-axis coordinate >= v (resp. > v).
  size_t LowerBoundRow(double v) const;
  size_t UpperBoundRow(double v) const;

  // 1-d path for BoxProbability: adds the kernels wholly inside [lo, hi]
  // as one count before the partial masses. That summation order differs
  // from the d > 1 row sweep's, and it is what the 1-d goldens hold.
  double Interval1dProbability(double lo, double hi) const;

  // Fills grid->mass for the block grid->side/first/count describe. Each
  // candidate row touches only the block cells inside its kernel's support,
  // O(prod_i (2 B_i / side + 1)) products; a cell outside a kernel's
  // support gets an exact 0.0 from it, so every entry is bit-identical to a
  // sweep of all rows over that cell. Allocates scratch once per call,
  // nothing per row.
  void FillCellMasses(CellGrid* grid) const;

  FlatPoints sample_;  // canonical order; in 1-d its data() is the sorted
                       // coordinate array the fast path binary-searches
  std::vector<EpanechnikovKernel> kernels_;
  size_t sample_size_;
  size_t primary_axis_ = 0;
  mutable CellGrid cell_grid_;  // memo for CellMassGrid; empty = unbuilt
};

}  // namespace sensord

#endif  // SENSORD_STATS_KDE_H_
