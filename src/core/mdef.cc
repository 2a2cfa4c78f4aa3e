#include "core/mdef.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "stats/kde.h"

#include "util/check.h"

namespace sensord {
namespace {

// Enumerates, recursively over dimensions, every cell of the 2*alpha*r grid
// whose centre lies in the L-infinity ball B(p, r). Cells are collected
// rather than queried one by one, so the whole scan goes to the estimator
// as a single BoxProbabilityBatch call — one sample sweep for the KDE
// instead of one per cell.
struct CellScan {
  const DistributionEstimator& model;
  const Point& p;
  double cell_side;
  double sampling_radius;
  size_t cells_per_dim;

  std::vector<Point> box_lo, box_hi;  // in enumeration order

  Point lo, hi;

  explicit CellScan(const DistributionEstimator& m, const Point& point,
                    const MdefConfig& config)
      : model(m),
        p(point),
        cell_side(2.0 * config.counting_radius),
        sampling_radius(config.sampling_radius),
        cells_per_dim(static_cast<size_t>(std::ceil(1.0 / cell_side))),
        lo(m.dimensions()),
        hi(m.dimensions()) {}

  void Recurse(size_t dim) {
    if (dim == model.dimensions()) {
      box_lo.push_back(lo);
      box_hi.push_back(hi);
      return;
    }
    // Cells j cover [j*side, (j+1)*side); keep those whose centre is within
    // the sampling radius of p in this dimension.
    const long first = static_cast<long>(
        std::floor((p[dim] - sampling_radius) / cell_side));
    const long last = static_cast<long>(
        std::floor((p[dim] + sampling_radius) / cell_side));
    for (long j = std::max(0L, first);
         j <= last && j < static_cast<long>(cells_per_dim); ++j) {
      const double a = static_cast<double>(j) * cell_side;
      const double center = a + 0.5 * cell_side;
      if (std::fabs(center - p[dim]) > sampling_radius) continue;
      lo[dim] = a;
      hi[dim] = a + cell_side;
      Recurse(dim + 1);
    }
  }
};

}  // namespace

MdefResult MdefFromMasses(double counting_mass, double sum1, double sum2,
                          double sum3, size_t cells,
                          const MdefConfig& config) {
  MdefResult r;
  r.counting_mass = counting_mass;
  r.cells_considered = cells;

  if (sum1 < config.min_neighborhood_mass) {
    // An (essentially) empty sampling neighbourhood: no local statistics to
    // deviate from. The paper's framework never flags such values; they
    // would be caught by the distance-based criterion instead.
    return r;
  }

  r.avg_mass = sum2 / sum1;
  const double second_moment = sum3 / sum1;
  const double var = second_moment - r.avg_mass * r.avg_mass;
  r.sigma_mass = var > 0.0 ? std::sqrt(var) : 0.0;

  if (r.avg_mass <= 0.0) return r;
  r.mdef = 1.0 - r.counting_mass / r.avg_mass;
  r.sigma_mdef = r.sigma_mass / r.avg_mass;
  r.is_outlier = r.mdef > config.k_sigma * r.sigma_mdef;
  return r;
}

MdefResult ComputeMdef(const DistributionEstimator& model, const Point& p,
                       const MdefConfig& config) {
  SENSORD_DCHECK_EQ(p.size(), model.dimensions());
  SENSORD_CHECK_GT(config.counting_radius, 0.0);
  SENSORD_CHECK_LE(config.counting_radius, config.sampling_radius);
  SENSORD_CHECK_LT(config.sampling_radius, 1.0);

  const double counting_mass =
      model.BallProbability(p, config.counting_radius);
  CellScan scan(model, p, config);
  scan.Recurse(0);
  std::vector<double> masses;
  model.BoxProbabilityBatch(scan.box_lo, scan.box_hi, &masses);
  // Moments accumulate in cell enumeration order, exactly as the per-cell
  // scan summed them.
  double sum1 = 0.0, sum2 = 0.0, sum3 = 0.0;
  for (const double s : masses) {
    sum1 += s;
    sum2 += s * s;
    sum3 += s * s * s;
  }
  return MdefFromMasses(counting_mass, sum1, sum2, sum3, masses.size(),
                        config);
}

MdefResult ComputeMdef(const KernelDensityEstimator& kde, const Point& p,
                       const MdefConfig& config) {
  const size_t d = kde.dimensions();
  if (d == 1) {
    // The generic path already runs in O(log|R| + |R'|) per cell in 1-d.
    return ComputeMdef(static_cast<const DistributionEstimator&>(kde), p,
                       config);
  }
  SENSORD_DCHECK_EQ(p.size(), d);
  SENSORD_CHECK_GT(config.counting_radius, 0.0);
  SENSORD_CHECK_LE(config.counting_radius, config.sampling_radius);

  const double side = 2.0 * config.counting_radius;
  const double r = config.sampling_radius;
  const long n = static_cast<long>(std::ceil(1.0 / side));
  // Per-dimension index range of the cells whose centres are within r of p
  // — the same selection rule as the generic CellScan, which factors over
  // dimensions for the L-infinity ball. The selected cells are contiguous.
  std::vector<size_t> first(d), count(d);
  size_t total_cells = 1;
  for (size_t dim = 0; dim < d; ++dim) {
    long lo = std::max(0L, static_cast<long>(std::floor((p[dim] - r) / side)));
    long hi = std::min(n - 1,
                       static_cast<long>(std::floor((p[dim] + r) / side)));
    auto centre_out = [&](long j) {
      return std::fabs(static_cast<double>(j) * side + 0.5 * side - p[dim]) >
             r;
    };
    while (lo <= hi && centre_out(lo)) ++lo;
    while (hi >= lo && centre_out(hi)) --hi;
    first[dim] = static_cast<size_t>(lo);
    count[dim] = hi >= lo ? static_cast<size_t>(hi - lo + 1) : 0;
    total_cells *= count[dim];
  }
  const double counting_mass = kde.BallProbability(p, config.counting_radius);
  if (total_cells == 0) {
    return MdefFromMasses(counting_mass, 0.0, 0.0, 0.0, 0, config);
  }

  // The cell masses depend only on the model: read them from the memoised
  // whole-cube grid when it is small enough, else fill a block over just
  // this neighbourhood. Both hold the same bits for a cell.
  KernelDensityEstimator::CellGrid block;
  const KernelDensityEstimator::CellGrid* grid = &block;
  if (kde.HasCellGrid(side)) {
    grid = &kde.CellMassGrid(side);
  } else {
    kde.CellMassBlock(side, first, count, &block);
  }

  // Moments accumulate in the generic scan's order: row-major over the
  // neighbourhood, the last dimension fastest, one contiguous run at a time.
  const double inv_n = 1.0 / static_cast<double>(kde.sample_size());
  const size_t run = count[d - 1];
  std::vector<size_t> odometer(d, 0);
  double sum1 = 0.0, sum2 = 0.0, sum3 = 0.0;
  for (size_t c = 0; c < total_cells; c += run) {
    size_t cell = 0;
    for (size_t dim = 0; dim < d; ++dim) {
      cell = cell * grid->count[dim] + (first[dim] - grid->first[dim]) +
             odometer[dim];
    }
    for (size_t k = 0; k < run; ++k) {
      const double s = grid->mass[cell + k] * inv_n;
      sum1 += s;
      sum2 += s * s;
      sum3 += s * s * s;
    }
    for (size_t dim = d - 1; dim-- > 0;) {
      if (++odometer[dim] < count[dim]) break;
      odometer[dim] = 0;
    }
  }
  return MdefFromMasses(counting_mass, sum1, sum2, sum3, total_cells, config);
}

bool IsMdefOutlier(const DistributionEstimator& model, const Point& p,
                   const MdefConfig& config) {
  return ComputeMdef(model, p, config).is_outlier;
}

}  // namespace sensord
