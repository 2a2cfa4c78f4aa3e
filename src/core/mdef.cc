#include "core/mdef.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "stats/kde.h"

#include "util/check.h"

namespace sensord {

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

MdefNeighbourhood SamplingNeighbourhood(const Point& p,
                                        const MdefConfig& config) {
  SENSORD_CHECK_GT(config.counting_radius, 0.0);
  SENSORD_CHECK_LE(config.counting_radius, config.sampling_radius);
  SENSORD_CHECK_LT(config.sampling_radius, 1.0);

  const size_t d = p.size();
  const double side = 2.0 * config.counting_radius;
  const double r = config.sampling_radius;
  const long n = static_cast<long>(std::ceil(1.0 / side));
  MdefNeighbourhood nb;
  nb.side = side;
  nb.first.resize(d);
  nb.count.resize(d);
  nb.cells = 1;
  for (size_t dim = 0; dim < d; ++dim) {
    // The cells whose index range can hold a centre within r of p, trimmed
    // at both ends to those whose centre does.
    long lo = std::max(0L, static_cast<long>(std::floor((p[dim] - r) / side)));
    long hi = std::min(n - 1,
                       static_cast<long>(std::floor((p[dim] + r) / side)));
    auto centre_out = [&](long j) {
      return std::fabs(static_cast<double>(j) * side + 0.5 * side - p[dim]) >
             r;
    };
    while (lo <= hi && centre_out(lo)) ++lo;
    while (hi >= lo && centre_out(hi)) --hi;
    nb.first[dim] = static_cast<size_t>(lo);
    nb.count[dim] = hi >= lo ? static_cast<size_t>(hi - lo + 1) : 0;
    nb.cells *= nb.count[dim];
  }
  return nb;
}

MdefResult ComputeMdef(const DistributionEstimator& model, const Point& p,
                       const MdefConfig& config) {
  SENSORD_DCHECK_EQ(p.size(), model.dimensions());
  const MdefNeighbourhood nb = SamplingNeighbourhood(p, config);
  const double counting_mass =
      model.BallProbability(p, config.counting_radius);
  Point lo(p.size()), hi(p.size());
  return MdefOverNeighbourhood(
      counting_mass, nb, config, [&](const std::vector<size_t>& j) {
        for (size_t dim = 0; dim < j.size(); ++dim) {
          lo[dim] = static_cast<double>(j[dim]) * nb.side;
          hi[dim] = lo[dim] + nb.side;
        }
        return model.BoxProbability(lo, hi);
      });
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
  const MdefNeighbourhood nb = SamplingNeighbourhood(p, config);
  const double counting_mass = kde.BallProbability(p, config.counting_radius);
  if (nb.cells == 0) {  // no grid to build, and no block to fill
    return MdefFromMasses(counting_mass, 0.0, 0.0, 0.0, 0, config);
  }

  // The cell masses depend only on the model: read them from the memoised
  // whole-cube grid when it is small enough, else fill a block over just
  // this neighbourhood. Both hold the same bits for a cell.
  KernelDensityEstimator::CellGrid block;
  const KernelDensityEstimator::CellGrid* grid = &block;
  if (kde.HasCellGrid(nb.side)) {
    grid = &kde.CellMassGrid(nb.side);
  } else {
    kde.CellMassBlock(nb.side, nb.first, nb.count, &block);
  }
  const double inv_n = 1.0 / static_cast<double>(kde.sample_size());
  return MdefOverNeighbourhood(
      counting_mass, nb, config, [&](const std::vector<size_t>& j) {
        size_t cell = 0;
        for (size_t dim = 0; dim < d; ++dim) {
          cell = cell * grid->count[dim] + (j[dim] - grid->first[dim]);
        }
        return grid->mass[cell] * inv_n;
      });
}

}  // namespace sensord
