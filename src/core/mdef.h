// Copyright (c) the sensord authors. Licensed under the Apache License 2.0.
//
// The MDEF (Multi-Granularity Deviation Factor) outlier test over a
// distribution estimate — the isMDEFOutlier() of the paper's Figure 4,
// following the aLOCI construction of Papadimitriou et al. that the paper
// adopts (Sections 3 and 8, Figure 3).
//
// The domain is tiled into cells of side 2*alpha*r. For a value p:
//   * its counting-neighbourhood mass  n(p, ar)    = ball query around p,
//   * for every cell j whose centre lies within the sampling ball B(p, r),
//     the cell mass s_j = box query over the cell,
//   * the object-weighted average count  n_hat = sum s_j^2 / sum s_j,
//   * the object-weighted deviation      sigma = sqrt(sum s_j^3 / sum s_j
//                                                      - n_hat^2),
//   * MDEF = 1 - n(p, ar) / n_hat,   sigma_MDEF = sigma / n_hat,
// and p is flagged iff MDEF > k_sigma * sigma_MDEF (Eq. 9).
//
// All quantities are ratios of masses, so the same code serves kernel
// estimators (probability mass) and the exact empirical distribution used
// by the BruteForce-M baseline (fractional counts) — by construction the
// two agree whenever the kernel estimate is accurate.

#ifndef SENSORD_CORE_MDEF_H_
#define SENSORD_CORE_MDEF_H_

#include <cstddef>
#include <vector>

#include "core/config.h"
#include "stats/estimator.h"
#include "util/math_utils.h"

namespace sensord {

/// Full diagnostics of one MDEF evaluation.
struct MdefResult {
  double counting_mass = 0.0;  ///< n(p, alpha*r), as probability mass
  double avg_mass = 0.0;       ///< n_hat, object-weighted average cell mass
  double sigma_mass = 0.0;     ///< object-weighted std-dev of cell mass
  double mdef = 0.0;           ///< 1 - counting_mass / avg_mass
  double sigma_mdef = 0.0;     ///< sigma_mass / avg_mass
  bool is_outlier = false;     ///< mdef > k_sigma * sigma_mdef
  size_t cells_considered = 0;
};

/// Assembles the MDEF statistics from raw mass moments: `counting_mass` is
/// n(p, alpha*r) and sum1/sum2/sum3 are the first three power sums of the
/// cell masses s_j over the sampling neighbourhood. Shared by the online
/// estimator path, the brute-force baseline and the evaluation harness so
/// that all three apply the identical criterion.
MdefResult MdefFromMasses(double counting_mass, double sum1, double sum2,
                          double sum3, size_t cells, const MdefConfig& config);

/// The MDEF sampling neighbourhood of a value p: the cells of the grid of
/// side 2*alpha*r over the unit cube (cell j covers [j*side, j*side + side)
/// on each axis, ceil(1/side) cells per axis) whose centre j*side + 0.5*side
/// lies within the sampling radius r of p on every axis. The L-infinity
/// ball factors over the axes and the centres increase with j, so the cells
/// form one block: on axis i, the cells [first[i], first[i] + count[i]).
struct MdefNeighbourhood {
  double side = 0.0;          ///< 2 * config.counting_radius
  std::vector<size_t> first;  ///< per axis, the first selected cell
  std::vector<size_t> count;  ///< per axis, the number of selected cells
  size_t cells = 0;           ///< prod_i count[i]; 0 if B(p, r) has none
};

/// Selects the sampling neighbourhood of p: the one place the cell rule
/// lives, for both ComputeMdef overloads and the exact ground truth.
/// Pre: 0 < counting_radius <= sampling_radius < 1, checked.
MdefNeighbourhood SamplingNeighbourhood(const Point& p,
                                        const MdefConfig& config);

/// The MDEF statistics of p over `nb`: the power sums of mass(j) over the
/// cells j of the block (per-axis indices), accumulated row-major with the
/// last axis fastest, handed to MdefFromMasses with `counting_mass`.
template <typename CellMass>
MdefResult MdefOverNeighbourhood(double counting_mass,
                                 const MdefNeighbourhood& nb,
                                 const MdefConfig& config, CellMass&& mass) {
  double sum1 = 0.0, sum2 = 0.0, sum3 = 0.0;
  std::vector<size_t> j(nb.first);
  for (size_t c = 0; c < nb.cells; ++c) {
    const double s = mass(j);
    sum1 += s;
    sum2 += s * s;
    sum3 += s * s * s;
    for (size_t dim = j.size(); dim-- > 0;) {
      if (++j[dim] < nb.first[dim] + nb.count[dim]) break;
      j[dim] = nb.first[dim];
    }
  }
  return MdefFromMasses(counting_mass, sum1, sum2, sum3, nb.cells, config);
}

/// Evaluates the MDEF criterion for value p against `model`, one
/// BoxProbability per neighbourhood cell.
/// Pre: p.size() == model.dimensions(); SamplingNeighbourhood's.
MdefResult ComputeMdef(const DistributionEstimator& model, const Point& p,
                       const MdefConfig& config);

/// Fast path for kernel estimators in d > 1: the cell masses depend only on
/// the model, so when the whole-cube grid of side 2*alpha*r has at most
/// KernelDensityEstimator::kMaxGridCells cells (2-d down to side 1/256)
/// they come from the estimator's memoised grid (CellMassGrid), built once
/// per estimator in O(|R| * prod_d (2 B_d / side + 1)), and each evaluation
/// costs one ball query plus one lookup per neighbourhood cell, at most
/// (r / (alpha r) + 1)^d. Otherwise (3-d at the default side, any d >= 4)
/// each evaluation fills a block over just its neighbourhood cells
/// (CellMassBlock), O(|R'| * prod_d (2 B_d / side + 1)). Either way the
/// statistics are bit-identical to a per-evaluation sweep of the sample
/// over the neighbourhood cells (per-dimension interval masses multiplied
/// from the last dimension down, summed in canonical row order) and equal
/// to the generic overload's up to floating-point association. Same
/// neighbourhood, cell order and preconditions as the generic overload, and
/// no limit on d or side beyond them. In 1-d it is the generic overload.
MdefResult ComputeMdef(const class KernelDensityEstimator& kde,
                       const Point& p, const MdefConfig& config);

}  // namespace sensord

#endif  // SENSORD_CORE_MDEF_H_
