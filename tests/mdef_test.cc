#include "core/mdef.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "stats/empirical.h"
#include "stats/kde.h"
#include "util/rng.h"

namespace sensord {
namespace {

MdefConfig DefaultConfig() {
  MdefConfig cfg;
  cfg.sampling_radius = 0.08;
  cfg.counting_radius = 0.01;
  cfg.k_sigma = 3.0;
  return cfg;
}

std::vector<Point> UniformCluster(Rng* rng, size_t n, double lo, double hi) {
  std::vector<Point> out;
  for (size_t i = 0; i < n; ++i) out.push_back({rng->UniformDouble(lo, hi)});
  return out;
}

TEST(MdefTest, UniformRegionValueIsNotOutlier) {
  Rng rng(1);
  auto data = UniformCluster(&rng, 5000, 0.3, 0.5);
  auto e = EmpiricalDistribution::Create(data);
  ASSERT_TRUE(e.ok());
  const auto r = ComputeMdef(*e, {0.4}, DefaultConfig());
  EXPECT_FALSE(r.is_outlier);
  // In a homogeneous region the value's count matches the local average.
  EXPECT_NEAR(r.mdef, 0.0, 0.5);
  EXPECT_GT(r.cells_considered, 0u);
}

TEST(MdefTest, IsolatedValueIsOutlier) {
  Rng rng(2);
  auto data = UniformCluster(&rng, 5000, 0.3, 0.4);
  data.push_back({0.46});  // sparse point, dense cluster inside its r-ball
  auto e = EmpiricalDistribution::Create(data);
  ASSERT_TRUE(e.ok());
  const auto r = ComputeMdef(*e, {0.46}, DefaultConfig());
  EXPECT_TRUE(r.is_outlier);
  EXPECT_GT(r.mdef, 0.5);
}

TEST(MdefTest, EmptyNeighborhoodIsNotFlagged) {
  auto e = EmpiricalDistribution::Create({{0.1}});
  ASSERT_TRUE(e.ok());
  // Nothing within the sampling radius of 0.9.
  const auto r = ComputeMdef(*e, {0.9}, DefaultConfig());
  EXPECT_FALSE(r.is_outlier);
  EXPECT_DOUBLE_EQ(r.avg_mass, 0.0);
}

TEST(MdefTest, LocalDensityAdaptation) {
  // The MDEF advantage over (D, r)-outliers: a point that is "sparse" in
  // absolute terms but consistent with its locally sparse region must NOT
  // be flagged, while the same count inside a dense region must be flagged.
  Rng rng(3);
  std::vector<Point> data;
  // Dense region around 0.3 (5000 points), sparse region around 0.7 (50).
  for (const Point& p : UniformCluster(&rng, 5000, 0.25, 0.35)) {
    data.push_back(p);
  }
  for (const Point& p : UniformCluster(&rng, 50, 0.65, 0.75)) {
    data.push_back(p);
  }
  auto e = EmpiricalDistribution::Create(data);
  ASSERT_TRUE(e.ok());
  const auto sparse_native = ComputeMdef(*e, {0.7}, DefaultConfig());
  EXPECT_FALSE(sparse_native.is_outlier)
      << "point consistent with its sparse region was flagged";
}

TEST(MdefTest, MdefFromMassesScaleInvariant) {
  MdefConfig cfg = DefaultConfig();
  const auto a = MdefFromMasses(0.001, 0.1, 0.004, 0.0002, 8, cfg);
  const auto b =
      MdefFromMasses(10.0, 1000.0, 400000.0, 200000000.0, 8, cfg);
  EXPECT_NEAR(a.mdef, b.mdef, 1e-9);
  EXPECT_NEAR(a.sigma_mdef, b.sigma_mdef, 1e-9);
  EXPECT_EQ(a.is_outlier, b.is_outlier);
}

TEST(MdefTest, KSigmaControlsCutoff) {
  Rng rng(4);
  auto data = UniformCluster(&rng, 2000, 0.3, 0.5);
  data.push_back({0.55});
  auto e = EmpiricalDistribution::Create(data);
  ASSERT_TRUE(e.ok());
  MdefConfig strict = DefaultConfig();
  strict.k_sigma = 0.1;  // nearly everything deviates
  MdefConfig lax = DefaultConfig();
  lax.k_sigma = 1000.0;  // nothing deviates
  EXPECT_TRUE(ComputeMdef(*e, {0.55}, strict).is_outlier);
  EXPECT_FALSE(ComputeMdef(*e, {0.55}, lax).is_outlier);
}

TEST(MdefTest, KdeFastPathMatchesGenericIn2d) {
  Rng rng(5);
  std::vector<Point> sample;
  for (int i = 0; i < 300; ++i) {
    sample.push_back({Clamp(rng.Gaussian(0.4, 0.05), 0.0, 1.0),
                      Clamp(rng.Gaussian(0.4, 0.05), 0.0, 1.0)});
  }
  auto kde = KernelDensityEstimator::Create(sample, {0.02, 0.02});
  ASSERT_TRUE(kde.ok());
  MdefConfig cfg = DefaultConfig();
  Rng qrng(6);
  for (int i = 0; i < 50; ++i) {
    const Point q{qrng.UniformDouble(0.2, 0.6), qrng.UniformDouble(0.2, 0.6)};
    const auto fast = ComputeMdef(*kde, q, cfg);  // KDE overload
    const auto generic =
        ComputeMdef(static_cast<const DistributionEstimator&>(*kde), q, cfg);
    EXPECT_NEAR(fast.counting_mass, generic.counting_mass, 1e-9);
    EXPECT_NEAR(fast.avg_mass, generic.avg_mass, 1e-9);
    EXPECT_NEAR(fast.sigma_mass, generic.sigma_mass, 1e-9);
    EXPECT_EQ(fast.is_outlier, generic.is_outlier);
    EXPECT_EQ(fast.cells_considered, generic.cells_considered);
  }
}

TEST(MdefTest, KdeEstimateAgreesWithEmpiricalTruth) {
  // The kernel-based MDEF decision should usually match the exact one.
  Rng rng(7);
  std::vector<Point> window;
  for (int i = 0; i < 8000; ++i) {
    window.push_back({Clamp(rng.Gaussian(0.35, 0.04), 0.0, 1.0)});
  }
  auto e = EmpiricalDistribution::Create(window);
  ASSERT_TRUE(e.ok());
  // Build the KDE from a random subsample (as the online system would).
  std::vector<Point> sample;
  for (int i = 0; i < 400; ++i) {
    sample.push_back(window[rng.UniformUint64(window.size())]);
  }
  auto kde =
      KernelDensityEstimator::CreateWithScottBandwidths(sample, {0.04});
  ASSERT_TRUE(kde.ok());

  const MdefConfig cfg = DefaultConfig();
  int agree = 0, total = 0;
  Rng qrng(8);
  for (int i = 0; i < 200; ++i) {
    const Point q{qrng.UniformDouble(0.2, 0.55)};
    const bool truth = ComputeMdef(*e, q, cfg).is_outlier;
    const bool est = ComputeMdef(*kde, q, cfg).is_outlier;
    agree += (truth == est);
    ++total;
  }
  EXPECT_GT(static_cast<double>(agree) / total, 0.85);
}

TEST(MdefTest, CellsConsideredMatchesGeometry1d) {
  // r = 0.08, cell side 0.02: cells with centres in [p-r, p+r] -> 8 cells
  // for a centred p.
  Rng rng(9);
  auto e = EmpiricalDistribution::Create(UniformCluster(&rng, 100, 0.0, 1.0));
  ASSERT_TRUE(e.ok());
  const auto r = ComputeMdef(*e, {0.5}, DefaultConfig());
  EXPECT_GE(r.cells_considered, 7u);
  EXPECT_LE(r.cells_considered, 9u);
}

TEST(MdefTest, DomainEdgeClampsCells) {
  Rng rng(10);
  auto e = EmpiricalDistribution::Create(UniformCluster(&rng, 100, 0.0, 1.0));
  ASSERT_TRUE(e.ok());
  const auto r = ComputeMdef(*e, {0.01}, DefaultConfig());
  // Near the boundary only ~half the cells exist.
  EXPECT_LT(r.cells_considered, 7u);
  EXPECT_GT(r.cells_considered, 0u);
}

// Reference for the KDE overload: the MDEF statistics from a direct sweep of
// the sample for one evaluation. Each canonical row whose kernel support
// meets the neighbourhood adds, to every neighbourhood cell, the product of
// its per-dimension interval masses taken from the last dimension down and
// stopped at the first non-positive partial product.
MdefResult ReferenceSweepMdef(const KernelDensityEstimator& kde,
                              const Point& p, const MdefConfig& config) {
  const size_t d = kde.dimensions();
  const double side = 2.0 * config.counting_radius;
  const double r = config.sampling_radius;
  const long cells_per_dim = static_cast<long>(std::ceil(1.0 / side));
  std::vector<std::vector<double>> cell_lo(d);
  for (size_t dim = 0; dim < d; ++dim) {
    const long first = static_cast<long>(std::floor((p[dim] - r) / side));
    const long last = static_cast<long>(std::floor((p[dim] + r) / side));
    for (long j = std::max(0L, first); j <= last && j < cells_per_dim; ++j) {
      const double a = static_cast<double>(j) * side;
      if (std::fabs(a + 0.5 * side - p[dim]) > r) continue;
      cell_lo[dim].push_back(a);
    }
  }
  size_t total_cells = 1;
  for (size_t dim = 0; dim < d; ++dim) total_cells *= cell_lo[dim].size();
  const double counting_mass = kde.BallProbability(p, config.counting_radius);
  if (total_cells == 0) {
    return MdefFromMasses(counting_mass, 0.0, 0.0, 0.0, 0, config);
  }

  const std::vector<double> bandwidths = kde.bandwidths();
  std::vector<EpanechnikovKernel> kernels;
  for (double b : bandwidths) kernels.emplace_back(b);
  std::vector<double> cell_mass(total_cells, 0.0);
  std::vector<std::vector<double>> per_dim(d);
  const FlatPoints& sample = kde.sample();
  for (size_t row = 0; row < sample.size(); ++row) {
    const double* t = sample.Row(row);
    bool overlaps = true;
    for (size_t dim = 0; dim < d && overlaps; ++dim) {
      overlaps = t[dim] + bandwidths[dim] > cell_lo[dim].front() &&
                 t[dim] - bandwidths[dim] < cell_lo[dim].back() + side;
    }
    if (!overlaps) continue;
    for (size_t dim = 0; dim < d; ++dim) {
      per_dim[dim].clear();
      for (double a : cell_lo[dim]) {
        per_dim[dim].push_back(
            kernels[dim].MassInInterval(t[dim], a, a + side));
      }
    }
    for (size_t c = 0; c < total_cells; ++c) {
      double m = 1.0;
      size_t rest = c;
      for (size_t dim = d; dim-- > 0 && m > 0.0;) {
        m *= per_dim[dim][rest % cell_lo[dim].size()];
        rest /= cell_lo[dim].size();
      }
      cell_mass[c] += m;
    }
  }
  const double inv_n = 1.0 / static_cast<double>(kde.sample_size());
  double sum1 = 0.0, sum2 = 0.0, sum3 = 0.0;
  for (double m : cell_mass) {
    const double s = m * inv_n;
    sum1 += s;
    sum2 += s * s;
    sum3 += s * s * s;
  }
  return MdefFromMasses(counting_mass, sum1, sum2, sum3, total_cells, config);
}

void ExpectBitwiseEqual(const MdefResult& got, const MdefResult& want) {
  EXPECT_EQ(got.counting_mass, want.counting_mass);
  EXPECT_EQ(got.avg_mass, want.avg_mass);
  EXPECT_EQ(got.sigma_mass, want.sigma_mass);
  EXPECT_EQ(got.mdef, want.mdef);
  EXPECT_EQ(got.is_outlier, want.is_outlier);
  EXPECT_EQ(got.cells_considered, want.cells_considered);
}

// The cell masses must reproduce the direct sweep bit for bit: random 2-d
// and 3-d samples with points outside [0,1], tied rows, narrow and wide
// (wider than the sampling radius) bandwidths, queries at the domain edges,
// and two configs alternating on one estimator (the grid's memo key). Both
// configs read the memoised grid in 2-d; in 3-d the coarse one (20^3 cells)
// reads it and the default-side one (50^3 cells) fills neighbourhood
// blocks.
TEST(MdefTest, KdeCellGridMatchesReferenceSweepBitwise) {
  MdefConfig narrow = DefaultConfig();
  narrow.k_sigma = 1.0;
  MdefConfig coarse;
  coarse.sampling_radius = 0.15;
  coarse.counting_radius = 0.025;  // side 0.05: 20 cells per dimension
  coarse.k_sigma = 0.5;
  Rng rng(11);
  for (const size_t d : {2u, 3u}) {
    for (const double bandwidth : {0.03, 0.2}) {
      std::vector<Point> sample;
      for (int i = 0; i < 240; ++i) {
        Point t(d);
        for (double& x : t) x = rng.Gaussian(0.35 + 0.3 * (i % 2), 0.12);
        sample.push_back(t);
        if (i % 40 == 0) sample.push_back(t);  // a tied row
      }
      sample.push_back(Point(d, -0.04));
      sample.push_back(Point(d, 1.07));
      auto kde = KernelDensityEstimator::Create(
          sample, std::vector<double>(d, bandwidth));
      ASSERT_TRUE(kde.ok());
      EXPECT_TRUE(kde->HasCellGrid(2.0 * coarse.counting_radius));
      EXPECT_EQ(kde->HasCellGrid(2.0 * narrow.counting_radius), d == 2);

      std::vector<Point> queries{Point(d, 0.0), Point(d, 1.0),
                                 Point(d, 0.003), Point(d, 0.997)};
      Point corner(d, 0.5);
      corner[0] = 0.0;
      corner[d - 1] = 0.999;
      queries.push_back(corner);
      for (int i = 0; i < 30; ++i) {
        Point q(d);
        for (double& x : q) x = rng.UniformDouble(0.0, 1.0);
        queries.push_back(q);
      }
      size_t flagged = 0;
      for (const Point& q : queries) {
        for (const MdefConfig* cfg : {&narrow, &coarse}) {
          SCOPED_TRACE(testing::Message() << "d=" << d << " B=" << bandwidth
                                          << " r=" << cfg->sampling_radius
                                          << " q0=" << q[0]);
          const MdefResult got = ComputeMdef(*kde, q, *cfg);
          ExpectBitwiseEqual(got, ReferenceSweepMdef(*kde, q, *cfg));
          flagged += got.is_outlier;
        }
      }
      EXPECT_GT(flagged, 0u) << "no flagged query: the is_outlier check is "
                                "vacuous for d=" << d;
    }
  }
}

// One grid per estimator and side: N evaluations build it once, a new side
// rebuilds it, and the 1-d path never builds one.
TEST(MdefTest, KdeCellGridBuiltOncePerSide) {
  obs::Counter* builds = obs::MetricsRegistry::Global().GetCounter(
      "stats.kde.cell_grid_builds");
  Rng rng(12);
  std::vector<Point> sample;
  for (int i = 0; i < 200; ++i) {
    sample.push_back(
        {rng.UniformDouble(0.2, 0.6), rng.UniformDouble(0.3, 0.7)});
  }
  auto kde = KernelDensityEstimator::Create(sample, {0.05, 0.05});
  ASSERT_TRUE(kde.ok());
  const MdefConfig cfg = DefaultConfig();
  MdefConfig other = cfg;
  other.counting_radius = 0.02;

  uint64_t before = builds->value();
  for (int i = 0; i < 25; ++i) {
    ComputeMdef(*kde, {rng.UniformDouble(0.0, 1.0), 0.5}, cfg);
  }
  EXPECT_EQ(builds->value() - before, 1u);

  before = builds->value();
  for (int i = 0; i < 5; ++i) ComputeMdef(*kde, {0.4, 0.5}, other);
  EXPECT_EQ(builds->value() - before, 1u);
  EXPECT_EQ(kde->CellMassGrid(0.04).count, (std::vector<size_t>{25, 25}));

  before = builds->value();
  ComputeMdef(*kde, {0.4, 0.5}, cfg);
  EXPECT_EQ(builds->value() - before, 1u);

  auto kde1d = KernelDensityEstimator::Create({{0.3}, {0.4}, {0.5}}, {0.05});
  ASSERT_TRUE(kde1d.ok());
  before = builds->value();
  ComputeMdef(*kde1d, {0.4}, cfg);
  EXPECT_EQ(builds->value(), before);
}

// Where the whole-cube grid would be too large (3-d at a fine side, 4-d and
// 5-d at the default config: 334^3, 50^4 and 50^5 cells) each evaluation
// fills a block over its own neighbourhood instead, builds no grid, and
// still matches the direct sweep bit for bit.
TEST(MdefTest, KdeLargeGridsFallBackToNeighbourhoodBlocks) {
  obs::Counter* builds = obs::MetricsRegistry::Global().GetCounter(
      "stats.kde.cell_grid_builds");
  MdefConfig fine = DefaultConfig();
  fine.counting_radius = 0.0015;  // side 0.003
  Rng rng(13);
  for (const size_t d : {3u, 4u, 5u}) {
    const MdefConfig cfg = d == 3 ? fine : DefaultConfig();
    std::vector<Point> sample;
    for (int i = 0; i < 60; ++i) {
      Point t(d);
      for (double& x : t) x = rng.Gaussian(0.5, 0.05);
      sample.push_back(t);
    }
    auto kde = KernelDensityEstimator::Create(
        sample, std::vector<double>(d, 0.04));
    ASSERT_TRUE(kde.ok());
    EXPECT_FALSE(kde->HasCellGrid(2.0 * cfg.counting_radius));

    const uint64_t before = builds->value();
    std::vector<Point> queries{Point(d, 0.5), Point(d, 0.0), sample[7]};
    Point off(d, 0.5);
    off[d - 1] = 0.58;
    queries.push_back(off);
    for (const Point& q : queries) {
      SCOPED_TRACE(testing::Message() << "d=" << d << " q0=" << q[0]);
      const MdefResult got = ComputeMdef(*kde, q, cfg);
      ExpectBitwiseEqual(got, ReferenceSweepMdef(*kde, q, cfg));
    }
    EXPECT_GT(ComputeMdef(*kde, Point(d, 0.5), cfg).avg_mass, 0.0);
    EXPECT_EQ(builds->value(), before);
  }
}

// The neighbourhood helper against a brute-force scan of every cell of the
// grid: cell j is in iff its centre j*side + 0.5*side lies within r of p on
// every axis. MdefOverNeighbourhood must visit exactly those cells, in
// row-major order with the last axis fastest. Points near 0 and 1 and
// outside [0,1] clip the block at the domain edges or empty it.
TEST(MdefTest, SamplingNeighbourhoodMatchesCentreRule) {
  MdefConfig coarse = DefaultConfig();
  coarse.sampling_radius = 0.2;
  coarse.counting_radius = 0.05;  // side 0.1
  MdefConfig fine = DefaultConfig();
  fine.sampling_radius = 0.1;
  fine.counting_radius = 0.003;  // side 0.006
  MdefConfig tight = DefaultConfig();
  tight.sampling_radius = 0.01;  // r == alpha*r: one cell or none per axis
  const std::vector<double> coords{0.5,  0.37, 0.0,  0.001, 0.011, 0.999,
                                   1.0,  0.97, -0.05, -0.5, 1.07,  1.5};
  Rng rng(14);
  for (const size_t d : {1u, 2u, 3u}) {
    for (const MdefConfig& cfg : {DefaultConfig(), coarse, fine, tight}) {
      // Keep the 3-d scan small: only the coarse grid (10^3 cells).
      if (d == 3 && cfg.counting_radius != coarse.counting_radius) continue;
      const double side = 2.0 * cfg.counting_radius;
      const size_t n = static_cast<size_t>(std::ceil(1.0 / side));
      size_t grid_cells = 1;
      for (size_t dim = 0; dim < d; ++dim) grid_cells *= n;
      for (int trial = 0; trial < 40; ++trial) {
        Point p(d);
        for (double& x : p) x = coords[rng.UniformUint64(coords.size())];
        SCOPED_TRACE(testing::Message()
                     << "d=" << d << " side=" << side << " p0=" << p[0]);

        std::vector<std::vector<size_t>> want;
        for (size_t c = 0; c < grid_cells; ++c) {
          std::vector<size_t> j(d);
          size_t rest = c;
          for (size_t dim = d; dim-- > 0;) {
            j[dim] = rest % n;
            rest /= n;
          }
          bool in = true;
          for (size_t dim = 0; dim < d; ++dim) {
            const double centre =
                static_cast<double>(j[dim]) * side + 0.5 * side;
            in = in && std::fabs(centre - p[dim]) <= cfg.sampling_radius;
          }
          if (in) want.push_back(j);
        }

        const MdefNeighbourhood nb = SamplingNeighbourhood(p, cfg);
        EXPECT_EQ(nb.side, side);
        ASSERT_EQ(nb.first.size(), d);
        ASSERT_EQ(nb.count.size(), d);
        EXPECT_EQ(nb.cells, want.size());
        std::vector<std::vector<size_t>> got;
        const MdefResult r = MdefOverNeighbourhood(
            0.0, nb, cfg, [&](const std::vector<size_t>& j) {
              got.push_back(j);
              return 1.0;
            });
        EXPECT_EQ(got, want);
        EXPECT_EQ(r.cells_considered, want.size());
      }
    }
  }
}

// Both overloads check the radii through SamplingNeighbourhood, the d > 1
// KDE overload included.
TEST(MdefDeathTest, BothOverloadsRejectSamplingRadiusOfOne) {
  auto kde = KernelDensityEstimator::Create(
      {{0.3, 0.4}, {0.5, 0.5}, {0.6, 0.2}}, {0.05, 0.05});
  ASSERT_TRUE(kde.ok());
  MdefConfig cfg = DefaultConfig();
  for (const double r : {1.0, 1.5}) {
    cfg.sampling_radius = r;
    EXPECT_DEATH(ComputeMdef(*kde, {0.4, 0.4}, cfg),
                 "SENSORD_CHECK_LT\\(config.sampling_radius, 1.0\\) failed");
    EXPECT_DEATH(
        ComputeMdef(static_cast<const DistributionEstimator&>(*kde),
                    {0.4, 0.4}, cfg),
        "SENSORD_CHECK_LT\\(config.sampling_radius, 1.0\\) failed");
  }
}

}  // namespace
}  // namespace sensord
