#include "stats/kde.h"

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "data/analytic.h"
#include "obs/metrics.h"
#include "stats/divergence.h"
#include "util/flat_points.h"
#include "util/rng.h"

namespace sensord {
namespace {

std::vector<Point> Sample1d(Rng* rng, size_t n, double mean, double sd) {
  std::vector<Point> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out.push_back({Clamp(rng->Gaussian(mean, sd), 0.0, 1.0)});
  }
  return out;
}

TEST(KdeTest, CreateRejectsEmptySample) {
  auto kde = KernelDensityEstimator::Create(std::vector<Point>{}, {0.1});
  EXPECT_FALSE(kde.ok());
  EXPECT_EQ(kde.status().code(), Status::Code::kInvalidArgument);
  EXPECT_FALSE(KernelDensityEstimator::Create(FlatPoints(1), {0.1}).ok());
}

TEST(KdeTest, CreateRejectsDimensionMismatch) {
  auto kde = KernelDensityEstimator::Create({{0.5, 0.5}}, {0.1});
  EXPECT_FALSE(kde.ok());
}

TEST(KdeTest, CreateRejectsNonPositiveBandwidth) {
  EXPECT_FALSE(KernelDensityEstimator::Create({{0.5}}, {0.0}).ok());
  EXPECT_FALSE(KernelDensityEstimator::Create({{0.5}}, {-0.1}).ok());
}

TEST(KdeTest, TotalMassIsOneWhenAwayFromBoundary) {
  Rng rng(1);
  auto kde = KernelDensityEstimator::Create(Sample1d(&rng, 200, 0.5, 0.05),
                                            {0.02});
  ASSERT_TRUE(kde.ok());
  EXPECT_NEAR(kde->BoxProbability({-1.0}, {2.0}), 1.0, 1e-12);
  EXPECT_NEAR(kde->BoxProbability({0.0}, {1.0}), 1.0, 1e-9);
}

TEST(KdeTest, SingleKernelBoxProbability) {
  auto kde = KernelDensityEstimator::Create({{0.5}}, {0.1});
  ASSERT_TRUE(kde.ok());
  EXPECT_NEAR(kde->BoxProbability({0.4}, {0.6}), 1.0, 1e-12);
  EXPECT_NEAR(kde->BoxProbability({0.5}, {0.6}), 0.5, 1e-12);
  EXPECT_DOUBLE_EQ(kde->BoxProbability({0.7}, {0.9}), 0.0);
}

TEST(KdeTest, PdfMatchesKernelShape) {
  auto kde = KernelDensityEstimator::Create({{0.5}}, {0.1});
  ASSERT_TRUE(kde.ok());
  EXPECT_NEAR(kde->Pdf({0.5}), 7.5, 1e-12);  // (3/4)/0.1
  EXPECT_DOUBLE_EQ(kde->Pdf({0.65}), 0.0);
}

TEST(KdeTest, OneDimFastPathMatchesDirectSum) {
  Rng rng(2);
  const auto sample = Sample1d(&rng, 300, 0.4, 0.1);
  const double bw = 0.03;
  auto kde = KernelDensityEstimator::Create(sample, {bw});
  ASSERT_TRUE(kde.ok());

  EpanechnikovKernel kernel(bw);
  Rng queries(3);
  for (int i = 0; i < 200; ++i) {
    double a = queries.UniformDouble();
    double b = queries.UniformDouble();
    if (a > b) std::swap(a, b);
    double direct = 0.0;
    for (const Point& t : sample) direct += kernel.MassInInterval(t[0], a, b);
    direct /= static_cast<double>(sample.size());
    EXPECT_NEAR(kde->BoxProbability({a}, {b}), direct, 1e-12);
  }
}

TEST(KdeTest, TwoDimBoxProbabilityIsProductForSingleKernel) {
  auto kde = KernelDensityEstimator::Create({{0.5, 0.5}}, {0.1, 0.2});
  ASSERT_TRUE(kde.ok());
  EpanechnikovKernel kx(0.1), ky(0.2);
  const double expected =
      kx.MassInInterval(0.5, 0.45, 0.6) * ky.MassInInterval(0.5, 0.4, 0.55);
  EXPECT_NEAR(kde->BoxProbability({0.45, 0.4}, {0.6, 0.55}), expected,
              1e-12);
}

TEST(KdeTest, ConvergesToTrueDistribution) {
  // JS divergence to the generating Gaussian must shrink as |R| grows.
  const AnalyticDistribution truth =
      AnalyticDistribution::Gaussian1d(0.4, 0.05);
  Rng rng(4);
  double prev_js = 1.0;
  for (size_t n : {50u, 500u, 5000u}) {
    auto sample = Sample1d(&rng, n, 0.4, 0.05);
    auto kde =
        KernelDensityEstimator::CreateWithScottBandwidths(sample, {0.05});
    ASSERT_TRUE(kde.ok());
    auto js = JsDivergenceOnGrid(*kde, truth, 128);
    ASSERT_TRUE(js.ok());
    EXPECT_LT(*js, prev_js + 0.005) << "n=" << n;
    prev_js = *js;
  }
  EXPECT_LT(prev_js, 0.01);  // large-sample estimate is close to truth
}

TEST(KdeTest, SampleSortedFor1d) {
  auto kde = KernelDensityEstimator::Create({{0.9}, {0.1}, {0.5}}, {0.05});
  ASSERT_TRUE(kde.ok());
  const FlatPoints& s = kde->sample();
  ASSERT_EQ(s.size(), 3u);
  EXPECT_DOUBLE_EQ(s.At(0, 0), 0.1);
  EXPECT_DOUBLE_EQ(s.At(1, 0), 0.5);
  EXPECT_DOUBLE_EQ(s.At(2, 0), 0.9);
  EXPECT_EQ(kde->primary_axis(), 0u);
}

TEST(KdeTest, PrimaryAxisMaximizesSpreadBandwidthRatio) {
  // Axis 1 spreads 0.8 against bandwidth 0.1 (ratio 8); axis 0 spreads 0.2
  // against 0.1 (ratio 2) — the canonical order must sort by axis 1.
  auto kde = KernelDensityEstimator::Create(
      {{0.4, 0.9}, {0.5, 0.1}, {0.3, 0.5}}, {0.1, 0.1});
  ASSERT_TRUE(kde.ok());
  EXPECT_EQ(kde->primary_axis(), 1u);
  const FlatPoints& s = kde->sample();
  EXPECT_DOUBLE_EQ(s.At(0, 1), 0.1);
  EXPECT_DOUBLE_EQ(s.At(1, 1), 0.5);
  EXPECT_DOUBLE_EQ(s.At(2, 1), 0.9);
  // Rows travel whole: the axis-0 coordinates follow their axis-1 partner.
  EXPECT_DOUBLE_EQ(s.At(0, 0), 0.5);
  EXPECT_DOUBLE_EQ(s.At(1, 0), 0.3);
  EXPECT_DOUBLE_EQ(s.At(2, 0), 0.4);
}

TEST(KdeTest, PrimaryAxisTieBreaksToSmallestIndex) {
  // Identical spread/bandwidth on both axes: axis 0 must win.
  auto kde = KernelDensityEstimator::Create(
      {{0.2, 0.2}, {0.8, 0.8}}, {0.1, 0.1});
  ASSERT_TRUE(kde.ok());
  EXPECT_EQ(kde->primary_axis(), 0u);
}

TEST(KdeTest, CanonicalOrderBreaksTiesLexicographically) {
  // Equal primary-axis coordinates: the secondary coordinates decide.
  auto kde = KernelDensityEstimator::Create(
      {{0.5, 0.9, 0.5}, {0.5, 0.1, 0.5}, {0.1, 0.5, 0.5}}, {0.1, 0.3, 0.9});
  ASSERT_TRUE(kde.ok());
  EXPECT_EQ(kde->primary_axis(), 0u);  // spread 0.4 / 0.1 beats the others
  const FlatPoints& s = kde->sample();
  EXPECT_DOUBLE_EQ(s.At(0, 0), 0.1);
  EXPECT_DOUBLE_EQ(s.At(1, 1), 0.1);  // {0.5, 0.1, .} before {0.5, 0.9, .}
  EXPECT_DOUBLE_EQ(s.At(2, 1), 0.9);
}

TEST(KdeTest, CanonicalOrderPutsNegativeZeroFirst) {
  // -0.0 == +0.0, so only the sign bit tells these rows apart; ordering it
  // too makes tied rows bit-identical, whatever order they arrive in.
  for (const bool negative_first : {false, true}) {
    const double a = negative_first ? -0.0 : 0.0;
    const double b = negative_first ? 0.0 : -0.0;
    auto kde = KernelDensityEstimator::Create({{0.5, b}, {0.5, a}, {0.1, 0.2}},
                                              {0.1, 0.1});
    ASSERT_TRUE(kde.ok());
    const FlatPoints& s = kde->sample();
    EXPECT_TRUE(std::signbit(s.At(1, 1)));
    EXPECT_FALSE(std::signbit(s.At(2, 1)));
  }
}

TEST(KdeTest, CreateRejectsNonFiniteCoordinates) {
  for (const double bad : {std::nan(""), HUGE_VAL, -HUGE_VAL}) {
    EXPECT_FALSE(KernelDensityEstimator::Create({{0.5}, {bad}}, {0.1}).ok());
    EXPECT_FALSE(
        KernelDensityEstimator::Create({{0.5, 0.5}, {0.1, bad}}, {0.1, 0.1})
            .ok());
  }
}

// Rows as bit patterns, so -0.0 and +0.0 differ.
std::vector<uint64_t> Bits(const FlatPoints& rows) {
  std::vector<uint64_t> out;
  for (const double v : rows.data()) out.push_back(std::bit_cast<uint64_t>(v));
  return out;
}

TEST(KdeTest, MergeMatchesCreateOverTheMergedRows) {
  // Removing and adding rows — ties and duplicates included, some of them
  // forcing the primary axis over — gives the estimator Create() builds
  // over the resulting multiset, bit for bit.
  Rng rng(41);
  const std::vector<double> pool = {0.0, -0.0, 0.25, 0.5, 0.5, 1.0};
  const auto draw = [&](size_t d) {
    Point p(d);
    for (double& x : p) {
      x = rng.Bernoulli(0.4) ? pool[rng.UniformUint64(pool.size())]
                             : rng.UniformDouble();
    }
    return p;
  };
  for (size_t d = 1; d <= 3; ++d) {
    for (int trial = 0; trial < 40; ++trial) {
      std::vector<Point> rows;
      const size_t n = 1 + rng.UniformUint64(40);
      for (size_t i = 0; i < n; ++i) rows.push_back(draw(d));
      std::vector<double> bw(d);
      for (double& b : bw) b = rng.UniformDouble(0.01, 0.3);
      auto kde = KernelDensityEstimator::Create(rows, bw);
      ASSERT_TRUE(kde.ok());

      FlatPoints removed(d), added(d);
      const size_t k_out = rng.UniformUint64(n);  // keep at least one row
      for (size_t i = 0; i < k_out; ++i) {
        const size_t victim = rng.UniformUint64(rows.size());
        removed.Append(rows[victim]);
        rows.erase(rows.begin() + static_cast<std::ptrdiff_t>(victim));
      }
      const size_t k_in = rng.UniformUint64(8);
      for (size_t i = 0; i < k_in; ++i) {
        rows.push_back(draw(d));
        added.Append(rows.back());
      }
      for (double& b : bw) b = rng.UniformDouble(0.01, 0.3);
      auto merged = std::move(*kde).Merge(&removed, &added, bw);
      ASSERT_TRUE(merged.ok()) << merged.status().ToString();
      auto fresh = KernelDensityEstimator::Create(rows, bw);
      ASSERT_TRUE(fresh.ok());
      ASSERT_EQ(Bits(merged->sample()), Bits(fresh->sample()))
          << "d " << d << " trial " << trial;
      EXPECT_EQ(merged->primary_axis(), fresh->primary_axis());
      EXPECT_EQ(merged->sample_size(), rows.size());
    }
  }
}

TEST(KdeTest, MergeRejectsRowsNotInTheSample) {
  const auto base = [] {
    return *KernelDensityEstimator::Create({{0.2, 0.3}, {0.6, 0.1}},
                                           {0.1, 0.1});
  };
  FlatPoints absent = FlatPoints::FromPoints({{0.6, 0.2}});
  FlatPoints none(2);
  EXPECT_FALSE(base().Merge(&absent, &none, {0.1, 0.1}).ok());
  // Past the last row, and more rows than the sample holds.
  FlatPoints beyond = FlatPoints::FromPoints({{0.9, 0.9}});
  EXPECT_FALSE(base().Merge(&beyond, &none, {0.1, 0.1}).ok());
  FlatPoints twice = FlatPoints::FromPoints({{0.2, 0.3}, {0.2, 0.3}});
  EXPECT_FALSE(base().Merge(&twice, &none, {0.1, 0.1}).ok());
  // Emptying the sample, a stride mismatch and a non-finite row.
  FlatPoints all = FlatPoints::FromPoints({{0.2, 0.3}, {0.6, 0.1}});
  EXPECT_FALSE(base().Merge(&all, &none, {0.1, 0.1}).ok());
  FlatPoints wide = FlatPoints::FromPoints({{0.2, 0.3, 0.4}});
  EXPECT_FALSE(base().Merge(&none, &wide, {0.1, 0.1}).ok());
  FlatPoints nan = FlatPoints::FromPoints({{0.2, std::nan("")}});
  EXPECT_FALSE(base().Merge(&none, &nan, {0.1, 0.1}).ok());
  // A row that is there merges fine.
  FlatPoints present = FlatPoints::FromPoints({{0.6, 0.1}});
  auto merged = base().Merge(&present, &none, {0.1, 0.1});
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(merged->sample_size(), 1u);
}

TEST(KdeTest, CandidateRowsCoverExactlyTheSupportWindow) {
  auto kde = KernelDensityEstimator::Create(
      {{0.1, 0.5}, {0.3, 0.5}, {0.5, 0.5}, {0.7, 0.5}, {0.9, 0.5}},
      {0.05, 0.5});
  ASSERT_TRUE(kde.ok());
  EXPECT_EQ(kde->primary_axis(), 0u);
  // [0.28, 0.52] ± 0.05 → rows with axis-0 coordinate in [0.23, 0.57].
  const auto [begin, end] = kde->CandidateRows(0.28, 0.52);
  EXPECT_EQ(begin, 1u);
  EXPECT_EQ(end, 3u);
  // A window left of every row is empty, at zero width.
  const auto [eb, ee] = kde->CandidateRows(0.0, 0.0);
  EXPECT_EQ(eb, ee);
}

TEST(KdeTest, NeighborCountScalesWithWindow) {
  auto kde = KernelDensityEstimator::Create({{0.5}}, {0.1});
  ASSERT_TRUE(kde.ok());
  const double mass = kde->BallProbability({0.5}, 0.05);
  EXPECT_NEAR(kde->NeighborCount({0.5}, 0.05, 1000.0), mass * 1000.0, 1e-9);
}

TEST(KdeTest, ScottFactoryUsesPerDimensionStddev) {
  std::vector<Point> sample{{0.3, 0.3}, {0.5, 0.5}, {0.7, 0.7}};
  auto kde = KernelDensityEstimator::CreateWithScottBandwidths(
      sample, {0.05, 0.2});
  ASSERT_TRUE(kde.ok());
  const auto b = kde->bandwidths();
  ASSERT_EQ(b.size(), 2u);
  EXPECT_LT(b[0], b[1]);
}

TEST(KdeTest, MemoryBytesAccounting) {
  auto kde = KernelDensityEstimator::Create({{0.1, 0.2}, {0.3, 0.4}},
                                            {0.1, 0.1});
  ASSERT_TRUE(kde.ok());
  // 2 points x 2 dims + 2 bandwidths = 6 numbers.
  EXPECT_EQ(kde->MemoryBytes(2), 12u);
}

TEST(KdeTest, PdfIntegratesToBoxProbability) {
  Rng rng(5);
  auto kde = KernelDensityEstimator::Create(Sample1d(&rng, 100, 0.5, 0.08),
                                            {0.04});
  ASSERT_TRUE(kde.ok());
  const double a = 0.42, b = 0.58;
  const int n = 20000;
  double riemann = 0.0;
  for (int i = 0; i < n; ++i) {
    riemann += kde->Pdf({a + (b - a) * (i + 0.5) / n});
  }
  riemann *= (b - a) / n;
  EXPECT_NEAR(riemann, kde->BoxProbability({a}, {b}), 1e-4);
}

TEST(KdeTest, DuplicatePointsAreWeighted) {
  auto kde = KernelDensityEstimator::Create({{0.3}, {0.3}, {0.3}, {0.9}},
                                            {0.05});
  ASSERT_TRUE(kde.ok());
  EXPECT_NEAR(kde->BoxProbability({0.25}, {0.35}), 0.75, 1e-12);
  EXPECT_NEAR(kde->BoxProbability({0.85}, {0.95}), 0.25, 1e-12);
}

// Boxes entirely outside the [0,1]^d domain: the candidate range of a box
// beyond the sample on the primary axis is empty, so the query evaluates no
// kernel term and answers exactly 0.
TEST(KdeTest, OutOfDomainBoxHasNoMassOrCandidateTerms) {
  std::vector<Point> sample;
  for (int i = 0; i < 50; ++i) {
    sample.push_back({0.04 + 0.0005 * i, 0.5});
  }
  auto kde = KernelDensityEstimator::Create(sample, {0.1, 0.1});
  ASSERT_TRUE(kde.ok());
  ASSERT_EQ(kde->primary_axis(), 0u);

  const std::vector<Point> lo{{-0.6, 0.4}, {-0.58, 0.45}};
  const std::vector<Point> hi{{-0.5, 0.5}, {-0.48, 0.55}};
  obs::Histogram* terms = obs::MetricsRegistry::Global().GetHistogram(
      "stats.kde.terms_per_query", obs::SizeBoundaries());
  for (size_t q = 0; q < lo.size(); ++q) {
    const uint64_t count_before = terms->Count();
    const double sum_before = terms->Sum();
    EXPECT_EQ(kde->BoxProbability(lo[q], hi[q]), 0.0) << q;
    EXPECT_EQ(terms->Count() - count_before, 1u) << q;
    EXPECT_EQ(terms->Sum() - sum_before, 0.0) << q;
  }
}

}  // namespace
}  // namespace sensord
