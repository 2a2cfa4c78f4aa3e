// Property-based suites: the paper's structural theorems and the algebraic
// invariants every estimator implementation must satisfy, checked across
// randomized instances and parameter sweeps.

#include <bit>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/brute_force_d.h"
#include "core/density_model.h"
#include "core/mgdd.h"
#include "core/snapshot.h"
#include "data/synthetic.h"
#include "net/network.h"
#include "net/node.h"
#include "net/protocol.h"
#include "obs/metrics.h"
#include "stats/bandwidth.h"
#include "stats/divergence.h"
#include "stats/empirical.h"
#include "stats/histogram.h"
#include "stats/kde.h"
#include "stream/chain_sample.h"
#include "util/rng.h"

namespace sensord {
namespace {

// ---------------------------------------------------------------------
// Theorem 3 (Section 7): for a parent whose window is the union of its
// children's windows, the parent's distance-based outlier set is contained
// in the union of the children's outlier sets. Operationally: any value of
// child i that is an outlier of the pooled window must also be an outlier
// of child i's own window — so children escalating their own outliers
// suffices.
// ---------------------------------------------------------------------

struct Theorem3Case {
  uint64_t seed;
  size_t children;
  size_t window;
};

class Theorem3Test : public ::testing::TestWithParam<Theorem3Case> {};

TEST_P(Theorem3Test, PoolOutliersAreChildOutliers) {
  const Theorem3Case param = GetParam();
  Rng rng(param.seed);

  std::vector<std::vector<Point>> windows(param.children);
  std::vector<Point> pool;
  for (auto& w : windows) {
    // Each child gets its own cluster position plus stray values, so both
    // locally-common and locally-rare values exist.
    const double center = rng.UniformDouble(0.2, 0.7);
    for (size_t i = 0; i < param.window; ++i) {
      const double v = rng.Bernoulli(0.05)
                           ? rng.UniformDouble()
                           : Clamp(rng.Gaussian(center, 0.03), 0.0, 1.0);
      w.push_back({v});
      pool.push_back({v});
    }
  }

  DistanceOutlierConfig cfg;
  cfg.radius = 0.02;
  cfg.neighbor_threshold = 0.02 * static_cast<double>(param.window);

  size_t pool_outliers = 0;
  for (size_t c = 0; c < param.children; ++c) {
    for (const Point& p : windows[c]) {
      if (BruteForceIsDistanceOutlier(pool, p, cfg)) {
        ++pool_outliers;
        EXPECT_TRUE(BruteForceIsDistanceOutlier(windows[c], p, cfg))
            << "value " << p[0] << " is a pool outlier but not a child-"
            << c << " outlier: Theorem 3 violated";
      }
    }
  }
  // The workloads above plant stray values, so the theorem is not checked
  // vacuously.
  EXPECT_GT(pool_outliers, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Theorem3Test,
    ::testing::Values(Theorem3Case{1, 2, 300}, Theorem3Case{2, 4, 300},
                      Theorem3Case{3, 4, 800}, Theorem3Case{4, 8, 200},
                      Theorem3Case{5, 3, 500}));

// ---------------------------------------------------------------------
// Estimator algebra: probabilities, additivity over disjoint boxes,
// monotonicity under box containment — for every estimator implementation.
// ---------------------------------------------------------------------

enum class EstimatorKindUnderTest { kKde, kHistogram, kEmpirical };

class EstimatorAlgebraTest
    : public ::testing::TestWithParam<EstimatorKindUnderTest> {
 protected:
  std::unique_ptr<DistributionEstimator> Make(uint64_t seed) {
    Rng rng(seed);
    std::vector<Point> data;
    for (int i = 0; i < 1500; ++i) {
      const double v = rng.Bernoulli(0.3)
                           ? rng.UniformDouble()
                           : Clamp(rng.Gaussian(0.4, 0.07), 0.0, 1.0);
      data.push_back({v});
    }
    switch (GetParam()) {
      case EstimatorKindUnderTest::kKde: {
        auto kde = KernelDensityEstimator::CreateWithScottBandwidths(
            std::move(data), {0.07});
        EXPECT_TRUE(kde.ok());
        return std::make_unique<KernelDensityEstimator>(
            std::move(kde).value());
      }
      case EstimatorKindUnderTest::kHistogram: {
        auto h = EquiDepthHistogram::Build(data, 64);
        EXPECT_TRUE(h.ok());
        return std::make_unique<EquiDepthHistogram>(std::move(h).value());
      }
      case EstimatorKindUnderTest::kEmpirical: {
        auto e = EmpiricalDistribution::Create(std::move(data));
        EXPECT_TRUE(e.ok());
        return std::make_unique<EmpiricalDistribution>(std::move(e).value());
      }
    }
    return nullptr;
  }
};

TEST_P(EstimatorAlgebraTest, ProbabilitiesInUnitRange) {
  auto est = Make(11);
  Rng q(12);
  for (int i = 0; i < 200; ++i) {
    double a = q.UniformDouble(-0.2, 1.2), b = q.UniformDouble(-0.2, 1.2);
    if (a > b) std::swap(a, b);
    const double mass = est->BoxProbability({a}, {b});
    EXPECT_GE(mass, 0.0);
    EXPECT_LE(mass, 1.0 + 1e-9);
  }
}

TEST_P(EstimatorAlgebraTest, AdditiveOverDisjointBoxes) {
  // Empirical closed boxes double-count shared endpoints; split at a point
  // that carries no mass (irrational-ish cut) to keep the property exact.
  auto est = Make(13);
  Rng q(14);
  for (int i = 0; i < 100; ++i) {
    double a = q.UniformDouble(0.0, 1.0), b = q.UniformDouble(0.0, 1.0);
    if (a > b) std::swap(a, b);
    const double mid = a + (b - a) * 0.6180339887498949;
    const double whole = est->BoxProbability({a}, {b});
    const double left = est->BoxProbability({a}, {mid});
    const double right = est->BoxProbability({mid}, {b});
    EXPECT_NEAR(whole, left + right, 1e-9)
        << "a=" << a << " b=" << b << " mid=" << mid;
  }
}

TEST_P(EstimatorAlgebraTest, MonotoneUnderContainment) {
  auto est = Make(15);
  Rng q(16);
  for (int i = 0; i < 100; ++i) {
    double a = q.UniformDouble(0.0, 0.5), b = q.UniformDouble(0.5, 1.0);
    const double inner = est->BoxProbability({a + 0.05}, {b - 0.05});
    const double outer = est->BoxProbability({a}, {b});
    EXPECT_LE(inner, outer + 1e-9);
  }
}

TEST_P(EstimatorAlgebraTest, TotalMassIsOne) {
  auto est = Make(17);
  EXPECT_NEAR(est->BoxProbability({-1.0}, {2.0}), 1.0, 1e-6);
}

TEST_P(EstimatorAlgebraTest, InvertedBoxIsEmpty) {
  auto est = Make(20);
  EXPECT_DOUBLE_EQ(est->BoxProbability({0.7}, {0.3}), 0.0);
  EXPECT_DOUBLE_EQ(est->BoxProbability({0.5001}, {0.5}), 0.0);
}

TEST_P(EstimatorAlgebraTest, BallEqualsCenteredBox) {
  auto est = Make(18);
  Rng q(19);
  for (int i = 0; i < 50; ++i) {
    const Point p{q.UniformDouble()};
    const double r = q.UniformDouble(0.001, 0.2);
    EXPECT_DOUBLE_EQ(est->BallProbability(p, r),
                     est->BoxProbability({p[0] - r}, {p[0] + r}));
  }
}

INSTANTIATE_TEST_SUITE_P(AllEstimators, EstimatorAlgebraTest,
                         ::testing::Values(EstimatorKindUnderTest::kKde,
                                           EstimatorKindUnderTest::kHistogram,
                                           EstimatorKindUnderTest::kEmpirical));

// ---------------------------------------------------------------------
// JS divergence metric-like properties on random discrete distributions.
// ---------------------------------------------------------------------

TEST(JsPropertiesTest, SymmetricNonNegativeBounded) {
  Rng rng(21);
  for (int trial = 0; trial < 200; ++trial) {
    const size_t n = 2 + rng.UniformUint64(30);
    std::vector<double> p(n), q(n);
    for (size_t i = 0; i < n; ++i) {
      p[i] = rng.Bernoulli(0.2) ? 0.0 : rng.UniformDouble();
      q[i] = rng.Bernoulli(0.2) ? 0.0 : rng.UniformDouble();
    }
    p[rng.UniformUint64(n)] += 0.1;  // ensure not all-zero
    q[rng.UniformUint64(n)] += 0.1;
    const double js_pq = JsDivergence(p, q);
    const double js_qp = JsDivergence(q, p);
    EXPECT_NEAR(js_pq, js_qp, 1e-12);
    EXPECT_GE(js_pq, 0.0);
    EXPECT_LE(js_pq, 1.0 + 1e-12);
  }
}

TEST(JsPropertiesTest, ZeroIffIdenticalShape) {
  Rng rng(22);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> p(8);
    for (double& x : p) x = rng.UniformDouble(0.01, 1.0);
    EXPECT_NEAR(JsDivergence(p, p), 0.0, 1e-12);
    std::vector<double> q = p;
    q[0] += 1.0;  // materially different shape
    EXPECT_GT(JsDivergence(p, q), 1e-4);
  }
}

// ---------------------------------------------------------------------
// Chain-sample distributional property across a parameter sweep: the
// probability that the newest element is in the sample must match theory.
// ---------------------------------------------------------------------

struct ChainSweep {
  size_t sample;
  size_t window;
};

class ChainSampleSweepTest : public ::testing::TestWithParam<ChainSweep> {};

TEST_P(ChainSampleSweepTest, InsertionRateMatchesTheory) {
  const ChainSweep param = GetParam();
  ChainSample cs(param.sample, param.window, Rng(31));
  Rng values(32);
  const int warm = static_cast<int>(param.window) + 500;
  const int measured = 30000;
  int insertions = 0;
  for (int i = 0; i < warm + measured; ++i) {
    const bool in = cs.Add({values.UniformDouble()});
    if (i >= warm) insertions += in ? 1 : 0;
  }
  const double p_theory =
      1.0 - std::pow(1.0 - 1.0 / static_cast<double>(param.window),
                     static_cast<double>(param.sample));
  EXPECT_NEAR(static_cast<double>(insertions) / measured, p_theory,
              0.015 + 0.1 * p_theory)
      << "R=" << param.sample << " W=" << param.window;
}

INSTANTIATE_TEST_SUITE_P(Sweep, ChainSampleSweepTest,
                         ::testing::Values(ChainSweep{10, 100},
                                           ChainSweep{50, 1000},
                                           ChainSweep{100, 1000},
                                           ChainSweep{500, 2000},
                                           ChainSweep{64, 64}));

// ---------------------------------------------------------------------
// Synthetic stream: the generated data matches its own TrueDistribution
// across dimensions (the generator and its analytic twin stay in sync).
// ---------------------------------------------------------------------

class SyntheticConsistencyTest : public ::testing::TestWithParam<size_t> {};

TEST_P(SyntheticConsistencyTest, EmpiricalMatchesAnalytic) {
  SyntheticOptions opts;
  opts.dimensions = GetParam();
  SyntheticMixtureStream stream(opts, Rng(41));
  std::vector<Point> data;
  for (int i = 0; i < 40000; ++i) data.push_back(stream.Next());
  auto empirical = EmpiricalDistribution::Create(std::move(data));
  ASSERT_TRUE(empirical.ok());
  auto js = JsDivergenceOnGrid(*empirical, stream.TrueDistribution(),
                               GetParam() == 1 ? 64 : 16);
  ASSERT_TRUE(js.ok());
  EXPECT_LT(*js, 0.02);
}

INSTANTIATE_TEST_SUITE_P(Dims, SyntheticConsistencyTest,
                         ::testing::Values(1, 2, 3));

// ---------------------------------------------------------------------
// Primary-axis pruning (DESIGN.md §13): BoxProbability / Pdf restrict the
// sweep to the binary-searched candidate range, and the skipped terms
// contribute exactly 0.0 — so the results must be *bit-identical* to a
// reference full sweep over the same canonical order, for every seed and
// dimensionality.
// ---------------------------------------------------------------------

double ReferenceFullSweepBoxMass(const KernelDensityEstimator& kde,
                                 const std::vector<EpanechnikovKernel>& ks,
                                 const Point& lo, const Point& hi) {
  for (size_t i = 0; i < lo.size(); ++i) {
    if (lo[i] > hi[i]) return 0.0;
  }
  const FlatPoints& s = kde.sample();
  if (ks.size() == 1) {
    // The 1-d fast path counts the fully-contained middle as an integer and
    // sums the left then right partials; mirror that order, but classify
    // every row by a linear scan instead of binary search, and check on the
    // way that each skipped row really carries exactly zero mass.
    const double b = ks[0].bandwidth();
    const bool has_middle = lo[0] + b <= hi[0] - b;
    double full = 0.0;
    std::vector<double> left, right;
    for (size_t row = 0; row < s.size(); ++row) {
      const double v = s.At(row, 0);
      if (v < lo[0] - b || v > hi[0] + b) {
        EXPECT_EQ(ks[0].MassInInterval(v, lo[0], hi[0]), 0.0);
        continue;
      }
      if (has_middle && v >= lo[0] + b && v <= hi[0] - b) {
        full += 1.0;
      } else if (has_middle && v < lo[0] + b) {
        left.push_back(v);
      } else {
        right.push_back(v);
      }
    }
    double mass = 0.0;
    if (has_middle) mass += full;
    for (const double v : left) mass += ks[0].MassInInterval(v, lo[0], hi[0]);
    for (const double v : right) {
      mass += ks[0].MassInInterval(v, lo[0], hi[0]);
    }
    return mass / static_cast<double>(s.size());
  }
  // d > 1: the un-pruned general path — every canonical row, dims in order,
  // early exit on a zero factor, final division.
  double total = 0.0;
  for (size_t row = 0; row < s.size(); ++row) {
    const double* t = s.Row(row);
    double contrib = 1.0;
    for (size_t i = 0; i < ks.size() && contrib > 0.0; ++i) {
      contrib *= ks[i].MassInInterval(t[i], lo[i], hi[i]);
    }
    total += contrib;
  }
  return total / static_cast<double>(s.size());
}

double ReferenceFullSweepPdf(const KernelDensityEstimator& kde,
                             const std::vector<EpanechnikovKernel>& ks,
                             const Point& p) {
  const FlatPoints& s = kde.sample();
  double total = 0.0;
  for (size_t row = 0; row < s.size(); ++row) {
    const double* t = s.Row(row);
    double contrib = 1.0;
    for (size_t i = 0; i < ks.size() && contrib > 0.0; ++i) {
      contrib *= ks[i].Value(p[i] - t[i]);
    }
    total += contrib;
  }
  return total / static_cast<double>(s.size());
}

class KdePruningBitIdentityTest : public ::testing::TestWithParam<size_t> {};

TEST_P(KdePruningBitIdentityTest, PrunedPathsMatchFullSweepBitwise) {
  const size_t d = GetParam();
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    Rng rng(seed * 977 + d);
    const size_t n = 64 + static_cast<size_t>(rng.UniformUint64(256));
    std::vector<Point> sample;
    for (size_t i = 0; i < n; ++i) {
      Point p(d);
      for (double& x : p) {
        // Clustered bulk plus uniform strays, the fig9 shape — wide spread
        // on some axes so the primary-axis choice is exercised.
        x = rng.Bernoulli(0.2)
                ? rng.UniformDouble()
                : Clamp(rng.Gaussian(0.3 + 0.2 * rng.Bernoulli(0.5), 0.05),
                        0.0, 1.0);
      }
      sample.push_back(std::move(p));
    }
    std::vector<double> bandwidths(d);
    for (double& b : bandwidths) b = rng.UniformDouble(0.02, 0.15);

    auto kde = KernelDensityEstimator::Create(sample, bandwidths);
    ASSERT_TRUE(kde.ok());
    std::vector<EpanechnikovKernel> kernels;
    for (double b : bandwidths) kernels.emplace_back(b);

    for (int q = 0; q < 8; ++q) {
      Point lo(d), hi(d);
      for (size_t i = 0; i < d; ++i) {
        const double c = rng.UniformDouble(-0.1, 1.1);
        const double r = rng.UniformDouble(0.005, 0.12);
        lo[i] = c - r;
        hi[i] = c + r;
      }
      const double pruned = kde->BoxProbability(lo, hi);
      const double reference =
          ReferenceFullSweepBoxMass(*kde, kernels, lo, hi);
      ASSERT_EQ(pruned, reference)
          << "box mass diverged at seed " << seed << " d " << d;

      Point p(d);
      for (size_t i = 0; i < d; ++i) p[i] = rng.UniformDouble(-0.1, 1.1);
      ASSERT_EQ(kde->Pdf(p), ReferenceFullSweepPdf(*kde, kernels, p))
          << "pdf diverged at seed " << seed << " d " << d;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, KdePruningBitIdentityTest,
                         ::testing::Values(1, 2, 3));

// ---------------------------------------------------------------------
// Merge rebuilds (DESIGN.md §13): an estimator rebuilt by merging only the
// changed rows into its predecessor equals a fresh Create() over the same
// sample, bit for bit — rows, primary axis, bandwidths and every query —
// across random streams with tied and duplicate rows, primary-axis flips,
// change-record overflows, age-only rebuilds and restores.
// ---------------------------------------------------------------------

std::vector<uint64_t> BitsOf(const std::vector<double>& values) {
  std::vector<uint64_t> out;
  out.reserve(values.size());
  for (const double v : values) out.push_back(std::bit_cast<uint64_t>(v));
  return out;
}

::testing::AssertionResult SameEstimator(const KernelDensityEstimator& got,
                                         const KernelDensityEstimator& want,
                                         Rng* rng) {
  if (BitsOf(got.sample().data()) != BitsOf(want.sample().data())) {
    return ::testing::AssertionFailure() << "sample rows differ";
  }
  if (got.primary_axis() != want.primary_axis()) {
    return ::testing::AssertionFailure()
           << "primary axis " << got.primary_axis() << " vs "
           << want.primary_axis();
  }
  if (BitsOf(got.bandwidths()) != BitsOf(want.bandwidths())) {
    return ::testing::AssertionFailure() << "bandwidths differ";
  }
  const size_t d = got.dimensions();
  Point lo(d), hi(d), p(d);
  for (size_t i = 0; i < d; ++i) {
    const double c = rng->UniformDouble();
    const double r = rng->UniformDouble(0.01, 0.2);
    lo[i] = c - r;
    hi[i] = c + r;
    p[i] = rng->UniformDouble();
  }
  if (BitsOf({got.BoxProbability(lo, hi), got.Pdf(p)}) !=
      BitsOf({want.BoxProbability(lo, hi), want.Pdf(p)})) {
    return ::testing::AssertionFailure() << "box mass or pdf differs";
  }
  constexpr double kSide = 0.125;
  if (got.HasCellGrid(kSide) &&
      BitsOf(got.CellMassGrid(kSide).mass) !=
          BitsOf(want.CellMassGrid(kSide).mass)) {
    return ::testing::AssertionFailure() << "cell-mass grid differs";
  }
  return ::testing::AssertionSuccess();
}

// One coordinate: often a value from a small pool (duplicate rows, ties on
// the primary axis, -0.0 beside +0.0), else a Gaussian around 0.5.
double TiedOrGaussian(Rng* rng, double sd) {
  static const double kPool[] = {0.0, -0.0, 0.25, 0.5, 1.0};
  if (rng->Bernoulli(0.15)) return kPool[rng->UniformUint64(5)];
  return Clamp(rng->Gaussian(0.5, sd), 0.0, 1.0);
}

struct DensityMergeCase {
  size_t dimensions;
  bool robust;
};

class DensityModelMergeTest
    : public ::testing::TestWithParam<DensityMergeCase> {};

TEST_P(DensityModelMergeTest, EveryRebuildEqualsAFreshCreate) {
  const DensityMergeCase param = GetParam();
  const size_t d = param.dimensions;
  DensityModelConfig cfg;
  cfg.dimensions = d;
  cfg.window_size = 40;
  cfg.sample_size = 16;
  cfg.max_estimator_age = 1;  // a query after any observation rebuilds
  cfg.robust_bandwidth = param.robust;
  DensityModel model(cfg, Rng(51 + d));
  Rng rng(61 + d + (param.robust ? 100 : 0));

  bool built = false;
  uint64_t built_version = 0;
  size_t axis = 0, wide = 0;
  int merges = 0, age_only = 0, overflows = 0, flips = 0;
  for (int step = 0; step < 1200; ++step) {
    // The wide axis rotates every 150 steps, so the primary axis flips.
    if (step % 150 == 149) wide = (wide + 1) % d;
    // Every 97th step is a long gap that overflows the change log.
    const int feeds = step % 97 == 96 ? 60 : 1;
    for (int f = 0; f < feeds; ++f) {
      Point p(d);
      for (size_t i = 0; i < d; ++i) {
        p[i] = TiedOrGaussian(&rng, i == wide ? 0.3 : 0.02);
      }
      model.Observe(p);
    }
    if (step == 600) {
      SnapshotWriter writer;
      model.Serialize(&writer);
      const std::vector<uint8_t> bytes = std::move(writer).Finish(1);
      auto reader = SnapshotReader::Open(bytes, 1);
      ASSERT_TRUE(reader.ok());
      DensityModel restored(cfg, Rng(99));
      ASSERT_TRUE(restored.Restore(&reader.value()));
      model = std::move(restored);
      built = false;
    }
    const bool merge =
        built && model.sample().ChangesLoggedSince(built_version);
    overflows += built && !merge;
    age_only += merge && model.sample().version() == built_version;

    const KernelDensityEstimator& got = model.Estimator();
    auto want = KernelDensityEstimator::Create(
        model.sample().Snapshot(),
        ScottBandwidths(model.BandwidthSpreads(), cfg.sample_size));
    ASSERT_TRUE(want.ok());
    ASSERT_TRUE(SameEstimator(got, *want, &rng)) << "step " << step;
    if (merge) {
      ++merges;
      flips += got.primary_axis() != axis;
    }
    axis = got.primary_axis();
    built = true;
    built_version = model.sample().version();
  }
  EXPECT_GT(merges, 1000);
  EXPECT_GT(age_only, 100);
  EXPECT_GE(overflows, 10);
  if (d > 1) {
    EXPECT_GT(flips, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Dims, DensityModelMergeTest,
    ::testing::Values(DensityMergeCase{1, false}, DensityMergeCase{2, false},
                      DensityMergeCase{3, false}, DensityMergeCase{1, true},
                      DensityMergeCase{2, true}, DensityMergeCase{3, true}));

class QuietNode : public Node {
 public:
  void HandleMessage(const Message&) override {}
  void OnReading(const Point&) override {}
};

class MgddReplicaMergeTest : public ::testing::TestWithParam<size_t> {};

TEST_P(MgddReplicaMergeTest, EveryRebuildEqualsAFreshCreate) {
  const size_t d = GetParam();
  constexpr size_t kSlots = 24;
  MgddOptions opts;
  opts.model.dimensions = d;
  opts.model.sample_size = kSlots;
  Simulator sim;
  auto owned = std::make_unique<MgddLeafNode>(opts, Rng(71), nullptr);
  MgddLeafNode* leaf = owned.get();
  const NodeId leaf_id = sim.AddNode(std::move(owned));
  const NodeId root = sim.AddNode(std::make_unique<QuietNode>());
  Rng rng(81 + d);
  double now = 0.0;

  // What the replica must hold: the latest value per slot, none until a
  // slot's first update.
  std::vector<std::optional<Point>> slots(kSlots);
  std::vector<double> stddevs(d);
  const auto push = [&](bool resync) {
    GlobalModelUpdatePayload update;
    for (double& s : stddevs) s = rng.UniformDouble(0.01, 0.3);
    update.stddevs = stddevs;
    // A resync names every slot; a plain update one to three, some of them
    // out of range (ignored by the leaf).
    const size_t count = resync ? kSlots : 1 + rng.UniformUint64(3);
    for (size_t n = 0; n < count; ++n) {
      const uint32_t slot = static_cast<uint32_t>(
          resync ? n : rng.UniformUint64(kSlots + 2));
      Point value(d);
      for (double& x : value) x = TiedOrGaussian(&rng, 0.2);
      if (slot < kSlots) slots[slot] = value;
      update.updates.push_back(GlobalSlotUpdate{slot, std::move(value)});
    }
    sim.node(root).Send(
        leaf_id,
        std::make_shared<const GlobalModelUpdatePayload>(std::move(update)));
    sim.RunUntil(now += 1.0);
  };

  obs::Counter* rebuilds =
      obs::MetricsRegistry::Global().GetCounter("core.mgdd.replica_rebuilds");
  const uint64_t rebuilds_before = rebuilds->value();
  uint64_t queries = 0;
  std::vector<uint8_t> checkpoint;
  std::vector<std::optional<Point>> checkpoint_slots;
  std::vector<double> checkpoint_stddevs;
  for (int step = 0; step < 600; ++step) {
    push(/*resync=*/step % 50 == 25);
    // Several updates between rebuilds; now and then more slots than the
    // change record holds.
    const int more = rng.Bernoulli(0.2) ? 1 + static_cast<int>(
                                              rng.UniformUint64(20))
                                        : 0;
    for (int i = 0; i < more; ++i) push(/*resync=*/false);
    if (step == 280) {
      checkpoint = leaf->SaveState();
      checkpoint_slots = slots;
      checkpoint_stddevs = stddevs;
    }
    if (step == 300) {  // an amnesia restart restoring its checkpoint
      leaf->ResetVolatileState();
      ASSERT_TRUE(leaf->RestoreState(checkpoint));
      slots = checkpoint_slots;
      stddevs = checkpoint_stddevs;
    }
    std::vector<Point> valid;
    for (const auto& slot : slots) {
      if (slot.has_value()) valid.push_back(*slot);
    }
    if (valid.empty()) continue;
    const KernelDensityEstimator& got = leaf->GlobalEstimator();
    ++queries;
    auto want = KernelDensityEstimator::Create(
        valid, ScottBandwidths(stddevs, valid.size()));
    ASSERT_TRUE(want.ok());
    ASSERT_TRUE(SameEstimator(got, *want, &rng)) << "step " << step;
  }
  // Every query followed an update, so every query rebuilt.
  EXPECT_EQ(rebuilds->value() - rebuilds_before, queries);
}

INSTANTIATE_TEST_SUITE_P(Dims, MgddReplicaMergeTest,
                         ::testing::Values(1, 2, 3));

}  // namespace
}  // namespace sensord
