#include "stats/kde.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/snapshot.h"
#include "obs/metrics.h"
#include "stats/bandwidth.h"

#include "util/check.h"

namespace sensord {
namespace {

// Per-query cost telemetry: the paper's O(d|R|) box-query bound — and the
// O(log|R| + |R'|) pruned paths — made observable as the number of kernel
// terms actually evaluated per query. terms_per_query records, for every
// box, the candidate count |R'|. cell_grid_builds counts memoised
// CellMassGrid builds (not the per-evaluation CellMassBlock fills), so
// builds per MDEF evaluation can be read off a metrics dump.
struct KdeMetrics {
  obs::Counter* box_queries;
  obs::Histogram* terms_per_query;
  obs::Counter* cell_grid_builds;
};

const KdeMetrics& Metrics() {
  auto& registry = obs::MetricsRegistry::Global();
  static const KdeMetrics m{
      registry.GetCounter("stats.kde.box_queries"),
      registry.GetHistogram("stats.kde.terms_per_query",
                            obs::SizeBoundaries()),
      registry.GetCounter("stats.kde.cell_grid_builds")};
  return m;
}

// The canonical order on rows: primary-axis coordinate ascending, then all
// coordinates lexicographically, then -0.0 before +0.0. Rows tied under it
// are bit-identical (coordinates are finite), so every sorted arrangement
// of a multiset of rows is the same buffer — which is why merging sorted
// parts equals sorting the whole, bit for bit.
bool RowLess(const double* a, const double* b, size_t axis, size_t d) {
  if (a[axis] != b[axis]) return a[axis] < b[axis];
  for (size_t i = 0; i < d; ++i) {
    if (a[i] != b[i]) return a[i] < b[i];
  }
  for (size_t i = 0; i < d; ++i) {
    if (std::signbit(a[i]) != std::signbit(b[i])) return std::signbit(a[i]);
  }
  return false;
}

// Sorts `rows` into canonical order under `axis`: std::sort over the
// coordinate array in 1-d, the allocation-free row heapsort otherwise.
void SortCanonical(FlatPoints* rows, size_t axis) {
  const size_t d = rows->dimensions();
  if (d == 1) {
    std::vector<double>& coords = *rows->mutable_data();
    std::sort(coords.begin(), coords.end(),
              [](double a, double b) { return RowLess(&a, &b, 0, 1); });
    return;
  }
  const FlatPoints& s = *rows;
  rows->SortRows([&s, axis, d](size_t a, size_t b) {
    return RowLess(s.Row(a), s.Row(b), axis, d);
  });
}

}  // namespace

StatusOr<KernelDensityEstimator> KernelDensityEstimator::Create(
    FlatPoints sample, std::vector<double> bandwidths) {
  FlatPoints none(sample.dimensions());
  return Build(FlatPoints(sample.dimensions()), 0, &none, &sample,
               std::move(bandwidths));
}

StatusOr<KernelDensityEstimator> KernelDensityEstimator::Merge(
    FlatPoints* removed, FlatPoints* added,
    std::vector<double> bandwidths) && {
  return Build(std::move(sample_), primary_axis_, removed, added,
               std::move(bandwidths));
}

StatusOr<KernelDensityEstimator> KernelDensityEstimator::Build(
    FlatPoints base, size_t base_axis, FlatPoints* removed,
    FlatPoints* added, std::vector<double> bandwidths) {
  if (removed->size() > base.size()) {
    return Status::InvalidArgument("removed rows are not in the sample");
  }
  if (base.size() - removed->size() + added->size() == 0) {
    return Status::InvalidArgument("KDE requires a non-empty sample");
  }
  if (bandwidths.empty()) {
    return Status::InvalidArgument("KDE requires at least one bandwidth");
  }
  const FlatPoints* const parts[] = {&base, removed, added};
  for (const FlatPoints* rows : parts) {
    if (!rows->empty() && rows->dimensions() != bandwidths.size()) {
      return Status::InvalidArgument(
          "sample point dimensionality does not match bandwidth count");
    }
  }
  for (double b : bandwidths) {
    if (!(b > 0.0)) {
      return Status::InvalidArgument("bandwidths must be positive");
    }
  }
  KernelDensityEstimator kde(std::move(base), std::move(bandwidths));
  const Status status = kde.Canonicalize(base_axis, removed, added);
  if (!status.ok()) return status;
  return kde;
}

StatusOr<KernelDensityEstimator> KernelDensityEstimator::Create(
    const std::vector<Point>& sample, std::vector<double> bandwidths) {
  for (const Point& p : sample) {
    if (p.size() != bandwidths.size()) {
      return Status::InvalidArgument(
          "sample point dimensionality does not match bandwidth count");
    }
  }
  return Create(FlatPoints::FromPoints(sample), std::move(bandwidths));
}

StatusOr<KernelDensityEstimator>
KernelDensityEstimator::CreateWithScottBandwidths(
    FlatPoints sample, const std::vector<double>& stddevs) {
  if (sample.empty()) {
    return Status::InvalidArgument("KDE requires a non-empty sample");
  }
  const size_t n = sample.size();
  return Create(std::move(sample), ScottBandwidths(stddevs, n));
}

StatusOr<KernelDensityEstimator>
KernelDensityEstimator::CreateWithScottBandwidths(
    const std::vector<Point>& sample, const std::vector<double>& stddevs) {
  if (sample.empty()) {
    return Status::InvalidArgument("KDE requires a non-empty sample");
  }
  return Create(sample, ScottBandwidths(stddevs, sample.size()));
}

KernelDensityEstimator::KernelDensityEstimator(FlatPoints sample,
                                               std::vector<double> bandwidths)
    : sample_(std::move(sample)), sample_size_(0) {
  kernels_.reserve(bandwidths.size());
  for (double b : bandwidths) kernels_.emplace_back(b);
}

Status KernelDensityEstimator::Canonicalize(size_t base_axis,
                                            FlatPoints* removed,
                                            FlatPoints* added) {
  const size_t d = kernels_.size();
  const auto missing = [] {
    return Status::InvalidArgument("removed rows are not in the sample");
  };
  // The axis sample_ is in canonical order under; kUnsorted for rows in no
  // particular order.
  constexpr size_t kUnsorted = ~size_t{0};
  size_t sorted_axis = base_axis;
  if (sample_.empty()) {
    // Nothing to merge into: the added rows are the sample, sorted below
    // under the axis their spread picks.
    std::swap(sample_, *added);
    sorted_axis = kUnsorted;
  } else {
    SortCanonical(removed, base_axis);
    SortCanonical(added, base_axis);
    std::vector<double>& buf = *sample_.mutable_data();
    const size_t nb = sample_.size(), nr = removed->size(), na = added->size();
    // Forward pass: drop the rows matching `removed`, closing the gaps.
    // Both are in canonical order, so removed row r can only match the
    // first base row that does not precede it.
    size_t kept = 0, r = 0;
    for (size_t i = 0; i < nb; ++i) {
      const double* row = buf.data() + i * d;
      if (r < nr && !RowLess(row, removed->Row(r), base_axis, d)) {
        if (RowLess(removed->Row(r), row, base_axis, d)) return missing();
        ++r;
        continue;
      }
      if (kept != i) std::copy(row, row + d, buf.data() + kept * d);
      ++kept;
    }
    if (r < nr) return missing();
    // Backward pass: splice the added rows in from the end. The write row
    // stays ahead of the kept rows still to be moved, so nothing is
    // overwritten before it is read.
    buf.resize((kept + na) * d);
    size_t i = kept, a = na, w = kept + na;
    while (a > 0) {
      --w;
      const double* in = added->Row(a - 1);
      const double* last = i > 0 ? buf.data() + (i - 1) * d : nullptr;
      const bool move_last = last != nullptr && RowLess(in, last, base_axis, d);
      const double* src = move_last ? last : in;
      std::copy(src, src + d, buf.data() + w * d);
      if (move_last) {
        --i;
      } else {
        --a;
      }
    }
  }
  sample_size_ = sample_.size();

  // Per-axis [lo, hi] of the new sample for the primary-axis choice, and
  // the finiteness check every sample row passes.
  std::vector<double> extent(2 * d);
  for (size_t i = 0; i < d; ++i) {
    extent[2 * i] = std::numeric_limits<double>::infinity();
    extent[2 * i + 1] = -std::numeric_limits<double>::infinity();
  }
  for (const double* v = sample_.data().data(),
                   * end = v + sample_.data().size();
       v < end; v += d) {
    for (size_t i = 0; i < d; ++i) {
      if (!std::isfinite(v[i])) {
        return Status::InvalidArgument("sample coordinates must be finite");
      }
      extent[2 * i] = std::min(extent[2 * i], v[i]);
      extent[2 * i + 1] = std::max(extent[2 * i + 1], v[i]);
    }
  }
  // Primary axis: the axis where a sorted-order window [lo - B, hi + B]
  // prunes best, i.e. with the largest spread/bandwidth ratio. Ties go to
  // the smallest axis index (strict > below), so the choice — and with it
  // the canonical order and every downstream artifact — is deterministic.
  double best_ratio = -1.0;
  for (size_t i = 0; i < d; ++i) {
    const double ratio =
        (extent[2 * i + 1] - extent[2 * i]) / kernels_[i].bandwidth();
    if (ratio > best_ratio) {
      best_ratio = ratio;
      primary_axis_ = i;
    }
  }
  if (primary_axis_ != sorted_axis) SortCanonical(&sample_, primary_axis_);
  return Status::Ok();
}

std::vector<double> KernelDensityEstimator::bandwidths() const {
  std::vector<double> out;
  out.reserve(kernels_.size());
  for (const auto& k : kernels_) out.push_back(k.bandwidth());
  return out;
}

size_t KernelDensityEstimator::LowerBoundRow(double v) const {
  size_t lo = 0, hi = sample_size_;
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (sample_.At(mid, primary_axis_) < v) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

size_t KernelDensityEstimator::UpperBoundRow(double v) const {
  size_t lo = 0, hi = sample_size_;
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (sample_.At(mid, primary_axis_) <= v) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

std::pair<size_t, size_t> KernelDensityEstimator::CandidateRows(
    double axis_lo, double axis_hi) const {
  const double b = kernels_[primary_axis_].bandwidth();
  const size_t begin = LowerBoundRow(axis_lo - b);
  const size_t end = UpperBoundRow(axis_hi + b);
  return {begin, std::max(begin, end)};
}

double KernelDensityEstimator::Interval1dProbability(double lo,
                                                     double hi) const {
  const EpanechnikovKernel& kernel = kernels_[0];
  const double b = kernel.bandwidth();
  const std::vector<double>& sorted = sample_.data();
  // Kernels centred in [lo - B, hi + B] may contribute; kernels centred in
  // [lo + B, hi - B] have their full support inside the interval and
  // contribute exactly 1 each.
  const auto touch_begin =
      std::lower_bound(sorted.begin(), sorted.end(), lo - b);
  const auto touch_end =
      std::upper_bound(sorted.begin(), sorted.end(), hi + b);
  Metrics().terms_per_query->Record(
      static_cast<double>(touch_end - touch_begin));

  double mass = 0.0;
  auto partial_until = touch_end;
  auto partial_resume = touch_end;
  if (lo + b <= hi - b) {
    const auto full_begin =
        std::lower_bound(touch_begin, touch_end, lo + b);
    const auto full_end = std::upper_bound(full_begin, touch_end, hi - b);
    mass += static_cast<double>(full_end - full_begin);
    partial_until = full_begin;
    partial_resume = full_end;
  }
  for (auto it = touch_begin; it != partial_until; ++it) {
    mass += kernel.MassInInterval(*it, lo, hi);
  }
  for (auto it = partial_resume; it != touch_end; ++it) {
    mass += kernel.MassInInterval(*it, lo, hi);
  }
  return mass / static_cast<double>(sample_size_);
}

double KernelDensityEstimator::BoxProbability(const Point& lo,
                                              const Point& hi) const {
  SENSORD_DCHECK_EQ(lo.size(), dimensions());
  SENSORD_DCHECK_EQ(hi.size(), dimensions());
  Metrics().box_queries->Increment();
  for (size_t i = 0; i < lo.size(); ++i) {
    if (lo[i] > hi[i]) return 0.0;  // inverted box: empty
  }
  if (dimensions() == 1) return Interval1dProbability(lo[0], hi[0]);

  // d > 1: only the canonical rows whose primary-axis coordinate falls in
  // [lo_a - B_a, hi_a + B_a] can have nonzero mass in the box; every other
  // row's primary-axis factor is exactly 0, so restricting the sweep keeps
  // the sum bit-identical to the full canonical-order sweep.
  const size_t d = dimensions();
  const auto [begin, end] =
      CandidateRows(lo[primary_axis_], hi[primary_axis_]);
  Metrics().terms_per_query->Record(static_cast<double>(end - begin));
  double total = 0.0;
  for (size_t row = begin; row < end; ++row) {
    const double* t = sample_.Row(row);
    double contrib = 1.0;
    for (size_t i = 0; i < d && contrib > 0.0; ++i) {
      contrib *= kernels_[i].MassInInterval(t[i], lo[i], hi[i]);
    }
    total += contrib;
  }
  return total / static_cast<double>(sample_size_);
}

double KernelDensityEstimator::Pdf(const Point& p) const {
  SENSORD_DCHECK_EQ(p.size(), dimensions());
  // Rows outside the primary-axis support window have a zero kernel factor
  // on that axis, so the candidate restriction is bit-identical to the full
  // canonical-order sweep (same argument as BoxProbability). In 1-d the
  // canonical order is the sorted order and the product is one exact
  // 1.0 * Value(...).
  const size_t d = dimensions();
  const auto [begin, end] = CandidateRows(p[primary_axis_], p[primary_axis_]);
  double total = 0.0;
  for (size_t row = begin; row < end; ++row) {
    const double* t = sample_.Row(row);
    double contrib = 1.0;
    for (size_t i = 0; i < d && contrib > 0.0; ++i) {
      contrib *= kernels_[i].Value(p[i] - t[i]);
    }
    total += contrib;
  }
  return total / static_cast<double>(sample_size_);
}

bool KernelDensityEstimator::HasCellGrid(double side) const {
  if (dimensions() < 2 || !(side > 0.0)) return false;
  const double n = std::ceil(1.0 / side);
  double total = 1.0;
  for (size_t i = 0; i < dimensions(); ++i) total *= n;
  return total <= static_cast<double>(kMaxGridCells);
}

const KernelDensityEstimator::CellGrid& KernelDensityEstimator::CellMassGrid(
    double side) const {
  if (!cell_grid_.mass.empty() && cell_grid_.side == side) return cell_grid_;
  SENSORD_CHECK(HasCellGrid(side));
  Metrics().cell_grid_builds->Increment();
  cell_grid_.side = side;
  cell_grid_.first.assign(dimensions(), 0);
  cell_grid_.count.assign(dimensions(),
                          static_cast<size_t>(std::ceil(1.0 / side)));
  FillCellMasses(&cell_grid_);
  return cell_grid_;
}

void KernelDensityEstimator::CellMassBlock(double side,
                                           const std::vector<size_t>& first,
                                           const std::vector<size_t>& count,
                                           CellGrid* out) const {
  const size_t d = dimensions();
  SENSORD_CHECK_GE(d, 2u);
  SENSORD_CHECK_GT(side, 0.0);
  SENSORD_CHECK_EQ(first.size(), d);
  SENSORD_CHECK_EQ(count.size(), d);
  for (size_t c : count) SENSORD_CHECK_GT(c, 0u);
  out->side = side;
  out->first = first;
  out->count = count;
  FillCellMasses(out);
}

void KernelDensityEstimator::FillCellMasses(CellGrid* grid) const {
  const size_t d = dimensions();
  const double side = grid->side;
  const std::vector<size_t>& first = grid->first;
  const std::vector<size_t>& count = grid->count;
  size_t total = 1;
  size_t widest = 0;
  for (size_t i = 0; i < d; ++i) {
    total *= count[i];
    widest = std::max(widest, count[i]);
  }
  grid->mass.assign(total, 0.0);

  // Scratch, sized once so the row loop allocates nothing: each dimension's
  // support range within the block, as [lo, lo + len) relative to first,
  // and its factors; and the products of dimensions 1..d-1 over their
  // ranges (last dimension fastest).
  std::vector<size_t> lo(d), len(d), odometer(d);
  std::vector<double> factors(d * widest);
  std::vector<double> suffix(total / count[0]), next(total / count[0]);

  const size_t axis = primary_axis_;
  const auto [row_begin, row_end] = CandidateRows(
      static_cast<double>(first[axis]) * side,
      static_cast<double>(first[axis] + count[axis] - 1) * side + side);
  for (size_t row = row_begin; row < row_end; ++row) {
    const double* t = sample_.Row(row);
    bool empty = false;
    for (size_t i = 0; i < d; ++i) {
      // One cell of slack either side of the support keeps the range
      // conservative under rounding; factors that come out 0.0 are trimmed.
      const double b = kernels_[i].bandwidth();
      const double from =
          std::max(static_cast<double>(first[i]),
                   std::floor((t[i] - b) / side) - 1.0);
      const double to =
          std::min(static_cast<double>(first[i] + count[i] - 1),
                   std::floor((t[i] + b) / side) + 1.0);
      if (!(from <= to)) {  // the support misses the block
        empty = true;
        break;
      }
      const size_t j = static_cast<size_t>(from);
      size_t end = static_cast<size_t>(to) + 1;
      double* f = &factors[i * widest];
      for (size_t k = j; k < end; ++k) {
        const double a = static_cast<double>(k) * side;
        f[k - j] = kernels_[i].MassInInterval(t[i], a, a + side);
      }
      size_t skip = 0;
      while (j + skip < end && f[skip] == 0.0) ++skip;
      while (end > j + skip && f[end - 1 - j] == 0.0) --end;
      if (skip > 0) std::copy(f + skip, f + (end - j), f);
      lo[i] = j + skip - first[i];
      len[i] = end - (j + skip);
      if (len[i] == 0) {
        empty = true;
        break;
      }
    }
    if (empty) continue;

    // The products of dimensions d-1 down to 1, associated in that order
    // (the order the MDEF sweep multiplied them in). Factors are finite and
    // non-negative, so multiplying on past a zero, where the sweep stopped
    // early, still yields exactly 0.0.
    size_t span = len[d - 1];
    std::copy_n(&factors[(d - 1) * widest], span, suffix.begin());
    for (size_t i = d - 1; i-- > 1;) {
      const double* f = &factors[i * widest];
      for (size_t k = 0; k < len[i]; ++k) {
        for (size_t s = 0; s < span; ++s) {
          next[k * span + s] = suffix[s] * f[k];
        }
      }
      span *= len[i];
      suffix.swap(next);
    }

    // Scatter suffix * factor_0 into the block, one contiguous run of the
    // last dimension at a time.
    const size_t run = len[d - 1];
    for (size_t k0 = 0; k0 < len[0]; ++k0) {
      const double f0 = factors[k0];
      std::fill(odometer.begin(), odometer.end(), 0);
      for (size_t s = 0; s < span; s += run) {
        size_t cell = lo[0] + k0;
        for (size_t i = 1; i < d; ++i) {
          cell = cell * count[i] + lo[i] + odometer[i];
        }
        double* out = &grid->mass[cell];
        for (size_t k = 0; k < run; ++k) out[k] += suffix[s + k] * f0;
        for (size_t i = d - 1; i-- > 1;) {
          if (++odometer[i] < len[i]) break;
          odometer[i] = 0;
        }
      }
    }
  }
}

void KernelDensityEstimator::Serialize(SnapshotWriter* writer) const {
  writer->PutDoubles(bandwidths());
  writer->PutU32(static_cast<uint32_t>(sample_size_));
  // Same bytes PutPoint() would emit per row, without materializing one.
  const uint32_t d = static_cast<uint32_t>(dimensions());
  for (size_t row = 0; row < sample_size_; ++row) {
    writer->PutU32(d);
    const double* t = sample_.Row(row);
    for (uint32_t i = 0; i < d; ++i) writer->PutDouble(t[i]);
  }
}

StatusOr<KernelDensityEstimator> KernelDensityEstimator::Deserialize(
    SnapshotReader* reader) {
  std::vector<double> bandwidths = reader->TakeDoubles();
  const uint32_t n = reader->TakeU32();
  FlatPoints sample(bandwidths.size());
  sample.Reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    const uint32_t point_dims = reader->TakeU32();
    if (!reader->ok()) break;
    if (point_dims != bandwidths.size()) {
      return Status::InvalidArgument(
          "sample point dimensionality does not match bandwidth count");
    }
    double* row = sample.AppendRow();
    for (uint32_t c = 0; c < point_dims; ++c) row[c] = reader->TakeDouble();
  }
  if (!reader->ok()) {
    return Status::InvalidArgument("KDE snapshot truncated");
  }
  return Create(std::move(sample), std::move(bandwidths));
}

size_t KernelDensityEstimator::MemoryBytes(size_t bytes_per_number) const {
  const size_t numbers = sample_size_ * dimensions() + dimensions();
  return numbers * bytes_per_number;
}

}  // namespace sensord
