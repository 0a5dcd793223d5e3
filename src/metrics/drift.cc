#include "metrics/drift.h"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "utils/check.h"

namespace imdiff {

QuantileSketch::QuantileSketch(double epsilon) : epsilon_(epsilon) {
  IMDIFF_CHECK_GT(epsilon, 0.0);
  IMDIFF_CHECK_LT(epsilon, 0.5);
}

void QuantileSketch::Add(double value) {
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  sum_ += value;

  // Insert before the first entry with a larger value, keeping entries_
  // sorted. New interior tuples get delta = floor(2 eps n) - 1 (the loosest
  // allowed uncertainty); boundary tuples are exact (delta = 0).
  const int64_t band = static_cast<int64_t>(2.0 * epsilon_ * count_);
  auto it = std::upper_bound(
      entries_.begin(), entries_.end(), value,
      [](double v, const Entry& e) { return v < e.value; });
  Entry entry;
  entry.value = value;
  entry.g = 1;
  entry.delta =
      (it == entries_.begin() || it == entries_.end()) ? 0 : std::max<int64_t>(band - 1, 0);
  entries_.insert(it, entry);
  ++count_;

  if (++since_compress_ >= static_cast<int64_t>(1.0 / (2.0 * epsilon_))) {
    Compress();
    since_compress_ = 0;
  }
}

void QuantileSketch::Compress() {
  if (entries_.size() < 3) return;
  const int64_t band = static_cast<int64_t>(2.0 * epsilon_ * count_);
  // Merge neighbors back-to-front, in place: the kept entries collect at
  // [kept, size) in order, and kept > idx throughout, so a write never
  // lands on an entry still to be read. The last entry is never absorbed so
  // max() queries stay exact.
  size_t kept = entries_.size() - 1;
  for (size_t idx = entries_.size() - 1; idx-- > 0;) {
    Entry& next = entries_[kept];
    const Entry cur = entries_[idx];
    if (idx > 0 && cur.g + next.g + next.delta <= band) {
      next.g += cur.g;  // absorb cur into its successor
    } else {
      entries_[--kept] = cur;
    }
  }
  entries_.erase(entries_.begin(),
                 entries_.begin() + static_cast<std::ptrdiff_t>(kept));
}

double QuantileSketch::Quantile(double q) const {
  IMDIFF_CHECK_GT(count_, 0) << "quantile of an empty sketch";
  q = std::min(1.0, std::max(0.0, q));
  const double target = q * static_cast<double>(count_);
  // Pick the entry whose rank interval midpoint is closest to the target;
  // the g + delta <= 2 eps n invariant bounds the error to eps n.
  double best_value = entries_.front().value;
  double best_error = -1.0;
  int64_t rmin = 0;
  for (const Entry& e : entries_) {
    rmin += e.g;
    const double mid = static_cast<double>(rmin) + static_cast<double>(e.delta) / 2.0;
    const double error = std::abs(mid - target);
    if (best_error < 0.0 || error < best_error) {
      best_error = error;
      best_value = e.value;
    }
  }
  return best_value;
}

double QuantileSketch::Rank(double value) const {
  if (count_ == 0) return 0.0;
  if (value < min_) return 0.0;
  if (value >= max_) return static_cast<double>(count_);
  // Midpoint rank of the largest entry with value <= `value`.
  int64_t rmin = 0;
  double rank = 0.0;
  for (const Entry& e : entries_) {
    if (e.value > value) break;
    rmin += e.g;
    rank = static_cast<double>(rmin) + static_cast<double>(e.delta) / 2.0;
  }
  return rank;
}

double QuantileSketch::Cdf(double value) const {
  return count_ == 0 ? 0.0 : Rank(value) / static_cast<double>(count_);
}

void QuantileSketch::Reset() {
  count_ = 0;
  since_compress_ = 0;
  min_ = max_ = sum_ = 0.0;
  entries_.clear();
}

double Psi(const QuantileSketch& expected, const QuantileSketch& actual,
           int bins) {
  IMDIFF_CHECK_GT(bins, 1);
  if (expected.count() == 0 || actual.count() == 0) return 0.0;
  constexpr double kFloor = 1e-6;
  double psi = 0.0;
  double prev_edge_cdf = 0.0;
  for (int i = 1; i <= bins; ++i) {
    // Equal-mass bins of the expected distribution; the i-th bin's expected
    // fraction is exactly 1/bins by construction.
    const double edge_cdf =
        i == bins ? 1.0
                  : actual.Cdf(expected.Quantile(static_cast<double>(i) / bins));
    const double e = 1.0 / static_cast<double>(bins);
    const double a =
        std::max(kFloor, std::max(0.0, edge_cdf - prev_edge_cdf));
    prev_edge_cdf = std::max(prev_edge_cdf, edge_cdf);
    psi += (a - e) * std::log(a / e);
  }
  return psi;
}

double KsDistance(const QuantileSketch& a, const QuantileSketch& b,
                  int resolution) {
  IMDIFF_CHECK_GT(resolution, 1);
  if (a.count() == 0 || b.count() == 0) return 0.0;
  double ks = 0.0;
  for (int i = 0; i <= resolution; ++i) {
    const double q = static_cast<double>(i) / resolution;
    const double va = a.Quantile(q);
    const double vb = b.Quantile(q);
    ks = std::max(ks, std::abs(a.Cdf(va) - b.Cdf(va)));
    ks = std::max(ks, std::abs(a.Cdf(vb) - b.Cdf(vb)));
  }
  return ks;
}

void AlertAgreement::Record(bool live_alert, bool shadow_alert) {
  if (live_alert && shadow_alert) {
    ++both;
  } else if (live_alert) {
    ++live_only;
  } else if (shadow_alert) {
    ++shadow_only;
  } else {
    ++neither;
  }
}

double AlertAgreement::Rate() const {
  const int64_t total = pairs();
  if (total == 0) return 1.0;
  return static_cast<double>(both + neither) / static_cast<double>(total);
}

}  // namespace imdiff
