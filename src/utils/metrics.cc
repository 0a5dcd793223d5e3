#include "utils/metrics.h"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <vector>

namespace imdiff {
namespace {

std::atomic<bool> g_metrics_enabled{true};

// Smallest resolvable latency: 1µs. Each bucket doubles the bound.
constexpr double kFirstBound = 1e-6;

int BucketIndex(double seconds) {
  if (!(seconds > kFirstBound)) return 0;
  const int b =
      static_cast<int>(std::ceil(std::log2(seconds / kFirstBound)));
  return b >= Histogram::kNumBuckets ? Histogram::kNumBuckets - 1 : b;
}

// fetch_add for atomic<double> via CAS (C++20 float fetch_add is not
// universally available).
void AtomicAdd(std::atomic<double>& target, double delta) {
  double expected = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(expected, expected + delta,
                                       std::memory_order_relaxed)) {
  }
}

void AtomicMin(std::atomic<double>& target, double value) {
  double expected = target.load(std::memory_order_relaxed);
  while (value < expected &&
         !target.compare_exchange_weak(expected, value,
                                       std::memory_order_relaxed)) {
  }
}

void AtomicMax(std::atomic<double>& target, double value) {
  double expected = target.load(std::memory_order_relaxed);
  while (value > expected &&
         !target.compare_exchange_weak(expected, value,
                                       std::memory_order_relaxed)) {
  }
}

// Shortest %g form that round-trips typical latencies; never emits the
// locale-dependent decimal comma.
std::string FormatDouble(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

std::string EscapeJson(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        out += c;
    }
  }
  return out;
}

}  // namespace

double Histogram::BucketBound(int b) {
  if (b >= kNumBuckets - 1) return std::numeric_limits<double>::infinity();
  return kFirstBound * std::pow(2.0, b);
}

void Histogram::Record(double seconds) {
  buckets_[BucketIndex(seconds)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  AtomicAdd(sum_, seconds);
  AtomicMin(min_, seconds);
  AtomicMax(max_, seconds);
}

double Histogram::min() const {
  return count() > 0 ? min_.load(std::memory_order_relaxed) : 0.0;
}

double Histogram::max() const {
  return count() > 0 ? max_.load(std::memory_order_relaxed) : 0.0;
}

double Histogram::mean() const {
  const int64_t n = count();
  return n > 0 ? sum() / static_cast<double>(n) : 0.0;
}

double Histogram::Percentile(double q) const {
  const int64_t n = count();
  if (n <= 0) return 0.0;
  // q=0 means "the smallest observation" exactly, not the (coarser) bound of
  // whichever bucket that observation landed in.
  if (q <= 0.0) return min();
  if (q > 1.0) q = 1.0;
  // Rank is at least 1 so an empty bucket 0 can never satisfy the scan.
  const int64_t rank = std::max<int64_t>(
      1, static_cast<int64_t>(std::ceil(q * static_cast<double>(n))));
  int64_t cumulative = 0;
  for (int b = 0; b < kNumBuckets; ++b) {
    cumulative += bucket_count(b);
    if (cumulative >= rank) {
      // Cap the unbounded tail bucket (and coarse upper buckets) at the
      // observed maximum, and clamp from below by the observed minimum so a
      // coarse-bucket estimate never undercuts the smallest recorded sample.
      return std::max(min(), std::min(BucketBound(b), max()));
    }
  }
  return max();
}

void Histogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return slot.get();
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->Reset();
  for (auto& [name, g] : gauges_) g->Reset();
  for (auto& [name, h] : histograms_) h->Reset();
}

bool MetricsEnabled() {
  return g_metrics_enabled.load(std::memory_order_relaxed);
}

void SetMetricsEnabled(bool enabled) {
  g_metrics_enabled.store(enabled, std::memory_order_relaxed);
}

std::string MetricsToJson() {
  MetricsRegistry& registry = MetricsRegistry::Global();
  std::lock_guard<std::mutex> lock(registry.mu_);
  std::ostringstream out;
  out << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, c] : registry.counters_) {
    out << (first ? "\n" : ",\n") << "    \"" << EscapeJson(name)
        << "\": " << c->value();
    first = false;
  }
  out << (first ? "" : "\n  ") << "},\n  \"gauges\": {";
  first = true;
  for (const auto& [name, g] : registry.gauges_) {
    out << (first ? "\n" : ",\n") << "    \"" << EscapeJson(name)
        << "\": " << FormatDouble(g->value());
    first = false;
  }
  out << (first ? "" : "\n  ") << "},\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : registry.histograms_) {
    out << (first ? "\n" : ",\n") << "    \"" << EscapeJson(name) << "\": {"
        << "\"count\": " << h->count() << ", \"sum\": "
        << FormatDouble(h->sum()) << ", \"min\": " << FormatDouble(h->min())
        << ", \"max\": " << FormatDouble(h->max())
        << ", \"mean\": " << FormatDouble(h->mean())
        << ", \"p50\": " << FormatDouble(h->Percentile(0.5))
        << ", \"p90\": " << FormatDouble(h->Percentile(0.9))
        << ", \"p99\": " << FormatDouble(h->Percentile(0.99))
        << ", \"buckets\": [";
    bool first_bucket = true;
    for (int b = 0; b < Histogram::kNumBuckets; ++b) {
      const int64_t n = h->bucket_count(b);
      if (n == 0) continue;
      const double bound = Histogram::BucketBound(b);
      out << (first_bucket ? "" : ", ") << "{\"le\": "
          << (std::isfinite(bound) ? FormatDouble(bound) : "\"inf\"")
          << ", \"count\": " << n << "}";
      first_bucket = false;
    }
    out << "]}";
    first = false;
  }
  out << (first ? "" : "\n  ") << "}\n}\n";
  return out.str();
}

bool WriteMetricsJson(const std::string& path) {
  std::ofstream out(path);
  if (!out.good()) return false;
  out << MetricsToJson();
  out.flush();
  return out.good();
}

bool ProbeWritable(const std::string& path) {
  const bool existed = [&] {
    std::ifstream probe(path);
    return probe.good();
  }();
  {
    std::ofstream out(path, std::ios::app);
    if (!out.good()) return false;
  }
  if (!existed) std::remove(path.c_str());
  return true;
}

int64_t ProcessPeakRssKb() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return -1;
#if defined(__APPLE__)
  return static_cast<int64_t>(usage.ru_maxrss) / 1024;  // bytes on macOS
#else
  return static_cast<int64_t>(usage.ru_maxrss);  // kilobytes on Linux
#endif
#else
  return -1;
#endif
}

}  // namespace imdiff
