#include "serve/replay.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>
#include <utility>

#include "metrics/add.h"
#include "metrics/classification.h"
#include "metrics/range_auc.h"
#include "serve/batcher.h"
#include "utils/check.h"
#include "utils/metrics.h"
#include "utils/rng.h"
#include "utils/stopwatch.h"

namespace imdiff {
namespace serve {

std::vector<float> ReplaySerial(const ModelEntry& model,
                                const OnlineDetector::Options& online_options,
                                uint64_t seed_base,
                                const TenantStream& stream,
                                int degrade_level) {
  IMDIFF_CHECK(model.detector != nullptr && model.detector->fitted());
  OnlineDetector online(nullptr, online_options);
  online.SetNormalization(model.stats);
  const uint64_t session_seed = TenantSeed(seed_base, stream.tenant);
  const int64_t length = stream.samples.dim(0);
  const int64_t k = stream.samples.dim(1);
  if (!stream.observed.empty()) {
    IMDIFF_CHECK_EQ(static_cast<int64_t>(stream.observed.size()), length * k);
  }
  std::vector<float> scores(static_cast<size_t>(length), 0.0f);
  std::vector<float> sample(static_cast<size_t>(k));
  std::vector<uint8_t> observed;
  for (int64_t l = 0; l < length; ++l) {
    std::copy_n(stream.samples.data() + l * k, k, sample.begin());
    if (!stream.observed.empty()) {
      observed.assign(stream.observed.begin() + l * k,
                      stream.observed.begin() + (l + 1) * k);
    }
    OnlineDetector::ReadyBlock ready;
    if (!online.AppendBuffered(sample, observed, &ready)) continue;
    const DetectionResult result =
        ScoreBlock(*model.detector, session_seed, ready, degrade_level);
    const OnlineDetector::Alert alert =
        OnlineDetector::MakeAlert(ready, result);
    for (size_t i = 0; i < alert.scores.size(); ++i) {
      const int64_t pos = alert.start + static_cast<int64_t>(i);
      if (pos < length) scores[static_cast<size_t>(pos)] = alert.scores[i];
    }
  }
  return scores;
}

ReplayStats ReplayThroughServer(std::shared_ptr<const ModelEntry> model,
                                const std::vector<TenantStream>& streams,
                                const StreamServer::Options& options,
                                bool paced) {
  IMDIFF_CHECK(!streams.empty());
  const int64_t k = streams.front().samples.dim(1);
  int64_t max_length = 0;
  int64_t total_samples = 0;
  ReplayStats stats;
  for (const TenantStream& stream : streams) {
    IMDIFF_CHECK_EQ(stream.samples.dim(1), k);
    max_length = std::max(max_length, stream.samples.dim(0));
    total_samples += stream.samples.dim(0);
    const auto length = static_cast<size_t>(stream.samples.dim(0));
    stats.scores[stream.tenant] = std::vector<float>(length, 0.0f);
    stats.levels[stream.tenant] = std::vector<int>(length, 0);
  }

  std::mutex mu;
  auto on_alert = [&](const StreamServer::ScoredBlock& scored) {
    if (scored.shadow) return;  // drift statistics, not alerts
    std::lock_guard<std::mutex> lock(mu);
    ++stats.alerts;
    if (scored.degrade_level > 0) ++stats.degraded_alerts;
    auto it = stats.scores.find(scored.tenant);
    IMDIFF_CHECK(it != stats.scores.end());
    std::vector<float>& out = it->second;
    std::vector<int>& levels = stats.levels[scored.tenant];
    for (size_t i = 0; i < scored.alert.scores.size(); ++i) {
      const int64_t pos =
          scored.alert.start + static_cast<int64_t>(i);
      if (pos < static_cast<int64_t>(out.size())) {
        out[static_cast<size_t>(pos)] = scored.alert.scores[i];
        levels[static_cast<size_t>(pos)] = scored.degrade_level;
      }
    }
  };

  StreamServer server(std::move(model), options, on_alert);
  Stopwatch timer;
  std::vector<float> sample(static_cast<size_t>(k));
  // Round-robin interleaving: sample l of every tenant before sample l + 1
  // of any — the arrival pattern that exercises cross-session batching.
  std::vector<uint8_t> observed;
  for (int64_t l = 0; l < max_length; ++l) {
    for (const TenantStream& stream : streams) {
      if (l >= stream.samples.dim(0)) continue;
      std::copy_n(stream.samples.data() + l * k, k, sample.begin());
      observed.clear();
      if (!stream.observed.empty()) {
        observed.assign(stream.observed.begin() + l * k,
                        stream.observed.begin() + (l + 1) * k);
      }
      ++stats.submitted;
      while (!server.Submit(stream.tenant, sample, observed)) {
        // The replay source is lossless: back off and retry so the score
        // streams stay complete (a live ingest would shed the sample).
        ++stats.rejected;
        std::this_thread::yield();
      }
    }
    // Block cadence: every tenant's block fills in the same round, the
    // batcher scores them in one cross-tenant pass, and the scores are
    // cached before the next overlapping block is planned.
    if (paced && (l + 1) % options.session.online.block == 0) {
      server.Drain();
    }
  }
  server.Drain();
  stats.seconds = timer.ElapsedSeconds();
  stats.points_per_second =
      stats.seconds > 0.0 ? static_cast<double>(total_samples) / stats.seconds
                          : 0.0;
  server.Shutdown();
  return stats;
}

namespace {

// Nearest-rank percentile of an ascending-sorted vector; 0 when empty.
double SortedPercentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto n = static_cast<double>(sorted.size());
  auto idx = static_cast<size_t>(q * (n - 1.0) + 0.5);
  if (idx >= sorted.size()) idx = sorted.size() - 1;
  return sorted[idx];
}

LoadStats::Spread SpreadOf(std::vector<double> values) {
  LoadStats::Spread spread;
  if (values.empty()) return spread;
  std::sort(values.begin(), values.end());
  spread.p50 = SortedPercentile(values, 0.5);
  spread.p90 = SortedPercentile(values, 0.9);
  spread.p99 = SortedPercentile(values, 0.99);
  spread.max = values.back();
  return spread;
}

}  // namespace

std::string LoadTenantName(int64_t tenant) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "tenant-%06lld",
                static_cast<long long>(tenant));
  return std::string(buffer);
}

LoadPlan BuildLoadPlan(const LoadConfig& config, int64_t num_features) {
  IMDIFF_CHECK_GT(config.num_tenants, 0);
  IMDIFF_CHECK_GT(config.total_samples, 0);
  IMDIFF_CHECK_GT(config.zipf_exponent, 0.0);
  IMDIFF_CHECK_GT(config.burst_min, 0);
  LoadPlan plan;

  // Zipf CDF over tenant ranks: rank r with weight 1 / (r + 1)^s. Tenant 0
  // is the head; the tail ranks share the remaining mass.
  std::vector<double> cdf(static_cast<size_t>(config.num_tenants));
  double mass = 0.0;
  for (int64_t r = 0; r < config.num_tenants; ++r) {
    mass += std::pow(static_cast<double>(r + 1), -config.zipf_exponent);
    cdf[static_cast<size_t>(r)] = mass;
  }
  for (double& c : cdf) c /= mass;

  // Deterministic schedule: (tenant, burst length) pairs drawn until the
  // sample budget is spent. The schedule — not wall-clock arrival — defines
  // the run, so two same-seed runs replay identical traffic.
  Rng sched_rng(MixSeed(config.seed, 0x7a697066ull));  // "zipf"
  std::vector<int64_t> per_tenant(static_cast<size_t>(config.num_tenants), 0);
  int64_t remaining = config.total_samples;
  while (remaining > 0) {
    const double u = sched_rng.Uniform(0.0, 1.0);
    const int64_t tenant = static_cast<int64_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    const int64_t length =
        SampleHeavyTail(sched_rng, std::min(config.burst_min, remaining),
                        config.burst_tail, remaining);
    plan.schedule.push_back({tenant, length});
    per_tenant[static_cast<size_t>(tenant)] += length;
    remaining -= length;
  }

  // Generate each active tenant's ugly stream at exactly its scheduled
  // length. Tenant seeds derive from (config seed, tenant rank), so the
  // stream content is independent of the schedule draw order.
  plan.any_missing =
      config.stream.missing_rate > 0.0 || config.stream.gap_rate > 0.0;
  for (int64_t t = 0; t < config.num_tenants; ++t) {
    const int64_t length = per_tenant[static_cast<size_t>(t)];
    if (length == 0) continue;
    UglyStreamConfig sc = config.stream;
    sc.length = length;
    sc.dims = num_features;
    plan.streams.emplace(
        t, MakeUglyStream(MixSeed(config.seed, static_cast<uint64_t>(t) + 1),
                          sc));
    ++plan.tenants;
  }
  return plan;
}

LoadStats ReplayLoad(std::shared_ptr<const ModelEntry> model,
                     const LoadConfig& config,
                     const StreamServer::Options& options) {
  IMDIFF_CHECK(model != nullptr && model->detector != nullptr);
  const int64_t k = model->detector->config().model.num_features;
  LoadPlan plan = BuildLoadPlan(config, k);
  const std::vector<LoadPlan::Burst>& schedule = plan.schedule;
  const std::map<int64_t, UglyStream>& streams = plan.streams;
  const bool any_missing = plan.any_missing;
  LoadStats stats;
  stats.tenants = plan.tenants;

  auto tenant_name = [](int64_t t) { return LoadTenantName(t); };

  // Counter baselines: report this run's churn, not the process's.
  MetricsRegistry& registry = MetricsRegistry::Global();
  Counter* const hits = registry.GetCounter("serve.cache_hits");
  Counter* const misses = registry.GetCounter("serve.cache_misses");
  Counter* const evicted = registry.GetCounter("serve.sessions_evicted");
  Counter* const rehydrated = registry.GetCounter("serve.sessions_rehydrated");
  Counter* const rehydrate_failures =
      registry.GetCounter("serve.rehydrate_failures");
  Counter* const stash_evictions =
      registry.GetCounter("serve.stash_evictions");
  Counter* const missing_filled = registry.GetCounter("online.missing_filled");
  Counter* const shadow_blocks = registry.GetCounter("serve.shadow_blocks");
  const int64_t shadow_blocks0 = shadow_blocks->value();
  const int64_t hits0 = hits->value();
  const int64_t misses0 = misses->value();
  const int64_t evicted0 = evicted->value();
  const int64_t rehydrated0 = rehydrated->value();
  const int64_t rehydrate_failures0 = rehydrate_failures->value();
  const int64_t stash_evictions0 = stash_evictions->value();
  const int64_t missing_filled0 = missing_filled->value();

  std::mutex mu;
  std::map<std::string, std::vector<double>> latencies;
  if (config.collect_scores) {
    for (const auto& [t, stream] : streams) {
      stats.scores[tenant_name(t)] =
          std::vector<float>(static_cast<size_t>(stream.samples.dim(0)), 0.0f);
    }
  }
  auto on_alert = [&](const StreamServer::ScoredBlock& scored) {
    // Shadow dual-scores are drift-statistics traffic, not alerts: they must
    // not land in the alert count, the latency spreads, or the assembled
    // score streams (the streams are the bitwise-parity artifact of the LIVE
    // serving path).
    if (scored.shadow) return;
    std::lock_guard<std::mutex> lock(mu);
    ++stats.alerts;
    if (scored.degrade_level > 0) ++stats.degraded_alerts;
    latencies[scored.tenant].push_back(scored.latency_seconds);
    if (config.collect_scores) {
      auto it = stats.scores.find(scored.tenant);
      IMDIFF_CHECK(it != stats.scores.end());
      std::vector<float>& out = it->second;
      for (size_t i = 0; i < scored.alert.scores.size(); ++i) {
        const int64_t pos = scored.alert.start + static_cast<int64_t>(i);
        if (pos < static_cast<int64_t>(out.size())) {
          out[static_cast<size_t>(pos)] = scored.alert.scores[i];
        }
      }
    }
  };

  StreamServer server(std::move(model), options, on_alert);
  Stopwatch timer;
  std::vector<int64_t> cursor(static_cast<size_t>(config.num_tenants), 0);
  std::vector<float> sample(static_cast<size_t>(k));
  std::vector<uint8_t> observed;
  int64_t accepted = 0;
  for (const LoadPlan::Burst& burst : schedule) {
    const UglyStream& stream = streams.at(burst.tenant);
    const std::string name = tenant_name(burst.tenant);
    int64_t& pos = cursor[static_cast<size_t>(burst.tenant)];
    for (int64_t j = 0; j < burst.length; ++j, ++pos) {
      std::copy_n(stream.samples.data() + pos * k, k, sample.begin());
      observed.clear();
      if (any_missing) {
        observed.assign(stream.observed.begin() + pos * k,
                        stream.observed.begin() + (pos + 1) * k);
      }
      ++stats.submitted;
      while (!server.Submit(name, sample, observed)) {
        ++stats.rejected;
        std::this_thread::yield();
      }
      ++accepted;
      // Drain on an accepted-sample cadence: a deterministic point in the
      // submission sequence, so eviction/stash decisions — which depend on
      // which sessions have blocks in flight — replay identically.
      if (config.drain_every > 0 && accepted % config.drain_every == 0) {
        server.Drain();
      }
    }
  }
  server.Drain();
  stats.seconds = timer.ElapsedSeconds();
  stats.points_per_second =
      stats.seconds > 0.0
          ? static_cast<double>(config.total_samples) / stats.seconds
          : 0.0;
  // The promotion-decision log must be captured before the server (which
  // owns the trainer) shuts down.
  if (server.refresh() != nullptr) {
    stats.refresh_events = server.refresh()->events();
  }
  server.Shutdown();

  // Reduce each tenant's latencies to p50/p99, then summarize the spread of
  // those values across tenants.
  std::vector<double> p50s;
  std::vector<double> p99s;
  p50s.reserve(latencies.size());
  p99s.reserve(latencies.size());
  for (auto& [tenant, values] : latencies) {
    std::sort(values.begin(), values.end());
    p50s.push_back(SortedPercentile(values, 0.5));
    p99s.push_back(SortedPercentile(values, 0.99));
  }
  stats.tenant_p50 = SpreadOf(std::move(p50s));
  stats.tenant_p99 = SpreadOf(std::move(p99s));

  stats.cache_hits = hits->value() - hits0;
  stats.cache_misses = misses->value() - misses0;
  const int64_t lookups = stats.cache_hits + stats.cache_misses;
  stats.cache_hit_rate =
      lookups > 0 ? static_cast<double>(stats.cache_hits) /
                        static_cast<double>(lookups)
                  : 0.0;
  stats.sessions_evicted = evicted->value() - evicted0;
  stats.sessions_rehydrated = rehydrated->value() - rehydrated0;
  stats.rehydrate_failures =
      rehydrate_failures->value() - rehydrate_failures0;
  stats.stash_evictions = stash_evictions->value() - stash_evictions0;
  stats.missing_filled = missing_filled->value() - missing_filled0;
  stats.shadow_blocks = shadow_blocks->value() - shadow_blocks0;
  stats.peak_rss_kb = ProcessPeakRssKb();
  return stats;
}

double ServedDetectionDelay(const std::vector<uint8_t>& labels,
                            const std::vector<uint8_t>& predictions,
                            int64_t block) {
  IMDIFF_CHECK_EQ(labels.size(), predictions.size());
  IMDIFF_CHECK_GT(block, 0);
  const int64_t n = static_cast<int64_t>(labels.size());
  const auto segments = FindSegments(labels);
  if (segments.empty()) return 0.0;
  double total = 0.0;
  for (const AnomalySegment& seg : segments) {
    int64_t delay = n - seg.start;  // penalty when never detected
    for (int64_t t = seg.start; t < n; ++t) {
      if (predictions[static_cast<size_t>(t)] != 0) {
        // The alarm becomes observable when t's block is emitted, i.e. at
        // the block's last index (a trailing partial block is clamped to
        // the stream end — it would never be emitted, so the penalty above
        // is the honest bound, matched by the clamp).
        const int64_t emitted = std::min(n - 1, (t / block + 1) * block - 1);
        delay = emitted - seg.start;
        break;
      }
    }
    total += static_cast<double>(delay);
  }
  return total / static_cast<double>(segments.size());
}

RunMetrics EvaluateServed(const MtsDataset& dataset, uint64_t seed,
                          SpeedProfile profile,
                          const StreamServer::Options& options) {
  ImDiffusionConfig config = profile == SpeedProfile::kPaper
                                 ? PaperImDiffusionConfig()
                                 : FastImDiffusionConfig();
  config.seed = seed;
  auto detector = std::make_shared<ImDiffusionDetector>(config);

  RunMetrics metrics;
  const MinMaxStats stats = FitMinMax(dataset.train);
  Stopwatch fit_timer;
  detector->Fit(ApplyMinMax(dataset.train, stats));
  metrics.fit_seconds = fit_timer.ElapsedSeconds();

  auto entry = std::make_shared<ModelEntry>();
  entry->name = dataset.name.empty() ? "production" : dataset.name;
  entry->version = 1;
  entry->detector = detector;
  entry->stats = stats;

  StreamServer::Options served = options;
  served.session.seed_base = seed;
  TenantStream stream;
  stream.tenant = "production";
  stream.samples = dataset.test;
  const ReplayStats replay =
      ReplayThroughServer(entry, {std::move(stream)}, served);
  metrics.score_seconds = replay.seconds;
  metrics.points_per_second = replay.points_per_second;

  const std::vector<float>& scores = replay.scores.at("production");
  BinaryMetrics best;
  const float threshold =
      BestF1Threshold(scores, dataset.test_labels, 64, &best);
  metrics.precision = best.precision;
  metrics.recall = best.recall;
  metrics.f1 = best.f1;
  metrics.r_auc_pr = RangeAucPr(scores, dataset.test_labels);
  metrics.r_auc_roc = RangeAucRoc(scores, dataset.test_labels);
  metrics.add = ServedDetectionDelay(dataset.test_labels,
                                     ThresholdScores(scores, threshold),
                                     served.session.online.block);
  return metrics;
}

AggregateMetrics EvaluateServedManySeeds(const MtsDataset& dataset,
                                         int num_seeds, SpeedProfile profile,
                                         const StreamServer::Options& options) {
  IMDIFF_CHECK_GE(num_seeds, 1);
  std::vector<RunMetrics> runs;
  runs.reserve(static_cast<size_t>(num_seeds));
  // Serial over seeds: each run owns the server's worker threads, and the
  // compute pool is already saturated by the batched scoring passes.
  for (int s = 0; s < num_seeds; ++s) {
    runs.push_back(EvaluateServed(
        dataset, 1000 + 17 * static_cast<uint64_t>(s), profile, options));
  }
  AggregateMetrics agg;
  agg.num_runs = num_seeds;
  for (const RunMetrics& r : runs) {
    agg.precision += r.precision;
    agg.recall += r.recall;
    agg.f1 += r.f1;
    agg.r_auc_pr += r.r_auc_pr;
    agg.add += r.add;
    agg.points_per_second += r.points_per_second;
  }
  const double n = static_cast<double>(num_seeds);
  agg.precision /= n;
  agg.recall /= n;
  agg.f1 /= n;
  agg.r_auc_pr /= n;
  agg.add /= n;
  agg.points_per_second /= n;
  double f1_var = 0.0;
  double add_var = 0.0;
  for (const RunMetrics& r : runs) {
    f1_var += (r.f1 - agg.f1) * (r.f1 - agg.f1);
    add_var += (r.add - agg.add) * (r.add - agg.add);
  }
  if (num_seeds > 1) {
    agg.f1_std = std::sqrt(f1_var / (n - 1.0));
    agg.add_std = std::sqrt(add_var / (n - 1.0));
  }
  return agg;
}

}  // namespace serve
}  // namespace imdiff
