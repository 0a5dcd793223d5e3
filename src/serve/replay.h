// Traffic replay over the serving layer, plus the serving-path Table 7
// evaluation.
//
// ReplayThroughServer pushes N tenants' raw streams through a StreamServer
// (round-robin, the interleaving a real multi-tenant ingest produces) and
// assembles each tenant's emitted score stream. ReplaySerial is the ground
// truth and throughput baseline: one tenant scored block-by-block with fresh
// windows — no cross-session batching, no window-score cache. The serving
// path must match it bitwise (see serve/session_manager.h) while spending
// roughly half the model forwards.

#ifndef IMDIFF_SERVE_REPLAY_H_
#define IMDIFF_SERVE_REPLAY_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "data/ugly_stream.h"
#include "eval/runner.h"
#include "serve/server.h"

namespace imdiff {
namespace serve {

// One tenant's raw (unnormalized) sample stream.
struct TenantStream {
  std::string tenant;
  Tensor samples;  // [L, K]
  // Per-entry observation flags, [L * K] row-major (1 = observed); empty =
  // fully observed. Missing entries route through the carry-forward fill
  // (core/online_detector.h) — their values in `samples` are never read.
  std::vector<uint8_t> observed;
};

// Scores one tenant serially: every ready block is scored fresh through
// ScoreBlock. Returns the assembled per-position score stream (length L;
// positions never emitted stay 0). Bitwise reference for the served path.
// `degrade_level` scores every block at that ladder rung — the reference for
// a run whose blocks were uniformly pinned (--force-degrade).
std::vector<float> ReplaySerial(const ModelEntry& model,
                                const OnlineDetector::Options& online,
                                uint64_t seed_base, const TenantStream& stream,
                                int degrade_level = 0);

struct ReplayStats {
  // Assembled per-tenant score streams (length L each).
  std::map<std::string, std::vector<float>> scores;
  // The degradation level each position was scored at (same shape as
  // `scores`): the reference for a position is ReplaySerial at its level.
  std::map<std::string, std::vector<int>> levels;
  int64_t submitted = 0;
  int64_t rejected = 0;  // backpressure rejections (samples were retried)
  int64_t alerts = 0;
  int64_t degraded_alerts = 0;  // alerts scored at degrade_level > 0
  double seconds = 0.0;            // submit of first sample → drain complete
  double points_per_second = 0.0;  // total samples / seconds
};

// Replays the tenant streams round-robin through a StreamServer built from
// `options`. Rejected submissions are retried until accepted so every sample
// is eventually processed (`rejected` counts the shed attempts); the score
// streams are therefore complete and comparable to ReplaySerial.
// `paced` (the default) drains the server after every round of `block`
// samples per tenant, modeling the production cadence where a block is
// scored long before the next one fills (30 s per sample in the paper's
// deployment). Pacing is what lets overlapping windows hit the score cache:
// an unpaced firehose replay plans block n+1 before block n's scores are
// written back, so every window scores fresh.
ReplayStats ReplayThroughServer(std::shared_ptr<const ModelEntry> model,
                                const std::vector<TenantStream>& streams,
                                const StreamServer::Options& options,
                                bool paced = true);

// Table 7 through the serving path: fits ImDiffusion on the train split,
// publishes it, streams the raw test split as one tenant through a
// StreamServer, and computes the usual metrics on the emitted scores —
// except that points/second is end-to-end serving throughput (queueing +
// batching + scoring) and ADD counts a detection only from the moment its
// block was emitted, so both reflect queued serving latency rather than raw
// batch inference.
RunMetrics EvaluateServed(const MtsDataset& dataset, uint64_t seed,
                          SpeedProfile profile,
                          const StreamServer::Options& options);

// EvaluateManySeeds analogue for the served path (seeds run serially: the
// server already owns the process's worker threads).
AggregateMetrics EvaluateServedManySeeds(const MtsDataset& dataset,
                                         int num_seeds, SpeedProfile profile,
                                         const StreamServer::Options& options);

// Emission-aware detection delay: like AverageDetectionDelay, but an alarm
// at position t only counts once its block has been emitted (the last index
// of t's block), matching what a consumer of the alert stream observes.
double ServedDetectionDelay(const std::vector<uint8_t>& labels,
                            const std::vector<uint8_t>& predictions,
                            int64_t block);

// ---------------------------------------------------------------------------
// Zipf-scale load generation (DESIGN.md §15).
//
// ReplayLoad drives a StreamServer with the ugly-traffic workload: tenant
// popularity is Zipf-distributed, traffic arrives as heavy-tailed bursts
// (one tenant streams a Pareto-length run of samples, then another), and
// every tenant's stream comes from data/ugly_stream.h — missing entries,
// sampling gaps, drift, regime shifts, seasonal envelopes. The schedule
// (which tenant, how many samples, in what order) is a pure function of
// `seed`, so two runs with the same config submit the identical sample
// sequence and — with a single worker and drain-point-only flushes — produce
// bitwise-identical score streams.

struct LoadConfig {
  int64_t num_tenants = 1000;
  // Total samples across all tenants; the schedule stops when spent.
  int64_t total_samples = 100000;
  uint64_t seed = 1;
  // Zipf popularity exponent: tenant rank r is drawn with probability
  // proportional to 1 / (r + 1)^zipf_exponent.
  double zipf_exponent = 1.1;
  // Burst sizes are Pareto(min = burst_min, tail = burst_tail): mostly short
  // runs, occasionally a tenant that floods.
  int64_t burst_min = 4;
  double burst_tail = 1.2;
  // Drain the server after this many accepted samples (0 = only at the
  // end). Draining at deterministic points in the submission sequence —
  // never on a wall-clock cadence — is what keeps eviction order, and hence
  // the whole run, reproducible.
  int64_t drain_every = 4096;
  // Per-tenant stream recipe; `length` and `dims` are overridden per tenant
  // (scheduled sample count / the model's feature count).
  UglyStreamConfig stream;
  // Keep every tenant's emitted score stream in LoadStats::scores (the
  // bitwise-reproducibility artifact). Costs O(total_samples) floats.
  bool collect_scores = false;
};

struct LoadStats {
  int64_t tenants = 0;  // tenants that received traffic
  int64_t submitted = 0;
  int64_t rejected = 0;  // backpressure rejections (samples were retried)
  int64_t alerts = 0;
  int64_t degraded_alerts = 0;
  double seconds = 0.0;
  double points_per_second = 0.0;
  // Cross-tenant spread of per-tenant latency percentiles: each tenant's
  // ready-to-alert latencies are reduced to that tenant's p50/p99, and the
  // spread summarizes those values across tenants — tenant_p99.p50 is the
  // median tenant's p99, tenant_p99.max the worst tenant's p99. This is the
  // per-tenant view a global histogram hides: a Zipf head tenant can be slow
  // in every percentile while the global p99 still looks healthy.
  struct Spread {
    double p50 = 0.0;
    double p90 = 0.0;
    double p99 = 0.0;
    double max = 0.0;
  };
  Spread tenant_p50;
  Spread tenant_p99;
  // Serving-layer churn over the run (counter deltas).
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  double cache_hit_rate = 0.0;  // hits / (hits + misses), 0 when no lookups
  int64_t sessions_evicted = 0;
  int64_t sessions_rehydrated = 0;
  int64_t rehydrate_failures = 0;
  int64_t stash_evictions = 0;
  int64_t missing_filled = 0;  // feature values filled by carry-forward
  int64_t peak_rss_kb = -1;    // ProcessPeakRssKb() after the run
  // Continuous-refresh activity (DESIGN.md §18): shadow dual-scored blocks
  // (counter delta) and the ordered promotion-decision log, captured before
  // server shutdown. Shadow blocks are excluded from `alerts`, the latency
  // spreads, and the assembled score streams.
  int64_t shadow_blocks = 0;
  std::vector<RefreshTrainer::Event> refresh_events;
  // Per-tenant score streams (only when LoadConfig::collect_scores).
  std::map<std::string, std::vector<float>> scores;
};

LoadStats ReplayLoad(std::shared_ptr<const ModelEntry> model,
                     const LoadConfig& config,
                     const StreamServer::Options& options);

// The materialized workload: burst schedule plus every active tenant's ugly
// stream. A pure function of (config, num_features) with the exact RNG draw
// order ReplayLoad uses, so a caller that builds the plan itself (a cut
// schedule, a training corpus) replays exactly ReplayLoad's traffic.
struct LoadPlan {
  struct Burst {
    int64_t tenant = 0;
    int64_t length = 0;
  };
  std::vector<Burst> schedule;
  // Tenant rank -> stream, only ranks with traffic.
  std::map<int64_t, UglyStream> streams;
  int64_t tenants = 0;
  bool any_missing = false;
};
LoadPlan BuildLoadPlan(const LoadConfig& config, int64_t num_features);

// Canonical tenant name for rank `t` ("tenant-000042") — shared by
// ReplayLoad and the score-dump format.
std::string LoadTenantName(int64_t tenant);

}  // namespace serve
}  // namespace imdiff

#endif  // IMDIFF_SERVE_REPLAY_H_
