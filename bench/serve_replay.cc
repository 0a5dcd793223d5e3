// Traffic-replay load harness for the serving layer (DESIGN.md §11).
//
// Simulated microservice-latency streams (the Table 7 generator, one
// realization per tenant) are replayed as N interleaved tenants through a
// StreamServer: bounded ingest queues -> sharded workers -> per-tenant
// sessions -> cross-session micro-batching. The harness then replays every
// tenant serially (fresh per-block scoring, no batching, no window cache)
// and checks that the served score streams are BITWISE identical to the
// serial ones, and reports the aggregate throughput ratio — the speedup
// cross-session batching + window-score reuse buys at equal results.
//
// Usage: serve_replay [--tenants N] [--samples L] [--block B] [--context C]
//   [--flush-ms F] [--batch-windows W] [--queue Q] [--workers N]
//   [--max-resident S] [--max-stashed S] [--train L] [--epochs E]
//   [--model PATH] [--no-compare-serial] [--seed S] [--metrics-out PATH]
//   [--faults SPEC] [--fault-seed S] [--deadline-ms D] [--scores-out PATH]
//   [--force-degrade L]
//   [--zipf EXP] [--total-samples N] [--missing R] [--gaps R] [--drift R]
//   [--shifts R] [--season A] [--dynamics-scale F] [--dynamics-break B]
//   [--burst-min N] [--burst-tail T] [--drain-every N]
//   [--shards N] [--socket-dir D] [--worker-bin PATH] [--worker-threads T]
//   [--fail-on-shed] [--reshard-every N] [--reshard-tenants M]
//   [--refresh-every N] [--refresh-recent N] [--shadow-fraction F]
//   [--verdict-pairs P] [--refresh-psi X] [--refresh-ks X]
//   [--refresh-mean-ratio X] [--refresh-epochs N]
//
// --refresh-every N > 0 (requires --zipf) arms the continuous-refresh loop
// (DESIGN.md §18): every N accepted samples a candidate model is refitted on
// the sessions' recent-sample window (--refresh-recent per-tenant cap),
// staged as the registry shadow, dual-scored against --shadow-fraction of
// full-quality traffic until --verdict-pairs paired blocks complete, and
// promoted or rolled back on the drift verdict (--refresh-psi / --refresh-ks
// divergence gates, --refresh-mean-ratio improvement gate). The whole loop
// is a pure function of the stream and the seeds: with --workers 1 and
// drain-point-only flushes, two identical runs produce bitwise-identical
// promotion logs, which --scores-out records as hex "refresh ..." lines —
// the refresh-drift CI job cmp's them. In sharded mode the flags are
// forwarded to every worker and each shard refreshes independently.
//
// --shards N (requires --zipf) switches to multi-process sharded serving
// (DESIGN.md §16): N imdiff_worker processes are spawned on unix-domain
// sockets under --socket-dir, tenants are placed on them by consistent
// hashing, and the identical deterministic workload is driven through a
// ShardRouter. The --scores-out dump's tenant lines are bitwise identical to
// the single-process run's, and the whole file is identical across shard
// counts and across identically-seeded runs. --reshard-every R moves
// --reshard-tenants tenants to the next shard after every R-th drain barrier
// (live resharding); --faults router.shard_down:#K kills a live shard
// mid-run and must lose nothing. --fail-on-shed exits nonzero when any
// submission was shed or any re-delivered block mismatched its first
// delivery bitwise.
//
// --zipf EXP switches to load-generator mode (DESIGN.md §15): --tenants
// tenants (10k+ works) drawing Zipf(EXP)-distributed traffic in heavy-tailed
// bursts until --total-samples is spent, each tenant streaming an "ugly"
// series (--missing element dropouts, --gaps outage gaps, --drift slow drift,
// --shifts regime jumps, --season load envelope; data/ugly_stream.h). The
// report adds per-tenant latency percentile spreads, the cache hit rate,
// session/stash churn, and peak RSS. Two runs with identical flags produce
// bitwise-identical --scores-out dumps when --workers 1 and flushes land only
// at drain points (large --flush-ms and --batch-windows) — eviction order is
// deterministic exactly when block completion is.
//
// --model PATH warm-loads the checkpoint when it exists (skipping training)
// and writes it after training otherwise, so repeated runs exercise the
// registry's warm-load path.
//
// Chaos mode (DESIGN.md §13): --faults takes an IMDIFF_FAULTS spec
// ("arena.alloc:0.02,session.rehydrate:0.3,..."), --fault-seed pins the
// injection sequence, and --deadline-ms arms the degradation ladder. The
// serial bitwise comparison is skipped (with a printed reason) when faults
// degraded blocks or dropped session state — the chaos CI instead diffs
// --scores-out dumps (hex-exact score streams + fault counters) between two
// identical runs to prove fault handling is deterministic.
//
// --force-degrade L pins every block to degradation level L (bypassing the
// deadline policy), so two runs that differ only in build or host produce
// comparable --scores-out dumps at a fixed level instead of coupling level
// choice to wall-clock speed. The serial baseline is scored at the pinned
// level too, so the bitwise comparison still runs. In sharded mode the flag
// is forwarded to every worker.

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/imdiffusion.h"
#include "data/benchmarks.h"
#include "net/socket.h"
#include "serve/replay.h"
#include "serve/router.h"
#include "serve/worker.h"
#include "utils/fault.h"
#include "utils/flags.h"
#include "utils/logging.h"
#include "utils/metrics.h"
#include "utils/stopwatch.h"

namespace imdiff {
namespace {

struct ReplayFlags {
  int64_t tenants = 8;
  int64_t samples = 800;   // test samples per tenant
  int64_t block = 100;
  // Two blocks of history: each ready block spans three windows, two of
  // which overlap earlier blocks and hit the window-score cache.
  int64_t context = 200;
  double flush_ms = 10.0;
  int64_t batch_windows = 64;
  int64_t queue = 4096;
  int workers = 2;
  int64_t max_resident = 64;
  int64_t train = 1600;
  int epochs = -1;  // <0: keep the fast-profile default
  std::string model_path;
  bool compare_serial = true;
  uint64_t seed = 42;
  std::string metrics_out;
  std::string faults;       // IMDIFF_FAULTS-style spec; empty = no injection
  uint64_t fault_seed = 0;  // base seed for fault triggers and backoff jitter
  double deadline_ms = 0.0;
  int force_degrade = -1;  // >= 0 pins every block's degradation level
  std::string scores_out;
  int64_t max_stashed = 1024;
  // Load-generator mode (> 0 enables): Zipf tenant popularity exponent.
  double zipf = 0.0;
  int64_t total_samples = 0;  // 0: defaults to tenants * samples
  double missing = 0.0;
  double gaps = 0.0;
  double drift = 0.0;
  double shifts = 0.0;
  double season = 0.0;
  // Dynamics break (concept drift in the frequency content): period scale
  // applied from --dynamics-break (stream fraction) on. 1.0 disables.
  double dynamics_scale = 1.0;
  double dynamics_break = 0.25;
  int64_t burst_min = 4;
  double burst_tail = 1.2;
  int64_t drain_every = 4096;
  // Sharded mode (> 0 enables; requires --zipf): number of worker processes.
  int64_t shards = 0;
  std::string socket_dir;   // empty: /tmp/imdiff-shards-<pid>
  std::string worker_bin;   // empty: imdiff_worker next to this binary
  int worker_threads = 0;   // ingest threads per worker; 0: --workers
  bool fail_on_shed = false;
  int64_t reshard_every = 0;  // move tenants after every Nth drain barrier
  int64_t reshard_tenants = 1;
  // Continuous refresh (> 0 enables; requires --zipf): fit cadence in
  // accepted samples, per-tenant recent-sample cap, shadow selection
  // fraction, verdict pair count, and the drift-verdict gates.
  int64_t refresh_every = 0;
  int64_t refresh_recent = 256;
  double shadow_fraction = 0.25;
  int64_t verdict_pairs = 12;
  double refresh_psi = 0.25;
  double refresh_ks = 0.5;
  double refresh_mean_ratio = 0.8;
  int64_t refresh_epochs = 0;  // <= 0 inherits the live model's epochs
};

ReplayFlags ParseFlags(int argc, char** argv) {
  ReplayFlags flags;
  for (int i = 1; i < argc; ++i) {
    const char* const flag = argv[i];
    auto next = [&]() {
      IMDIFF_CHECK(i + 1 < argc) << flag << "needs a value";
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--tenants") == 0) {
      flags.tenants = FlagValue<int64_t>(flag, next());
    } else if (std::strcmp(argv[i], "--samples") == 0) {
      flags.samples = FlagValue<int64_t>(flag, next());
    } else if (std::strcmp(argv[i], "--block") == 0) {
      flags.block = FlagValue<int64_t>(flag, next());
    } else if (std::strcmp(argv[i], "--context") == 0) {
      flags.context = FlagValue<int64_t>(flag, next());
    } else if (std::strcmp(argv[i], "--flush-ms") == 0) {
      flags.flush_ms = FlagValue<double>(flag, next());
    } else if (std::strcmp(argv[i], "--batch-windows") == 0) {
      flags.batch_windows = FlagValue<int64_t>(flag, next());
    } else if (std::strcmp(argv[i], "--queue") == 0) {
      flags.queue = FlagValue<int64_t>(flag, next());
    } else if (std::strcmp(argv[i], "--workers") == 0) {
      flags.workers = FlagValue<int>(flag, next());
    } else if (std::strcmp(argv[i], "--max-resident") == 0) {
      flags.max_resident = FlagValue<int64_t>(flag, next());
    } else if (std::strcmp(argv[i], "--train") == 0) {
      flags.train = FlagValue<int64_t>(flag, next());
    } else if (std::strcmp(argv[i], "--epochs") == 0) {
      flags.epochs = FlagValue<int>(flag, next());
    } else if (std::strcmp(argv[i], "--model") == 0) {
      flags.model_path = next();
    } else if (std::strcmp(argv[i], "--no-compare-serial") == 0) {
      flags.compare_serial = false;
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      flags.seed = FlagValue<uint64_t>(flag, next());
    } else if (std::strcmp(argv[i], "--metrics-out") == 0) {
      flags.metrics_out = next();
    } else if (std::strcmp(argv[i], "--faults") == 0) {
      flags.faults = next();
    } else if (std::strcmp(argv[i], "--fault-seed") == 0) {
      flags.fault_seed = FlagValue<uint64_t>(flag, next());
    } else if (std::strcmp(argv[i], "--deadline-ms") == 0) {
      flags.deadline_ms = FlagValue<double>(flag, next());
    } else if (std::strcmp(argv[i], "--force-degrade") == 0) {
      flags.force_degrade = FlagValue<int>(flag, next());
    } else if (std::strcmp(argv[i], "--scores-out") == 0) {
      flags.scores_out = next();
    } else if (std::strcmp(argv[i], "--max-stashed") == 0) {
      flags.max_stashed = FlagValue<int64_t>(flag, next());
    } else if (std::strcmp(argv[i], "--zipf") == 0) {
      flags.zipf = FlagValue<double>(flag, next());
    } else if (std::strcmp(argv[i], "--total-samples") == 0) {
      flags.total_samples = FlagValue<int64_t>(flag, next());
    } else if (std::strcmp(argv[i], "--missing") == 0) {
      flags.missing = FlagValue<double>(flag, next());
    } else if (std::strcmp(argv[i], "--gaps") == 0) {
      flags.gaps = FlagValue<double>(flag, next());
    } else if (std::strcmp(argv[i], "--drift") == 0) {
      flags.drift = FlagValue<double>(flag, next());
    } else if (std::strcmp(argv[i], "--shifts") == 0) {
      flags.shifts = FlagValue<double>(flag, next());
    } else if (std::strcmp(argv[i], "--season") == 0) {
      flags.season = FlagValue<double>(flag, next());
    } else if (std::strcmp(argv[i], "--dynamics-scale") == 0) {
      flags.dynamics_scale = FlagValue<double>(flag, next());
    } else if (std::strcmp(argv[i], "--dynamics-break") == 0) {
      flags.dynamics_break = FlagValue<double>(flag, next());
    } else if (std::strcmp(argv[i], "--burst-min") == 0) {
      flags.burst_min = FlagValue<int64_t>(flag, next());
    } else if (std::strcmp(argv[i], "--burst-tail") == 0) {
      flags.burst_tail = FlagValue<double>(flag, next());
    } else if (std::strcmp(argv[i], "--drain-every") == 0) {
      flags.drain_every = FlagValue<int64_t>(flag, next());
    } else if (std::strcmp(argv[i], "--shards") == 0) {
      flags.shards = FlagValue<int64_t>(flag, next());
    } else if (std::strcmp(argv[i], "--socket-dir") == 0) {
      flags.socket_dir = next();
    } else if (std::strcmp(argv[i], "--worker-bin") == 0) {
      flags.worker_bin = next();
    } else if (std::strcmp(argv[i], "--worker-threads") == 0) {
      flags.worker_threads = FlagValue<int>(flag, next());
    } else if (std::strcmp(argv[i], "--fail-on-shed") == 0) {
      flags.fail_on_shed = true;
    } else if (std::strcmp(argv[i], "--reshard-every") == 0) {
      flags.reshard_every = FlagValue<int64_t>(flag, next());
    } else if (std::strcmp(argv[i], "--reshard-tenants") == 0) {
      flags.reshard_tenants = FlagValue<int64_t>(flag, next());
    } else if (std::strcmp(argv[i], "--refresh-every") == 0) {
      flags.refresh_every = FlagValue<int64_t>(flag, next());
    } else if (std::strcmp(argv[i], "--refresh-recent") == 0) {
      flags.refresh_recent = FlagValue<int64_t>(flag, next());
    } else if (std::strcmp(argv[i], "--shadow-fraction") == 0) {
      flags.shadow_fraction = FlagValue<double>(flag, next());
    } else if (std::strcmp(argv[i], "--verdict-pairs") == 0) {
      flags.verdict_pairs = FlagValue<int64_t>(flag, next());
    } else if (std::strcmp(argv[i], "--refresh-psi") == 0) {
      flags.refresh_psi = FlagValue<double>(flag, next());
    } else if (std::strcmp(argv[i], "--refresh-ks") == 0) {
      flags.refresh_ks = FlagValue<double>(flag, next());
    } else if (std::strcmp(argv[i], "--refresh-mean-ratio") == 0) {
      flags.refresh_mean_ratio = FlagValue<double>(flag, next());
    } else if (std::strcmp(argv[i], "--refresh-epochs") == 0) {
      flags.refresh_epochs = FlagValue<int64_t>(flag, next());
    } else {
      IMDIFF_CHECK(false) << "unknown flag" << argv[i];
    }
  }
  IMDIFF_CHECK_GE(flags.tenants, 1);
  IMDIFF_CHECK_GT(flags.samples, 0);
  return flags;
}

bool FileExists(const std::string& path) {
  return std::ifstream(path).good();
}

// Place the generic synthetic tenant channels into the middle of the model's
// training band (see UglyStreamConfig::channel_offset): sessions normalize
// tenant traffic with the model's min-max statistics, so a stream generated
// at the synthetic base's unit scale would clamp wholesale to the
// normalization boundary and the scored content would be constant. The clean
// base emits roughly +/-2-scale series; gain = range/8 keeps typical values
// inside the middle half of [min, max] with headroom for drift ramps and
// regime shifts to move the data before the clamp bites.
void RebaseStreamToStats(const MinMaxStats& stats, UglyStreamConfig* stream) {
  const size_t k = stats.min.size();
  stream->channel_offset.resize(k);
  stream->channel_gain.resize(k);
  for (size_t j = 0; j < k; ++j) {
    const float range = stats.max[j] - stats.min[j];
    stream->channel_offset[j] = 0.5f * (stats.min[j] + stats.max[j]);
    stream->channel_gain[j] = range / 8.0f;
  }
}

// One LoadConfig for every consumer of the plan (single-process load,
// sharded load, and the training-corpus builder below): the plan is a pure
// function of this config, so all three must construct it identically.
serve::LoadConfig BuildLoadConfigFromFlags(const ReplayFlags& flags,
                                           const MinMaxStats& stats) {
  serve::LoadConfig load;
  load.num_tenants = flags.tenants;
  load.total_samples = flags.total_samples > 0
                           ? flags.total_samples
                           : flags.tenants * flags.samples;
  load.seed = flags.seed;
  load.zipf_exponent = flags.zipf;
  load.burst_min = flags.burst_min;
  load.burst_tail = flags.burst_tail;
  load.drain_every = flags.drain_every;
  load.stream.missing_rate = flags.missing;
  load.stream.gap_rate = flags.gaps;
  load.stream.drift_rate = static_cast<float>(flags.drift);
  load.stream.shift_rate = flags.shifts;
  load.stream.season_amplitude = static_cast<float>(flags.season);
  load.stream.dynamics_period_scale = static_cast<float>(flags.dynamics_scale);
  load.stream.dynamics_break = flags.dynamics_break;
  RebaseStreamToStats(stats, &load.stream);
  return load;
}

// Training corpus for the load-generator mode: the head tenants' own stream
// realizations with every distortion zeroed — "yesterday's traffic", before
// any drift arrived. MakeUglyStream draws the clean base before applying
// distortions, so a tenant's clean-config samples are bitwise the
// pre-distortion base of the stream the run will score. Training the live
// model on these makes a control (no-distortion) replay score in-sample
// traffic: the refresh loop's refit has nothing to improve and rolls back,
// and only genuine distortion-driven drift can move the promotion verdict.
std::vector<Tensor> BuildZipfTrainingSegments(const ReplayFlags& flags,
                                              const MinMaxStats& stats,
                                              int64_t num_features,
                                              int64_t min_rows) {
  serve::LoadConfig load = BuildLoadConfigFromFlags(flags, stats);
  load.stream.missing_rate = 0.0;
  load.stream.gap_rate = 0.0;
  load.stream.drift_rate = 0.0f;
  load.stream.shift_rate = 0.0;
  load.stream.season_amplitude = 0.0f;
  load.stream.dynamics_period_scale = 1.0f;
  const serve::LoadPlan plan = serve::BuildLoadPlan(load, num_features);
  std::vector<Tensor> segments;
  for (int64_t t = 0;
       t < load.num_tenants && segments.size() < 8; ++t) {
    const auto it = plan.streams.find(t);
    if (it == plan.streams.end()) continue;
    if (it->second.samples.dim(0) < min_rows) continue;
    segments.push_back(it->second.samples);
  }
  return segments;
}

// Load-generator mode: Zipf tenants, heavy-tailed bursts, ugly streams.
int RunZipfLoad(const ReplayFlags& flags,
                std::shared_ptr<const serve::ModelEntry> model,
                const serve::StreamServer::Options& options) {
  serve::LoadConfig load = BuildLoadConfigFromFlags(flags, model->stats);
  load.collect_scores = !flags.scores_out.empty();

  std::printf("load: %" PRId64 " tenants, %" PRId64
              " samples, zipf=%.2f bursts=[%" PRId64
              ", tail %.2f] missing=%.3f gaps=%.3f drift=%.4f shifts=%.4f "
              "(max_resident=%" PRId64 " max_stashed=%" PRId64
              " drain_every=%" PRId64 " workers=%d)\n",
              load.num_tenants, load.total_samples, load.zipf_exponent,
              load.burst_min, load.burst_tail, flags.missing, flags.gaps,
              flags.drift, flags.shifts, flags.max_resident, flags.max_stashed,
              load.drain_every, flags.workers);
  const serve::LoadStats stats = serve::ReplayLoad(std::move(model), load, options);

  std::printf("load: %" PRId64 " active tenants, %.2fs, %.1f points/s, %" PRId64
              " alerts (%" PRId64 " degraded), %" PRId64
              " rejected submits, %" PRId64 " values carry-forward filled\n",
              stats.tenants, stats.seconds, stats.points_per_second,
              stats.alerts, stats.degraded_alerts, stats.rejected,
              stats.missing_filled);
  std::printf("tenant latency: p50 across tenants p50=%.1fms p90=%.1fms "
              "p99=%.1fms max=%.1fms | p99 across tenants p50=%.1fms "
              "p90=%.1fms p99=%.1fms max=%.1fms\n",
              stats.tenant_p50.p50 * 1e3, stats.tenant_p50.p90 * 1e3,
              stats.tenant_p50.p99 * 1e3, stats.tenant_p50.max * 1e3,
              stats.tenant_p99.p50 * 1e3, stats.tenant_p99.p90 * 1e3,
              stats.tenant_p99.p99 * 1e3, stats.tenant_p99.max * 1e3);
  std::printf("cache: %" PRId64 " hits / %" PRId64
              " misses (hit rate %.1f%%)\n",
              stats.cache_hits, stats.cache_misses,
              stats.cache_hit_rate * 100.0);
  std::printf("churn: %" PRId64 " sessions evicted, %" PRId64
              " rehydrated, %" PRId64 " rehydrate failures, %" PRId64
              " stashes dropped | peak rss %" PRId64 " KB\n",
              stats.sessions_evicted, stats.sessions_rehydrated,
              stats.rehydrate_failures, stats.stash_evictions,
              stats.peak_rss_kb);
  if (flags.refresh_every > 0) {
    MetricsRegistry& metrics = MetricsRegistry::Global();
    std::printf("refresh: %" PRId64 " fits staged, %" PRId64
                " promoted, %" PRId64 " rolled back, %" PRId64
                " fit failures, %" PRId64 " promote failures, %" PRId64
                " shadow aborts, %" PRId64 " windows too short | %" PRId64
                " shadow blocks dual-scored\n",
                metrics.GetCounter("refresh.fits")->value(),
                metrics.GetCounter("refresh.promotions")->value(),
                metrics.GetCounter("refresh.rollbacks")->value(),
                metrics.GetCounter("refresh.fit_failures")->value(),
                metrics.GetCounter("refresh.promote_failures")->value(),
                metrics.GetCounter("refresh.shadow_aborts")->value(),
                metrics.GetCounter("refresh.window_short")->value(),
                stats.shadow_blocks);
    for (const auto& event : stats.refresh_events) {
      std::printf("refresh event: %s fit=%" PRId64 " at=%" PRId64
                  " live=v%" PRId64 " shadow=v%" PRId64
                  " psi=%.3f ks=%.3f agree=%.2f means=%.4f/%.4f\n",
                  serve::RefreshTrainer::KindName(event.kind),
                  event.fit_ordinal, event.at_sample, event.live_version,
                  event.shadow_version, event.psi, event.ks, event.agreement,
                  event.live_mean, event.shadow_mean);
    }
  }
  MetricsRegistry::Global()
      .GetGauge("process.peak_rss_kb")
      ->Set(static_cast<double>(stats.peak_rss_kb));

  int exit_code = 0;
  if (!flags.scores_out.empty()) {
    // Same hex-exact format as classic mode: one "tenant score..." line per
    // tenant plus the counters whose drift would explain a mismatch. Two
    // same-flag runs must produce byte-identical files (--workers 1 with
    // drain-point-only flushes).
    std::ofstream out(flags.scores_out);
    for (const auto& [tenant, scores] : stats.scores) {
      out << tenant;
      char buf[40];
      for (float s : scores) {
        std::snprintf(buf, sizeof(buf), " %a", static_cast<double>(s));
        out << buf;
      }
      out << "\n";
    }
    out << "serve.degraded_blocks "
        << MetricsRegistry::Global().GetCounter("serve.degraded_blocks")->value()
        << "\n";
    out << "serve.stash_evictions " << stats.stash_evictions << "\n";
    out << "serve.sessions_evicted " << stats.sessions_evicted << "\n";
    if (flags.refresh_every > 0) {
      // Promotion-decision log in hex (%a) — bitwise-comparable across runs.
      // Two identically-flagged runs must produce identical lines: the
      // refresh-drift CI job cmp's whole files.
      MetricsRegistry& metrics = MetricsRegistry::Global();
      char buf[256];
      for (const auto& event : stats.refresh_events) {
        std::snprintf(buf, sizeof(buf),
                      " fit=%" PRId64 " at=%" PRId64 " live=%" PRId64
                      " shadow=%" PRId64,
                      event.fit_ordinal, event.at_sample, event.live_version,
                      event.shadow_version);
        out << "refresh " << serve::RefreshTrainer::KindName(event.kind)
            << buf;
        std::snprintf(buf, sizeof(buf),
                      " psi=%a ks=%a agree=%a live_mean=%a shadow_mean=%a",
                      event.psi, event.ks, event.agreement, event.live_mean,
                      event.shadow_mean);
        out << buf << "\n";
      }
      out << "serve.shadow_blocks " << stats.shadow_blocks << "\n";
      out << "refresh.fits " << metrics.GetCounter("refresh.fits")->value()
          << "\n";
      out << "refresh.promotions "
          << metrics.GetCounter("refresh.promotions")->value() << "\n";
      out << "refresh.rollbacks "
          << metrics.GetCounter("refresh.rollbacks")->value() << "\n";
      out << "refresh.fit_failures "
          << metrics.GetCounter("refresh.fit_failures")->value() << "\n";
      out << "refresh.promote_failures "
          << metrics.GetCounter("refresh.promote_failures")->value() << "\n";
      out << "refresh.shadow_aborts "
          << metrics.GetCounter("refresh.shadow_aborts")->value() << "\n";
      out << "refresh.window_short "
          << metrics.GetCounter("refresh.window_short")->value() << "\n";
    }
    out.flush();
    if (out.good()) {
      IMDIFF_LOG(Info) << "score dump written to " << flags.scores_out;
    } else {
      IMDIFF_LOG(Error) << "failed to write score dump to "
                        << flags.scores_out;
      exit_code = 1;
    }
  }
  if (!flags.metrics_out.empty()) {
    if (WriteMetricsJson(flags.metrics_out)) {
      IMDIFF_LOG(Info) << "metrics snapshot written to " << flags.metrics_out;
    } else {
      IMDIFF_LOG(Error) << "failed to write metrics snapshot to "
                        << flags.metrics_out;
      exit_code = 1;
    }
  }
  if (flags.fail_on_shed && stats.rejected > 0) {
    IMDIFF_LOG(Error) << "--fail-on-shed: " << stats.rejected
                      << " submissions were shed (retried)";
    exit_code = 1;
  }
  return exit_code;
}

// ---------------------------------------------------------------------------
// Sharded mode (DESIGN.md §16): spawn N imdiff_worker processes, drive the
// same deterministic Zipf workload through a ShardRouter.

std::string ShardSocketPath(const std::string& dir, int64_t shard) {
  char name[64];
  std::snprintf(name, sizeof(name), "/shard-%02" PRId64 ".sock", shard);
  return dir + name;
}

std::string DirName(const std::string& path) {
  const size_t slash = path.rfind('/');
  return slash == std::string::npos ? std::string(".") : path.substr(0, slash);
}

// fork + execv one worker. The parent is multithreaded by now (the compute
// pool ran training), so only async-signal-safe calls may happen between
// fork and exec — argv is fully materialized beforehand and the environment
// is inherited as-is.
pid_t SpawnWorker(const std::string& worker_bin,
                  const std::vector<std::string>& args) {
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(worker_bin.c_str()));
  for (const std::string& a : args) {
    argv.push_back(const_cast<char*>(a.c_str()));
  }
  argv.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::execv(worker_bin.c_str(), argv.data());
    _exit(127);
  }
  return pid;
}

int RunShardedLoad(const ReplayFlags& flags, const MinMaxStats& norm,
                   int64_t num_features) {
  IMDIFF_CHECK(FileExists(flags.model_path))
      << "sharded mode needs the checkpoint on disk:" << flags.model_path;

  // Worker serving options mirror this process's flags so every shard scores
  // exactly like the single-process baseline (the bitwise-parity invariant).
  const int worker_threads =
      flags.worker_threads > 0 ? flags.worker_threads : flags.workers;
  struct ShardProcess {
    int64_t id = 0;
    pid_t pid = -1;
  };
  std::vector<ShardProcess> workers;
  for (int64_t s = 0; s < flags.shards; ++s) {
    std::vector<std::string> args = {
        "--socket",        ShardSocketPath(flags.socket_dir, s),
        "--shard-id",      FormatFlag(s),
        "--block",         FormatFlag(flags.block),
        "--context",       FormatFlag(flags.context),
        "--flush-ms",      FormatFlag(flags.flush_ms),
        "--batch-windows", FormatFlag(flags.batch_windows),
        "--queue",         FormatFlag(flags.queue),
        "--workers",       FormatFlag(worker_threads),
        "--max-resident",  FormatFlag(flags.max_resident),
        "--max-stashed",   FormatFlag(flags.max_stashed),
        "--seed",          FormatFlag(flags.seed),
        "--deadline-ms",   FormatFlag(flags.deadline_ms),
    };
    if (flags.epochs >= 0) {
      args.push_back("--epochs");
      args.push_back(FormatFlag(flags.epochs));
    }
    if (flags.force_degrade >= 0) {
      args.push_back("--force-degrade");
      args.push_back(FormatFlag(flags.force_degrade));
    }
    if (flags.refresh_every > 0) {
      args.push_back("--refresh-every");
      args.push_back(FormatFlag(flags.refresh_every));
      args.push_back("--refresh-recent");
      args.push_back(FormatFlag(flags.refresh_recent));
      args.push_back("--shadow-fraction");
      args.push_back(FormatFlag(flags.shadow_fraction));
      args.push_back("--verdict-pairs");
      args.push_back(FormatFlag(flags.verdict_pairs));
      args.push_back("--refresh-psi");
      args.push_back(FormatFlag(flags.refresh_psi));
      args.push_back("--refresh-ks");
      args.push_back(FormatFlag(flags.refresh_ks));
      args.push_back("--refresh-mean-ratio");
      args.push_back(FormatFlag(flags.refresh_mean_ratio));
      args.push_back("--refresh-epochs");
      args.push_back(FormatFlag(flags.refresh_epochs));
    }
    ShardProcess p;
    p.id = s;
    p.pid = SpawnWorker(flags.worker_bin, args);
    IMDIFF_CHECK(p.pid > 0) << "fork failed for shard" << s;
    workers.push_back(p);
  }
  std::printf("shards: %" PRId64 " workers spawned (dir %s, %d ingest "
              "thread%s each)\n",
              flags.shards, flags.socket_dir.c_str(), worker_threads,
              worker_threads == 1 ? "" : "s");

  int exit_code = 0;
  int64_t expected_crashes = 0;
  {
    serve::RouterOptions options;
    options.seed = flags.fault_seed;
    // Generous dial budget: it also covers the worker-spawn race at startup.
    options.reconnect.max_attempts = 10;
    options.reconnect.base_seconds = 0.01;
    for (int64_t s = 0; s < flags.shards; ++s) {
      serve::ShardSpec spec;
      spec.id = s;
      spec.socket_path = ShardSocketPath(flags.socket_dir, s);
      options.shards.push_back(std::move(spec));
    }
    serve::ShardRouter router(options);
    IMDIFF_CHECK(router.Connect()) << "connect failed: " << router.error();
    IMDIFF_CHECK(router.Publish("latency", flags.model_path, num_features,
                                flags.seed, norm.min, norm.max))
        << "publish failed: " << router.error();

    serve::ShardedLoadConfig config;
    config.load = BuildLoadConfigFromFlags(flags, norm);
    config.load.collect_scores = !flags.scores_out.empty();
    config.reshard_every = flags.reshard_every;
    config.reshard_tenants = flags.reshard_tenants;

    const serve::ShardedLoadStats stats =
        serve::ReplayLoadSharded(router, config, num_features);
    expected_crashes = stats.crashes;

    std::printf("sharded load: %" PRId64 " active tenants, %.2fs, %.1f "
                "points/s, %" PRId64 " blocks delivered (%" PRId64
                " degraded alerts)\n",
                stats.tenants, stats.seconds, stats.points_per_second,
                stats.alerts, stats.degraded_alerts);
    std::printf("assembly: %" PRId64 " positions written, %" PRId64
                " duplicate blocks, %" PRId64 " score conflicts | drain: %"
                PRId64 " accepted, %" PRId64 " shed, %" PRId64
                " degraded blocks\n",
                stats.positions_written, stats.duplicate_blocks,
                stats.score_conflicts, stats.accepted, stats.shed,
                stats.degraded_blocks);
    std::printf("chaos: %" PRId64 " moves, %" PRId64 " shard crashes, %"
                PRId64 " of %" PRId64 " shards alive at exit\n",
                stats.moves, stats.crashes, router.alive_shards(),
                flags.shards);
    if (flags.refresh_every > 0) {
      std::printf("refresh: %" PRId64 " promotions, %" PRId64
                  " shadow blocks dual-scored across shards\n",
                  stats.promotions, stats.shadow_blocks);
    }
    std::printf("tenant latency: p50 across tenants p50=%.1fms p99=%.1fms | "
                "p99 across tenants p50=%.1fms p99=%.1fms | peak rss %" PRId64
                " KB\n",
                stats.tenant_p50.p50 * 1e3, stats.tenant_p50.p99 * 1e3,
                stats.tenant_p99.p50 * 1e3, stats.tenant_p99.p99 * 1e3,
                stats.peak_rss_kb);

    if (!flags.scores_out.empty()) {
      // Same hex-exact tenant lines as the single-process dump, plus the one
      // counter that is invariant across shard counts. Whole-file cmp works
      // between any two sharded runs (any --shards); against the
      // single-process dump, compare the '^tenant-' lines.
      std::ofstream out(flags.scores_out);
      for (const auto& [tenant, scores] : stats.scores) {
        out << tenant;
        char buf[40];
        for (float s : scores) {
          std::snprintf(buf, sizeof(buf), " %a", static_cast<double>(s));
          out << buf;
        }
        out << "\n";
      }
      out << "serve.degraded_blocks " << stats.degraded_blocks << "\n";
      out.flush();
      if (out.good()) {
        IMDIFF_LOG(Info) << "score dump written to " << flags.scores_out;
      } else {
        IMDIFF_LOG(Error) << "failed to write score dump to "
                          << flags.scores_out;
        exit_code = 1;
      }
    }

    if (!flags.metrics_out.empty()) {
      // One merged report across every surviving shard plus the router.
      std::ofstream out(flags.metrics_out);
      out << router.MergedMetricsJson();
      out.flush();
      if (out.good()) {
        IMDIFF_LOG(Info) << "merged metrics written to " << flags.metrics_out;
      } else {
        IMDIFF_LOG(Error) << "failed to write merged metrics to "
                          << flags.metrics_out;
        exit_code = 1;
      }
    }

    if (flags.fail_on_shed &&
        (stats.score_conflicts > 0 || stats.shed > 0)) {
      IMDIFF_LOG(Error) << "--fail-on-shed: " << stats.score_conflicts
                        << " score conflicts, " << stats.shed
                        << " shed submissions";
      exit_code = 1;
    }
    router.ShutdownAll();
  }

  // Reap the workers: kShutdown exits 0, a chaos kCrash exits 2. Anything
  // else (bind failure, exec failure, signal, or a hang past the grace
  // period) is a harness failure.
  int64_t crashed = 0;
  for (ShardProcess& p : workers) {
    int status = 0;
    pid_t got = 0;
    for (int spin = 0; spin < 1000; ++spin) {  // ~10 s grace
      got = ::waitpid(p.pid, &status, WNOHANG);
      if (got == p.pid || got < 0) break;
      ::usleep(10000);
    }
    if (got != p.pid) {
      IMDIFF_LOG(Error) << "worker shard " << p.id << " (pid " << p.pid
                        << ") did not exit; killing";
      ::kill(p.pid, SIGKILL);
      ::waitpid(p.pid, &status, 0);
      exit_code = 1;
      continue;
    }
    if (WIFEXITED(status) && WEXITSTATUS(status) == serve::kWorkerExitCrashed) {
      ++crashed;
    } else if (!WIFEXITED(status) ||
               WEXITSTATUS(status) != serve::kWorkerExitOk) {
      IMDIFF_LOG(Error) << "worker shard " << p.id << " exited abnormally "
                        << "(status " << status << ")";
      exit_code = 1;
    }
  }
  if (crashed != expected_crashes) {
    IMDIFF_LOG(Error) << crashed << " workers exited crashed but the run "
                      << "crashed " << expected_crashes;
    exit_code = 1;
  }
  return exit_code;
}

int Main(int argc, char** argv) {
  ReplayFlags flags = ParseFlags(argc, argv);

  // Sharded mode: resolve and validate every path before training — a
  // stale socket or missing worker binary must fail in the first second.
  if (flags.shards > 0) {
    IMDIFF_CHECK(flags.zipf > 0.0) << "--shards requires the --zipf load mode";
    if (flags.socket_dir.empty()) {
      char dir[64];
      std::snprintf(dir, sizeof(dir), "/tmp/imdiff-shards-%d",
                    static_cast<int>(::getpid()));
      flags.socket_dir = dir;
    }
    std::string error;
    IMDIFF_CHECK(net::ProbeSocketDir(flags.socket_dir, &error)) << error;
    for (int64_t s = 0; s < flags.shards; ++s) {
      const std::string path = ShardSocketPath(flags.socket_dir, s);
      IMDIFF_CHECK(!net::PathExists(path))
          << "stale socket (dead worker? remove it first):" << path;
    }
    if (flags.worker_bin.empty()) {
      flags.worker_bin = DirName(argv[0]) + "/imdiff_worker";
    }
    IMDIFF_CHECK(FileExists(flags.worker_bin))
        << "worker binary not found:" << flags.worker_bin;
    // Workers load the model by checkpoint path; make sure one gets written.
    if (flags.model_path.empty()) {
      flags.model_path = flags.socket_dir + "/model.ckpt";
    }
  }

  // Fail fast on unwritable output paths — a long replay must not end with
  // its results unrecordable.
  IMDIFF_CHECK(flags.metrics_out.empty() || ProbeWritable(flags.metrics_out))
      << "--metrics-out path is not writable:" << flags.metrics_out;
  IMDIFF_CHECK(flags.scores_out.empty() || ProbeWritable(flags.scores_out))
      << "--scores-out path is not writable:" << flags.scores_out;

  // Arm fault injection before any faultable work (the warm-load below is an
  // injection point). The spec mirrors IMDIFF_FAULTS and overrides it.
  if (!flags.faults.empty()) {
    FaultRegistry::Global().Configure(flags.faults, flags.fault_seed);
    std::printf("faults: armed \"%s\" (seed %" PRIu64 ")\n",
                flags.faults.c_str(), flags.fault_seed);
  }

  // Shared fitted model: one training history (all tenants run the same
  // service fleet), published once, shared read-only by every session.
  const MtsDataset train_set = MakeMicroserviceLatencyDataset(
      flags.seed, /*num_services=*/6, /*train_length=*/flags.train,
      /*test_length=*/1);
  const MinMaxStats stats = FitMinMax(train_set.train);
  ImDiffusionConfig config = FastImDiffusionConfig();
  config.seed = flags.seed;
  if (flags.epochs >= 0) config.epochs = flags.epochs;

  serve::ModelRegistry registry;
  const int64_t k = train_set.num_features();
  const bool warm = !flags.model_path.empty() && FileExists(flags.model_path);
  bool published = false;
  if (warm) {
    const int64_t version = registry.PublishFromFile(
        "latency", config, flags.model_path, k, stats);
    if (version > 0) {
      published = true;
      std::printf("model: warm-loaded %s (version %" PRId64 ")\n",
                  flags.model_path.c_str(), version);
    } else {
      // Load failed past every retry and there is no previous version to
      // fall back to — degrade to training a fresh model instead of dying.
      IMDIFF_LOG(Warning) << "checkpoint load failed; training from scratch: "
                          << flags.model_path;
    }
  }
  if (!published) {
    auto detector = std::make_shared<ImDiffusionDetector>(config);
    Stopwatch fit_timer;
    if (flags.zipf > 0.0) {
      // Load-generator mode: train on the head tenants' own clean stream
      // histories (BuildZipfTrainingSegments) through the same segment-fit
      // path the refresh loop's candidates use.
      const std::vector<Tensor> segments = BuildZipfTrainingSegments(
          flags, stats, k, /*min_rows=*/config.model.window);
      IMDIFF_CHECK(!segments.empty())
          << "no tenant stream is long enough to train on; raise "
             "--total-samples or lower --tenants";
      detector->FitRawSegments(segments, &stats);
    } else {
      detector->Fit(ApplyMinMax(train_set.train, stats));
    }
    std::printf("model: fitted in %.1fs\n", fit_timer.ElapsedSeconds());
    if (!flags.model_path.empty()) {
      if (serve::SaveModelWithRetry(*detector, flags.model_path)) {
        std::printf("model: checkpoint written to %s\n",
                    flags.model_path.c_str());
      } else {
        IMDIFF_LOG(Warning) << "checkpoint save failed; continuing with the "
                               "in-memory model";
      }
    }
    registry.Publish("latency", std::move(detector), stats);
  }
  std::shared_ptr<const serve::ModelEntry> model = registry.Acquire("latency");
  IMDIFF_CHECK(model != nullptr);

  // One stream realization per tenant (classic mode only: load-generator
  // streams are scheduled and generated inside ReplayLoad).
  std::vector<serve::TenantStream> streams;
  if (flags.zipf <= 0.0) {
    for (int64_t t = 0; t < flags.tenants; ++t) {
      serve::TenantStream stream;
      char name[32];
      std::snprintf(name, sizeof(name), "tenant-%02" PRId64, t);
      stream.tenant = name;
      stream.samples = MakeMicroserviceLatencyDataset(
                           flags.seed + 1 + static_cast<uint64_t>(t),
                           /*num_services=*/6, /*train_length=*/1,
                           /*test_length=*/flags.samples)
                           .test;
      streams.push_back(std::move(stream));
    }
  }

  serve::StreamServer::Options options;
  options.num_workers = flags.workers;
  options.queue_capacity = flags.queue;
  options.session.online.block = flags.block;
  options.session.online.context = flags.context;
  options.session.max_resident = flags.max_resident;
  options.session.max_stashed = flags.max_stashed;
  options.session.seed_base = flags.seed;
  options.batch.max_batch_windows = flags.batch_windows;
  options.batch.flush_window_seconds = flags.flush_ms / 1000.0;
  options.deadline_seconds = flags.deadline_ms / 1000.0;
  options.force_degrade_level = flags.force_degrade;
  if (flags.refresh_every > 0) {
    IMDIFF_CHECK(flags.zipf > 0.0)
        << "--refresh-every requires the --zipf load mode";
    options.session.refresh_recent = flags.refresh_recent;
    options.refresh.enabled = true;
    options.refresh.registry = &registry;  // outlives the server (this frame)
    options.refresh.model_name = "latency";
    options.refresh.refresh_every = flags.refresh_every;
    options.refresh.shadow_fraction = flags.shadow_fraction;
    options.refresh.verdict_pairs = flags.verdict_pairs;
    options.refresh.psi_promote = flags.refresh_psi;
    options.refresh.ks_promote = flags.refresh_ks;
    options.refresh.mean_ratio_promote = flags.refresh_mean_ratio;
    options.refresh.fit_epochs = static_cast<int>(flags.refresh_epochs);
  }

  if (flags.shards > 0) {
    return RunShardedLoad(flags, stats, k);
  }
  if (flags.zipf > 0.0) return RunZipfLoad(flags, std::move(model), options);

  std::printf(
      "replay: %" PRId64 " tenants x %" PRId64
      " samples (block=%" PRId64 " context=%" PRId64 " flush=%.1fms "
      "workers=%d queue=%" PRId64 " max_resident=%" PRId64 ")\n",
      flags.tenants, flags.samples, flags.block, flags.context, flags.flush_ms,
      flags.workers, flags.queue, flags.max_resident);
  const serve::ReplayStats served =
      serve::ReplayThroughServer(model, streams, options);

  MetricsRegistry& metrics = MetricsRegistry::Global();
  const int64_t cache_hits = metrics.GetCounter("serve.cache_hits")->value();
  const int64_t cache_misses =
      metrics.GetCounter("serve.cache_misses")->value();
  const int64_t dropped =
      metrics.GetCounter("serve.requests_dropped")->value();
  std::printf(
      "served: %.2fs, %.1f points/s, %" PRId64 " alerts, %" PRId64
      " rejected submits, %" PRId64 " batches (%" PRId64
      " windows scored, %" PRId64 " cache hits / %" PRId64 " misses)\n",
      served.seconds, served.points_per_second, served.alerts, served.rejected,
      metrics.GetCounter("serve.batches")->value(),
      metrics.GetCounter("serve.batched_windows")->value(), cache_hits,
      cache_misses);
  Histogram* queue_wait = metrics.GetHistogram("serve.queue_wait_seconds");
  Histogram* alert_latency =
      metrics.GetHistogram("serve.alert_latency_seconds");
  std::printf(
      "latency: queue_wait p50=%.1fms p90=%.1fms p99=%.1fms | "
      "ready->alert p50=%.1fms p90=%.1fms p99=%.1fms | drops=%" PRId64 "\n",
      queue_wait->Percentile(0.5) * 1e3, queue_wait->Percentile(0.9) * 1e3,
      queue_wait->Percentile(0.99) * 1e3, alert_latency->Percentile(0.5) * 1e3,
      alert_latency->Percentile(0.9) * 1e3,
      alert_latency->Percentile(0.99) * 1e3, dropped);
  std::printf("sessions: %" PRId64 " created, %" PRId64 " evictions, %" PRId64
              " rehydrations\n",
              metrics.GetCounter("serve.sessions_created")->value(),
              metrics.GetCounter("serve.sessions_evicted")->value(),
              metrics.GetCounter("serve.sessions_rehydrated")->value());

  const int64_t degraded = metrics.GetCounter("serve.degraded_blocks")->value();
  const int64_t rehydrate_failures =
      metrics.GetCounter("serve.rehydrate_failures")->value();
  const int64_t arena_fallbacks = metrics.GetCounter("arena.fallback")->value();
  if (!flags.faults.empty() || flags.deadline_ms > 0.0) {
    std::printf("degradation: %" PRId64 " degraded blocks (%" PRId64
                " degraded alerts), %" PRId64 " arena fallbacks, %" PRId64
                " forced flushes, %" PRId64 " rehydrate failures\n",
                degraded, served.degraded_alerts, arena_fallbacks,
                metrics.GetCounter("serve.flush_timeouts")->value(),
                rehydrate_failures);
    std::printf("registry: %" PRId64 " load retries, %" PRId64
                " load fallbacks, %" PRId64 " save retries, %" PRId64
                " save failures\n",
                metrics.GetCounter("registry.load_retries")->value(),
                metrics.GetCounter("registry.load_fallbacks")->value(),
                metrics.GetCounter("registry.save_retries")->value(),
                metrics.GetCounter("registry.save_failures")->value());
  }

  int exit_code = 0;
  // A forced level (--force-degrade) applies uniformly to every block, so
  // the serial baseline is scored at the same level and the bitwise
  // comparison still runs. Only policy- or chaos-chosen degradation — whose
  // placement depends on queue timing or the fault seed — or dropped session
  // state makes the serial reference wrong.
  const int64_t unforced_degraded = flags.force_degrade >= 0 ? 0 : degraded;
  if (flags.compare_serial &&
      (unforced_degraded > 0 || rehydrate_failures > 0)) {
    // Degraded blocks score a truncated chain and a dropped stash resets a
    // tenant's stream positions — either makes the full-quality serial
    // baseline the wrong reference. Determinism is checked differently in
    // chaos runs: two identical runs must produce identical --scores-out.
    std::printf("serial: comparison skipped (%" PRId64 " degraded blocks, "
                "%" PRId64 " rehydrate failures)\n",
                degraded, rehydrate_failures);
  } else if (flags.compare_serial) {
    // Serial baseline: per-tenant fresh scoring, no batching, no cache —
    // pinned to the forced level when one is set.
    const int serial_level = flags.force_degrade >= 0 ? flags.force_degrade : 0;
    Stopwatch serial_timer;
    int64_t mismatched_tenants = 0;
    for (const serve::TenantStream& stream : streams) {
      const std::vector<float> serial = serve::ReplaySerial(
          *model, options.session.online, options.session.seed_base, stream,
          serial_level);
      const std::vector<float>& batched = served.scores.at(stream.tenant);
      if (serial != batched) {
        ++mismatched_tenants;
        IMDIFF_LOG(Error) << "score stream mismatch for " << stream.tenant;
      }
    }
    const double serial_seconds = serial_timer.ElapsedSeconds();
    const double ratio =
        served.seconds > 0.0 ? serial_seconds / served.seconds : 0.0;
    std::printf(
        "serial: %.2fs (%.1f points/s) -> aggregate speedup %.2fx, "
        "bitwise %s\n",
        serial_seconds,
        serial_seconds > 0.0 ? static_cast<double>(served.submitted) /
                                   serial_seconds
                             : 0.0,
        ratio, mismatched_tenants == 0 ? "IDENTICAL" : "MISMATCH");
    if (mismatched_tenants > 0) exit_code = 1;
  }

  if (!flags.scores_out.empty()) {
    // Hex-exact dump for cross-run bitwise comparison: one line per tenant
    // ("tenant score score ..."), then the fault counters that change what
    // is scored. Two runs with identical flags (including
    // --faults/--fault-seed) must produce byte-identical files, and so must
    // two builds that score identically. arena.fallback stays out: it
    // counts allocator traffic, which a build may change without changing a
    // score (it is in the log line and --metrics-out).
    std::ofstream out(flags.scores_out);
    for (const auto& [tenant, scores] : served.scores) {
      out << tenant;
      char buf[40];
      for (float s : scores) {
        std::snprintf(buf, sizeof(buf), " %a", static_cast<double>(s));
        out << buf;
      }
      out << "\n";
    }
    out << "serve.degraded_blocks " << degraded << "\n";
    out.flush();
    if (out.good()) {
      IMDIFF_LOG(Info) << "score dump written to " << flags.scores_out;
    } else {
      IMDIFF_LOG(Error) << "failed to write score dump to "
                        << flags.scores_out;
      exit_code = 1;
    }
  }

  if (!flags.metrics_out.empty()) {
    if (WriteMetricsJson(flags.metrics_out)) {
      IMDIFF_LOG(Info) << "metrics snapshot written to " << flags.metrics_out;
    } else {
      IMDIFF_LOG(Error) << "failed to write metrics snapshot to "
                        << flags.metrics_out;
      exit_code = 1;
    }
  }
  if (flags.fail_on_shed && dropped > 0) {
    IMDIFF_LOG(Error) << "--fail-on-shed: " << dropped
                      << " submissions were dropped at ingest";
    exit_code = 1;
  }
  return exit_code;
}

}  // namespace
}  // namespace imdiff

int main(int argc, char** argv) { return imdiff::Main(argc, argv); }
