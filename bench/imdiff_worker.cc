// Shard worker process for multi-process sharded serving (DESIGN.md §16).
//
// Binds a unix-domain socket, announces its shard id, and serves the
// router <-> worker protocol (net/messages.h) over one StreamServer:
// publish-by-checkpoint, submit, drain barriers, session export/import for
// live resharding, bulk snapshots for the router's recovery stash, health
// and metrics probes. Normally spawned by `serve_replay --shards N` or by
// hand under `imdiff_router`.
//
// The StreamServer options must match the run's single-process baseline for
// bitwise score parity, so the serving flags mirror serve_replay's.
//
// Usage: imdiff_worker --socket PATH [--shard-id N] [--block B] [--context C]
//   [--flush-ms F] [--batch-windows W] [--queue Q] [--workers N]
//   [--max-resident S] [--max-stashed S] [--seed S] [--epochs E]
//   [--deadline-ms D] [--force-degrade L]
//   [--refresh-every N] [--refresh-recent N] [--shadow-fraction F]
//   [--verdict-pairs P] [--refresh-psi X] [--refresh-ks X]
//   [--refresh-mean-ratio X] [--refresh-epochs N]
//
// --refresh-every N > 0 enables the continuous-refresh loop (DESIGN.md §18)
// on this shard: every N accepted samples the worker refits a candidate on
// its sessions' recent-sample window, shadow-scores a seeded fraction of
// traffic against it, and auto-promotes on the drift verdict. Each shard
// refreshes independently on its own tenants. Shadow blocks never cross the
// wire; drain results report promotions and shadow-block counts.
//
// Exits 0 on a graceful kShutdown (or channel teardown), 1 when the socket
// path is unusable (stale socket file: fail fast, never clobber), 2 on a
// chaos kCrash.

#include <cstring>
#include <string>

#include "core/imdiffusion.h"
#include "serve/worker.h"
#include "utils/check.h"
#include "utils/flags.h"

namespace imdiff {
namespace {

int Main(int argc, char** argv) {
  serve::WorkerOptions options;
  options.config = FastImDiffusionConfig();
  // Deterministic single-shard scoring by default: one ingest worker, flushes
  // only at drain barriers (the replay harness overrides via flags).
  options.serve.num_workers = 1;
  uint64_t seed = 42;
  int64_t block = 100;
  int64_t context = 200;
  double flush_ms = 10.0;
  for (int i = 1; i < argc; ++i) {
    const char* const flag = argv[i];
    auto next = [&]() {
      IMDIFF_CHECK(i + 1 < argc) << flag << "needs a value";
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--socket") == 0) {
      options.socket_path = next();
    } else if (std::strcmp(argv[i], "--shard-id") == 0) {
      options.shard_id = FlagValue<int64_t>(flag, next());
    } else if (std::strcmp(argv[i], "--block") == 0) {
      block = FlagValue<int64_t>(flag, next());
    } else if (std::strcmp(argv[i], "--context") == 0) {
      context = FlagValue<int64_t>(flag, next());
    } else if (std::strcmp(argv[i], "--flush-ms") == 0) {
      flush_ms = FlagValue<double>(flag, next());
    } else if (std::strcmp(argv[i], "--batch-windows") == 0) {
      options.serve.batch.max_batch_windows =
          FlagValue<int64_t>(flag, next());
    } else if (std::strcmp(argv[i], "--queue") == 0) {
      options.serve.queue_capacity = FlagValue<int64_t>(flag, next());
    } else if (std::strcmp(argv[i], "--workers") == 0) {
      options.serve.num_workers = FlagValue<int>(flag, next());
    } else if (std::strcmp(argv[i], "--max-resident") == 0) {
      options.serve.session.max_resident =
          FlagValue<int64_t>(flag, next());
    } else if (std::strcmp(argv[i], "--max-stashed") == 0) {
      options.serve.session.max_stashed = FlagValue<int64_t>(flag, next());
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      seed = FlagValue<uint64_t>(flag, next());
    } else if (std::strcmp(argv[i], "--epochs") == 0) {
      options.config.epochs = FlagValue<int>(flag, next());
    } else if (std::strcmp(argv[i], "--deadline-ms") == 0) {
      options.serve.deadline_seconds =
          FlagValue<double>(flag, next()) / 1000.0;
    } else if (std::strcmp(argv[i], "--force-degrade") == 0) {
      options.serve.force_degrade_level = FlagValue<int>(flag, next());
    } else if (std::strcmp(argv[i], "--refresh-every") == 0) {
      options.serve.refresh.refresh_every =
          FlagValue<int64_t>(flag, next());
      options.serve.refresh.enabled = options.serve.refresh.refresh_every > 0;
    } else if (std::strcmp(argv[i], "--refresh-recent") == 0) {
      options.serve.session.refresh_recent =
          FlagValue<int64_t>(flag, next());
    } else if (std::strcmp(argv[i], "--shadow-fraction") == 0) {
      options.serve.refresh.shadow_fraction =
          FlagValue<double>(flag, next());
    } else if (std::strcmp(argv[i], "--verdict-pairs") == 0) {
      options.serve.refresh.verdict_pairs =
          FlagValue<int64_t>(flag, next());
    } else if (std::strcmp(argv[i], "--refresh-psi") == 0) {
      options.serve.refresh.psi_promote = FlagValue<double>(flag, next());
    } else if (std::strcmp(argv[i], "--refresh-ks") == 0) {
      options.serve.refresh.ks_promote = FlagValue<double>(flag, next());
    } else if (std::strcmp(argv[i], "--refresh-mean-ratio") == 0) {
      options.serve.refresh.mean_ratio_promote =
          FlagValue<double>(flag, next());
    } else if (std::strcmp(argv[i], "--refresh-epochs") == 0) {
      options.serve.refresh.fit_epochs = FlagValue<int>(flag, next());
    } else {
      IMDIFF_CHECK(false) << "unknown flag" << argv[i];
    }
  }
  IMDIFF_CHECK(!options.socket_path.empty()) << "--socket is required";
  if (options.serve.refresh.enabled &&
      options.serve.session.refresh_recent <= 0) {
    options.serve.session.refresh_recent = 256;  // match serve_replay default
  }
  options.serve.session.online.block = block;
  options.serve.session.online.context = context;
  options.serve.session.seed_base = seed;
  options.serve.batch.flush_window_seconds = flush_ms / 1000.0;
  return serve::RunShardWorker(options);
}

}  // namespace
}  // namespace imdiff

int main(int argc, char** argv) { return imdiff::Main(argc, argv); }
