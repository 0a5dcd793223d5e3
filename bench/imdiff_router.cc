// Router front process for multi-process sharded serving (DESIGN.md §16).
//
// Attaches to N running `imdiff_worker` processes over their unix-domain
// sockets (`<socket-dir>/shard-<id>.sock`, the convention `serve_replay
// --shards` uses when it spawns workers itself) and runs operator commands
// against the fleet: a health probe of every shard, one merged metrics
// report (MergeMetricsJson over all shard snapshots plus the router's own),
// live tenant moves, a deterministic chaos kill, and graceful shutdown.
//
// Usage: imdiff_router --shards N [--socket-dir D] [--seed S]
//   [--metrics-out PATH] [--move TENANT=SHARD]... [--crash SHARD]
//   [--shutdown]
//
// Commands run in a fixed order: health probe (always printed), then moves,
// then --crash, then --metrics-out, then --shutdown. Exits nonzero when any
// shard is unreachable, misidentified, or a command fails.

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "serve/router.h"
#include "utils/check.h"
#include "utils/flags.h"
#include "utils/logging.h"

namespace imdiff {
namespace {

struct RouterFlags {
  int64_t shards = 0;
  std::string socket_dir = ".";
  uint64_t seed = 1;
  std::string metrics_out;
  std::vector<std::pair<std::string, int64_t>> moves;  // tenant -> shard
  int64_t crash_shard = -1;
  bool shutdown = false;
};

RouterFlags ParseFlags(int argc, char** argv) {
  RouterFlags flags;
  for (int i = 1; i < argc; ++i) {
    const char* const flag = argv[i];
    auto next = [&]() {
      IMDIFF_CHECK(i + 1 < argc) << flag << "needs a value";
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--shards") == 0) {
      flags.shards = FlagValue<int64_t>(flag, next());
    } else if (std::strcmp(argv[i], "--socket-dir") == 0) {
      flags.socket_dir = next();
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      flags.seed = FlagValue<uint64_t>(flag, next());
    } else if (std::strcmp(argv[i], "--metrics-out") == 0) {
      flags.metrics_out = next();
    } else if (std::strcmp(argv[i], "--move") == 0) {
      const std::string spec = next();
      const size_t eq = spec.rfind('=');
      IMDIFF_CHECK(eq != std::string::npos && eq > 0)
          << "--move wants TENANT=SHARD, got" << spec;
      flags.moves.emplace_back(
          spec.substr(0, eq), FlagValue<int64_t>(flag, spec.c_str() + eq + 1));
    } else if (std::strcmp(argv[i], "--crash") == 0) {
      flags.crash_shard = FlagValue<int64_t>(flag, next());
    } else if (std::strcmp(argv[i], "--shutdown") == 0) {
      flags.shutdown = true;
    } else {
      IMDIFF_CHECK(false) << "unknown flag" << argv[i];
    }
  }
  IMDIFF_CHECK_GE(flags.shards, 1) << "--shards is required";
  return flags;
}

int Main(int argc, char** argv) {
  const RouterFlags flags = ParseFlags(argc, argv);

  serve::RouterOptions options;
  options.seed = flags.seed;
  for (int64_t s = 0; s < flags.shards; ++s) {
    serve::ShardSpec spec;
    spec.id = s;
    char name[64];
    std::snprintf(name, sizeof(name), "/shard-%02" PRId64 ".sock", s);
    spec.socket_path = flags.socket_dir + name;
    options.shards.push_back(std::move(spec));
  }

  serve::ShardRouter router(options);
  if (!router.Connect()) {
    IMDIFF_LOG(Error) << "connect failed: " << router.error();
    return 1;
  }

  int exit_code = 0;
  const std::vector<int64_t> alive = router.AliveShards();
  const std::vector<net::HealthResultMsg> health = router.Health();
  std::printf("shard  pid      accepted  shed  resident  stashed\n");
  for (size_t i = 0; i < health.size() && i < alive.size(); ++i) {
    std::printf("%-5" PRId64 "  %-7" PRId64 "  %-8" PRId64 "  %-4" PRId64
                "  %-8" PRId64 "  %" PRId64 "\n",
                alive[i], health[i].pid, health[i].accepted, health[i].shed,
                health[i].resident_sessions, health[i].stashed_sessions);
  }
  if (health.size() != static_cast<size_t>(flags.shards)) {
    IMDIFF_LOG(Error) << "health: " << health.size() << " of " << flags.shards
                      << " shards responded";
    exit_code = 1;
  }

  for (const auto& [tenant, shard] : flags.moves) {
    if (router.MoveTenant(tenant, shard)) {
      std::printf("move: %s -> shard %" PRId64 "\n", tenant.c_str(), shard);
    } else {
      IMDIFF_LOG(Error) << "move failed: " << tenant << " -> shard " << shard;
      exit_code = 1;
    }
  }

  if (flags.crash_shard >= 0) {
    router.CrashShard(flags.crash_shard);
    std::printf("crash: shard %" PRId64 " killed, %" PRId64
                " shards remain\n",
                flags.crash_shard, router.alive_shards());
  }

  if (!flags.metrics_out.empty()) {
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

  if (flags.shutdown) {
    router.ShutdownAll();
    std::printf("shutdown: all shards stopped\n");
  }
  return exit_code;
}

}  // namespace
}  // namespace imdiff

int main(int argc, char** argv) { return imdiff::Main(argc, argv); }
