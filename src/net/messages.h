// Typed messages of the router <-> worker protocol (DESIGN.md §16).
//
// Control messages (publish/drain/export/import/snapshot/health/metrics) are
// strict request/response with one outstanding request per shard; Submit and
// ScoredBlock are fire-and-forget streams riding the same FIFO connection.
// Every Decode validates the frame type, every field read, and full payload
// consumption, so a corrupt frame is rejected as a unit (the connection is
// dropped) rather than half-applied.

#ifndef IMDIFF_NET_MESSAGES_H_
#define IMDIFF_NET_MESSAGES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "net/frame.h"

namespace imdiff {
namespace net {

enum class MsgType : uint8_t {
  kHello = 1,         // worker -> router, first frame of every connection
  kPublish = 2,       // router -> worker: warm-load a checkpoint
  kPublishResult = 3,
  kSubmit = 4,        // router -> worker: one tenant sample (fire-and-forget)
  kScoredBlock = 5,   // worker -> router: one scored block (fire-and-forget)
  kDrain = 6,         // router -> worker: barrier; respond when idle
  kDrainResult = 7,
  kExportState = 8,   // destructive session export (resharding move)
  kExportResult = 9,
  kImportState = 10,  // inject a session snapshot into the worker's stash
  kImportResult = 11,
  kSnapshot = 12,     // non-destructive export of every session
  kSnapshotResult = 13,
  kHealth = 14,
  kHealthResult = 15,
  kMetrics = 16,      // worker -> router: full MetricsToJson snapshot
  kMetricsResult = 17,
  kShutdown = 18,     // graceful: drain, stop serving, exit 0
  kCrash = 19,        // chaos: abandon state and exit immediately
};

struct HelloMsg {
  int64_t shard_id = -1;
};

struct PublishMsg {
  std::string name;
  std::string checkpoint_path;
  int64_t num_features = 0;
  uint64_t config_seed = 0;
  std::vector<float> stats_min;  // train-split normalization (MinMaxStats)
  std::vector<float> stats_max;
};

struct PublishResultMsg {
  int64_t version = -1;  // <= 0: load failed past every retry
};

struct SubmitMsg {
  std::string tenant;
  std::vector<float> sample;
  std::vector<uint8_t> observed;  // empty = fully observed
};

struct ScoredBlockMsg {
  std::string tenant;
  int64_t block_index = 0;
  int64_t start = 0;  // global stream position of the first score
  int64_t degrade_level = 0;
  double latency_seconds = 0.0;
  std::vector<float> scores;
};

struct DrainMsg {
  uint64_t token = 0;
};

// Cumulative worker totals (not per-drain deltas): idempotent under the
// transport's at-least-once delivery.
struct DrainResultMsg {
  uint64_t token = 0;
  int64_t accepted = 0;
  int64_t shed = 0;
  int64_t alerts = 0;
  int64_t degraded_blocks = 0;
  // Continuous-refresh activity (DESIGN.md §18): refresh promotions applied
  // and shadow blocks dual-scored on this worker. Shadow blocks themselves
  // never cross the wire — only these counts do.
  int64_t promotions = 0;
  int64_t shadow_blocks = 0;
};

// One serialized session: `state` is the SerializeSession byte format
// (serve/session_manager.h) — the OnlineDetector streaming state plus the
// per-session block counter.
struct SessionBlob {
  std::string tenant;
  std::vector<uint8_t> state;
};

struct ExportStateMsg {
  std::string tenant;
};

struct ExportResultMsg {
  uint8_t found = 0;
  SessionBlob session;
};

struct ImportStateMsg {
  SessionBlob session;
};

struct ImportResultMsg {
  uint8_t ok = 0;
};

struct SnapshotMsg {
  uint64_t token = 0;
};

struct SnapshotResultMsg {
  uint64_t token = 0;
  std::vector<SessionBlob> sessions;
};

struct HealthMsg {};

struct HealthResultMsg {
  int64_t pid = 0;
  int64_t accepted = 0;
  int64_t shed = 0;
  int64_t resident_sessions = 0;
  int64_t stashed_sessions = 0;
};

struct MetricsMsg {};

struct MetricsResultMsg {
  std::string json;
};

Frame Encode(const HelloMsg& m);
Frame Encode(const PublishMsg& m);
Frame Encode(const PublishResultMsg& m);
Frame Encode(const SubmitMsg& m);
Frame Encode(const ScoredBlockMsg& m);
Frame Encode(const DrainMsg& m);
Frame Encode(const DrainResultMsg& m);
Frame Encode(const ExportStateMsg& m);
Frame Encode(const ExportResultMsg& m);
Frame Encode(const ImportStateMsg& m);
Frame Encode(const ImportResultMsg& m);
Frame Encode(const SnapshotMsg& m);
Frame Encode(const SnapshotResultMsg& m);
Frame Encode(const HealthMsg& m);
Frame Encode(const HealthResultMsg& m);
Frame Encode(const MetricsMsg& m);
Frame Encode(const MetricsResultMsg& m);
// Payload-less control frames.
Frame MakeControlFrame(MsgType type);

bool Decode(const Frame& f, HelloMsg* m);
bool Decode(const Frame& f, PublishMsg* m);
bool Decode(const Frame& f, PublishResultMsg* m);
bool Decode(const Frame& f, SubmitMsg* m);
bool Decode(const Frame& f, ScoredBlockMsg* m);
bool Decode(const Frame& f, DrainMsg* m);
bool Decode(const Frame& f, DrainResultMsg* m);
bool Decode(const Frame& f, ExportStateMsg* m);
bool Decode(const Frame& f, ExportResultMsg* m);
bool Decode(const Frame& f, ImportStateMsg* m);
bool Decode(const Frame& f, ImportResultMsg* m);
bool Decode(const Frame& f, SnapshotMsg* m);
bool Decode(const Frame& f, SnapshotResultMsg* m);
bool Decode(const Frame& f, HealthResultMsg* m);
bool Decode(const Frame& f, MetricsResultMsg* m);

}  // namespace net
}  // namespace imdiff

#endif  // IMDIFF_NET_MESSAGES_H_
