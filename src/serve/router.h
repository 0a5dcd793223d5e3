// Shard router: the front process of multi-process sharded serving
// (DESIGN.md §16). Places tenants on N shard workers via consistent hashing,
// forwards samples over ClientChannels, collects scored blocks from per-shard
// reader threads, and aggregates worker state (drain totals, metrics
// snapshots, session stash copies) into one view.
//
// Fault tolerance is journal + stash replay:
//  - At every drain barrier the router refreshes a stash copy of every
//    session (kSnapshot, all-or-nothing commit across shards) and clears its
//    sample journal; between barriers every Submit is journaled.
//  - When a shard dies (send failure, reader down, or an explicit
//    CrashShard), its tenants are re-placed on the survivors: the router
//    imports its barrier-time stash copy and replays the journaled samples
//    since the barrier, in order. The rebuilt worker state is bitwise
//    identical to the lost one — scoring is a pure function of the sample
//    sequence — so re-emitted blocks duplicate already-delivered ones
//    exactly (the assembler checks equality) and nothing is lost.
//
// Threading contract: the control plane (Connect / Submit / DrainAll /
// MoveTenant / CrashShard / ...) is single-threaded — one owner thread calls
// it, matching the one-outstanding-request-per-shard protocol. The
// BlockCallback runs on per-shard reader threads, concurrently with the
// control plane and with itself.

#ifndef IMDIFF_SERVE_ROUTER_H_
#define IMDIFF_SERVE_ROUTER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "net/messages.h"
#include "utils/fault.h"

namespace imdiff {
namespace serve {

struct ShardSpec {
  int64_t id = 0;
  std::string socket_path;
};

struct RouterOptions {
  std::vector<ShardSpec> shards;
  // Reconnect/dial policy for every shard channel; `seed` drives the
  // deterministic backoff jitter (salted per shard and per redial).
  BackoffPolicy reconnect;
  uint64_t seed = 1;
  // Virtual nodes per shard on the consistent-hash ring. More vnodes spread
  // tenants more evenly; placement stays a pure function of (shard ids,
  // tenant name), independent of this process's history.
  int vnodes = 64;
  // Refresh the router-held session stash copies at every DrainAll barrier.
  // Disabling keeps recovery pinned to the last explicit snapshot (tests).
  bool snapshot_on_drain = true;
  // Gates the client-side transport fault points (transport.drop /
  // transport.short_write) on every shard channel.
  bool inject_faults = true;
};

class ShardRouter {
 public:
  // Scored-block delivery; runs on a per-shard reader thread. `shard_id` is
  // the shard that scored the block (after resharding a tenant's blocks can
  // arrive from different shards over time).
  using BlockCallback =
      std::function<void(int64_t shard_id, const net::ScoredBlockMsg&)>;

  explicit ShardRouter(const RouterOptions& options,
                       BlockCallback on_block = nullptr);
  ~ShardRouter();

  // Replaces the scored-block callback (e.g. a replay harness wiring its
  // assembler into an already-connected router). Thread-safe with respect to
  // concurrent deliveries; the previous callback receives no further blocks
  // once this returns.
  void set_on_block(BlockCallback on_block);

  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  // Dials every shard, validates the hello handshake (shard id must match
  // the spec — a mismatch means crossed sockets or a duplicate id), and
  // starts the reader threads. False when any shard is unreachable or
  // mis-identified; `error()` then describes the failure.
  bool Connect();

  // Publishes a checkpoint to every shard (kPublish, pipelined). False when
  // any shard fails to load past its retries.
  bool Publish(const std::string& name, const std::string& checkpoint_path,
               int64_t num_features, uint64_t config_seed,
               const std::vector<float>& stats_min,
               const std::vector<float>& stats_max);

  // Journals and forwards one sample to the tenant's shard. A dead shard
  // triggers recovery (re-place + rehydrate + journal replay) transparently;
  // false only when no shard survives.
  bool Submit(const std::string& tenant, const std::vector<float>& sample,
              const std::vector<uint8_t>& observed);

  struct DrainTotals {
    int64_t accepted = 0;  // cumulative, summed over live shards
    int64_t shed = 0;
    int64_t alerts = 0;
    int64_t degraded_blocks = 0;
    // Continuous-refresh activity across live shards (DESIGN.md §18).
    int64_t promotions = 0;
    int64_t shadow_blocks = 0;
  };
  // Barrier: drains every live shard (pipelined — shards drain in
  // parallel), then refreshes the stash copies (all-or-nothing) and clears
  // the journal. Shard deaths during the barrier are recovered and the
  // barrier retried. False only when no shard survives.
  bool DrainAll(DrainTotals* totals);

  // Live resharding move; call only at a barrier (right after DrainAll).
  // Exports the session from its current shard (destructive), imports it on
  // `target_shard`, and repins the tenant. A tenant the source shard does
  // not know (never submitted, or already moved) just repins. False when
  // either end fails; a shard death mid-move is recovered first.
  bool MoveTenant(const std::string& tenant, int64_t target_shard);

  // Chaos: orders `shard_id` to abandon all state and exit (kCrash), waits
  // for the connection to die, then runs shard-down recovery. No-op on an
  // unknown or already-dead shard.
  void CrashShard(int64_t shard_id);

  // Health probe of every live shard (pipelined).
  std::vector<net::HealthResultMsg> Health();

  // MergeMetricsJson over every live shard's registry snapshot plus this
  // process's own — the one-report aggregation the bench harness prints.
  std::string MergedMetricsJson();

  // Graceful: kShutdown to every live shard, wait for their exits.
  void ShutdownAll();

  // Current placement of `tenant` (assignment if pinned, ring otherwise);
  // -1 when no shard is alive.
  int64_t ShardOf(const std::string& tenant);

  int64_t alive_shards() const;
  // Ids of the shards still alive, in spec order — the deterministic basis
  // for chaos target and reshard destination choices.
  std::vector<int64_t> AliveShards() const;
  const std::string& error() const { return error_; }

 private:
  struct Shard;

  Shard* FindShard(int64_t shard_id);
  void ReaderLoop(Shard* shard);
  // Sends `request` and blocks for the matching response type. False when
  // the shard went down first. Stale responses (from a barrier round that
  // was aborted by another shard's death) are discarded by `want` mismatch
  // or by token check at the caller.
  bool Request(Shard* shard, const net::Frame& request, net::MsgType want,
               net::Frame* response);
  bool AwaitResponse(Shard* shard, net::MsgType want, net::Frame* response);
  // Token-checked awaits for the barrier: results of an earlier aborted
  // round carry a stale token and are discarded.
  bool AwaitDrainResult(Shard* shard, uint64_t token,
                        net::DrainResultMsg* out);
  bool AwaitSnapshotResult(Shard* shard, uint64_t token,
                           net::SnapshotResultMsg* out);
  // Ring placement over live shards; -1 when the ring is empty.
  int64_t Place(const std::string& tenant) const;
  // Marks the shard dead, removes it from the ring, re-places its tenants on
  // the survivors (stash import + journal replay). Re-entrant: a survivor
  // dying mid-recovery recovers recursively. False when no shard survives.
  bool HandleShardDown(int64_t shard_id);
  // Delivers one journal entry to the tenant's current shard. kReplayed
  // means the shard died and its (nested) recovery already replayed this
  // tenant's whole journal — the caller stops replaying it.
  enum class SendStatus { kSent, kReplayed, kFailed };
  SendStatus SendJournaled(const std::string& tenant,
                           const std::vector<float>& sample,
                           const std::vector<uint8_t>& observed);

  const RouterOptions options_;
  std::mutex on_block_mu_;  // readers dispatch under it; set_on_block swaps
  BlockCallback on_block_;
  std::string error_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::map<uint64_t, int64_t> ring_;  // hash point -> shard id (live only)
  std::map<std::string, int64_t> assignment_;  // tenant -> shard id
  // Sample journal since the last committed barrier, in submit order.
  struct JournalEntry {
    std::string tenant;
    std::vector<float> sample;
    std::vector<uint8_t> observed;
  };
  std::vector<JournalEntry> journal_;
  // Barrier-time session copies: tenant -> SerializeSession bytes.
  std::map<std::string, std::vector<uint8_t>> stash_;
  uint64_t barrier_token_ = 0;
  bool shutdown_ = false;
};

}  // namespace serve
}  // namespace imdiff

#endif  // IMDIFF_SERVE_ROUTER_H_
