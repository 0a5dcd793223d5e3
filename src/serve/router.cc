#include "serve/router.h"

#include <algorithm>
#include <condition_variable>
#include <mutex>
#include <set>
#include <thread>
#include <utility>

#include "net/channel.h"
#include "utils/logging.h"
#include "utils/metrics.h"
#include "utils/rng.h"

namespace imdiff {
namespace serve {
namespace {

struct RouterMetrics {
  Counter* recoveries;
  Counter* displaced;
  Counter* journal_replays;
  Counter* moves;
  Counter* blocks_received;
  Counter* protocol_errors;

  RouterMetrics()
      : recoveries(MetricsRegistry::Global().GetCounter(
            "router.shard_down_recoveries")),
        displaced(
            MetricsRegistry::Global().GetCounter("router.tenants_displaced")),
        journal_replays(
            MetricsRegistry::Global().GetCounter("router.journal_replays")),
        moves(MetricsRegistry::Global().GetCounter("router.moves")),
        blocks_received(
            MetricsRegistry::Global().GetCounter("router.blocks_received")),
        protocol_errors(
            MetricsRegistry::Global().GetCounter("net.protocol_errors")) {}
};

RouterMetrics& Metrics() {
  static RouterMetrics* m = new RouterMetrics();
  return *m;
}

}  // namespace

struct ShardRouter::Shard {
  int64_t id = 0;
  std::string path;
  std::unique_ptr<net::ClientChannel> channel;
  std::thread reader;

  std::mutex mu;
  std::condition_variable cv;
  bool conn_down = false;  // reader thread exited (channel went kDown)
  bool hello_seen = false;
  int64_t hello_id = -1;
  bool has_response = false;
  net::Frame response;

  // Control-plane only (single owner thread): recovery has processed this
  // shard; it is off the ring and its channel is closed.
  bool dead = false;
};

ShardRouter::ShardRouter(const RouterOptions& options, BlockCallback on_block)
    : options_(options), on_block_(std::move(on_block)) {}

ShardRouter::~ShardRouter() {
  ShutdownAll();
}

void ShardRouter::set_on_block(BlockCallback on_block) {
  std::lock_guard<std::mutex> lock(on_block_mu_);
  on_block_ = std::move(on_block);
}

ShardRouter::Shard* ShardRouter::FindShard(int64_t shard_id) {
  for (auto& s : shards_) {
    if (s->id == shard_id) return s.get();
  }
  return nullptr;
}

void ShardRouter::ReaderLoop(Shard* shard) {
  net::Frame frame;
  while (shard->channel->Recv(&frame) ==
         net::ClientChannel::Status::kFrame) {
    const auto type = static_cast<net::MsgType>(frame.type);
    if (type == net::MsgType::kHello) {
      net::HelloMsg hello;
      const bool ok = net::Decode(frame, &hello);
      if (!ok) Metrics().protocol_errors->Increment();
      {
        std::lock_guard<std::mutex> lock(shard->mu);
        shard->hello_seen = true;
        shard->hello_id = ok ? hello.shard_id : -1;
      }
      shard->cv.notify_all();
      continue;
    }
    if (type == net::MsgType::kScoredBlock) {
      net::ScoredBlockMsg block;
      if (!net::Decode(frame, &block)) {
        Metrics().protocol_errors->Increment();
        continue;
      }
      Metrics().blocks_received->Increment();
      {
        std::lock_guard<std::mutex> lock(on_block_mu_);
        if (on_block_) on_block_(shard->id, block);
      }
      continue;
    }
    // Control response: deposit (overwriting a stale one — only responses
    // from an aborted barrier round can be overwritten, and those are
    // discarded by the awaiting side anyway).
    {
      std::lock_guard<std::mutex> lock(shard->mu);
      shard->response = std::move(frame);
      shard->has_response = true;
    }
    shard->cv.notify_all();
  }
  {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->conn_down = true;
  }
  shard->cv.notify_all();
}

bool ShardRouter::Connect() {
  if (options_.shards.empty()) {
    error_ = "router: no shards configured";
    return false;
  }
  std::set<int64_t> ids;
  std::set<std::string> paths;
  for (const ShardSpec& spec : options_.shards) {
    if (!ids.insert(spec.id).second) {
      error_ = "router: duplicate shard id " + std::to_string(spec.id);
      return false;
    }
    if (!paths.insert(spec.socket_path).second) {
      error_ = "router: duplicate socket path " + spec.socket_path;
      return false;
    }
  }
  for (const ShardSpec& spec : options_.shards) {
    auto shard = std::make_unique<Shard>();
    shard->id = spec.id;
    shard->path = spec.socket_path;
    shard->channel = std::make_unique<net::ClientChannel>(
        spec.socket_path, options_.reconnect,
        MixSeed(options_.seed, static_cast<uint64_t>(spec.id)),
        options_.inject_faults);
    if (!shard->channel->Connect()) {
      error_ = "router: cannot reach shard " + std::to_string(spec.id) +
               " at " + spec.socket_path;
      return false;
    }
    shard->reader = std::thread(&ShardRouter::ReaderLoop, this, shard.get());
    shards_.push_back(std::move(shard));
  }
  // Hello handshake: every worker announces its shard id as the first frame;
  // a mismatch means crossed sockets (two workers launched with swapped
  // paths, or a stale worker of another run still bound there).
  for (auto& shard : shards_) {
    std::unique_lock<std::mutex> lock(shard->mu);
    shard->cv.wait(lock,
                   [&] { return shard->hello_seen || shard->conn_down; });
    if (!shard->hello_seen || shard->hello_id != shard->id) {
      error_ = "router: shard " + std::to_string(shard->id) + " at " +
               shard->path + " identified as " +
               std::to_string(shard->hello_id);
      return false;
    }
  }
  for (const ShardSpec& spec : options_.shards) {
    for (int v = 0; v < options_.vnodes; ++v) {
      ring_[MixSeed(static_cast<uint64_t>(spec.id),
                    static_cast<uint64_t>(v))] = spec.id;
    }
  }
  return true;
}

bool ShardRouter::AwaitResponse(Shard* shard, net::MsgType want,
                                net::Frame* response) {
  std::unique_lock<std::mutex> lock(shard->mu);
  while (true) {
    shard->cv.wait(lock,
                   [&] { return shard->has_response || shard->conn_down; });
    if (shard->has_response) {
      net::Frame frame = std::move(shard->response);
      shard->has_response = false;
      if (static_cast<net::MsgType>(frame.type) == want) {
        *response = std::move(frame);
        return true;
      }
      // Stale response from an aborted barrier round; drop and keep waiting.
      continue;
    }
    return false;
  }
}

bool ShardRouter::Request(Shard* shard, const net::Frame& request,
                          net::MsgType want, net::Frame* response) {
  if (shard->dead || !shard->channel->Send(request)) return false;
  return AwaitResponse(shard, want, response);
}

int64_t ShardRouter::Place(const std::string& tenant) const {
  if (ring_.empty()) return -1;
  // FNV alone clusters near-identical names ("tenant-000041" vs ...42) in
  // the high bits the ring compares on; the splitmix finalizer decorrelates
  // them so sequentially-named tenants still spread across shards.
  const uint64_t h = MixSeed(HashBytes(tenant.data(), tenant.size()), 0);
  auto it = ring_.lower_bound(h);
  if (it == ring_.end()) it = ring_.begin();
  return it->second;
}

int64_t ShardRouter::ShardOf(const std::string& tenant) {
  auto it = assignment_.find(tenant);
  if (it != assignment_.end()) return it->second;
  return Place(tenant);
}

int64_t ShardRouter::alive_shards() const {
  int64_t alive = 0;
  for (const auto& s : shards_) {
    if (!s->dead) ++alive;
  }
  return alive;
}

std::vector<int64_t> ShardRouter::AliveShards() const {
  std::vector<int64_t> ids;
  for (const auto& s : shards_) {
    if (!s->dead) ids.push_back(s->id);
  }
  return ids;
}

bool ShardRouter::Publish(const std::string& name,
                          const std::string& checkpoint_path,
                          int64_t num_features, uint64_t config_seed,
                          const std::vector<float>& stats_min,
                          const std::vector<float>& stats_max) {
  net::PublishMsg msg;
  msg.name = name;
  msg.checkpoint_path = checkpoint_path;
  msg.num_features = num_features;
  msg.config_seed = config_seed;
  msg.stats_min = stats_min;
  msg.stats_max = stats_max;
  const net::Frame frame = net::Encode(msg);
  // Pipelined: all shards load the checkpoint concurrently.
  for (auto& shard : shards_) {
    if (shard->dead) continue;
    if (!shard->channel->Send(frame)) {
      error_ = "router: publish send failed on shard " +
               std::to_string(shard->id);
      return false;
    }
  }
  for (auto& shard : shards_) {
    if (shard->dead) continue;
    net::Frame response;
    net::PublishResultMsg result;
    if (!AwaitResponse(shard.get(), net::MsgType::kPublishResult,
                       &response) ||
        !net::Decode(response, &result) || result.version <= 0) {
      error_ = "router: shard " + std::to_string(shard->id) +
               " failed to load " + checkpoint_path;
      return false;
    }
  }
  return true;
}

bool ShardRouter::Submit(const std::string& tenant,
                         const std::vector<float>& sample,
                         const std::vector<uint8_t>& observed) {
  journal_.push_back(JournalEntry{tenant, sample, observed});
  const int64_t shard_id = ShardOf(tenant);
  if (shard_id < 0) return false;
  assignment_[tenant] = shard_id;  // pin before send: recovery must see it
  Shard* shard = FindShard(shard_id);
  net::SubmitMsg msg;
  msg.tenant = tenant;
  msg.sample = sample;
  msg.observed = observed;
  if (shard != nullptr && !shard->dead &&
      shard->channel->Send(net::Encode(msg))) {
    return true;
  }
  // The shard died under us. Recovery re-places its tenants and replays the
  // journal — which already holds this sample, so there is nothing to
  // resend here.
  return HandleShardDown(shard_id);
}

ShardRouter::SendStatus ShardRouter::SendJournaled(
    const std::string& tenant, const std::vector<float>& sample,
    const std::vector<uint8_t>& observed) {
  net::SubmitMsg msg;
  msg.tenant = tenant;
  msg.sample = sample;
  msg.observed = observed;
  Shard* shard = FindShard(assignment_[tenant]);
  if (shard != nullptr && !shard->dead &&
      shard->channel->Send(net::Encode(msg))) {
    return SendStatus::kSent;
  }
  // The replacement died mid-replay; its recovery re-places this tenant and
  // replays the whole journal again from the stash copy.
  if (shard == nullptr || !HandleShardDown(shard->id)) {
    return SendStatus::kFailed;
  }
  return SendStatus::kReplayed;
}

bool ShardRouter::HandleShardDown(int64_t shard_id) {
  Shard* shard = FindShard(shard_id);
  if (shard == nullptr) return alive_shards() > 0;
  if (shard->dead) return alive_shards() > 0;  // already recovered
  shard->dead = true;
  Metrics().recoveries->Increment();
  IMDIFF_LOG(Warning) << "router: shard " << shard_id
                      << " down, re-placing its tenants";
  shard->channel->Close();
  if (shard->reader.joinable()) shard->reader.join();
  for (auto it = ring_.begin(); it != ring_.end();) {
    it = it->second == shard_id ? ring_.erase(it) : std::next(it);
  }
  if (ring_.empty()) {
    error_ = "router: all shards down";
    return false;
  }
  std::vector<std::string> displaced;
  for (const auto& [tenant, assigned] : assignment_) {
    if (assigned == shard_id) displaced.push_back(tenant);
  }
  for (const std::string& tenant : displaced) {
    const int64_t target = Place(tenant);
    assignment_[tenant] = target;
    Metrics().displaced->Increment();
    Shard* survivor = FindShard(target);
    // Rehydrate the barrier-time state, then replay the journaled samples
    // since the barrier in their original order: the survivor rebuilds
    // exactly the sample sequence the dead shard had seen.
    auto stashed = stash_.find(tenant);
    if (stashed != stash_.end()) {
      net::ImportStateMsg import;
      import.session.tenant = tenant;
      import.session.state = stashed->second;
      net::Frame response;
      net::ImportResultMsg result;
      if (!Request(survivor, net::Encode(import),
                   net::MsgType::kImportResult, &response)) {
        if (!HandleShardDown(target)) return false;
        continue;  // the nested recovery finished this tenant
      }
      if (!net::Decode(response, &result) || result.ok == 0) {
        Metrics().protocol_errors->Increment();
        error_ = "router: shard " + std::to_string(target) +
                 " rejected session import for " + tenant;
        return false;
      }
    }
    for (const JournalEntry& entry : journal_) {
      if (entry.tenant != tenant) continue;
      const SendStatus status =
          SendJournaled(tenant, entry.sample, entry.observed);
      if (status == SendStatus::kFailed) return false;
      if (status == SendStatus::kReplayed) break;  // nested recovery did it
      Metrics().journal_replays->Increment();
    }
  }
  return true;
}

bool ShardRouter::AwaitDrainResult(Shard* shard, uint64_t token,
                                   net::DrainResultMsg* out) {
  while (true) {
    net::Frame response;
    if (!AwaitResponse(shard, net::MsgType::kDrainResult, &response)) {
      return false;
    }
    if (!net::Decode(response, out)) {
      Metrics().protocol_errors->Increment();
      return false;
    }
    if (out->token == token) return true;
    // A result from an earlier, aborted barrier round; discard.
  }
}

bool ShardRouter::AwaitSnapshotResult(Shard* shard, uint64_t token,
                                      net::SnapshotResultMsg* out) {
  while (true) {
    net::Frame response;
    if (!AwaitResponse(shard, net::MsgType::kSnapshotResult, &response)) {
      return false;
    }
    if (!net::Decode(response, out)) {
      Metrics().protocol_errors->Increment();
      return false;
    }
    if (out->token == token) return true;
  }
}

bool ShardRouter::DrainAll(DrainTotals* totals) {
  // Each round either commits or loses a shard; at most shards-many retries.
  for (size_t round = 0; round <= shards_.size(); ++round) {
    const uint64_t token = ++barrier_token_;
    int64_t failed = -1;
    net::DrainMsg drain;
    drain.token = token;
    const net::Frame drain_frame = net::Encode(drain);
    for (auto& shard : shards_) {
      if (shard->dead) continue;
      if (!shard->channel->Send(drain_frame)) {
        failed = shard->id;
        break;
      }
    }
    DrainTotals sums;
    if (failed < 0) {
      for (auto& shard : shards_) {
        if (shard->dead) continue;
        net::DrainResultMsg result;
        if (!AwaitDrainResult(shard.get(), token, &result)) {
          failed = shard->id;
          break;
        }
        sums.accepted += result.accepted;
        sums.shed += result.shed;
        sums.alerts += result.alerts;
        sums.degraded_blocks += result.degraded_blocks;
        sums.promotions += result.promotions;
        sums.shadow_blocks += result.shadow_blocks;
      }
    }
    if (failed < 0 && options_.snapshot_on_drain) {
      // Refresh the stash copies, all-or-nothing: only when every live shard
      // reports does the new epoch replace the old one and the journal
      // clear. A partial refresh must not commit — importing a post-barrier
      // state and then replaying the old journal would double-append the
      // samples in between.
      net::SnapshotMsg snap;
      snap.token = token;
      const net::Frame snap_frame = net::Encode(snap);
      for (auto& shard : shards_) {
        if (shard->dead) continue;
        if (!shard->channel->Send(snap_frame)) {
          failed = shard->id;
          break;
        }
      }
      std::map<std::string, std::vector<uint8_t>> fresh;
      if (failed < 0) {
        for (auto& shard : shards_) {
          if (shard->dead) continue;
          net::SnapshotResultMsg result;
          if (!AwaitSnapshotResult(shard.get(), token, &result)) {
            failed = shard->id;
            break;
          }
          for (net::SessionBlob& blob : result.sessions) {
            fresh[blob.tenant] = std::move(blob.state);
          }
        }
      }
      if (failed < 0) {
        stash_ = std::move(fresh);
        journal_.clear();
      }
    }
    if (failed < 0) {
      if (totals != nullptr) *totals = sums;
      return true;
    }
    if (!HandleShardDown(failed)) return false;
  }
  error_ = "router: drain barrier did not converge";
  return false;
}

bool ShardRouter::MoveTenant(const std::string& tenant, int64_t target_shard) {
  Shard* target = FindShard(target_shard);
  if (target == nullptr || target->dead) {
    error_ = "router: move target shard " + std::to_string(target_shard) +
             " is not alive";
    return false;
  }
  const int64_t source_id = ShardOf(tenant);
  if (source_id < 0) return false;
  if (source_id == target_shard) {
    assignment_[tenant] = target_shard;
    return true;
  }
  Shard* source = FindShard(source_id);
  Metrics().moves->Increment();
  net::ExportStateMsg request;
  request.tenant = tenant;
  net::Frame response;
  if (source == nullptr || source->dead ||
      !Request(source, net::Encode(request), net::MsgType::kExportResult,
               &response)) {
    // Source died mid-export: its recovery re-places every one of its
    // tenants (including this one) from the stash; the move itself fails.
    if (source != nullptr && !HandleShardDown(source_id)) return false;
    error_ = "router: export from shard " + std::to_string(source_id) +
             " failed for " + tenant;
    return false;
  }
  net::ExportResultMsg exported;
  if (!net::Decode(response, &exported)) {
    Metrics().protocol_errors->Increment();
    return false;
  }
  assignment_[tenant] = target_shard;
  if (exported.found == 0) return true;  // nothing to carry; just repinned
  stash_[tenant] = exported.session.state;  // keep the recovery copy fresh
  net::ImportStateMsg import;
  import.session = std::move(exported.session);
  net::Frame import_response;
  net::ImportResultMsg result;
  if (!Request(target, net::Encode(import), net::MsgType::kImportResult,
               &import_response)) {
    // Target died holding the only live copy — which is fine: we just
    // refreshed the router stash, and recovery rehydrates from it.
    return HandleShardDown(target_shard);
  }
  if (!net::Decode(import_response, &result) || result.ok == 0) {
    Metrics().protocol_errors->Increment();
    error_ = "router: shard " + std::to_string(target_shard) +
             " rejected session import for " + tenant;
    return false;
  }
  return true;
}

void ShardRouter::CrashShard(int64_t shard_id) {
  Shard* shard = FindShard(shard_id);
  if (shard == nullptr || shard->dead) return;
  // Send first with recovery enabled (an injected transport fault on this
  // very frame is resent), then arm the expected close.
  if (shard->channel->Send(net::MakeControlFrame(net::MsgType::kCrash))) {
    shard->channel->ExpectClose();
  }
  HandleShardDown(shard_id);
}

std::vector<net::HealthResultMsg> ShardRouter::Health() {
  std::vector<net::HealthResultMsg> results;
  const net::Frame probe = net::Encode(net::HealthMsg{});
  std::vector<Shard*> probed;
  for (auto& shard : shards_) {
    if (shard->dead) continue;
    if (shard->channel->Send(probe)) probed.push_back(shard.get());
  }
  for (Shard* shard : probed) {
    net::Frame response;
    net::HealthResultMsg result;
    if (AwaitResponse(shard, net::MsgType::kHealthResult, &response) &&
        net::Decode(response, &result)) {
      results.push_back(result);
    }
  }
  return results;
}

std::string ShardRouter::MergedMetricsJson() {
  std::vector<std::string> snapshots;
  const net::Frame probe = net::Encode(net::MetricsMsg{});
  std::vector<Shard*> probed;
  for (auto& shard : shards_) {
    if (shard->dead) continue;
    if (shard->channel->Send(probe)) probed.push_back(shard.get());
  }
  for (Shard* shard : probed) {
    net::Frame response;
    net::MetricsResultMsg result;
    if (AwaitResponse(shard, net::MsgType::kMetricsResult, &response) &&
        net::Decode(response, &result)) {
      snapshots.push_back(std::move(result.json));
    }
  }
  snapshots.push_back(MetricsToJson());  // the router's own side
  return MergeMetricsJson(snapshots);
}

void ShardRouter::ShutdownAll() {
  if (shutdown_) return;
  shutdown_ = true;
  const net::Frame bye = net::MakeControlFrame(net::MsgType::kShutdown);
  for (auto& shard : shards_) {
    if (shard->dead) continue;
    // As in CrashShard: deliver with recovery enabled, then expect the EOF.
    if (shard->channel->Send(bye)) shard->channel->ExpectClose();
  }
  for (auto& shard : shards_) {
    if (shard->reader.joinable()) shard->reader.join();
    shard->channel->Close();
  }
}

}  // namespace serve
}  // namespace imdiff
