#include "serve/session_manager.h"

#include <algorithm>
#include <utility>

#include "net/wire.h"
#include "utils/check.h"
#include "utils/fault.h"
#include "utils/metrics.h"
#include "utils/rng.h"

namespace imdiff {
namespace serve {

uint64_t TenantSeed(uint64_t seed_base, const std::string& tenant) {
  return MixSeed(seed_base, HashBytes(tenant.data(), tenant.size()));
}

uint64_t WindowSeed(uint64_t session_seed, int64_t global_start) {
  return MixSeed(session_seed, static_cast<uint64_t>(global_start));
}

BlockPlan PlanBlock(const ImDiffusionDetector& detector, uint64_t session_seed,
                    const OnlineDetector::ReadyBlock& ready) {
  BlockPlan plan;
  plan.windows = detector.PlanWindows(ready.series);
  const int64_t buffered = ready.series.dim(0);
  const int64_t window = detector.config().model.window;
  // First sample of the buffer in global stream coordinates.
  const int64_t buffer_start = ready.total_at_ready - buffered;
  plan.seeds.reserve(plan.windows.starts.size());
  plan.cache_keys.reserve(plan.windows.starts.size());
  for (size_t i = 0; i < plan.windows.starts.size(); ++i) {
    if (buffered >= window) {
      const int64_t global_start = buffer_start + plan.windows.starts[i];
      plan.seeds.push_back(WindowSeed(session_seed, global_start));
      plan.cache_keys.push_back(global_start);
    } else {
      // Front-padded short first block: the window content depends on the
      // padding, not purely on stream position, so it must not enter the
      // position-keyed cache. Seed it from a disjoint coordinate space.
      plan.seeds.push_back(MixSeed(
          session_seed,
          (1ull << 63) ^ static_cast<uint64_t>(ready.total_at_ready + static_cast<int64_t>(i))));
      plan.cache_keys.push_back(-1);
    }
  }
  return plan;
}

SessionManager::SessionManager(std::shared_ptr<const ModelEntry> model,
                               const Options& options)
    : model_(std::move(model)), options_(options) {
  IMDIFF_CHECK(model_ != nullptr);
  IMDIFF_CHECK(model_->detector != nullptr && model_->detector->fitted());
  IMDIFF_CHECK_GT(options_.max_resident, 0);
  IMDIFF_CHECK_GE(options_.max_stashed, 0);
}

SessionManager::Session& SessionManager::GetOrCreateLocked(
    const std::string& tenant) {
  auto it = sessions_.find(tenant);
  if (it != sessions_.end()) return it->second;

  // Make room BEFORE inserting: the new session must never be an eviction
  // candidate itself (it has no LRU tick yet, and the caller holds a
  // reference into the map).
  MaybeEvictLocked(/*incoming=*/1);
  MetricsRegistry& registry = MetricsRegistry::Global();
  auto inserted =
      sessions_.emplace(tenant, Session(options_.online)).first;
  Session& session = inserted->second;
  session.seed = TenantSeed(options_.seed_base, tenant);
  auto stashed = stash_.find(tenant);
  if (stashed != stash_.end() && IMDIFF_FAULT("session.rehydrate")) {
    // Injected rehydrate failure (a corrupt or lost stash in a real
    // deployment): drop the stash and rebuild the session from the live
    // stream instead of crashing. The tenant restarts with fresh counters —
    // stream positions (and thus window seeds) reset, which is degradation,
    // not data loss: every subsequent sample still gets scored.
    stash_.erase(stashed);
    stashed = stash_.end();
    registry.GetCounter("serve.rehydrate_failures")->Increment();
    registry.GetGauge("serve.stash_size")
        ->Set(static_cast<double>(stash_.size()));
  }
  if (stashed != stash_.end()) {
    // Rehydrate an evicted session: the stashed state restores the rolling
    // buffer, counters and normalization, so the continuation is bitwise
    // identical to a never-evicted session (window seeds are derived from
    // the restored global positions).
    session.online.ImportState(stashed->second.state);
    session.blocks = stashed->second.blocks;
    session.refresh_recent = std::move(stashed->second.refresh_recent);
    stash_.erase(stashed);
    registry.GetCounter("serve.sessions_rehydrated")->Increment();
    registry.GetGauge("serve.stash_size")
        ->Set(static_cast<double>(stash_.size()));
  } else {
    session.online.SetNormalization(model_->stats);
    registry.GetCounter("serve.sessions_created")->Increment();
  }
  return inserted->second;
}

void SessionManager::MaybeEvictLocked(int64_t incoming) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  while (static_cast<int64_t>(sessions_.size()) + incoming >
         options_.max_resident) {
    auto victim = sessions_.end();
    for (auto it = sessions_.begin(); it != sessions_.end(); ++it) {
      if (it->second.pending > 0) continue;  // block in flight at the batcher
      if (victim == sessions_.end() || it->second.tick < victim->second.tick) {
        victim = it;
      }
    }
    // Every over-cap session has work in flight: over-commit rather than
    // lose state; the next Append retries eviction.
    if (victim == sessions_.end()) return;
    Stash stash;
    stash.state = victim->second.online.ExportState();
    stash.blocks = victim->second.blocks;
    stash.tick = ++tick_;
    stash.refresh_recent = std::move(victim->second.refresh_recent);
    stash_[victim->first] = std::move(stash);
    sessions_.erase(victim);
    registry.GetCounter("serve.sessions_evicted")->Increment();
    registry.GetGauge("serve.stash_size")
        ->Set(static_cast<double>(stash_.size()));
    // Cap the stash: without a bound, Zipf-scale tenant churn turns it into
    // an unbounded leak (every distinct tenant leaves a stash behind). Drop
    // the least recently evicted stash — the tenant least likely to return.
    while (static_cast<int64_t>(stash_.size()) > options_.max_stashed) {
      auto drop = stash_.begin();
      for (auto it = stash_.begin(); it != stash_.end(); ++it) {
        if (it->second.tick < drop->second.tick) drop = it;
      }
      stash_.erase(drop);
      registry.GetCounter("serve.stash_evictions")->Increment();
      registry.GetGauge("serve.stash_size")
          ->Set(static_cast<double>(stash_.size()));
    }
  }
}

bool SessionManager::Append(const std::string& tenant,
                            const std::vector<float>& sample,
                            BlockRequest* request) {
  return Append(tenant, sample, {}, request);
}

bool SessionManager::Append(const std::string& tenant,
                            const std::vector<float>& sample,
                            const std::vector<uint8_t>& observed,
                            BlockRequest* request) {
  IMDIFF_CHECK(request != nullptr);
  std::lock_guard<std::mutex> lock(mu_);
  Session& session = GetOrCreateLocked(tenant);
  session.tick = ++tick_;

  // Refresh-window capture (DESIGN.md §18): retain a sampled subset of
  // fully observed raw samples for the next candidate fit. The retention
  // decision is keyed by (refresh seed, session seed, tenant stream
  // position) — order-independent across tenants and workers — and the
  // per-tenant deque keeps memory bounded.
  if (options_.refresh_recent > 0 &&
      (observed.empty() ||
       std::all_of(observed.begin(), observed.end(),
                   [](uint8_t o) { return o != 0; }))) {
    const uint64_t key =
        MixSeed(options_.refresh_seed,
                MixSeed(session.seed,
                        static_cast<uint64_t>(session.online.total_samples())));
    if (options_.refresh_sample_rate >= 1.0 ||
        static_cast<double>(key) * 0x1.0p-64 < options_.refresh_sample_rate) {
      session.refresh_recent.push_back(sample);
      while (static_cast<int64_t>(session.refresh_recent.size()) >
             options_.refresh_recent) {
        session.refresh_recent.pop_front();
      }
    }
  }

  OnlineDetector::ReadyBlock ready;
  if (!session.online.AppendBuffered(sample, observed, &ready)) return false;

  request->tenant = tenant;
  request->block_index = session.blocks++;
  request->session_seed = session.seed;
  request->model = model_;
  request->plan = PlanBlock(*model_->detector, session.seed, ready);
  request->ready = std::move(ready);
  request->ready_time = std::chrono::steady_clock::now();

  const size_t num_windows = request->plan.seeds.size();
  request->scores.assign(num_windows, {});
  request->hit.assign(num_windows, 0);
  MetricsRegistry& registry = MetricsRegistry::Global();
  int64_t hits = 0;
  if (options_.cache_window_scores) {
    for (size_t i = 0; i < num_windows; ++i) {
      const int64_t key = request->plan.cache_keys[i];
      if (key < 0) continue;
      auto cached = session.cache.find(key);
      if (cached == session.cache.end()) continue;
      request->scores[i] = cached->second;
      request->hit[i] = 1;
      ++hits;
    }
  }
  registry.GetCounter("serve.cache_hits")->Increment(hits);
  registry.GetCounter("serve.cache_misses")
      ->Increment(static_cast<int64_t>(num_windows) - hits);

  ++session.pending;
  ++pending_total_;
  return true;
}

void SessionManager::CompleteBlock(const BlockRequest& request) {
  std::lock_guard<std::mutex> lock(mu_);
  --pending_total_;
  auto it = sessions_.find(request.tenant);
  // pending > 0 pins the session, so it must still be resident.
  IMDIFF_CHECK(it != sessions_.end())
      << "session evicted with a block in flight:" << request.tenant;
  Session& session = it->second;
  IMDIFF_CHECK_GT(session.pending, 0);
  --session.pending;
  if (!options_.cache_window_scores) return;
  // Shadow dual-scores never touch the cache: cached entries are reused as
  // live full-quality scores, and these belong to the staged candidate.
  if (request.shadow) return;
  // A hot swap between ready and completion invalidates the write-back: the
  // scores belong to the old version, the cache to the new one.
  if (request.model != model_) return;
  // Degraded (truncated-chain) scores must not
  // contaminate the cache: cached entries are reused as full-quality scores
  // by later overlapping blocks.
  if (request.degrade_level != 0) return;
  for (size_t i = 0; i < request.plan.cache_keys.size(); ++i) {
    const int64_t key = request.plan.cache_keys[i];
    if (key < 0 || request.hit[i]) continue;
    session.cache[key] = request.scores[i];
  }
  // Prune entries that can no longer reappear. The next block becomes ready
  // at total + block with context + block samples buffered, so its buffer —
  // and every later one's — starts at total - context; keys below that are
  // dead. (The earlier bound of total - (context + block) was off by the
  // block size: it kept a dead span of `block` positions per session, which
  // at Zipf-tenant counts is real memory for entries no lookup can reach.)
  if (options_.prune_window_cache) {
    const int64_t min_keep =
        request.ready.total_at_ready - options_.online.context;
    session.cache.erase(session.cache.begin(),
                        session.cache.lower_bound(min_keep));
  }
}

void SessionManager::DuplicateForShadow(
    const BlockRequest& live, std::shared_ptr<const ModelEntry> shadow_model,
    BlockRequest* out) {
  IMDIFF_CHECK(out != nullptr);
  IMDIFF_CHECK(shadow_model != nullptr && shadow_model->detector != nullptr);
  // The plan (window starts and seeds) was laid out for the live model's
  // window/stride; it is only valid against a shadow with the same geometry.
  IMDIFF_CHECK_EQ(shadow_model->detector->config().model.window,
                  live.model->detector->config().model.window);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(live.tenant);
  IMDIFF_CHECK(it != sessions_.end()) << "shadow of an unknown session";
  IMDIFF_CHECK_GT(it->second.pending, 0)
      << "shadow duplicate of a block not in flight";
  *out = live;
  out->model = std::move(shadow_model);
  out->shadow = true;
  // No cache prefill: the session cache holds live-version scores.
  out->scores.assign(out->plan.seeds.size(), {});
  out->hit.assign(out->plan.seeds.size(), 0);
  ++it->second.pending;
  ++pending_total_;
}

bool SessionManager::CollectRefreshSegments(int64_t min_rows,
                                            std::vector<Tensor>* out) const {
  IMDIFF_CHECK(out != nullptr);
  out->clear();
  std::lock_guard<std::mutex> lock(mu_);
  // Tenant-name-ordered merge over resident and stashed sessions (a tenant
  // is in exactly one of the two maps), so the assembled corpus is a pure
  // function of per-session state.
  std::vector<const std::deque<std::vector<float>>*> sources;
  auto resident = sessions_.begin();
  auto stashed = stash_.begin();
  while (resident != sessions_.end() || stashed != stash_.end()) {
    const std::deque<std::vector<float>>* recent = nullptr;
    if (stashed == stash_.end() ||
        (resident != sessions_.end() && resident->first < stashed->first)) {
      recent = &resident->second.refresh_recent;
      ++resident;
    } else {
      recent = &stashed->second.refresh_recent;
      ++stashed;
    }
    if (static_cast<int64_t>(recent->size()) < std::max<int64_t>(min_rows, 1))
      continue;
    sources.push_back(recent);
  }
  if (sources.empty()) return false;
  const int64_t k = static_cast<int64_t>(sources.front()->front().size());
  out->reserve(sources.size());
  for (const auto* recent : sources) {
    Tensor segment =
        Tensor::Uninitialized({static_cast<int64_t>(recent->size()), k});
    float* dst = segment.mutable_data();
    for (const std::vector<float>& row : *recent) {
      IMDIFF_CHECK_EQ(static_cast<int64_t>(row.size()), k);
      std::copy(row.begin(), row.end(), dst);
      dst += k;
    }
    out->push_back(std::move(segment));
  }
  return true;
}

void SessionManager::SwapModel(std::shared_ptr<const ModelEntry> model) {
  IMDIFF_CHECK(model != nullptr);
  IMDIFF_CHECK(model->detector != nullptr && model->detector->fitted());
  std::lock_guard<std::mutex> lock(mu_);
  model_ = std::move(model);
  for (auto& [tenant, session] : sessions_) session.cache.clear();
  MetricsRegistry::Global().GetCounter("serve.model_swaps")->Increment();
}

std::shared_ptr<const ModelEntry> SessionManager::model() const {
  std::lock_guard<std::mutex> lock(mu_);
  return model_;
}

int64_t SessionManager::resident_sessions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(sessions_.size());
}

int64_t SessionManager::stashed_sessions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(stash_.size());
}

int64_t SessionManager::pending_blocks() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pending_total_;
}

namespace {

// Bump on any layout change: a version mismatch fails the decode cleanly
// instead of misreading a foreign process's bytes. v2 appended the tenant's
// refresh-window samples (continuous refresh, DESIGN.md §18).
constexpr uint8_t kSessionWireVersion = 2;

}  // namespace

std::vector<uint8_t> SerializeSession(const SessionSnapshot& snapshot) {
  net::WireWriter w;
  w.U8(kSessionWireVersion);
  w.I64(snapshot.blocks);
  w.I64(snapshot.state.num_features);
  w.I64(snapshot.state.total_samples);
  w.I64(snapshot.state.pending);
  w.FloatVec(snapshot.state.stats.min);
  w.FloatVec(snapshot.state.stats.max);
  w.U32(static_cast<uint32_t>(snapshot.state.buffer.size()));
  for (const std::vector<float>& row : snapshot.state.buffer) w.FloatVec(row);
  w.FloatVec(snapshot.state.fill);
  w.U32(static_cast<uint32_t>(snapshot.refresh_recent.size()));
  for (const std::vector<float>& row : snapshot.refresh_recent) w.FloatVec(row);
  return w.Take();
}

bool DeserializeSession(const std::vector<uint8_t>& bytes,
                        SessionSnapshot* out) {
  IMDIFF_CHECK(out != nullptr);
  net::WireReader r(bytes);
  uint8_t version = 0;
  if (!r.U8(&version) || version != kSessionWireVersion) return false;
  r.I64(&out->blocks);
  r.I64(&out->state.num_features);
  r.I64(&out->state.total_samples);
  r.I64(&out->state.pending);
  r.FloatVec(&out->state.stats.min);
  r.FloatVec(&out->state.stats.max);
  uint32_t rows = 0;
  r.U32(&rows);
  out->state.buffer.clear();
  for (uint32_t i = 0; i < rows && r.ok(); ++i) {
    std::vector<float> row;
    if (!r.FloatVec(&row)) return false;
    out->state.buffer.push_back(std::move(row));
  }
  r.FloatVec(&out->state.fill);
  uint32_t refresh_rows = 0;
  r.U32(&refresh_rows);
  out->refresh_recent.clear();
  for (uint32_t i = 0; i < refresh_rows && r.ok(); ++i) {
    std::vector<float> row;
    if (!r.FloatVec(&row)) return false;
    out->refresh_recent.push_back(std::move(row));
  }
  return r.ok() && r.remaining() == 0 &&
         out->state.buffer.size() == rows &&
         out->refresh_recent.size() == refresh_rows;
}

bool SessionManager::SnapshotSession(const std::string& tenant,
                                     SessionSnapshot* out) const {
  IMDIFF_CHECK(out != nullptr);
  std::lock_guard<std::mutex> lock(mu_);
  auto resident = sessions_.find(tenant);
  if (resident != sessions_.end()) {
    if (resident->second.pending > 0) return false;  // drain first
    out->state = resident->second.online.ExportState();
    out->blocks = resident->second.blocks;
    out->refresh_recent.assign(resident->second.refresh_recent.begin(),
                               resident->second.refresh_recent.end());
    return true;
  }
  auto stashed = stash_.find(tenant);
  if (stashed == stash_.end()) return false;
  out->state = stashed->second.state;
  out->blocks = stashed->second.blocks;
  out->refresh_recent.assign(stashed->second.refresh_recent.begin(),
                             stashed->second.refresh_recent.end());
  return true;
}

bool SessionManager::ExportSession(const std::string& tenant,
                                   SessionSnapshot* out) {
  IMDIFF_CHECK(out != nullptr);
  std::lock_guard<std::mutex> lock(mu_);
  MetricsRegistry& registry = MetricsRegistry::Global();
  auto resident = sessions_.find(tenant);
  if (resident != sessions_.end()) {
    if (resident->second.pending > 0) return false;
    out->state = resident->second.online.ExportState();
    out->blocks = resident->second.blocks;
    out->refresh_recent.assign(resident->second.refresh_recent.begin(),
                               resident->second.refresh_recent.end());
    sessions_.erase(resident);
    registry.GetCounter("serve.sessions_exported")->Increment();
    return true;
  }
  auto stashed = stash_.find(tenant);
  if (stashed == stash_.end()) return false;
  out->state = std::move(stashed->second.state);
  out->blocks = stashed->second.blocks;
  out->refresh_recent.assign(stashed->second.refresh_recent.begin(),
                             stashed->second.refresh_recent.end());
  stash_.erase(stashed);
  registry.GetCounter("serve.sessions_exported")->Increment();
  registry.GetGauge("serve.stash_size")
      ->Set(static_cast<double>(stash_.size()));
  return true;
}

void SessionManager::ImportSession(const std::string& tenant,
                                   const SessionSnapshot& snapshot) {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsRegistry& registry = MetricsRegistry::Global();
  // Replace wholesale: a move or a recovery rehydrate supersedes whatever
  // partial state this shard held for the tenant.
  auto resident = sessions_.find(tenant);
  if (resident != sessions_.end()) {
    IMDIFF_CHECK_EQ(resident->second.pending, 0)
        << "session imported over a block in flight:" << tenant;
    sessions_.erase(resident);
  }
  Stash stash;
  stash.state = snapshot.state;
  stash.blocks = snapshot.blocks;
  stash.refresh_recent.assign(snapshot.refresh_recent.begin(),
                              snapshot.refresh_recent.end());
  stash.tick = ++tick_;  // newest: an over-cap drop evicts older stashes
  stash_[tenant] = std::move(stash);
  registry.GetCounter("serve.sessions_imported")->Increment();
  while (static_cast<int64_t>(stash_.size()) > options_.max_stashed) {
    auto drop = stash_.begin();
    for (auto it = stash_.begin(); it != stash_.end(); ++it) {
      if (it->second.tick < drop->second.tick) drop = it;
    }
    stash_.erase(drop);
    registry.GetCounter("serve.stash_evictions")->Increment();
  }
  registry.GetGauge("serve.stash_size")
      ->Set(static_cast<double>(stash_.size()));
}

std::vector<std::string> SessionManager::Tenants() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> tenants;
  tenants.reserve(sessions_.size() + stash_.size());
  for (const auto& [tenant, session] : sessions_) tenants.push_back(tenant);
  for (const auto& [tenant, stash] : stash_) tenants.push_back(tenant);
  return tenants;
}

int64_t SessionManager::cached_window_scores() const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t total = 0;
  for (const auto& [tenant, session] : sessions_) {
    total += static_cast<int64_t>(session.cache.size());
  }
  return total;
}

}  // namespace serve
}  // namespace imdiff
