// Multi-tenant streaming sessions over one shared fitted model.
//
// Each tenant owns an OnlineDetector (deferred mode: buffering only) whose
// ready blocks are planned here — windowed, seeded, and checked against the
// session's window-score cache — and scored externally by the cross-session
// micro-batcher (serve/batcher.h). Determinism is the load-bearing property:
// a window's score is a pure function of (window content, seed, model), with
// the seed derived from (tenant, global stream position) via MixSeed. That
// makes per-session score streams bitwise identical to a serial
// single-session replay no matter how windows are batched across tenants,
// and it makes cached scores bitwise interchangeable with recomputed ones.
//
// Eviction: sessions are LRU-evicted above `max_resident`; evicted streaming
// state (normalization, rolling buffer, counters) is stashed losslessly and
// rehydrated on the tenant's next sample, so an evicted tenant continues
// bitwise identically without refitting normalization. Sessions with blocks
// in flight (pending > 0) are never evicted — the batcher writes scores back
// through CompleteBlock.
//
// Memory: stashes and caches here hold plain std::vector copies plus
// refcounted Tensor storages. Tensor buffers come from the process-lifetime
// Arena (tensor/arena.h), which recycles a buffer only after its last
// reference drops and has no reset/epoch operation — so holding Tensors
// across evictions, rehydrations, and model swaps is safe by construction.

#ifndef IMDIFF_SERVE_SESSION_MANAGER_H_
#define IMDIFF_SERVE_SESSION_MANAGER_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/imdiffusion.h"
#include "core/online_detector.h"
#include "serve/model_registry.h"

namespace imdiff {
namespace serve {

// Deterministic, platform-independent per-tenant seed (FNV over the tenant
// name mixed with the deployment's base seed).
uint64_t TenantSeed(uint64_t seed_base, const std::string& tenant);

// Seed for the window whose first sample is at global stream position
// `global_start` of a session. Keying the seed by stream position (not by
// block ordinal) is what lets overlapping blocks reuse window scores: the
// same window content always gets the same noise.
uint64_t WindowSeed(uint64_t session_seed, int64_t global_start);

// Windowing + seeding plan for one ready block. Shared by the serving path
// and the serial replay baseline so both score identical chains.
struct BlockPlan {
  ImDiffusionDetector::WindowPlan windows;
  std::vector<uint64_t> seeds;      // per window
  // Global stream position of each window's first sample, used as the
  // window-score cache key; -1 marks a non-cacheable window (a front-padded
  // first block shorter than the model window, whose content is not a pure
  // slice of the stream).
  std::vector<int64_t> cache_keys;
};
BlockPlan PlanBlock(const ImDiffusionDetector& detector, uint64_t session_seed,
                    const OnlineDetector::ReadyBlock& ready);

// One block handed to the micro-batcher. `scores` is pre-filled from the
// session's cache where `hit[i]`; the batcher fills the misses, reduces, and
// returns the request through SessionManager::CompleteBlock.
struct BlockRequest {
  std::string tenant;
  int64_t block_index = 0;  // per-session ordinal, 0-based
  uint64_t session_seed = 0;
  OnlineDetector::ReadyBlock ready;
  BlockPlan plan;
  std::vector<ImDiffusionDetector::WindowScore> scores;
  std::vector<uint8_t> hit;
  std::chrono::steady_clock::time_point ready_time{};
  // Model version captured when the block became ready; a concurrent hot
  // swap does not retarget blocks already in flight.
  std::shared_ptr<const ModelEntry> model;
  // Degradation level chosen by the server's deadline policy (DESIGN.md §13):
  // 0 scores the full reverse chain; > 0 truncates it (see
  // ImDiffusionDetector::ChainStartForDegradeLevel). The cache holds level-0
  // scores only: a degraded block neither takes cached scores nor writes its
  // own back, so every window of it scores at its level.
  int degrade_level = 0;
  // Shadow dual-score request (continuous refresh, DESIGN.md §18): the block
  // is scored against the staged shadow model for drift statistics only.
  // Shadow results are tagged end-to-end, excluded from the alert stream,
  // and — like degraded scores — never written back to the window-score
  // cache (the cache belongs to the live version).
  bool shadow = false;
};

class SessionManager {
 public:
  struct Options {
    OnlineDetector::Options online;
    // Resident-session cap; the least recently used idle session above the
    // cap is evicted (state stashed for lossless rehydration).
    int64_t max_resident = 64;
    // Deployment seed; per-tenant seeds derive from it.
    uint64_t seed_base = 1;
    // Reuse window scores across overlapping blocks (bitwise-neutral; saves
    // roughly half the model forwards when block == stride).
    bool cache_window_scores = true;
    // Stashed-state cap: above it the least recently evicted stash is
    // dropped (serve.stash_evictions counts the drops). A dropped tenant's
    // next sample starts a fresh session — stream positions and window
    // seeds reset, so scores continue but no longer match a never-evicted
    // replay. Under Zipf-scale tenant churn the stash is the only unbounded
    // state in the serving layer; this cap is what bounds resident memory.
    int64_t max_stashed = 1024;
    // Prune window-score cache entries no future block can reuse (a future
    // block's buffer never starts before total - context). Disabling keeps
    // every entry — the reference for the cache-prune property test, which
    // asserts the pruned run hits exactly as often as the unbounded one.
    bool prune_window_cache = true;
    // --- Continuous-refresh sample window (DESIGN.md §18) ----------------
    // Per-tenant cap of recent RAW samples retained for refresh fits
    // (sampled at ingest, oldest dropped first); 0 disables capture. Only
    // fully observed samples are retained — a partially observed sample's
    // raw values at missing features are garbage by contract.
    int64_t refresh_recent = 0;
    // Retention probability per eligible sample. The decision is a pure
    // function of (refresh_seed, session seed, tenant stream position), so
    // window membership is independent of worker interleaving.
    double refresh_sample_rate = 1.0;
    uint64_t refresh_seed = 0x52454652;  // "REFR"
  };

  SessionManager(std::shared_ptr<const ModelEntry> model,
                 const Options& options);

  // Appends one raw sample for `tenant`, creating or rehydrating the session
  // on first touch. Returns true when a block became ready and fills
  // `request` for the batcher; the session then counts as having a block in
  // flight until CompleteBlock. Thread-safe.
  bool Append(const std::string& tenant, const std::vector<float>& sample,
              BlockRequest* request);

  // Picks a ready block's degradation level from its planned request. Append
  // calls it before the cache lookup, so the lookup runs only at level 0.
  using RungChooser = std::function<int(const BlockRequest&)>;

  // Missing-aware variant: `observed` flags are forwarded to the session's
  // OnlineDetector (carry-forward fill; see core/online_detector.h). Empty
  // means fully observed. `choose_rung` (null: level 0) sets the ready
  // block's degrade_level.
  bool Append(const std::string& tenant, const std::vector<float>& sample,
              const std::vector<uint8_t>& observed, BlockRequest* request,
              const RungChooser& choose_rung = nullptr);

  // Batcher write-back: stores freshly computed window scores in the
  // session's cache and releases the in-flight hold.
  void CompleteBlock(const BlockRequest& request);

  // Clones a just-planned live block into a shadow dual-score request
  // against `shadow_model` (DESIGN.md §18): same windows, same seeds — so
  // live and shadow score distributions are comparable noise-for-noise —
  // but no cache prefill (the session cache holds live-version scores) and
  // the shadow tag set. Takes a second in-flight hold on the session; the
  // batcher releases it through CompleteBlock like any other block. `live`
  // must still be in flight (call between Append and the batcher Submit).
  void DuplicateForShadow(const BlockRequest& live,
                          std::shared_ptr<const ModelEntry> shadow_model,
                          BlockRequest* out);

  // Assembles the refresh fit corpus: one [rows, K] segment per tenant's
  // retained recent raw samples (resident and stashed), in tenant-name
  // order — a pure function of session state, independent of call timing.
  // Each segment is CONTIGUOUS within one tenant's stream; tenants with
  // fewer than `min_rows` retained samples are skipped (their snippets are
  // too short to cut a training window from, and concatenating them across
  // tenants would train on artificial discontinuities). Returns false when
  // no tenant qualifies.
  bool CollectRefreshSegments(int64_t min_rows,
                              std::vector<Tensor>* out) const;

  // Hot swap: blocks becoming ready after this call score against `model`;
  // blocks already in flight keep the version they captured. Session window
  // caches are invalidated (scores from different versions must not mix).
  void SwapModel(std::shared_ptr<const ModelEntry> model);
  std::shared_ptr<const ModelEntry> model() const;

  int64_t resident_sessions() const;
  int64_t stashed_sessions() const;
  int64_t pending_blocks() const;
  // Window-score cache entries across every resident session.
  int64_t cached_window_scores() const;

  const Options& options() const { return options_; }

 private:
  struct Session {
    explicit Session(const OnlineDetector::Options& online_options)
        : online(nullptr, online_options) {}
    OnlineDetector online;
    uint64_t seed = 0;
    int64_t blocks = 0;   // blocks emitted so far
    uint64_t tick = 0;    // LRU stamp
    int pending = 0;      // blocks in flight at the batcher
    std::map<int64_t, ImDiffusionDetector::WindowScore> cache;
    // Sampled recent raw samples for refresh fits (oldest first, capped at
    // options.refresh_recent).
    std::deque<std::vector<float>> refresh_recent;
  };
  struct Stash {
    OnlineDetector::State state;
    int64_t blocks = 0;
    uint64_t tick = 0;  // eviction-order stamp for the stash cap's LRU drop
    std::deque<std::vector<float>> refresh_recent;
  };

  Session& GetOrCreateLocked(const std::string& tenant);
  // Evicts LRU idle sessions until `incoming` more fit under the resident
  // cap (or every candidate has a block in flight — then over-commit).
  void MaybeEvictLocked(int64_t incoming);

  mutable std::mutex mu_;
  std::shared_ptr<const ModelEntry> model_;
  const Options options_;
  uint64_t tick_ = 0;
  int64_t pending_total_ = 0;
  std::map<std::string, Session> sessions_;
  std::map<std::string, Stash> stash_;
};

}  // namespace serve
}  // namespace imdiff

#endif  // IMDIFF_SERVE_SESSION_MANAGER_H_
