// Continuous model refresh (DESIGN.md §18, ROADMAP item 2).
//
// A drifting tenant population slowly walks away from the distribution the
// live model was fitted on; without adaptation the detector degrades
// silently. The RefreshTrainer closes the loop:
//
//   Idle --(every refresh_every accepted samples)--> fit a candidate on the
//   registry-assembled sliding window of recent raw samples
//   (SessionManager::CollectRefreshWindow) --> stage it as the registry's
//   SHADOW version --> Shadowing: a seeded fraction of full-quality ready
//   blocks is dual-scored against the shadow (same windows, same seeds —
//   identical inference noise, so the two score distributions are
//   comparable) --> after verdict_pairs paired results, the drift verdict
//   resolves: promote (hot swap through StreamServer::SwapModel — session
//   caches cleared, cost predictor reset) or roll back (shadow dropped) -->
//   Idle.
//
// Verdict: promote when the live-vs-shadow score distributions have
// materially diverged (PSI >= psi_promote, or KS >= ks_promote) AND the
// shadow considers current traffic *less* anomalous than the live model
// (shadow mean <= mean_ratio_promote * live mean). Under real drift the live
// model scores drifted-but-normal traffic high while a candidate fitted on
// the recent window scores it low — both conditions hold. On a stationary
// stream the distributions match (PSI ~ 0) and nothing promotes; a degenerate
// candidate (bad fit) scores HIGHER than live and the mean-ratio guard
// rejects it even when PSI is large.
//
// Determinism: every decision in the loop — window membership, fit cadence,
// shadow block selection, verdict inputs — is a pure function of (stream
// content, refresh seed, cadence config). With one ingest worker and
// drain-point-only batcher flushes, two replays of the same stream make
// bitwise-identical promotion decisions; the refresh-drift CI job cmp's the
// event logs.
//
// Fault points (failure matrix in DESIGN.md §18):
//   refresh.fit          candidate fit aborted -> keep serving the live
//                        version; the sample window is retained and the next
//                        cadence tick retries.
//   refresh.promote      promotion aborted after a positive verdict -> the
//                        shadow is dropped, the live version and its
//                        checkpoint stay intact.
//   refresh.shadow_score crash mid-shadow-round -> the shadow and all
//                        accumulated drift state are discarded cleanly;
//                        serving never sees the candidate.

#ifndef IMDIFF_SERVE_REFRESH_H_
#define IMDIFF_SERVE_REFRESH_H_

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "metrics/drift.h"
#include "serve/model_registry.h"
#include "serve/session_manager.h"

namespace imdiff {
namespace serve {

class StreamServer;

struct RefreshOptions {
  // Master switch; everything below is inert when false.
  bool enabled = false;
  // Registry holding the live version and staging shadows; must outlive the
  // server. `model_name` is the published name the server serves.
  ModelRegistry* registry = nullptr;
  std::string model_name;
  // Seed for shadow block selection (mixed with session seed + block index).
  uint64_t seed = 0x72656672;  // "refr"
  // Accepted samples between fit attempts; <= 0 never triggers.
  int64_t refresh_every = 5000;
  // Extra floor on collected window rows before a fit is attempted (the
  // model window is always required).
  int64_t min_window = 0;
  // Training epochs for the candidate fit; <= 0 inherits the live model's
  // config. Refresh windows are much smaller than the original training set,
  // so more passes over them cost little and fit the recent regime better.
  int fit_epochs = 0;
  // Training-window stride for the candidate fit; <= 0 inherits the live
  // model's config. The refresh corpus is a few hundred rows per tenant, so
  // the default cuts windows densely — with a sparse stride the candidate
  // sees too few windows to converge and every verdict degenerates to a
  // rollback of an undertrained model.
  int64_t fit_stride = 1;
  // Fraction of full-quality ready blocks dual-scored while shadowing.
  // Degraded blocks are never selected: their live
  // scores would not be comparable to the shadow's full-quality ones.
  double shadow_fraction = 0.25;
  // Paired live/shadow blocks required before the verdict resolves.
  int64_t verdict_pairs = 12;
  // Drift verdict thresholds (see file comment).
  double psi_promote = 0.25;
  double ks_promote = 0.5;
  double mean_ratio_promote = 0.8;
  // Rank-error budget of the score-distribution sketches.
  double sketch_epsilon = 0.01;
  // When set, a promoted candidate is checkpointed here (crash-safe,
  // bounded retry) BEFORE the registry swap; a failed save aborts the
  // promotion with the previous checkpoint intact.
  std::string checkpoint_path;
  BackoffPolicy save_backoff;
};

class RefreshTrainer {
 public:
  // One resolved transition of the refresh state machine. The ordered event
  // log is the promotion record the CI drift job compares bitwise across
  // replays (serve_replay dumps it in hex).
  struct Event {
    enum class Kind {
      kFitSkipped,     // window shorter than the model window
      kFitFailed,      // refresh.fit fired (or the fit threw)
      kShadowStaged,   // candidate fitted and staged
      kShadowAborted,  // refresh.shadow_score fired mid-round
      kPromoted,       // verdict: shadow wins; hot-swapped into serving
      kPromoteFailed,  // refresh.promote / checkpoint save failed; rolled back
      kRolledBack,     // verdict: live wins; shadow dropped
    };
    Kind kind = Kind::kFitSkipped;
    int64_t fit_ordinal = 0;   // 1-based fit attempt
    int64_t at_sample = 0;     // accepted samples processed at resolution
    int64_t live_version = 0;  // live version when the event resolved
    int64_t shadow_version = 0;
    // Verdict inputs (kPromoted / kPromoteFailed / kRolledBack only).
    double psi = 0.0;
    double ks = 0.0;
    double agreement = 0.0;
    double live_mean = 0.0;
    double shadow_mean = 0.0;
  };
  static const char* KindName(Event::Kind kind);

  // `server` owns this trainer and must outlive it.
  RefreshTrainer(StreamServer* server, const RefreshOptions& options);
  ~RefreshTrainer();

  RefreshTrainer(const RefreshTrainer&) = delete;
  RefreshTrainer& operator=(const RefreshTrainer&) = delete;

  // Ingest-worker hook, once per processed sample: advances the cadence
  // counter and, on a tick with no shadow in flight, runs the fit (on the
  // trainer thread; the caller joins the result so the loop stays a pure
  // function of the stream — see DESIGN.md §18).
  void OnSample();

  // Ingest-worker hook for a freshly planned full-quality block: true when
  // the block was selected for shadow dual-scoring (the expected pair is
  // registered and `*shadow_model` set). Selection is a pure function of
  // (refresh seed, session seed, block index). An armed refresh.shadow_score
  // point can instead abort the whole shadow round here.
  bool BeginShadowScore(uint64_t session_seed, int64_t block_index,
                        std::shared_ptr<const ModelEntry>* shadow_model);

  // Completion hook, called for every scored block (live and shadow). Feeds
  // the drift accumulators for selected pairs and resolves the verdict once
  // enough pairs completed.
  void OnScored(const BlockRequest& request,
                const OnlineDetector::Alert& alert);

  // Stops the trainer thread. Idempotent; called by the destructor.
  void Shutdown();

  bool shadow_active() const;
  std::vector<Event> events() const;
  const RefreshOptions& options() const { return options_; }

 private:
  // kResolving covers every busy transition — a fit in flight as well as a
  // verdict resolving — during which no new trigger or shadow selection is
  // accepted.
  enum class State { kIdle, kShadowing, kResolving };
  struct PairSlot {
    bool live_done = false;
    bool shadow_done = false;
    bool live_alert = false;
    bool shadow_alert = false;
    std::vector<float> live_scores;
    std::vector<float> shadow_scores;
  };
  struct FitResult {
    std::shared_ptr<ImDiffusionDetector> detector;
    MinMaxStats stats;
    bool ok = false;
  };

  // Runs one fit attempt end to end (collect -> fit on the trainer thread ->
  // stage shadow). Called from OnSample with no locks held.
  void RunFitAttempt(int64_t ordinal);
  // Hands the per-tenant segments to the trainer thread and blocks for the
  // result.
  FitResult FitOnTrainerThread(std::vector<Tensor> segments, int64_t ordinal);
  void TrainerLoop();
  // Drops the shadow and every accumulator; records `kind`. Caller holds mu_.
  void AbortShadowLocked(Event::Kind kind, int64_t shadow_version);
  // Computes the verdict and promotes or rolls back. Caller holds `lock`.
  void ResolveVerdict(std::unique_lock<std::mutex>& lock);
  void AppendEventLocked(Event event);
  int64_t LiveVersionLocked() const;

  StreamServer* const server_;
  const RefreshOptions options_;

  mutable std::mutex mu_;
  State state_ = State::kIdle;
  int64_t samples_ = 0;      // accepted samples processed
  int64_t fit_ordinal_ = 0;  // fit attempts started
  std::shared_ptr<const ModelEntry> shadow_model_;
  std::map<std::pair<uint64_t, int64_t>, PairSlot> pairs_;
  int64_t pairs_done_ = 0;
  QuantileSketch live_sketch_;
  QuantileSketch shadow_sketch_;
  AlertAgreement agreement_;
  std::vector<Event> events_;

  // Trainer thread: one fit job at a time, caller blocks for completion.
  std::mutex fit_mu_;
  std::condition_variable fit_cv_;
  bool fit_pending_ = false;
  bool fit_done_ = false;
  bool fit_stop_ = false;
  std::vector<Tensor> fit_segments_;
  int64_t fit_job_ordinal_ = 0;
  FitResult fit_result_;
  std::thread trainer_;
};

}  // namespace serve
}  // namespace imdiff

#endif  // IMDIFF_SERVE_REFRESH_H_
