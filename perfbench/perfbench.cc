// Benchmark binary: runs one workload (fleet, churn or train) through the
// library's public entry points, checks its outputs against their bitwise
// references, and prints one JSON object as its last line of standard output.
// perfbench/run.py builds this binary, pins IMDIFF_NUM_THREADS per workload
// and turns that object into the benchmark's result line;
// perfbench/README.md explains the workloads and the metrics.
//
// Usage: perfbench --workload {fleet,churn,train} --seed N --seconds S
//                  [--trace 0|1]
//
// A run is a pure function of (--seed, --seconds): --seconds fixes how many
// timed units (fleet rounds, churn drain groups, train scoring passes) the
// run measures, at each workload's nominal unit time. Inputs, the fitted
// model, batch partitioning (flushes happen only at drain points of the
// submission sequence) and therefore every score, count and quality number
// repeat bit for bit; only wall-clock numbers vary. Rates are medians over
// the timed units, so a short stall of the host moves one unit, not the run.
//
// With --trace 1 the run measures twice: once with the metrics registry off
// (the baseline for the tracing overhead) and once with it on. It reports the
// registry snapshots taken around the last set-up and around the traced
// timed region, plus the benchmark's own spans around each layer call.

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "core/imdiffusion.h"
#include "data/benchmarks.h"
#include "data/dataset.h"
#include "data/ugly_stream.h"
#include "metrics/classification.h"
#include "metrics/range_auc.h"
#include "serve/replay.h"
#include "serve/server.h"
#include "utils/metrics.h"
#include "utils/rng.h"
#include "utils/thread_pool.h"

namespace imdiff {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

// ---------------------------------------------------------------------------
// Workload constants. They are part of the benchmark's definition: changing
// any of them changes what every metric means.

// Set-up (input generation and model fit) is repeated this many times per
// run; setup_s and fit_s are the medians.
constexpr int kSetups = 5;

// Serving model (fleet and churn): the Table-7 microservice fleet, 6 latency
// channels, FastImDiffusionConfig at a fixed small epoch count.
constexpr int64_t kServeFeatures = 6;
constexpr int64_t kServeTrainLength = 800;
constexpr int kServeEpochs = 1;

// fleet: 32 tenants, one block per tenant per round, every round drained
// before the next starts. With 200 samples of context every steady-state
// block is 1 fresh window plus 2 windows the window-score cache already
// holds. The first kFleetColdRounds rounds fill the context and capture the
// scoring graphs; they are set-up, not timed.
constexpr int64_t kFleetBlock = 100;
constexpr int64_t kFleetContext = 200;
constexpr int64_t kFleetTenants = 32;
constexpr int64_t kFleetColdRounds = 2;
constexpr double kFleetNominalRoundS = 1.5;
constexpr int64_t kFleetMinRounds = 4;  // >= 100 blocks for alert_p90_ms
// One tenant, chosen by the seed, is replayed serially as the bitwise
// reference: a serial replay scores every window again at batch 1, so it
// costs about a fifth of the timed region per tenant.

// churn: Zipf-popular tenants in Pareto bursts (the ReplayLoad schedule), a
// small resident cap so sessions are evicted and rehydrated constantly, and
// a stash cap above the tenant count so no session state is ever dropped.
// Context + block is one model window, so every block is exactly one fresh
// window (consecutive windows never share a start, so the window-score cache
// only hits on a block re-planned after rehydration). The generator drains
// after every kChurnDrainBlocks completed blocks, so every scoring batch is
// one full chunk; a drain group is the timed unit.
constexpr int64_t kChurnBlock = 50;
constexpr int64_t kChurnContext = 50;
constexpr int64_t kChurnTenants = 400;
constexpr int64_t kChurnDrainBlocks = 16;
constexpr double kChurnNominalGroupS = 0.9;
constexpr int64_t kChurnMinGroups = 7;  // >= 100 blocks for alert_p90_ms
constexpr int64_t kChurnMaxResident = 8;
constexpr int64_t kChurnMaxStashed = 1024;
constexpr double kChurnZipf = 1.1;
constexpr int64_t kChurnCheckTenants = 4;

// train: Fit on the first kTrainFitRows rows of the SWaT-like train split
// (K = 16) during set-up, then score the whole 1600-sample test split
// (16 windows, one scoring chunk) once per timed pass.
constexpr int64_t kTrainFitRows = 500;
constexpr int kTrainEpochs = 1;
constexpr double kTrainNominalPassS = 2.2;
constexpr int64_t kTrainMinPasses = 7;  // >= 100 window latencies
// Windows re-scored one at a time as the bitwise reference.
constexpr int64_t kTrainCheckWindows = 3;

int64_t UnitsFor(double seconds, double nominal_unit_s, int64_t min_units) {
  return std::max<int64_t>(min_units, std::llround(seconds / nominal_unit_s));
}

// ---------------------------------------------------------------------------
// Small helpers.

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile of an unsorted sample (q in (0, 1]).
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<size_t>(rank, 1)) - 1];
}

constexpr uint64_t kFnvBasis = 1469598103934665603ull;

// FNV-1a over raw float bytes: the exact-repeat fingerprint of a score set.
void HashFloats(const std::vector<float>& values, uint64_t* hash) {
  const auto* bytes = reinterpret_cast<const unsigned char*>(values.data());
  for (size_t i = 0; i < values.size() * sizeof(float); ++i) {
    *hash ^= bytes[i];
    *hash *= 1099511628211ull;
  }
}

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

// Exact rendering of a double (hex float), for the fingerprint.
std::string ExactDouble(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

int64_t CounterValue(const char* name) {
  return MetricsRegistry::Global().GetCounter(name)->value();
}

// Counters whose deltas over the timed region make up the exact-repeat
// fingerprint. Counters count whether or not the registry is enabled.
constexpr const char* kFingerprintCounters[] = {
    "detector.windows_scored",   "serve.cache_hits",
    "serve.cache_misses",        "serve.batches",
    "serve.batched_windows",     "serve.sessions_evicted",
    "serve.sessions_rehydrated", "online.missing_filled",
};

// Counters that must stay 0 over the whole run.
constexpr const char* kMustBeZero[] = {"serve.requests_dropped",
                                       "graph.validation_failures"};

std::map<std::string, int64_t> TakeCounters() {
  std::map<std::string, int64_t> values;
  for (const char* name : kFingerprintCounters) values[name] = CounterValue(name);
  return values;
}

// Quality of one score stream against its labels: best-F1 (point-adjusted),
// range AUC-PR, and emission-aware detection delay at the best-F1 threshold.
struct Quality {
  double f1 = 0.0;
  double r_auc_pr = 0.0;
  double add = 0.0;
};

Quality ScoreQuality(const std::vector<float>& scores,
                     const std::vector<uint8_t>& labels, int64_t block) {
  Quality q;
  BinaryMetrics best;
  const float threshold = BestF1Threshold(scores, labels, 64, &best);
  q.f1 = best.f1;
  q.r_auc_pr = RangeAucPr(scores, labels);
  q.add = serve::ServedDetectionDelay(
      labels, ThresholdScores(scores, threshold), block);
  return q;
}

// Mean quality over every stream that holds at least one labelled event.
Quality MeanQuality(const std::vector<std::vector<float>>& scores,
                    const std::vector<std::vector<uint8_t>>& labels,
                    int64_t block) {
  Quality sum;
  int64_t n = 0;
  for (size_t i = 0; i < scores.size(); ++i) {
    if (FindSegments(labels[i]).empty()) continue;
    const Quality q = ScoreQuality(scores[i], labels[i], block);
    sum.f1 += q.f1;
    sum.r_auc_pr += q.r_auc_pr;
    sum.add += q.add;
    ++n;
  }
  if (n > 0) {
    sum.f1 /= static_cast<double>(n);
    sum.r_auc_pr /= static_cast<double>(n);
    sum.add /= static_cast<double>(n);
  }
  return sum;
}

// Records a failed check: `ops` operations count as failed.
struct Failures {
  int64_t failed = 0;
  std::vector<std::string> lines;
  void Add(int64_t ops, const std::string& why) {
    failed += ops;
    lines.push_back(why);
  }
};

// ---------------------------------------------------------------------------
// One measurement: the timed region of a workload.

struct Measurement {
  explicit Measurement(bool traced, std::string* setup_registry_after)
      : traced(traced), setup_registry_after(setup_registry_after) {}

  // Marks the start of the timed region. Everything before it (fleet's cold
  // rounds) is set-up. The registry is enabled exactly over the timed region
  // of a traced measurement.
  void BeginTimed() {
    if (setup_registry_after != nullptr) {
      *setup_registry_after = MetricsToJson();
    }
    SetMetricsEnabled(traced);
    if (traced) registry_before = MetricsToJson();
    counters_before = TakeCounters();
    start = Clock::now();
  }

  void EndTimed() {
    timed_s = SecondsBetween(start, Clock::now());
    const std::map<std::string, int64_t> after = TakeCounters();
    if (traced) registry_after = MetricsToJson();
    SetMetricsEnabled(false);
    for (const auto& [name, v] : after) {
      fingerprint.emplace_back(name, std::to_string(v - counters_before.at(name)));
    }
  }

  const bool traced;
  std::string* const setup_registry_after;

  double warmup_s = 0.0;      // untimed set-up inside the measurement
  double timed_s = 0.0;
  std::vector<double> unit_rates;  // points/s of each timed unit
  std::vector<double> latencies_ms;
  std::map<std::string, double> spans;  // harness-timed layer calls
  Quality quality;
  // Exact values (integers or hex floats) that repeat bit for bit per seed.
  std::vector<std::pair<std::string, std::string>> fingerprint;
  int64_t attempted = 0;
  Failures failures;
  std::string registry_before;
  std::string registry_after;

 private:
  std::map<std::string, int64_t> counters_before;
  Clock::time_point start;
};

class Workload {
 public:
  virtual ~Workload() = default;
  // Generates inputs and fits the model; adds its generation and fit seconds
  // to `gen_s` and `fit_s`. Repeated kSetups times; the last repetition's
  // state is the one measured.
  virtual void Prepare(double* gen_s, double* fit_s) = 0;
  // Warms the prepared state once; its wall seconds count towards setup_s.
  virtual void WarmUp() {}
  // One measurement of the fixed timed work.
  virtual void Measure(Measurement* m) = 0;
  // Compares the last measurement's outputs with their bitwise reference.
  virtual void Check(Failures* failures) = 0;
};

// ---------------------------------------------------------------------------
// Serving (fleet and churn).

struct ServeModel {
  std::shared_ptr<const serve::ModelEntry> entry;
  uint64_t loss_fnv = 0;
};

ServeModel FitServeModel(uint64_t seed, double* gen_s, double* fit_s) {
  const Clock::time_point t0 = Clock::now();
  const MtsDataset train = MakeMicroserviceLatencyDataset(
      seed, kServeFeatures, kServeTrainLength, /*test_length=*/1);
  const MinMaxStats stats = FitMinMax(train.train);
  const Tensor normalized = ApplyMinMax(train.train, stats);
  const Clock::time_point t1 = Clock::now();
  ImDiffusionConfig config = FastImDiffusionConfig();
  config.seed = seed;
  config.epochs = kServeEpochs;
  auto detector = std::make_shared<ImDiffusionDetector>(config);
  // The serving model is fitted single-threaded in both serving workloads:
  // the fit is set-up there, and on this small model a fork-join over two
  // threads is no faster but varies more when one host core is slow.
  const size_t serve_threads = ComputeThreads();
  SetComputeThreads(1);
  detector->Fit(normalized);
  SetComputeThreads(serve_threads);
  *gen_s += SecondsBetween(t0, t1);
  *fit_s += SecondsBetween(t1, Clock::now());
  ServeModel model;
  model.loss_fnv = kFnvBasis;
  HashFloats(detector->train_loss_history(), &model.loss_fnv);
  auto entry = std::make_shared<serve::ModelEntry>();
  entry->name = "latency";
  entry->version = 1;
  entry->detector = std::move(detector);
  entry->stats = stats;
  model.entry = std::move(entry);
  return model;
}

serve::StreamServer::Options ServeOptions(uint64_t seed, int64_t block,
                                          int64_t context, int64_t max_resident,
                                          int64_t max_stashed) {
  serve::StreamServer::Options options;
  options.num_workers = 1;
  options.queue_capacity = 1 << 16;
  options.session.online.block = block;
  options.session.online.context = context;
  options.session.max_resident = max_resident;
  options.session.max_stashed = max_stashed;
  options.session.seed_base = seed;
  // Flush only at drain points: batch partitioning is then a function of the
  // submission sequence, so batch, cache and eviction counts repeat exactly.
  options.batch.max_batch_windows = int64_t{1} << 40;
  options.batch.flush_window_seconds = 1e9;
  return options;
}

// The tenants of a serving workload: raw streams (with observation masks)
// and per-timestamp labels.
struct TenantSet {
  std::vector<serve::TenantStream> streams;
  std::vector<std::vector<uint8_t>> labels;
};

// One fresh StreamServer fed by the generator. The generator stamps the
// submit of every block's last sample; the alert callback turns the stamp
// into the block's latency and assembles each tenant's score stream.
class ServePass {
 public:
  ServePass(const ServeModel& model, const TenantSet& tenants,
            const serve::StreamServer::Options& options)
      : tenants_(tenants),
        block_(options.session.online.block),
        scores_(tenants.streams.size()),
        stamps_(tenants.streams.size()),
        server_(model.entry, options,
                [this](const serve::StreamServer::ScoredBlock& b) {
                  OnAlert(b);
                }) {
    for (size_t t = 0; t < tenants.streams.size(); ++t) {
      const int64_t length = tenants.streams[t].samples.dim(0);
      index_[tenants.streams[t].tenant] = t;
      scores_[t].assign(static_cast<size_t>(length), 0.0f);
      stamps_[t].resize(static_cast<size_t>(length / block_));
      expected_blocks_ += length / block_;
    }
  }

  // Submits sample `position` of tenant `t`; returns true when the sample
  // completed a block.
  bool Submit(size_t t, int64_t position) {
    const serve::TenantStream& stream = tenants_.streams[t];
    const int64_t k = stream.samples.dim(1);
    sample_.assign(stream.samples.data() + position * k,
                   stream.samples.data() + (position + 1) * k);
    observed_.clear();
    if (!stream.observed.empty()) {
      observed_.assign(stream.observed.begin() + position * k,
                       stream.observed.begin() + (position + 1) * k);
    }
    const Clock::time_point start = Clock::now();
    const bool completes = (position + 1) % block_ == 0;
    if (completes) {
      std::lock_guard<std::mutex> lock(mu_);
      stamps_[t][static_cast<size_t>(position / block_)] = start;
    }
    if (!server_.Submit(stream.tenant, sample_, observed_)) ++rejected_;
    submit_s_ += SecondsBetween(start, Clock::now());
    return completes;
  }

  void Drain() {
    const Clock::time_point start = Clock::now();
    server_.Drain();
    drain_s_ += SecondsBetween(start, Clock::now());
  }

  // Starts the timed region: spans and latencies count from here on.
  void StartTiming() {
    submit_s_ = drain_s_ = 0.0;
    std::lock_guard<std::mutex> lock(mu_);
    latencies_ms_.clear();
    timing_ = true;
  }

  // Stops the server and fills the measurement's outputs, gates and
  // fingerprint.
  void Finish(Measurement* m) {
    server_.Shutdown();
    std::lock_guard<std::mutex> lock(mu_);
    m->latencies_ms = std::move(latencies_ms_);
    m->spans["serve.submit_s"] = submit_s_;
    m->spans["serve.drain_s"] = drain_s_;
    m->attempted = expected_blocks_;
    if (delivered_ != expected_blocks_ || rejected_ != 0) {
      m->failures.Add(std::abs(expected_blocks_ - delivered_) + rejected_,
                      "expected " + std::to_string(expected_blocks_) +
                          " blocks, delivered " + std::to_string(delivered_) +
                          " (" + std::to_string(rejected_) +
                          " submits rejected)");
    }
    if (off_rung_ != 0) {
      m->failures.Add(off_rung_, std::to_string(off_rung_) +
                                     " blocks left the fp32 full-chain rung");
    }
    if (misplaced_ != 0) {
      m->failures.Add(misplaced_,
                      std::to_string(misplaced_) +
                          " alerts did not end at their block's last sample");
    }
    m->quality = MeanQuality(scores_, tenants_.labels, block_);
    uint64_t hash = kFnvBasis;
    for (const std::vector<float>& s : scores_) HashFloats(s, &hash);
    m->fingerprint.emplace_back("alerts", std::to_string(delivered_));
    m->fingerprint.emplace_back("scores_fnv", Hex(hash));
  }

  const std::vector<std::vector<float>>& scores() const { return scores_; }

 private:
  void OnAlert(const serve::StreamServer::ScoredBlock& scored) {
    const Clock::time_point now = Clock::now();
    std::lock_guard<std::mutex> lock(mu_);
    ++delivered_;
    if (scored.shadow || scored.degrade_level != 0 ||
        scored.precision != Precision::kF32) {
      ++off_rung_;
    }
    const auto it = index_.find(scored.tenant);
    const int64_t end =
        scored.alert.start + static_cast<int64_t>(scored.alert.scores.size());
    if (it == index_.end() || end != (scored.block_index + 1) * block_ ||
        scored.block_index >=
            static_cast<int64_t>(stamps_[it->second].size())) {
      ++misplaced_;
      return;
    }
    const size_t t = it->second;
    std::copy(scored.alert.scores.begin(), scored.alert.scores.end(),
              scores_[t].begin() + scored.alert.start);
    if (timing_) {
      latencies_ms_.push_back(
          1e3 * SecondsBetween(
                    stamps_[t][static_cast<size_t>(scored.block_index)], now));
    }
  }

  const TenantSet& tenants_;
  const int64_t block_;
  std::unordered_map<std::string, size_t> index_;
  std::vector<float> sample_;
  std::vector<uint8_t> observed_;
  double submit_s_ = 0.0;
  double drain_s_ = 0.0;
  int64_t expected_blocks_ = 0;
  int64_t rejected_ = 0;

  std::mutex mu_;  // guards everything below, written by the alert callback
  std::vector<std::vector<float>> scores_;
  std::vector<std::vector<Clock::time_point>> stamps_;
  std::vector<double> latencies_ms_;
  bool timing_ = false;
  int64_t delivered_ = 0;
  int64_t off_rung_ = 0;
  int64_t misplaced_ = 0;

  // Declared last: destroyed (and its threads joined) first, while
  // everything the alert callback touches is still alive.
  serve::StreamServer server_;
};

// Replays the tenants at `sample` serially and counts the blocks whose
// served scores differ bitwise from ReplaySerial.
void CheckAgainstSerial(const ServeModel& model,
                        const serve::StreamServer::Options& options,
                        const TenantSet& tenants,
                        const std::vector<std::vector<float>>& served,
                        const std::vector<size_t>& sample, Failures* failures) {
  const int64_t block = options.session.online.block;
  for (size_t t : sample) {
    const std::vector<float> serial =
        serve::ReplaySerial(*model.entry, options.session.online,
                            options.session.seed_base, tenants.streams[t]);
    int64_t bad = 0;
    const int64_t blocks = static_cast<int64_t>(serial.size()) / block;
    for (int64_t b = 0; b < blocks; ++b) {
      if (std::memcmp(serial.data() + b * block, served[t].data() + b * block,
                      static_cast<size_t>(block) * sizeof(float)) != 0) {
        ++bad;
      }
    }
    if (bad != 0) {
      failures->Add(bad, tenants.streams[t].tenant + ": " +
                             std::to_string(bad) +
                             " blocks differ bitwise from ReplaySerial");
    }
  }
}

// ---------------------------------------------------------------------------
// fleet: every tenant's block completes in the same round and the round is
// drained before the next one starts.

class FleetWorkload : public Workload {
 public:
  FleetWorkload(uint64_t seed, double seconds)
      : seed_(seed),
        rounds_(UnitsFor(seconds, kFleetNominalRoundS, kFleetMinRounds)),
        options_(ServeOptions(seed, kFleetBlock, kFleetContext,
                              /*max_resident=*/kFleetTenants,
                              /*max_stashed=*/kFleetTenants)) {}

  void Prepare(double* gen_s, double* fit_s) override {
    model_ = FitServeModel(seed_, gen_s, fit_s);
    const Clock::time_point start = Clock::now();
    tenants_ = TenantSet();
    for (int64_t t = 0; t < kFleetTenants; ++t) {
      MtsDataset d = MakeMicroserviceLatencyDataset(
          MixSeed(seed_, static_cast<uint64_t>(t) + 1), kServeFeatures,
          /*train_length=*/1,
          /*test_length=*/(kFleetColdRounds + rounds_) * kFleetBlock);
      char name[32];
      std::snprintf(name, sizeof(name), "fleet-%02" PRId64, t);
      tenants_.streams.push_back({name, d.test, {}});
      tenants_.labels.push_back(std::move(d.test_labels));
    }
    *gen_s += SecondsBetween(start, Clock::now());
  }

  void Measure(Measurement* m) override {
    ServePass pass(model_, tenants_, options_);
    const Clock::time_point start = Clock::now();
    for (int64_t r = 0; r < kFleetColdRounds; ++r) RunRound(&pass, r);
    m->warmup_s = SecondsBetween(start, Clock::now());

    m->BeginTimed();
    pass.StartTiming();
    // Every steady-state round does the same work; its counter deltas must
    // repeat exactly.
    std::map<std::string, int64_t> first_round;
    for (int64_t r = kFleetColdRounds; r < kFleetColdRounds + rounds_; ++r) {
      const std::map<std::string, int64_t> before = TakeCounters();
      const Clock::time_point t0 = Clock::now();
      RunRound(&pass, r);
      m->unit_rates.push_back(kFleetTenants * kFleetBlock /
                              SecondsBetween(t0, Clock::now()));
      std::map<std::string, int64_t> delta = TakeCounters();
      for (auto& [name, v] : delta) v -= before.at(name);
      if (first_round.empty()) {
        first_round = delta;
      } else if (delta != first_round) {
        m->failures.Add(1, "unsteady: round " + std::to_string(r) +
                               " did not repeat the first timed round's counts");
      }
    }
    m->EndTimed();
    pass.Finish(m);
    m->fingerprint.emplace_back("fit_loss_fnv", Hex(model_.loss_fnv));
    scores_ = pass.scores();
  }

  void Check(Failures* failures) override {
    const std::vector<size_t> sample = {static_cast<size_t>(seed_ % kFleetTenants)};
    CheckAgainstSerial(model_, options_, tenants_, scores_, sample, failures);
  }

 private:
  // Round-robin submission of round `r`, then a drain.
  void RunRound(ServePass* pass, int64_t r) {
    for (int64_t l = r * kFleetBlock; l < (r + 1) * kFleetBlock; ++l) {
      for (size_t t = 0; t < tenants_.streams.size(); ++t) pass->Submit(t, l);
    }
    pass->Drain();
  }

  const uint64_t seed_;
  const int64_t rounds_;
  const serve::StreamServer::Options options_;
  ServeModel model_;
  TenantSet tenants_;
  std::vector<std::vector<float>> scores_;
};

// ---------------------------------------------------------------------------
// churn: Zipf-popular tenants in Pareto bursts (the ReplayLoad schedule from
// serve::BuildLoadPlan), cut after a whole number of drain groups. ReplayLoad
// itself is not used as the generator: it reports server-side latency and
// drains on sample counts, while this generator stamps each block's last
// submit and drains after every kChurnDrainBlocks completed blocks.

class ChurnWorkload : public Workload {
 public:
  ChurnWorkload(uint64_t seed, double seconds)
      : seed_(seed),
        blocks_(kChurnDrainBlocks *
                UnitsFor(seconds, kChurnNominalGroupS, kChurnMinGroups)),
        options_(ServeOptions(seed, kChurnBlock, kChurnContext,
                              kChurnMaxResident, kChurnMaxStashed)) {}

  void Prepare(double* gen_s, double* fit_s) override {
    model_ = FitServeModel(seed_, gen_s, fit_s);
    const Clock::time_point start = Clock::now();
    serve::LoadConfig load;
    load.num_tenants = kChurnTenants;
    // Three times the samples the cut needs, so the schedule always reaches
    // it (partial blocks and bursts spread over many tenants).
    load.total_samples = 3 * blocks_ * kChurnBlock;
    load.seed = seed_;
    load.zipf_exponent = kChurnZipf;
    load.stream.missing_rate = 0.02;
    load.stream.gap_rate = 0.01;
    load.stream.anomaly_rate = 0.05;
    // Place the synthetic channels inside the model's training band so the
    // min-max normalization does not clamp them flat: the clean base is
    // roughly +/-2 in scale, so range / 8 keeps it in the middle half.
    const MinMaxStats& stats = model_.entry->stats;
    for (size_t j = 0; j < stats.min.size(); ++j) {
      load.stream.channel_offset.push_back(0.5f * (stats.min[j] + stats.max[j]));
      load.stream.channel_gain.push_back((stats.max[j] - stats.min[j]) / 8.0f);
    }
    const serve::LoadPlan plan = serve::BuildLoadPlan(load, kServeFeatures);

    // Cut the schedule right after the blocks_-th completed block, then
    // drop every tenant's trailing partial block: each submitted sample then
    // belongs to a scored block.
    std::map<int64_t, int64_t> taken;  // tenant rank -> samples scheduled
    std::vector<serve::LoadPlan::Burst> cut;
    int64_t completed = 0;
    for (const serve::LoadPlan::Burst& burst : plan.schedule) {
      int64_t& n = taken[burst.tenant];
      int64_t length = 0;
      while (length < burst.length && completed < blocks_) {
        ++length;
        if (++n % kChurnBlock == 0) ++completed;
      }
      if (length > 0) cut.push_back({burst.tenant, length});
      if (completed == blocks_) break;
    }
    reached_ = completed;
    std::map<int64_t, int64_t> left;  // tenant rank -> whole-block samples
    for (const auto& [rank, n] : taken) left[rank] = n - n % kChurnBlock;
    schedule_.clear();
    for (serve::LoadPlan::Burst burst : cut) {
      int64_t& budget = left[burst.tenant];
      burst.length = std::min(burst.length, budget);
      budget -= burst.length;
      if (burst.length > 0) schedule_.push_back(burst);
    }

    tenants_ = TenantSet();
    slot_.clear();
    for (const auto& [rank, n] : taken) {
      const int64_t whole = n - n % kChurnBlock;
      if (whole == 0) continue;
      const UglyStream& full = plan.streams.at(rank);
      const int64_t k = full.samples.dim(1);
      slot_[rank] = tenants_.streams.size();
      tenants_.streams.push_back(
          {serve::LoadTenantName(rank),
           Tensor({whole, k}, std::vector<float>(full.samples.data(),
                                                 full.samples.data() + whole * k)),
           std::vector<uint8_t>(full.observed.begin(),
                                full.observed.begin() + whole * k)});
      tenants_.labels.emplace_back(full.labels.begin(),
                                   full.labels.begin() + whole);
    }
    *gen_s += SecondsBetween(start, Clock::now());
  }

  void WarmUp() override {
    // Every drain scores exactly one full chunk, so one capture of that
    // chunk size (and its one-time validation against the layer stack)
    // warms the scoring path for the whole measurement.
    const int64_t w = model_.entry->detector->config().model.window;
    Tensor windows({kChurnDrainBlocks, kServeFeatures, w});
    std::vector<uint64_t> seeds(static_cast<size_t>(kChurnDrainBlocks));
    for (size_t i = 0; i < seeds.size(); ++i) seeds[i] = MixSeed(seed_, i);
    model_.entry->detector->ScoreWindowBatch(windows, seeds);
  }

  void Measure(Measurement* m) override {
    ServePass pass(model_, tenants_, options_);
    if (reached_ != blocks_) {
      m->failures.Add(blocks_ - reached_,
                      "the schedule completed only " + std::to_string(reached_) +
                          " blocks");
    }
    m->BeginTimed();
    pass.StartTiming();
    // A group's samples arrive in bursts spread over many tenants, so the
    // samples submitted between two drains vary; the work does not: every
    // group completes and scores kChurnDrainBlocks blocks.
    std::vector<int64_t> cursor(tenants_.streams.size(), 0);
    int64_t completed = 0;
    Clock::time_point group_start = Clock::now();
    for (const serve::LoadPlan::Burst& burst : schedule_) {
      const size_t t = slot_.at(burst.tenant);
      for (int64_t j = 0; j < burst.length; ++j) {
        if (pass.Submit(t, cursor[t]++) &&
            ++completed % kChurnDrainBlocks == 0) {
          pass.Drain();
          const Clock::time_point now = Clock::now();
          m->unit_rates.push_back(kChurnDrainBlocks * kChurnBlock /
                                  SecondsBetween(group_start, now));
          group_start = now;
        }
      }
    }
    pass.Drain();  // no-op: the schedule ends on a group boundary
    m->EndTimed();
    pass.Finish(m);
    m->fingerprint.emplace_back("fit_loss_fnv", Hex(model_.loss_fnv));
    scores_ = pass.scores();
  }

  void Check(Failures* failures) override {
    // A fixed sample: every n-th active tenant in rank order.
    std::vector<size_t> sample;
    const size_t n = tenants_.streams.size();
    const size_t step = std::max<size_t>(1, n / kChurnCheckTenants);
    for (size_t t = 0; t < n; t += step) sample.push_back(t);
    CheckAgainstSerial(model_, options_, tenants_, scores_, sample, failures);
  }

 private:
  const uint64_t seed_;
  const int64_t blocks_;
  const serve::StreamServer::Options options_;
  ServeModel model_;
  TenantSet tenants_;
  std::map<int64_t, size_t> slot_;  // tenant rank -> index in tenants_
  std::vector<serve::LoadPlan::Burst> schedule_;
  int64_t reached_ = 0;
  std::vector<std::vector<float>> scores_;
};

// ---------------------------------------------------------------------------
// train: Fit during set-up, then PlanWindows / ScoreWindowBatch /
// ReduceWindowScores over the test split once per timed pass.

class TrainWorkload : public Workload {
 public:
  TrainWorkload(uint64_t seed, double seconds)
      : seed_(seed),
        passes_(UnitsFor(seconds, kTrainNominalPassS, kTrainMinPasses)) {}

  void Prepare(double* gen_s, double* fit_s) override {
    const Clock::time_point t0 = Clock::now();
    const MtsDataset d = MakeBenchmarkDataset(BenchmarkId::kSwat, seed_);
    const int64_t k = d.train.dim(1);
    const Tensor fit_rows(
        {kTrainFitRows, k},
        std::vector<float>(d.train.data(), d.train.data() + kTrainFitRows * k));
    const MinMaxStats stats = FitMinMax(fit_rows);
    const Tensor train = ApplyMinMax(fit_rows, stats);
    test_ = ApplyMinMax(d.test, stats);
    labels_ = d.test_labels;
    const Clock::time_point t1 = Clock::now();
    ImDiffusionConfig config = FastImDiffusionConfig();
    config.seed = seed_;
    config.epochs = kTrainEpochs;
    detector_ = std::make_shared<ImDiffusionDetector>(config);
    detector_->Fit(train);
    *gen_s += SecondsBetween(t0, t1);
    *fit_s += SecondsBetween(t1, Clock::now());
    loss_fnv_ = kFnvBasis;
    HashFloats(detector_->train_loss_history(), &loss_fnv_);
  }

  void WarmUp() override {
    // The first scoring call captures the graph for the chunk shape and
    // validates it against the layer stack once.
    const ImDiffusionDetector::WindowPlan plan = detector_->PlanWindows(test_);
    detector_->ScoreWindowBatch(plan.windows, Seeds(plan.starts.size()));
  }

  void Measure(Measurement* m) override {
    m->BeginTimed();
    std::string first_hash;
    for (int64_t p = 0; p < passes_; ++p) {
      const Clock::time_point t0 = Clock::now();
      ImDiffusionDetector::WindowPlan plan = detector_->PlanWindows(test_);
      const Clock::time_point t1 = Clock::now();
      std::vector<uint64_t> seeds = Seeds(plan.starts.size());
      std::vector<ImDiffusionDetector::WindowScore> scores =
          detector_->ScoreWindowBatch(plan.windows, seeds);
      const Clock::time_point t2 = Clock::now();
      const DetectionResult reduced =
          detector_->ReduceWindowScores(scores, plan.starts, plan.length);
      const Clock::time_point t3 = Clock::now();

      m->unit_rates.push_back(static_cast<double>(test_.dim(0)) /
                              SecondsBetween(t0, t3));
      // Every window of the pass is ready when the batch call returns.
      m->latencies_ms.insert(m->latencies_ms.end(), plan.starts.size(),
                             1e3 * SecondsBetween(t0, t3));
      m->spans["core.plan_s"] += SecondsBetween(t0, t1);
      m->spans["core.score_s"] += SecondsBetween(t1, t2);
      m->spans["core.reduce_s"] += SecondsBetween(t2, t3);

      uint64_t hash = kFnvBasis;
      HashFloats(reduced.scores, &hash);
      for (const ImDiffusionDetector::WindowScore& w : scores) {
        for (const std::vector<float>& step : w.step_errors) {
          HashFloats(step, &hash);
        }
      }
      if (p == 0) {
        first_hash = Hex(hash);
        // ADD counts an alarm once its window's scores are out.
        m->quality = ScoreQuality(reduced.scores, labels_,
                                  detector_->config().model.window);
        plan_ = std::move(plan);
        seeds_ = std::move(seeds);
        scores_ = std::move(scores);
      } else if (Hex(hash) != first_hash) {
        m->failures.Add(1, "unsteady: pass " + std::to_string(p) +
                               " did not repeat the first pass's scores");
      }
    }
    m->EndTimed();
    m->attempted = passes_ * static_cast<int64_t>(plan_.starts.size());
    m->fingerprint.emplace_back("fit_loss_fnv", Hex(loss_fnv_));
    m->fingerprint.emplace_back("scores_fnv", first_hash);
  }

  void Check(Failures* failures) override {
    // Windows scored one per call must equal the batched chunk bitwise.
    const int64_t n = static_cast<int64_t>(plan_.starts.size());
    const int64_t per_window = plan_.windows.numel() / n;
    for (int64_t i = 0; i < n;
         i += std::max<int64_t>(1, n / kTrainCheckWindows)) {
      Tensor one = Tensor::Uninitialized(
          {1, plan_.windows.dim(1), plan_.windows.dim(2)});
      std::copy_n(plan_.windows.data() + i * per_window, per_window,
                  one.mutable_data());
      const std::vector<ImDiffusionDetector::WindowScore> alone =
          detector_->ScoreWindowBatch(one, {seeds_[static_cast<size_t>(i)]});
      if (alone[0].step_errors !=
          scores_[static_cast<size_t>(i)].step_errors) {
        failures->Add(1, "window " + std::to_string(i) +
                             " scored alone differs bitwise from its batched "
                             "score");
      }
    }
  }

 private:
  std::vector<uint64_t> Seeds(size_t n) const {
    std::vector<uint64_t> seeds(n);
    for (size_t i = 0; i < n; ++i) seeds[i] = MixSeed(seed_, i);
    return seeds;
  }

  const uint64_t seed_;
  const int64_t passes_;
  Tensor test_;
  std::vector<uint8_t> labels_;
  std::shared_ptr<ImDiffusionDetector> detector_;
  uint64_t loss_fnv_ = 0;
  ImDiffusionDetector::WindowPlan plan_;
  std::vector<uint64_t> seeds_;
  std::vector<ImDiffusionDetector::WindowScore> scores_;
};

// ---------------------------------------------------------------------------
// Run and report.

struct RunReport {
  std::map<std::string, double> e2e;
  std::vector<std::pair<std::string, std::string>> fingerprint;
  std::map<std::string, double> spans;
  Quality quality;
  Failures failures;
  int64_t attempted = 0;
  int64_t units = 0;
  double timed_s = 0.0;
  double check_s = 0.0;  // bitwise reference check, outside the timed region
  std::vector<double> unit_rates;
  int64_t latency_samples = 0;
  // Traced run only.
  double traced_points_per_s = 0.0;
  std::string setup_registry_before;
  std::string setup_registry_after;
  std::string registry_before;
  std::string registry_after;
};

double PointsPerSecond(const Measurement& m) { return Median(m.unit_rates); }

void Absorb(const Measurement& m, RunReport* report) {
  report->attempted += m.attempted;
  report->failures.failed += m.failures.failed;
  report->failures.lines.insert(report->failures.lines.end(),
                                m.failures.lines.begin(),
                                m.failures.lines.end());
}

RunReport Run(Workload* workload, bool trace) {
  RunReport report;
  SetMetricsEnabled(false);
  std::vector<double> prepare_s, gen_s, fit_s;
  for (int i = 0; i < kSetups; ++i) {
    if (trace && i == kSetups - 1) {
      // The traced run's set-up window: the last set-up, its warm-up and any
      // untimed set-up inside the first measurement.
      SetMetricsEnabled(true);
      report.setup_registry_before = MetricsToJson();
    }
    double gen = 0.0, fit = 0.0;
    const Clock::time_point start = Clock::now();
    workload->Prepare(&gen, &fit);
    prepare_s.push_back(SecondsBetween(start, Clock::now()));
    gen_s.push_back(gen);
    fit_s.push_back(fit);
  }
  const Clock::time_point warm_start = Clock::now();
  workload->WarmUp();
  const double warm_s = SecondsBetween(warm_start, Clock::now());

  Measurement m(/*traced=*/false,
                trace ? &report.setup_registry_after : nullptr);
  workload->Measure(&m);
  const Clock::time_point check_start = Clock::now();
  workload->Check(&report.failures);
  report.check_s = SecondsBetween(check_start, Clock::now());
  Absorb(m, &report);

  report.e2e["setup_s"] = Median(prepare_s) + warm_s + m.warmup_s;
  report.e2e["fit_s"] = Median(fit_s);
  report.e2e["points_per_s"] = PointsPerSecond(m);
  report.e2e["alert_p50_ms"] = Percentile(m.latencies_ms, 0.5);
  report.e2e["alert_p90_ms"] = Percentile(m.latencies_ms, 0.9);
  report.units = static_cast<int64_t>(m.unit_rates.size());
  report.unit_rates = m.unit_rates;
  report.timed_s = m.timed_s;
  report.latency_samples = static_cast<int64_t>(m.latencies_ms.size());
  report.quality = m.quality;
  report.fingerprint = m.fingerprint;
  report.fingerprint.emplace_back("f1", ExactDouble(m.quality.f1));
  report.fingerprint.emplace_back("r_auc_pr", ExactDouble(m.quality.r_auc_pr));
  report.fingerprint.emplace_back("add_samples", ExactDouble(m.quality.add));
  report.spans = m.spans;

  if (trace) {
    Measurement traced(/*traced=*/true, nullptr);
    workload->Measure(&traced);
    Absorb(traced, &report);
    // The traced measurement repeats the untraced one's exact outputs.
    if (traced.fingerprint != m.fingerprint) {
      report.failures.Add(1, "unsteady: the traced measurement did not "
                             "repeat the untraced fingerprint");
    }
    report.traced_points_per_s = PointsPerSecond(traced);
    report.spans = traced.spans;
    report.registry_before = traced.registry_before;
    report.registry_after = traced.registry_after;
  }
  report.spans["data.gen_s"] = Median(gen_s);

  for (const char* gate : kMustBeZero) {
    const int64_t n = CounterValue(gate);
    if (n != 0) report.failures.Add(n, std::string(gate) + " = " + std::to_string(n));
  }
  report.e2e["peak_rss_mb"] = static_cast<double>(ProcessPeakRssKb()) / 1024.0;
  return report;
}

template <typename Map>
void JsonObject(std::ostringstream& out, const Map& entries, bool quote) {
  out << "{";
  bool first = true;
  for (const auto& [name, v] : entries) {
    out << (first ? "" : ", ") << JsonString(name) << ": ";
    if constexpr (std::is_same_v<std::decay_t<decltype(v)>, std::string>) {
      out << (quote ? JsonString(v) : v);
    } else {
      out << JsonNumber(v);
    }
    first = false;
  }
  out << "}";
}

std::string ToJson(const std::string& workload, uint64_t seed,
                   const RunReport& r) {
  std::ostringstream out;
  out << "{\"workload\": " << JsonString(workload) << ", \"seed\": " << seed
      << ", \"threads\": " << ComputeThreads()
      << ", \"attempted\": " << r.attempted
      << ", \"failed\": " << r.failures.failed << ", \"units\": " << r.units
      << ", \"timed_s\": " << JsonNumber(r.timed_s)
      << ", \"check_s\": " << JsonNumber(r.check_s)
      << ", \"latency_samples\": " << r.latency_samples << ", \"failures\": [";
  for (size_t i = 0; i < r.failures.lines.size(); ++i) {
    out << (i ? ", " : "") << JsonString(r.failures.lines[i]);
  }
  out << "], \"unit_rates\": [";
  for (size_t i = 0; i < r.unit_rates.size(); ++i) {
    out << (i ? ", " : "") << JsonNumber(r.unit_rates[i]);
  }
  out << "], \"e2e\": ";
  JsonObject(out, r.e2e, false);
  out << ", \"quality\": ";
  JsonObject(out, std::map<std::string, double>{{"f1", r.quality.f1},
                                                {"r_auc_pr", r.quality.r_auc_pr},
                                                {"add_samples", r.quality.add}},
             false);
  out << ", \"fingerprint\": ";
  JsonObject(out, r.fingerprint, true);
  out << ", \"spans\": ";
  JsonObject(out, r.spans, false);
  if (!r.registry_after.empty()) {
    out << ", \"traced_points_per_s\": " << JsonNumber(r.traced_points_per_s)
        << ", \"registry\": ";
    JsonObject(out,
               std::map<std::string, std::string>{
                   {"setup_before", r.setup_registry_before},
                   {"setup_after", r.setup_registry_after},
                   {"timed_before", r.registry_before},
                   {"timed_after", r.registry_after}},
               false);
  }
  out << "}";
  std::string s = out.str();
  s.erase(std::remove(s.begin(), s.end(), '\n'), s.end());
  return s;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload {fleet,churn,train} --seed N "
               "--seconds S [--trace 0|1]\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload_name;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  bool have_seed = false;
  if (argc % 2 != 1) return Usage();
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = !value.empty() && value[0] != '-' && *end == '\0';
    } else if (flag == "--seconds") {
      seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(seconds > 0.0)) return Usage();
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage();
      trace = value == "1";
    } else {
      return Usage();
    }
  }
  if (!have_seed || seconds <= 0.0) return Usage();
  std::unique_ptr<Workload> workload;
  if (workload_name == "fleet") {
    workload = std::make_unique<FleetWorkload>(seed, seconds);
  } else if (workload_name == "churn") {
    workload = std::make_unique<ChurnWorkload>(seed, seconds);
  } else if (workload_name == "train") {
    workload = std::make_unique<TrainWorkload>(seed, seconds);
  } else {
    return Usage();
  }
  const RunReport report = Run(workload.get(), trace);
  std::printf("%s\n", ToJson(workload_name, seed, report).c_str());
  return 0;
}

}  // namespace
}  // namespace imdiff

int main(int argc, char** argv) { return imdiff::Main(argc, argv); }
